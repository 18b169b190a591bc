// ge_perfbench: runs one benchmark workload for a fixed host time and prints
// its metrics.  perfbench/run.py builds and drives it; see perfbench/README.md.
//
//   ge_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--workdir DIR]
//
// --trace 0 times untraced runs and prints the end-to-end metrics; --trace 1
// pairs each untraced run with a profiled one and prints the per-layer
// metrics.  The last stdout line is the JSON result; everything before it is
// a human-readable table.  Exit codes: 0 ok, 2 bad arguments, 3 not a
// Release build, 4 the workload could not be set up.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.h"
#include "gate.h"
#include "obs/analysis/analysis.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir = ".bench_build/run";
};

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

bool parse_args(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "expected --flag value pairs, got '" + flag + "'";
      return false;
    }
    values[flag.substr(2)] = argv[i + 1];
  }
  double number = 0.0;
  for (const auto& [flag, value] : values) {
    if (flag == "workload") {
      args->workload = value;
    } else if (flag == "workdir") {
      args->workdir = value;
    } else if (!parse_number(value, &number)) {
      *error = "--" + flag + " needs a number, got '" + value + "'";
      return false;
    } else if (flag == "seed" && number >= 0 && number == static_cast<double>(
                                                    static_cast<std::uint64_t>(number))) {
      args->seed = static_cast<std::uint64_t>(number);
    } else if (flag == "seconds" && number > 0.0 && number <= 600.0) {
      args->seconds = number;
    } else if (flag == "trace" && (number == 0.0 || number == 1.0)) {
      args->trace = static_cast<int>(number);
    } else {
      *error = "unknown flag or out-of-range value: --" + flag + " " + value;
      return false;
    }
  }
  if (args->workload.empty() || !values.count("seed") || args->seconds <= 0.0 ||
      args->trace < 0) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_samples(const char* name, const std::vector<double>& samples,
                   const char* unit) {
  const Quartiles q = quartiles(samples);
  std::printf("  %-28s median %.6g  q1 %.6g  q3 %.6g  n=%zu %s\n", name,
              median(samples), q.q1, q.q3, samples.size(), unit);
}

// Every counter and gauge a run recorded, read back by name.
ge::obs::analysis::MetricsValues read_metrics(const SimRun& run) {
  std::stringstream json;
  run.telemetry->metrics.write_json(json);
  return ge::obs::analysis::read_metrics_json(json);
}

// Checks a run's result: outcome conservation, and bit-identity with the
// first run of the same inputs (which becomes `reference`).
void check_run(const ge::exp::RunResult& result,
               std::optional<ge::exp::RunResult>& reference, Failures& f) {
  append(f, check_outcome(result));
  if (!reference) {
    reference = result;
  }
  append(f, check_same_result(*reference, result, "same-seed rerun"));
}

// The post-mortem chain on a run that captured its trace, checked: the
// watchdog's verdict, the report's analysis against the in-memory analysis
// of the first such run, and the reclaim chain.
PostMortem checked_post_mortem(
    const Workload& w, const Inputs& inputs, const SimRun& run,
    const Args& args, bool split_analysis,
    std::optional<ge::obs::analysis::TaskAnalysis>& reference, Failures& f) {
  append(f, check_watchdog(read_metrics(run)));
  if (!reference) {
    reference = ge::obs::analysis::analyze_task(in_memory_input(inputs, run));
  }
  PostMortem pm = post_mortem(w, inputs, run, args.workdir, split_analysis);
  append(f, check_post_mortem(*reference, pm.analysis));
  append(f, check_reclaim_chain(pm.reclaim));
  return pm;
}

// The post-mortem passes over the slice of a workload that writes no trace
// of its own.  The slice's inputs are made on construction, outside every
// timed set-up.
class SlicePasses {
 public:
  SlicePasses(const Workload& w, const Args& args, bool split_analysis)
      : slice_(post_mortem_slice(w)),
        inputs_(prepare(slice_)),
        args_(args),
        split_analysis_(split_analysis) {}

  // One checked pass, recorded in `tally`; nothing when it threw.
  std::optional<PostMortem> pass(Tally& tally) {
    std::optional<PostMortem> pm;
    attempt(tally, [&](Failures& f) {
      const SimRun run = simulate(slice_, inputs_, Telemetry::kWorkload);
      check_run(run.result, reference_, f);
      pm = checked_post_mortem(slice_, inputs_, run, args_, split_analysis_,
                               analysis_, f);
    });
    return pm;
  }

 private:
  Workload slice_;
  Inputs inputs_;
  const Args& args_;
  bool split_analysis_;
  std::optional<ge::exp::RunResult> reference_;
  std::optional<ge::obs::analysis::TaskAnalysis> analysis_;
};

// Share of the measuring window that goes to slice passes.
constexpr double kSliceShare = 0.3;

// Calls `run` until `seconds` have passed.  With `slice_pass`, interleaves
// the two so that slice passes take about kSliceShare of the window, spread
// over all of it: both sets of samples then see the same host.
void measure(double seconds, const std::function<void()>& run,
             const std::function<void()>& slice_pass) {
  const Clock::time_point start = Clock::now();
  double slice_s = 0.0;
  do {
    if (slice_pass && slice_s < kSliceShare * since(start)) {
      const Clock::time_point t = Clock::now();
      slice_pass();
      slice_s += since(t);
    } else {
      run();
    }
  } while (since(start) < seconds);
}

// The element whose key is the (lower) median: per-layer numbers are taken
// from one representative sample so that its parts still add up.
template <typename T, typename Key>
const T& median_by(const std::vector<T>& items, Key key) {
  std::vector<const T*> order;
  for (const T& item : items) {
    order.push_back(&item);
  }
  std::sort(order.begin(), order.end(),
            [&key](const T* a, const T* b) { return key(*a) < key(*b); });
  return *order.at((order.size() - 1) / 2);
}

// --trace 0: untraced runs of the workload, as a user would run it.  Each
// host-time metric is the median over its window divided by the median host
// slowdown read during that window (stats.h).
std::vector<Metric> end_to_end(const Workload& w, const Args& args, Tally& tally) {
  Inputs inputs;
  std::vector<double> setup_slowdowns;
  // Free the previous inputs before the next set-up so the peak RSS holds
  // one set of them, as a single set-up would.
  const std::vector<double> setup_s = per_call_s(
      [&] {
        inputs = Inputs{};
        inputs = prepare(w);
      },
      2.0, 0.05, 5, &setup_slowdowns);

  // One run, its checks and, when `timed`, its samples.  The first run is a
  // warm-up (caches, allocator) and the reference the others must
  // reproduce; its times are not used.
  std::optional<ge::exp::RunResult> reference;
  std::optional<ge::obs::analysis::TaskAnalysis> reference_analysis;
  std::vector<double> jobs_per_s;
  std::vector<double> report_s;
  std::vector<double> slowdowns;
  std::vector<double> report_slowdowns;
  auto one_run = [&](bool timed) {
    attempt(tally, [&](Failures& f) {
      const SimRun run = simulate(w, inputs, Telemetry::kWorkload);
      check_run(run.result, reference, f);
      if (w.post_mortem) {
        const PostMortem pm = checked_post_mortem(w, inputs, run, args, false,
                                                  reference_analysis, f);
        if (timed) {
          report_s.push_back(pm.total_s);
          report_slowdowns.push_back(host_slowdown(Work::kText));
        }
      }
      if (timed) {
        jobs_per_s.push_back(static_cast<double>(run.result.released) / run.call_s);
        slowdowns.push_back(host_slowdown());
      }
    });
  };
  one_run(false);
  // The high-water mark of one run (and its post-mortem), before any slice
  // exists.
  const double rss_mib = peak_rss_mib();

  std::optional<SlicePasses> slice;
  std::function<void()> slice_pass;
  if (!w.post_mortem) {
    slice.emplace(w, args, false);
    slice->pass(tally);  // warm-up
    slice_pass = [&] {
      if (const std::optional<PostMortem> pm = slice->pass(tally)) {
        report_s.push_back(pm->total_s);
        report_slowdowns.push_back(host_slowdown(Work::kText));
      }
    };
  }
  measure(args.seconds, [&] { one_run(true); }, slice_pass);

  std::printf("samples (host times, before dividing by the host slowdown)\n");
  print_samples("host slowdown, runs", slowdowns, "x");
  print_samples("jobs_per_s", jobs_per_s, "1/s");
  print_samples("host slowdown, set-up", setup_slowdowns, "x");
  print_samples("setup_s", setup_s, "s");
  print_samples("host slowdown, report", report_slowdowns, "x");
  print_samples("report_s", report_s, "s");
  return {
      {"jobs_per_s", median(jobs_per_s) * median(slowdowns), "1/s"},
      {"setup_s", median(setup_s) / median(setup_slowdowns), "s"},
      {"report_s", median(report_s) / median(report_slowdowns), "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"quality", reference->quality, "ratio"},
      {"energy_j", reference->energy, "J"},
      {"mean_response_ms", reference->mean_response_ms, "ms"},
  };
}

// One untraced + profiled pair, for --trace 1.
struct LayerSample {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  ge::obs::analysis::MetricsValues counters;  // of the profiled run
  double server_load_cov = 0.0;
};

// --trace 1: per-layer numbers from profiled runs, each paired with an
// untraced one (the difference is the tracing overhead).
std::vector<Metric> per_layer(const Workload& w, const Args& args, Tally& tally) {
  const Inputs inputs = prepare(w);
  double generated_jobs = 0.0;
  const double generate_s = median(per_call_s(
      [&] {
        generated_jobs = static_cast<double>(
            ge::workload::Trace::generate(inputs.config.workload_spec(),
                                          inputs.config.duration)
                .size());
      },
      0.5, 1e-3, 3, nullptr));

  std::optional<ge::exp::RunResult> reference;
  std::optional<ge::obs::analysis::TaskAnalysis> reference_analysis;
  std::vector<LayerSample> samples;
  std::vector<PostMortem> passes;
  auto one_pair = [&] {
    attempt(tally, [&](Failures& f) {
      const SimRun untraced = simulate(w, inputs, Telemetry::kOff);
      const SimRun traced = simulate(w, inputs, Telemetry::kProfiled);
      check_run(untraced.result, reference, f);
      append(f, check_same_result(untraced.result, traced.result,
                                  "traced vs untraced"));
      LayerSample s{untraced.call_s, traced.call_s, read_metrics(traced),
                    traced.result.server_load_cov};
      append(f, check_span_tiling(s.counters.get("prof.sim_run_ns", 0.0),
                                  s.counters.get("prof.ge_round_ns", -1.0)));
      if (w.post_mortem) {
        passes.push_back(checked_post_mortem(w, inputs, traced, args, true,
                                             reference_analysis, f));
      }
      samples.push_back(std::move(s));
    });
  };
  std::optional<SlicePasses> slice;
  std::function<void()> slice_pass;
  if (!w.post_mortem) {
    slice.emplace(w, args, true);
    slice_pass = [&] {
      if (std::optional<PostMortem> pm = slice->pass(tally)) {
        passes.push_back(std::move(*pm));
      }
    };
  }
  measure(args.seconds, one_pair, slice_pass);

  // The simulator's numbers come from one representative pair -- the one
  // with the median profiled call time -- so the spans still tile the loop
  // and every ratio keeps its own base.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (const LayerSample& s : samples) {
    traced_s.push_back(s.traced_s);
    untraced_s.push_back(s.untraced_s);
  }
  const LayerSample* s =
      &median_by(samples, [](const LayerSample& x) { return x.traced_s; });
  auto c = [s](const char* name) { return s->counters.get(name, 0.0); };
  const PostMortem& pm =
      median_by(passes, [](const PostMortem& x) { return x.total_s; });

  const double loop_ns = c("prof.sim_run_ns");
  const double round_ns = c("prof.ge_round_ns");
  const double rounds = c("ge.rounds");
  const double plans = c("ge.plan_recomputations");
  const double edf_checks = c("ge.edf_skips") + c("ge.edf_rebuilds");

  std::printf("samples\n");
  print_samples("traced call", traced_s, "s");
  print_samples("untraced call", untraced_s, "s");
  std::vector<double> pm_totals;
  for (const PostMortem& p : passes) {
    pm_totals.push_back(p.total_s);
  }
  print_samples("post-mortem", pm_totals, "s");
  return {
      {"workload.generate_s", generate_s, "s"},
      {"workload.jobs", generated_jobs, "count"},
      {"sim.loop_s", loop_ns * 1e-9, "s"},
      {"sim.events", c("sim.events_executed"), "count"},
      {"sim.ns_per_event", ratio(loop_ns, c("sim.events_executed")), "ns"},
      {"sim.peak_pending_events", c("sim.peak_pending_events"), "count"},
      {"sim.other_s", (loop_ns - round_ns) * 1e-9, "s"},
      {"core.ge_round_s", round_ns * 1e-9, "s"},
      {"core.rounds", rounds, "count"},
      {"core.round_us", ratio(round_ns * 1e-3, rounds), "us"},
      {"core.cut_s", c("prof.cut_ns") * 1e-9, "s"},
      {"core.edf_checks", edf_checks, "count"},
      {"core.edf_skip_ratio", ratio(c("ge.edf_skips"), edf_checks), "ratio"},
      {"power.dist_s", c("prof.power_dist_ns") * 1e-9, "s"},
      {"opt.plan_s", c("prof.plan_ns") * 1e-9, "s"},
      {"opt.plan_recomputations", plans, "count"},
      {"opt.quality_opt_trims", c("ge.quality_opt_trims"), "count"},
      {"opt.trim_ratio", ratio(c("ge.quality_opt_trims"), plans), "ratio"},
      {"opt.plan_us", ratio(c("prof.plan_ns") * 1e-3, plans), "us"},
      {"cluster.server_load_cov", s->server_load_cov, "ratio"},
      {"exp.prologue_s", s->traced_s - loop_ns * 1e-9, "s"},
      {"obs.trace_events", pm.trace_events, "count"},
      {"obs.trace_overhead_s", median(traced_s) - median(untraced_s), "s"},
      {"obs.trace_write_s", pm.trace_write_s, "s"},
      {"obs.trace_bytes", pm.trace_bytes, "bytes"},
      {"analysis.trace_read_s", pm.trace_read_s, "s"},
      {"analysis.analyze_s", pm.analyze_s, "s"},
      {"analysis.reclaim_s", pm.reclaim_s, "s"},
      {"analysis.report_write_s", pm.report_write_s, "s"},
      {"analysis.dashboard_s", pm.dashboard_s, "s"},
      {"analysis.exec_slices", pm.exec_slices, "count"},
  };
}

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::cerr << "ge_perfbench: " << error
              << "\nusage: ge_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n";
    return 2;
  }
  if (!release_build()) {
    std::cerr << "ge_perfbench: refusing to measure a non-Release build ("
              << PERFBENCH_BUILD_TYPE << "); configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  Workload workload;
  try {
    workload = make_workload(args.workload, args.seed);
    std::filesystem::create_directories(args.workdir);
  } catch (const std::exception& e) {
    std::cerr << "ge_perfbench: " << e.what() << "\n";
    return 4;
  }

  Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace == 0 ? end_to_end(workload, args, tally)
                              : per_layer(workload, args, tally);
  } catch (const std::exception& e) {
    std::cerr << "ge_perfbench: " << e.what() << "\n";
    return 4;
  }
  std::printf("workload %s seed %llu: %zu run(s), %zu failed, error_rate %.6g\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              tally.attempted, tally.failed,
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)));
  print_table(args.trace == 0 ? "end-to-end" : "per-layer", metrics);
  std::fflush(stdout);
  write_result_line(std::cout, tally.attempted, tally.failed, metrics);
  return 0;
}
