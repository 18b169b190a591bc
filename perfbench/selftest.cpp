// Self-tests of the benchmark: metric derivation (median, quartiles, ratio
// bases, the result line) and the correctness gate, including doctored
// results and a broken reclaim chain counting as failed runs.
//
//   perfbench_selftest [--workdir DIR]    (exit 0 = all passed)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "gate.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

// Reference values from Python: statistics.quantiles(values, n=4) and
// statistics.median(values).
void test_quartiles() {
  struct Case {
    std::vector<double> values;
    double q1, med, q3;
  };
  const Case cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3.5, 1.0}, 0.375, 2.25, 4.125},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{0.9, 1.3, 1.1, 1.7}, 0.9500000000000001, 1.2000000000000002,
       1.5999999999999999},
  };
  for (const Case& c : cases) {
    const Quartiles q = quartiles(c.values);
    expect(near(q.q1, c.q1) && near(q.q3, c.q3), "quartiles match Python");
    expect(near(median(c.values), c.med), "median matches Python");
  }
  const Quartiles one = quartiles({4.0});
  expect(one.q1 == 4.0 && one.q3 == 4.0, "one sample: q1 == q3 == sample");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");
}

void test_ratios_and_line() {
  expect(ratio(3.0, 4.0) == 0.75, "ratio is part / base");
  expect(ratio(3.0, 0.0) == 0.0, "ratio over an empty base is 0");

  std::ostringstream out;
  write_result_line(out, 7, 1, {{"jobs_per_s", 1234.5, "1/s"}, {"setup_s", 0.25, "s"}});
  expect(out.str() ==
             "{\"correct\": false, \"attempted\": 7, \"failed\": 1, \"metrics\": "
             "{\"jobs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, "
             "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}\n",
         "result line format: " + out.str());
  std::ostringstream ok;
  write_result_line(ok, 1, 0, {});
  expect(ok.str().rfind("{\"correct\": true,", 0) == 0, "no failure -> correct");

  // Batches long enough to time give plausible per-call times.
  long calls = 0;
  const std::vector<double> raw =
      per_call_s([&] { ++calls; }, 0.01, 1e-4, 3, nullptr);
  expect(raw.size() >= 3 && median(raw) > 0.0 && median(raw) < 1e-3 && calls > 3,
         "per_call_s times batches");
  std::vector<double> slowdowns;
  const std::vector<double> read =
      per_call_s([&] { ++calls; }, 0.0, 1e-4, 2, &slowdowns);
  expect(read.size() == 2 && slowdowns.size() == 2,
         "one slowdown reading per batch");
  expect(slowdowns[0] > 0.05 && slowdowns[0] < 20.0, "host slowdown is plausible");
}

void test_gate_units() {
  ge::exp::RunResult r;
  r.released = 10;
  r.completed = 6;
  r.partial = 3;
  r.dropped = 1;
  r.quality = 0.9;
  r.energy = 5.0;
  expect(check_outcome(r).empty(), "consistent outcome passes");
  ge::exp::RunResult lost = r;
  lost.dropped = 0;
  expect(!check_outcome(lost).empty(), "a lost job fails conservation");
  ge::exp::RunResult bad_q = r;
  bad_q.quality = 1.5;
  expect(!check_outcome(bad_q).empty(), "quality above 1 fails");

  ge::exp::RunResult ulp = r;
  ulp.energy = std::nextafter(r.energy, 10.0);
  expect(check_same_result(r, r, "x").empty(), "a result equals itself");
  expect(check_same_result(r, ulp, "x").size() == 1, "one ulp of energy differs");
  ge::exp::RunResult tenant = r;
  tenant.tenants.resize(1);
  expect(!check_same_result(r, tenant, "x").empty(), "tenant slices compared");

  ge::obs::analysis::ReclaimAnalysis chain;
  chain.offline_j = 1.0;
  chain.cont_j = 2.0;
  chain.disc_j = 3.0;
  chain.realized_j = 4.0;
  expect(check_reclaim_chain(chain).empty(), "ordered chain passes");
  ge::obs::analysis::ReclaimAnalysis broken = chain;
  broken.offline_j = 2.5;
  expect(!check_reclaim_chain(broken).empty(), "offline above continuous fails");
  broken = chain;
  broken.cont_j = 3.5;
  expect(!check_reclaim_chain(broken).empty(), "continuous above ladder fails");
  broken = chain;
  broken.disc_j = 4.5;
  expect(!check_reclaim_chain(broken).empty(), "ladder above realised fails");

  expect(check_span_tiling(100.0, 60.0).empty(), "round inside loop tiles");
  expect(!check_span_tiling(100.0, 160.0).empty(), "round longer than loop fails");
  expect(!check_span_tiling(0.0, 0.0).empty(), "empty loop fails");

  ge::obs::analysis::MetricsValues watchdog;
  watchdog.values = {{"watchdog.checks", 12.0}, {"watchdog.violations", 0.0}};
  expect(check_watchdog(watchdog).empty(), "clean watchdog passes");
  watchdog.values[1].second = 1.0;
  expect(!check_watchdog(watchdog).empty(), "a watchdog violation fails");
  expect(!check_watchdog({}).empty(), "a watchdog that never ran fails");
}

// A real run through the benchmark's own path, then doctored copies of its
// outputs: each must count as a failed run in the tally.
void test_doctored_run(const std::string& workdir) {
  Workload w = make_workload("trace_report", 7);
  w.config.duration = 3.0;
  const Inputs inputs = prepare(w);
  const SimRun run = simulate(w, inputs, Telemetry::kWorkload);
  const ge::obs::analysis::TaskAnalysis in_memory =
      ge::obs::analysis::analyze_task(in_memory_input(inputs, run));
  const PostMortem pm = post_mortem(w, inputs, run, workdir, true);

  auto gate = [&](const ge::exp::RunResult& result,
                  const ge::obs::analysis::TaskAnalysis& reread,
                  const ge::obs::analysis::ReclaimAnalysis& reclaim) {
    Tally tally;
    attempt(tally, [&](Failures& f) {
      append(f, check_outcome(result));
      append(f, check_same_result(run.result, result, "rerun"));
      append(f, check_post_mortem(in_memory, reread));
      append(f, check_reclaim_chain(reclaim));
    });
    return tally;
  };

  const Tally clean = gate(run.result, pm.analysis, pm.reclaim);
  expect(clean.attempted == 1 && clean.failed == 0, "the real run passes the gate");
  expect(pm.trace_events > 0 && pm.exec_slices > 0 && pm.trace_bytes > 0 &&
             pm.analyze_s > 0 && pm.reclaim_s > 0 && pm.total_s > 0,
         "the post-mortem counts and times every step");

  ge::exp::RunResult doctored = run.result;
  doctored.completed += 1;
  expect(gate(doctored, pm.analysis, pm.reclaim).failed == 1,
         "a doctored RunResult counts as a failed run");
  doctored = run.result;
  doctored.energy *= 1.0 + 1e-15;
  expect(gate(doctored, pm.analysis, pm.reclaim).failed == 1,
         "a RunResult one rounding off the reference counts as failed");

  ge::obs::analysis::ReclaimAnalysis reclaim = pm.reclaim;
  reclaim.offline_j = reclaim.realized_j * 2.0;
  expect(gate(run.result, pm.analysis, reclaim).failed == 1,
         "a broken reclaim chain counts as a failed run");

  ge::obs::analysis::TaskAnalysis reread = pm.analysis;
  reread.completed += 1;
  expect(gate(run.result, reread, pm.reclaim).failed == 1,
         "a re-read analysis that disagrees counts as a failed run");

  Tally thrown;
  attempt(thrown, [](Failures&) { throw std::runtime_error("boom"); });
  expect(thrown.failed == 1, "a run that throws counts as failed");
}

// What each workload runs with: no telemetry on a workload that writes no
// trace, and the in-process post-mortem of a fleet slice passing the gate.
void test_workload_paths(const std::string& workdir) {
  const Workload fleet = make_workload("fleet_stream", 3);
  const Inputs fleet_inputs = prepare(fleet);
  expect(fleet_inputs.trace.size() == 0, "a streamed workload generates no trace");
  const Workload single = make_workload("single_overload", 3);
  Workload short_single = single;
  short_single.config.duration = 1.0;
  expect(simulate(short_single, prepare(short_single), Telemetry::kWorkload)
                 .telemetry == nullptr,
         "a workload that writes no trace runs without telemetry");

  const Workload slice = post_mortem_slice(fleet);
  expect(slice.post_mortem && slice.report_path == ReportPath::kInProcess &&
             !slice.config.stream && slice.config.num_servers == 8,
         "the fleet's slice is a materialised in-process post-mortem");
  const Inputs inputs = prepare(slice);
  expect(inputs.trace.size() > 800 && inputs.trace.size() < 1200,
         "the slice holds about 1 000 jobs");
  const SimRun run = simulate(slice, inputs, Telemetry::kWorkload);
  expect(run.telemetry != nullptr && run.telemetry->trace.size() > 0,
         "the slice captures its trace");
  const PostMortem pm = post_mortem(slice, inputs, run, workdir, true);
  Tally tally;
  attempt(tally, [&](Failures& f) {
    append(f, check_outcome(run.result));
    append(f, check_post_mortem(
                  ge::obs::analysis::analyze_task(in_memory_input(inputs, run)),
                  pm.analysis));
    append(f, check_reclaim_chain(pm.reclaim));
  });
  expect(tally.failed == 0, "the fleet slice's post-mortem passes the gate");
  expect(pm.trace_read_s > 0 && pm.total_s > 0 &&
             pm.total_s == pm.trace_write_s + pm.report_write_s + pm.dashboard_s,
         "in-process: the standalone parse stays outside the total");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir = ".bench_build/selftest";
  if (argc == 3 && std::string(argv[1]) == "--workdir") {
    workdir = argv[2];
  }
  std::filesystem::create_directories(workdir);
  test_quartiles();
  test_ratios_and_line();
  test_gate_units();
  test_doctored_run(workdir);
  test_workload_paths(workdir);
  std::printf("perfbench_selftest: %s (%d failure(s))\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
