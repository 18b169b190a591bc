// End-to-end simulator throughput (google-benchmark): how many simulated
// seconds / scheduled jobs per wall-clock second the stack sustains for the
// main schedulers.
//
// Emitting the machine-readable trajectory (see docs/BENCHMARKS.md), one
// command line (no trailing backslashes: -Wcomment, an error under -Werror):
//
//   bench_simulation --benchmark_repetitions=5
//     --benchmark_report_aggregates_only=true
//     --benchmark_format=json --benchmark_out=BENCH_simulation.json
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

// Stamp the *project's* build type into the JSON context.  The
// `library_build_type` field describes how the installed google-benchmark
// library was compiled, not this binary, so tools/bench_compare.py gates on
// this key instead (debug-built numbers must never become baselines).
const bool ge_build_type_registered = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("ge_build_type", "release");
#else
  benchmark::AddCustomContext("ge_build_type", "debug");
#endif
  return true;
}();

ge::exp::ExperimentConfig bench_config(double rate) {
  ge::exp::ExperimentConfig cfg = ge::exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 5.0;
  cfg.seed = 99;
  return cfg;
}

void run_scheduler(benchmark::State& state, const char* name, double rate) {
  const ge::exp::ExperimentConfig cfg = bench_config(rate);
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse(name), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

void BM_SimulateGE_Light(benchmark::State& state) { run_scheduler(state, "GE", 100.0); }
void BM_SimulateGE_Heavy(benchmark::State& state) { run_scheduler(state, "GE", 220.0); }
void BM_SimulateBE_Heavy(benchmark::State& state) { run_scheduler(state, "BE", 220.0); }
void BM_SimulateFCFS_Heavy(benchmark::State& state) {
  run_scheduler(state, "FCFS", 220.0);
}
// Speed-scaling zoo at heavy load: OA re-solves the YDS staircase on every
// arrival, AVR only maintains density suffix sums, BKP adds the estimator
// re-sampled on the refresh grid -- the spread is the planner cost.
void BM_SimulateOA_Heavy(benchmark::State& state) {
  run_scheduler(state, "OA", 220.0);
}
void BM_SimulateAVR_Heavy(benchmark::State& state) {
  run_scheduler(state, "AVR", 220.0);
}
void BM_SimulateBKP_Heavy(benchmark::State& state) {
  run_scheduler(state, "BKP", 220.0);
}
void BM_SimulateGE_Discrete(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(180.0);
  cfg.discrete_speeds = true;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace));
  }
}

// Telemetry hooks armed (metrics + trace buffer): the overhead the
// observability layer adds to a heavy GE run.
void BM_SimulateGE_Telemetry(benchmark::State& state) {
  const ge::exp::ExperimentConfig cfg = bench_config(220.0);
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  for (auto _ : state) {
    ge::obs::RunTelemetry telemetry;
    benchmark::DoNotOptimize(ge::exp::run_simulation(
        cfg, ge::exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry));
  }
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// Cluster run: 4 servers behind JSQ dispatch at the same per-server load as
// the heavy single-server case -- the dispatch tier plus the 4x event
// volume is the cost over BM_SimulateGE_Heavy.
void BM_SimulateGE_Cluster4(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(4.0 * 220.0);
  cfg.num_servers = 4;
  cfg.dispatch = ge::cluster::DispatchPolicy::kJsq;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// 8-server heavy-load fleet behind round-robin dispatch, serial event loop
// vs the 4-shard parallel loop (--shards; docs/DESIGN.md, "Sharded parallel
// DES").  Results are bit-identical; the row pair measures what the shard
// machinery costs (single-core hosts) or saves (multicore hosts).
void run_cluster8(benchmark::State& state, std::size_t shards) {
  ge::exp::ExperimentConfig cfg = bench_config(8.0 * 220.0);
  cfg.num_servers = 8;
  cfg.dispatch = ge::cluster::DispatchPolicy::kRoundRobin;
  cfg.shards = shards;
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace);
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}
void BM_SimulateGE_Cluster8_Shards1(benchmark::State& state) {
  run_cluster8(state, 1);
}
void BM_SimulateGE_Cluster8_Shards4(benchmark::State& state) {
  run_cluster8(state, 4);
}

// Reclaim advisor over the realised trace of a single-server GE run at
// 220 req/s, range(0) sim-s long: the per-core re-speeds plus the pooled
// fleet bound, as the --report path runs them.  The simulation, the trace
// capture and analyze_task happen once, outside the timed loop; the rows
// at 15/30/60 sim-s show how the advisor grows with trace length.
void BM_Reclaim(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(220.0);
  cfg.duration = static_cast<double>(state.range(0));
  const ge::exp::SchedulerSpec spec = ge::exp::SchedulerSpec::parse("GE");
  const ge::workload::Trace trace =
      ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  ge::obs::RunTelemetry telemetry;
  telemetry.want_trace = true;
  ge::exp::run_simulation(cfg, spec, trace, nullptr, &telemetry);

  ge::obs::analysis::TaskInput input;
  input.info.scheduler = "GE";
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = cfg.power_budget;
  input.buffer = &telemetry.trace;
  input.fallback_model = cfg.power_model();
  const ge::obs::analysis::TaskAnalysis analysis =
      ge::obs::analysis::analyze_task(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ge::obs::analysis::analyze_reclaim(input, analysis));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(analysis.jobs.size()));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// Streaming replay of the heavy GE case: generation, release, retirement
// and accounting all happen inside the run (no materialised trace), which
// is the 10^6+-job path.  Compare against BM_SimulateGE_Heavy for the cost
// (or saving) of the arena pipeline; results are bit-identical.
void BM_SimulateGE_Stream(benchmark::State& state) {
  ge::exp::ExperimentConfig cfg = bench_config(220.0);
  cfg.stream = true;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const ge::exp::RunResult r =
        ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"));
    jobs += r.released;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["sim_seconds_per_iter"] = cfg.duration;
}

// Fig. 3-style comparison: GE/BE/FCFS across three load points through the
// experiment engine, the shape every figure binary runs.
void BM_SimulateFig03Sweep(benchmark::State& state) {
  const double rates[] = {100.0, 180.0, 220.0};
  const char* schedulers[] = {"GE", "BE", "FCFS"};
  ge::exp::ExperimentPlan plan;
  std::size_t point = 0;
  for (double rate : rates) {
    ge::exp::ExperimentConfig cfg = bench_config(rate);
    cfg.duration = 2.0;
    for (const char* name : schedulers) {
      plan.add(cfg, ge::exp::SchedulerSpec::parse(name), point);
    }
    ++point;
  }
  const ge::exp::ExperimentEngine engine(ge::exp::ExecutionOptions{1, false, {}});
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    const std::vector<ge::exp::RunResult> results = engine.run(plan);
    for (const ge::exp::RunResult& r : results) {
      jobs += r.released;
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
}

// The post-mortem text path on one traced run: a single-server GE run at
// 220 req/s for 10 sim-s (~45 000 trace events, ~5 MB of JSONL), simulated
// once per process outside every timed loop.  Each row times one layer:
// trace rendering (JSONL, Chrome), parsing the JSONL file back, the report
// directory (ReportWriter::add_task + write_directory) and the dashboard.
// Files go to a scratch directory under the system temp dir.
struct PostMortemFixture {
  ge::obs::RunTelemetry telemetry;
  ge::obs::analysis::TaskInput input;
  std::filesystem::path dir;
  std::filesystem::path jsonl;

  PostMortemFixture() {
    ge::exp::ExperimentConfig cfg = bench_config(220.0);
    cfg.duration = 10.0;
    const ge::workload::Trace trace =
        ge::workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    telemetry.want_trace = true;
    ge::exp::run_simulation(cfg, ge::exp::SchedulerSpec::parse("GE"), trace,
                            nullptr, &telemetry);
    input.info.scheduler = "GE";
    input.info.arrival_rate = cfg.arrival_rate;
    input.info.cores = cfg.cores;
    input.info.power_budget = cfg.power_budget;
    input.info.power_model_json = cfg.power_model().describe_json();
    input.buffer = &telemetry.trace;
    input.fallback_model = cfg.power_model();
    dir = std::filesystem::temp_directory_path() / "ge_bench_post_mortem";
    std::filesystem::create_directories(dir);
    jsonl = dir / "trace.jsonl";
    std::ofstream out(jsonl, std::ios::binary);
    write_trace(out, ge::obs::TraceFormat::kJsonl);
  }

  void write_trace(std::ostream& out, ge::obs::TraceFormat format) const {
    ge::obs::TraceWriter writer(out, format);
    writer.append_task(input.info, telemetry.trace);
    writer.close();
  }

  static const PostMortemFixture& get() {
    static const PostMortemFixture fixture;
    return fixture;
  }
};

void trace_write(benchmark::State& state, ge::obs::TraceFormat format) {
  const PostMortemFixture& f = PostMortemFixture::get();
  const std::filesystem::path path = f.dir / "bench_trace.out";
  for (auto _ : state) {
    std::ofstream out(path, std::ios::binary);
    f.write_trace(out, format);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.telemetry.trace.size()));
}
void BM_TraceWriteJsonl(benchmark::State& state) {
  trace_write(state, ge::obs::TraceFormat::kJsonl);
}
void BM_TraceWriteChrome(benchmark::State& state) {
  trace_write(state, ge::obs::TraceFormat::kChrome);
}

void BM_TraceReadJsonl(benchmark::State& state) {
  const PostMortemFixture& f = PostMortemFixture::get();
  for (auto _ : state) {
    std::ifstream in(f.jsonl, std::ios::binary);
    benchmark::DoNotOptimize(ge::obs::analysis::read_trace_jsonl(in));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.telemetry.trace.size()));
}

void BM_ReportWrite(benchmark::State& state) {
  const PostMortemFixture& f = PostMortemFixture::get();
  for (auto _ : state) {
    ge::obs::analysis::ReportWriter writer;
    writer.add_task(f.input);
    writer.write_directory((f.dir / "report").string());
  }
}

void BM_Dashboard(benchmark::State& state) {
  const PostMortemFixture& f = PostMortemFixture::get();
  const std::vector<ge::obs::analysis::TaskInput> inputs{f.input};
  for (auto _ : state) {
    std::ofstream out(f.dir / "dashboard.html", std::ios::binary);
    ge::obs::analysis::write_dashboard(out, inputs, {});
  }
}

BENCHMARK(BM_SimulateGE_Light)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateBE_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateFCFS_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateOA_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateAVR_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateBKP_Heavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Discrete)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Telemetry)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateGE_Cluster4)->Unit(benchmark::kMillisecond);
// items_per_second must count wall time: with --shards 4 the main thread
// mostly waits on the shard workers, so its CPU time undercounts the run.
BENCHMARK(BM_SimulateGE_Cluster8_Shards1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_SimulateGE_Cluster8_Shards4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_SimulateGE_Stream)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateFig03Sweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Reclaim)->Arg(15)->Arg(30)->Arg(60)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceWriteJsonl)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceWriteChrome)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceReadJsonl)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReportWrite)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dashboard)->Unit(benchmark::kMillisecond);

}  // namespace
