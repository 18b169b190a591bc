// Tests for the trace-analytics subsystem (src/obs/analysis): golden report
// rendering, the residency-vs-reported energy identity, the trace-file
// round-trip, the online invariant watchdog, the wall-clock profiler, and
// the report determinism contract (byte-identical for any --jobs value).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "obs/analysis/watchdog.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/trace.h"

namespace ge::obs::analysis {
namespace {

// A fully hand-checkable one-job task: job 1 arrives at 0.25 (demand 150,
// deadline 0.4), is admitted to core 0, runs one slice 0.25 -> 0.35 at
// 1500 units/s, and completes.  With the paper model P = 5 * (s/1000)^2,
// the slice draws 11.25 W for 0.1 s: energy 1.125 J at 1.5 GHz.
TraceBuffer tiny_buffer() {
  TraceBuffer buf;
  TraceEvent ev;
  ev.type = TraceEventType::kArrival;
  ev.t = 0.25;
  ev.job = 1;
  ev.a = 150.0;  // demand
  ev.b = 0.4;    // deadline
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kRound;
  ev.t = 0.25;
  ev.mode = kModeAes;
  ev.a = 1;
  ev.b = 4.0;
  ev.c = 1;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kAssign;
  ev.t = 0.25;
  ev.job = 1;
  ev.core = 0;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kExec;
  ev.t = 0.25;
  ev.t2 = 0.35;
  ev.core = 0;
  ev.job = 1;
  ev.a = 1500.0;  // speed
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCompletion;
  ev.t = 0.35;
  ev.core = 0;
  ev.job = 1;
  ev.a = 150.0;  // executed
  ev.b = 150.0;  // demand
  ev.c = 1.0;    // monitored quality
  buf.push(ev);
  return buf;
}

TraceTaskInfo tiny_info() {
  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "GE";
  info.arrival_rate = 4.0;
  info.cores = 1;
  info.power_budget = 20.0;
  info.power_model_json = "{\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}";
  return info;
}

TEST(Analysis, TinyTaskDerivesTheHandComputedSpans) {
  const TraceBuffer buf = tiny_buffer();
  TaskInput input;
  input.info = tiny_info();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  const double slice_energy =
      power::PowerModel(5.0, 2.0, 1000.0).power(1500.0) * (0.35 - 0.25);
  input.reported_energy_j = slice_energy;

  const TaskAnalysis task = analyze_task(input);
  EXPECT_EQ(task.released, 1u);
  EXPECT_EQ(task.completed, 1u);
  EXPECT_EQ(task.missed, 0u);
  EXPECT_EQ(task.rounds, 1u);
  ASSERT_EQ(task.jobs.size(), 1u);
  const JobSpan& job = task.jobs[0];
  EXPECT_EQ(job.arrival, 0.25);
  EXPECT_EQ(job.assigned, 0.25);
  EXPECT_EQ(job.first_exec, 0.25);
  EXPECT_EQ(job.settled, 0.35);
  EXPECT_EQ(job.core, 0);
  EXPECT_EQ(job.energy_j, slice_energy);
  // One core, one 1.5 GHz bin.
  ASSERT_EQ(task.residency.size(), 1u);
  ASSERT_EQ(task.residency[0].bins.size(), 1u);
  EXPECT_EQ(task.residency[0].bins[0].bin, 7);  // [1.4, 1.6) GHz
  EXPECT_EQ(task.integrated_energy_j, slice_energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  // Single server: everything counts as dispatched to server 0.
  ASSERT_EQ(task.dispatched.size(), 1u);
  EXPECT_EQ(task.dispatched[0], 1u);
}

// The golden strings pin the ge-report-v1 CSV schema byte for byte; any
// change here is a schema change and must bump docs/OBSERVABILITY.md.
TEST(Report, GoldenCsvsForTinyTask) {
  const TraceBuffer buf = tiny_buffer();
  TaskInput input;
  input.info = tiny_info();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};
  input.reported_energy_j =
      power::PowerModel(5.0, 2.0, 1000.0).power(1500.0) * (0.35 - 0.25);

  ReportWriter writer;
  writer.add_task(input);

  std::ostringstream summary;
  writer.write_summary_csv(summary);
  EXPECT_EQ(summary.str(),
            "task,scheduler,arrival_rate,servers,cores,released,completed,"
            "partial,dropped,missed,rounds,mode_switches,cuts,violations,"
            "integrated_energy_j,reported_energy_j,energy_rel_err,"
            "mean_response_ms,p99_response_ms,reclaim_energy_j,reclaim_disc_j,"
            "reclaim_offline_j,reclaim_frac\n"
            // Reclaim by hand: the 150-unit job may stretch over its whole
            // [0.25, 0.4] window at 1 GHz, so 5 W * 0.15 s = 0.75 J, vs
            // 1.125 J realised at 1.5 GHz -- a third was avoidable.  No
            // ladder => discrete == continuous; one core => fluid == YDS.
            "0,GE,4,1,1,1,1,0,0,0,1,0,0,0,1.125,1.125,0,100,100,"
            "0.75,0.75,0.75,0.333333333333\n");

  std::ostringstream jobs;
  writer.write_jobs_csv(jobs);
  EXPECT_EQ(jobs.str(),
            "task,job,server,core,tenant,arrival_s,assigned_s,first_exec_s,"
            "settled_s,deadline_s,demand_units,executed_units,energy_j,"
            "wait_ms,service_ms,response_ms,slack_ms,outcome,missed\n"
            "0,1,0,0,0,0.25,0.25,0.25,0.35,0.4,150,150,1.125,0,100,100,50,"
            "completed,0\n");

  std::ostringstream residency;
  writer.write_residency_csv(residency);
  EXPECT_EQ(residency.str(),
            "task,server,core,ghz_lo,ghz_hi,busy_s,energy_j\n"
            "0,0,0,1.4,1.6,0.1,1.125\n");

  std::ostringstream md;
  writer.write_markdown(md);
  EXPECT_NE(md.str().find("schema: ge-report-v1 | tasks: 1"), std::string::npos);
  EXPECT_NE(md.str().find("(rel err 0) — OK"), std::string::npos);
  EXPECT_NE(md.str().find("no violations recorded"), std::string::npos);
}

TEST(TraceReader, RoundTripsEveryEventKind) {
  TraceBuffer buf = tiny_buffer();
  TraceEvent ev;
  ev.type = TraceEventType::kModeSwitch;
  ev.t = 0.5;
  ev.mode = kModeBq;
  ev.a = 0.875;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCut;
  ev.t = 0.5;
  ev.core = 0;
  ev.a = 2.0;
  ev.b = 130.0;
  ev.c = 260.0;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCap;
  ev.t = 0.5;
  ev.core = 0;
  ev.a = 12.5;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kDeadlineMiss;
  ev.t = 0.625;
  ev.core = -1;
  ev.job = 2;
  ev.a = 0.0;
  ev.b = 150.0;
  ev.c = 0.5;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kCoreOffline;
  ev.t = 0.75;
  ev.core = 1;
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kDispatch;
  ev.t = 0.75;
  ev.job = 3;
  ev.core = 1;  // server index
  ev.a = 2.0;   // in flight
  buf.push(ev);
  ev = TraceEvent{};
  ev.type = TraceEventType::kViolation;
  ev.t = 0.875;
  ev.mode = static_cast<std::int32_t>(ViolationCheck::kEnergyIdentity);
  ev.a = 1.5;
  ev.b = 1.25;
  buf.push(ev);

  std::ostringstream out;
  TraceWriter writer(out, TraceFormat::kJsonl);
  writer.append_task(tiny_info(), buf);
  writer.close();

  std::istringstream in(out.str());
  const std::vector<ParsedTask> parsed = read_trace_jsonl(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].info.scheduler, "GE");
  EXPECT_EQ(parsed[0].info.cores, 1u);
  EXPECT_EQ(parsed[0].info.power_budget, 20.0);
  EXPECT_EQ(parsed[0].model.a(), 5.0);
  EXPECT_EQ(parsed[0].model.beta(), 2.0);
  EXPECT_EQ(parsed[0].model.units_per_ghz(), 1000.0);

  const std::vector<TraceEvent>& original = buf.events();
  const std::vector<TraceEvent>& round_tripped = parsed[0].buffer.events();
  ASSERT_EQ(round_tripped.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(round_tripped[i].type, original[i].type);
    EXPECT_EQ(round_tripped[i].t, original[i].t);
    EXPECT_EQ(round_tripped[i].t2, original[i].t2);
    EXPECT_EQ(round_tripped[i].job, original[i].job);
    EXPECT_EQ(round_tripped[i].core, original[i].core);
    EXPECT_EQ(round_tripped[i].mode, original[i].mode);
    EXPECT_EQ(round_tripped[i].a, original[i].a);
    EXPECT_EQ(round_tripped[i].b, original[i].b);
    EXPECT_EQ(round_tripped[i].c, original[i].c);
  }
}

// Malformed trace files fail with the line number and the field named.
constexpr const char* kMetaLine =
    "{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", \"arrival_rate\": "
    "150, \"cores\": 4, \"power_budget_w\": 100, \"power_model\": {\"a\": 5, "
    "\"beta\": 2, \"units_per_ghz\": 1000}, \"ladder\": []}\n";
constexpr const char* kExecLine =
    "{\"ev\": \"exec\", \"task\": 0, \"t\": 0.1, \"t_end\": 0.2, \"core\": 1, "
    "\"job\": 7, \"speed\": 1500}\n";

void read_text(const std::string& text) {
  std::istringstream in(text);
  (void)read_trace_jsonl(in);
}

TEST(TraceReaderErrors, TruncatedLastLineNamesTheLine) {
  const std::string text = std::string(kMetaLine) + kExecLine +
                           "{\"ev\": \"exec\", \"task\": 0, \"t\": 0.3, \"t_e";
  EXPECT_DEATH(read_text(text), "trace JSONL line 3: JSON: unterminated string");
  EXPECT_DEATH(read_text(std::string(kMetaLine) + "{\"ev\": \"exec\", \"t\": 1"),
               "trace JSONL line 2: JSON: unexpected end of input");
}

TEST(TraceReaderErrors, MissingFieldNamesTheLineAndField) {
  const std::string text =
      std::string(kMetaLine) + kExecLine + kExecLine +
      "{\"ev\": \"exec\", \"task\": 0, \"t\": 0.3, \"core\": 1, \"job\": 8, "
      "\"speed\": 1500}\n";
  EXPECT_DEATH(read_text(text),
               "trace JSONL line 4: missing numeric field \"t_end\"");
}

TEST(TraceReaderErrors, StringWhereANumberBelongs) {
  const std::string text =
      std::string(kMetaLine) +
      "{\"ev\": \"exec\", \"task\": 0, \"t\": \"0.1\", \"t_end\": 0.2, "
      "\"core\": 1, \"job\": 7, \"speed\": 1500}\n";
  EXPECT_DEATH(read_text(text), "trace JSONL line 2: field \"t\" must be a number");
}

TEST(TraceReaderErrors, UnknownEventKind) {
  const std::string text = std::string(kMetaLine) + "\n" + kExecLine +
                           "{\"ev\": \"teleport\", \"task\": 0, \"t\": 0.4}\n";
  // The blank line still counts: the bad record is on line 4.
  EXPECT_DEATH(read_text(text),
               "trace JSONL line 4: unknown event kind \"teleport\"");
}

TEST(TraceReaderErrors, EventBeforeMeta) {
  EXPECT_DEATH(read_text(std::string(kExecLine) + kMetaLine),
               "trace JSONL line 1: event before the first meta record");
}

TEST(TraceReaderErrors, MetricsFileErrorsNameTheLine) {
  std::istringstream in(
      "{\n  \"schema\": \"goodenough-metrics-v1\",\n  \"metrics\": [\n"
      "    {\"name\": \"x\", \"type\": \"counter\", \"value\": +1}\n  ]\n}\n");
  // from_chars takes no leading '+', which strtod did; the writer never
  // emits one.
  EXPECT_DEATH((void)read_metrics_json(in),
               "metrics JSON line 4: JSON: expected a number");
}

TEST(Watchdog, CleanBufferRecordsNoViolations) {
  TraceBuffer buf;
  WatchdogOptions options;
  options.models = {{power::PowerModel()}};
  options.server_budgets_w = {20.0};
  MetricsRegistry reg;
  Watchdog dog(buf, options, &reg);
  buf.set_observer(&dog);
  const TraceBuffer clean = tiny_buffer();
  for (const TraceEvent& ev : clean.events()) {
    buf.push(ev);
  }
  Watchdog::Totals totals;
  totals.released = 1;
  totals.server_energy_j = {power::PowerModel().power(1500.0) * (0.35 - 0.25)};
  dog.finish(0.4, totals);
  buf.set_observer(nullptr);
  EXPECT_EQ(dog.violations(), 0u);
  EXPECT_EQ(reg.counter("watchdog.violations", "violations").value(), 0.0);
  EXPECT_GT(reg.counter("watchdog.checks", "events").value(), 0.0);
}

TEST(Watchdog, CorruptedEventsFireTheMatchingChecks) {
  TraceBuffer buf;
  WatchdogOptions options;
  options.models = {{power::PowerModel()}};
  options.server_budgets_w = {20.0};
  Watchdog dog(buf, options, nullptr);
  buf.set_observer(&dog);

  TraceEvent ev;
  ev.type = TraceEventType::kRound;
  ev.t = 1.0;
  ev.mode = kModeAes;
  buf.push(ev);
  ev = TraceEvent{};  // clock runs backwards for an instantaneous event
  ev.type = TraceEventType::kRound;
  ev.t = 0.5;
  ev.mode = kModeAes;
  buf.push(ev);
  ev = TraceEvent{};  // exec slice that ends before it starts
  ev.type = TraceEventType::kExec;
  ev.t = 1.0;
  ev.t2 = 0.9;
  ev.core = 0;
  ev.job = 1;
  ev.a = 1000.0;
  buf.push(ev);
  ev = TraceEvent{};  // settlement reporting more work than was demanded
  ev.type = TraceEventType::kCompletion;
  ev.t = 1.0;
  ev.core = 0;
  ev.job = 1;
  ev.a = 200.0;  // executed
  ev.b = 150.0;  // demand
  buf.push(ev);

  Watchdog::Totals totals;
  totals.released = 3;          // only 1 settlement seen -> conservation fails
  totals.server_energy_j = {1e6};  // nowhere near the integrated energy
  dog.finish(1.0, totals);
  buf.set_observer(nullptr);

  std::vector<std::int32_t> fired;
  for (const TraceEvent& v : buf.events()) {
    if (v.type == TraceEventType::kViolation) {
      fired.push_back(v.mode);
    }
  }
  EXPECT_EQ(dog.violations(), fired.size());
  auto fired_check = [&](ViolationCheck check) {
    return std::count(fired.begin(), fired.end(),
                      static_cast<std::int32_t>(check)) > 0;
  };
  EXPECT_TRUE(fired_check(ViolationCheck::kMonotoneClock));
  EXPECT_TRUE(fired_check(ViolationCheck::kExecSpan));
  EXPECT_TRUE(fired_check(ViolationCheck::kJobOverrun));
  EXPECT_TRUE(fired_check(ViolationCheck::kSettlementConservation));
  EXPECT_TRUE(fired_check(ViolationCheck::kEnergyIdentity));
}

}  // namespace
}  // namespace ge::obs::analysis

namespace ge::exp {
namespace {

ExperimentConfig small_config(double rate) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = 1.0;
  cfg.seed = 7;
  return cfg;
}

// The residency integration must reproduce the run's reported dynamic
// energy *bit for bit*: exec events carry the exact accrual terms and the
// analysis adds them in the same order the cores did.
TEST(AnalysisIdentity, IntegratedEnergyMatchesRunResultExactly) {
  const ExperimentConfig cfg = small_config(150.0);
  const SchedulerSpec spec = SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  obs::RunTelemetry telemetry;
  const RunResult result =
      run_simulation(cfg, spec, trace, nullptr, &telemetry);

  obs::analysis::TaskInput input;
  input.buffer = &telemetry.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(effective_budget(spec, cfg))) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;
  const obs::analysis::TaskAnalysis task = obs::analysis::analyze_task(input);

  EXPECT_EQ(task.integrated_energy_j, result.energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  EXPECT_EQ(task.released, result.released);
  EXPECT_EQ(task.completed, result.completed);
  EXPECT_EQ(task.partial, result.partial);
  EXPECT_EQ(task.dropped, result.dropped);
}

TEST(AnalysisIdentity, HoldsOnClusterRunsWithDispatchAttribution) {
  ExperimentConfig cfg = small_config(180.0);
  cfg.num_servers = 2;
  const SchedulerSpec spec = SchedulerSpec::parse("GE");
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  obs::RunTelemetry telemetry;
  const RunResult result =
      run_simulation(cfg, spec, trace, nullptr, &telemetry);

  obs::analysis::TaskInput input;
  input.buffer = &telemetry.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(effective_budget(spec, cfg))) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = result.energy;
  const obs::analysis::TaskAnalysis task = obs::analysis::analyze_task(input);

  EXPECT_EQ(task.num_servers, 2u);
  EXPECT_EQ(task.integrated_energy_j, result.energy);
  EXPECT_EQ(task.energy_rel_err, 0.0);
  // Dispatch conservation: the per-server tallies partition the jobs.
  ASSERT_EQ(task.dispatched.size(), 2u);
  EXPECT_EQ(task.dispatched[0] + task.dispatched[1], task.released);
}

TEST(RunnerWatchdog, RealRunIsViolationFree) {
  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const ExperimentConfig cfg = small_config(150.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr,
                       &telemetry);
  EXPECT_EQ(
      telemetry.metrics.counter("watchdog.violations", "violations").value(),
      0.0);
  EXPECT_GT(telemetry.metrics.counter("watchdog.checks", "events").value(), 0.0);
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    EXPECT_NE(ev.type, obs::TraceEventType::kViolation);
  }
}

TEST(RunnerProfiler, SpansRecordOnlyWhenEnabled) {
  const ExperimentConfig cfg = small_config(120.0);
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry off;
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr, &off);
  EXPECT_EQ(off.profiler, nullptr);

  obs::RunTelemetry on;
  on.enable_profiling();
  (void)run_simulation(cfg, SchedulerSpec::parse("GE"), trace, nullptr, &on);
  EXPECT_EQ(on.metrics.counter("prof.sim_run_calls", "calls").value(), 1.0);
  EXPECT_GT(on.metrics.counter("prof.sim_run_ns", "ns").value(), 0.0);
  EXPECT_GE(on.metrics.counter("prof.ge_round_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.cut_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.power_dist_calls", "calls").value(), 1.0);
  EXPECT_GE(on.metrics.counter("prof.plan_calls", "calls").value(), 1.0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineReport, DirectoryIsByteIdenticalForAnyWorkerCount) {
  ExperimentPlan plan;
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.duration = 1.0;
  cfg.seed = 42;
  for (std::size_t p = 0; p < 2; ++p) {
    cfg.arrival_rate = p == 0 ? 110.0 : 170.0;
    for (const char* name : {"GE", "BE"}) {
      plan.add(cfg, SchedulerSpec::parse(name), p);
    }
  }

  const std::string dir = ::testing::TempDir();
  auto run_with = [&](std::size_t jobs, const std::string& tag) {
    ExecutionOptions exec;
    exec.jobs = jobs;
    exec.telemetry.report_dir = dir + "/report" + tag;
    exec.telemetry.watchdog = true;
    (void)run_plan(plan, exec);
  };
  run_with(1, "1");
  run_with(4, "4");
  for (const char* name : {"report.md", "summary.csv", "jobs.csv",
                           "residency.csv", "timeline.csv", "reclaim.csv",
                           "trace.jsonl"}) {
    const std::string a = dir + "/report1/" + name;
    const std::string b = dir + "/report4/" + name;
    EXPECT_EQ(slurp(a), slurp(b)) << name;
    std::remove(a.c_str());
    std::remove(b.c_str());
  }
}

}  // namespace
}  // namespace ge::exp
