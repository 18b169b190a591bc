#include "workloads.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "cluster/cluster.h"
#include "obs/analysis/dashboard.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Simulated horizons (arrival seconds).  Sized so one run takes about half a
// second of host time on a 4-vCPU Xeon guest: a measuring window then holds
// enough runs that its median rides out the host's slow spells.
constexpr double kSingleOverloadHorizon = 300.0;
constexpr double kFleetStreamHorizon = 60.0;
constexpr double kTraceReportHorizon = 30.0;
// The post-mortem slice of a workload that writes no trace holds about this
// many jobs, whatever the arrival rate.
constexpr double kPostMortemSliceJobs = 1000.0;

// The paper's server (16 cores, 320 W, Q_GE 0.9) under GE.
ge::exp::ExperimentConfig paper_server(double rate, double horizon,
                                       std::uint64_t seed) {
  ge::exp::ExperimentConfig cfg = ge::exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = horizon;
  cfg.seed = seed;
  return cfg;
}

// The per-server, per-core power models of the configuration.
std::vector<std::vector<ge::power::PowerModel>> node_models(
    const Inputs& inputs, double budget) {
  std::vector<std::vector<ge::power::PowerModel>> models;
  for (const ge::cluster::NodeSpec& node :
       inputs.config.cluster_node_specs(budget)) {
    models.push_back(node.core_models);
  }
  return models;
}

ge::obs::TraceTaskInfo task_info(const Inputs& inputs) {
  ge::obs::TraceTaskInfo info;
  info.scheduler = inputs.spec.display_name();
  info.arrival_rate = inputs.config.arrival_rate;
  info.cores = inputs.config.cores;
  info.power_budget = ge::exp::effective_budget(inputs.spec, inputs.config);
  info.power_model_json = inputs.config.power_model().describe_json();
  return info;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "single_overload") {
    // Above the 198 req/s overload point: WF mode in almost every round.
    w.config = paper_server(220.0, kSingleOverloadHorizon, seed);
  } else if (name == "fleet_stream") {
    // 8 paper servers behind JSQ at 100 req/s each (below critical load),
    // replayed through the bounded-memory streaming path.
    w.config = paper_server(800.0, kFleetStreamHorizon, seed);
    w.config.num_servers = 8;
    w.config.dispatch = ge::cluster::DispatchPolicy::kJsq;
    w.config.stream = true;
  } else if (name == "trace_report") {
    w.config = paper_server(220.0, kTraceReportHorizon, seed);
    w.post_mortem = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Workload post_mortem_slice(const Workload& workload) {
  Workload slice = workload;
  slice.name += "/slice";
  slice.config.duration = kPostMortemSliceJobs / workload.config.arrival_rate;
  slice.config.stream = false;
  slice.post_mortem = true;
  slice.report_path = ReportPath::kInProcess;
  return slice;
}

Inputs prepare(const Workload& workload) {
  Inputs inputs{workload.config, ge::exp::SchedulerSpec::parse("GE"), {}};
  inputs.config.validate();
  if (!inputs.config.stream) {
    inputs.trace = ge::workload::Trace::generate(inputs.config.workload_spec(),
                                                 inputs.config.duration,
                                                 inputs.config.max_jobs);
  }
  return inputs;
}

SimRun simulate(const Workload& workload, const Inputs& inputs,
                Telemetry telemetry) {
  SimRun run;
  if (telemetry == Telemetry::kProfiled ||
      (telemetry == Telemetry::kWorkload && workload.post_mortem)) {
    run.telemetry = std::make_unique<ge::obs::RunTelemetry>();
    run.telemetry->want_trace = workload.post_mortem;
    run.telemetry->want_watchdog = workload.post_mortem;
    if (telemetry == Telemetry::kProfiled) {
      run.telemetry->enable_profiling();
    }
  }
  const Clock::time_point start = Clock::now();
  if (inputs.config.stream) {
    run.result = ge::exp::run_simulation_stream(inputs.config, inputs.spec,
                                                nullptr, run.telemetry.get());
  } else {
    run.result = ge::exp::run_simulation(inputs.config, inputs.spec,
                                         inputs.trace, nullptr,
                                         run.telemetry.get());
  }
  run.call_s = seconds_since(start);
  return run;
}

ge::obs::analysis::TaskInput in_memory_input(const Inputs& inputs,
                                             const SimRun& run) {
  ge::obs::analysis::TaskInput input;
  input.info = task_info(inputs);
  input.buffer = &run.telemetry->trace;
  input.models = node_models(inputs, input.info.power_budget);
  input.reported_energy_j = run.result.energy;
  return input;
}

PostMortem post_mortem(const Workload& workload, const Inputs& inputs,
                       const SimRun& run, const std::string& dir,
                       bool split_analysis) {
  PostMortem pm;
  const ge::obs::TraceBuffer& trace = run.telemetry->trace;
  pm.trace_events = static_cast<double>(trace.size());
  for (const ge::obs::TraceEvent& ev : trace.events()) {
    pm.exec_slices += ev.type == ge::obs::TraceEventType::kExec ? 1.0 : 0.0;
  }
  const std::string trace_path = dir + "/trace.jsonl";
  Clock::time_point t = Clock::now();
  {
    std::ofstream out(trace_path, std::ios::binary);
    ge::obs::TraceWriter writer(out, ge::obs::TraceFormat::kJsonl);
    writer.append_task(task_info(inputs), trace);
    writer.close();
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    pm.trace_bytes = static_cast<double>(out.tellp());
  }
  pm.trace_write_s = seconds_since(t);

  // The file is read back on the from-file path; the in-process path reads
  // nothing, so there a standalone parse only feeds analysis.trace_read_s.
  const bool from_file = workload.report_path == ReportPath::kFromFile;
  t = Clock::now();
  std::vector<ge::obs::analysis::ParsedTask> parsed;
  if (from_file || split_analysis) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in.good()) {
      throw std::runtime_error("cannot read " + trace_path);
    }
    parsed = ge::obs::analysis::read_trace_jsonl(in);
    if (parsed.size() != 1 || parsed[0].buffer.size() != trace.size()) {
      throw std::runtime_error("re-read trace is not the trace written");
    }
  }
  pm.trace_read_s = seconds_since(t);

  std::vector<ge::obs::analysis::TaskInput> inputs_for_report(1);
  ge::obs::analysis::DashboardOptions options;
  if (from_file) {
    // As ge_report loads a trace file: the file carries one fallback model,
    // not the per-core ones.  The reported energy is the run's, as
    // `ge_report --metrics` supplies it.
    ge::obs::analysis::TaskInput& loaded = inputs_for_report[0];
    loaded.info = parsed[0].info;
    loaded.buffer = &parsed[0].buffer;
    loaded.fallback_model = parsed[0].model;
    loaded.reported_energy_j = run.result.energy;
    // Every accrual term round-trips %.12g, so ge_report relaxes the
    // in-process 1e-9 energy identity to 1e-6.
    options.energy_rel_tol = 1e-6;
  } else {
    inputs_for_report[0] = in_memory_input(inputs, run);
  }
  const ge::obs::analysis::TaskInput& input = inputs_for_report[0];

  if (split_analysis) {
    t = Clock::now();
    const ge::obs::analysis::TaskAnalysis analysis =
        ge::obs::analysis::analyze_task(input, options);
    pm.analyze_s = seconds_since(t);
    t = Clock::now();
    ge::obs::analysis::analyze_reclaim(input, analysis);
    pm.reclaim_s = seconds_since(t);
  }

  t = Clock::now();
  ge::obs::analysis::ReportWriter writer(options);
  writer.add_task(input);
  writer.write_directory(dir + "/report");
  pm.report_write_s = seconds_since(t);

  t = Clock::now();
  {
    std::ofstream out(dir + "/dashboard.html", std::ios::binary);
    ge::obs::analysis::write_dashboard(out, inputs_for_report, options);
    if (!out.good()) {
      throw std::runtime_error("cannot write the dashboard");
    }
  }
  pm.dashboard_s = seconds_since(t);
  pm.total_s = pm.trace_write_s + (from_file ? pm.trace_read_s : 0.0) +
               pm.report_write_s + pm.dashboard_s;

  pm.analysis = writer.tasks().at(0);
  pm.reclaim = writer.reclaims().at(0);
  return pm;
}

double peak_rss_mib() {
  // VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss over
  // exec, so a process started from a larger parent (such as run.py)
  // would report the parent's resident set.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
