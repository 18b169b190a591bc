// The benchmark's workloads and the timed calls into each layer they drive.
//
// Everything here goes through the library's public entry points -- the
// ones the binaries use -- and times each call from the outside:
// workload::Trace::generate, exp::run_simulation (materialised or --stream),
// obs::RunTelemetry, and the obs::analysis post-mortem chain (TraceWriter,
// read_trace_jsonl, analyze_task, analyze_reclaim, ReportWriter,
// write_dashboard).  See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/reclaim.h"
#include "obs/telemetry.h"
#include "workload/trace.h"

namespace perfbench {

// How a post-mortem gets from a finished run to its report and dashboard.
enum class ReportPath {
  // As `ge_report --trace F --dashboard` does on a file: write the JSONL
  // trace, read it back with the file's one fallback power model, then
  // analyse, report and render from the re-read buffers.
  kFromFile,
  // As `ge_sweep --trace F --report DIR` does in the run's own process:
  // write the JSONL trace, then analyse, report and render from the
  // in-memory buffers with every server's per-core models.
  kInProcess,
};

struct Workload {
  std::string name;
  ge::exp::ExperimentConfig config;  // seed already applied; GE schedules
  // Trace capture + watchdog during the run (as --report does), then the
  // post-mortem along `report_path` after it.
  bool post_mortem = false;
  ReportPath report_path = ReportPath::kFromFile;
};

// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The post-mortem slice of a workload that writes no trace of its own (its
// full trace would hold millions of events): the same configuration and
// seed over a materialised horizon of about 1 000 jobs, traced and reported
// in-process.
Workload post_mortem_slice(const Workload& workload);

// What a run consumes: the validated config, the parsed scheduler and, on
// materialised workloads, the generated trace (empty when streaming).
struct Inputs {
  ge::exp::ExperimentConfig config;
  ge::exp::SchedulerSpec spec;
  ge::workload::Trace trace;
};

// The workload's set-up, which setup_s times.
Inputs prepare(const Workload& workload);

enum class Telemetry {
  kOff,       // no telemetry at all
  kWorkload,  // what the workload itself runs with: trace capture and the
              // watchdog on post-mortem workloads, no telemetry otherwise
  kProfiled,  // kWorkload plus the metrics counters and prof.* spans
};

struct SimRun {
  ge::exp::RunResult result;
  double call_s = 0.0;  // host time of the run_simulation call
  std::unique_ptr<ge::obs::RunTelemetry> telemetry;  // null for kOff
};

SimRun simulate(const Workload& workload, const Inputs& inputs,
                Telemetry telemetry);

// The analysis input the --report path builds from in-memory buffers.
ge::obs::analysis::TaskInput in_memory_input(const Inputs& inputs,
                                             const SimRun& run);

// One pass of the post-mortem chain along the workload's report path, each
// step timed.  Files go to `dir`.  With `split_analysis`, analyze_task and
// analyze_reclaim also run once on their own, timed apart and outside
// total_s (ReportWriter does both inside one call); on the in-process path,
// which reads nothing back, the JSONL file is also parsed once on its own,
// timed as trace_read_s outside total_s.
struct PostMortem {
  double analyze_s = 0.0;  // split_analysis only
  double reclaim_s = 0.0;  // split_analysis only
  double trace_write_s = 0.0;
  double trace_bytes = 0.0;
  double trace_read_s = 0.0;   // from file; in-process: split_analysis only
  double report_write_s = 0.0;  // ReportWriter: analysis, reclaim, files
  double dashboard_s = 0.0;
  double total_s = 0.0;         // end of run -> report dir + dashboard
  double trace_events = 0.0;    // events the run captured
  double exec_slices = 0.0;     // of which kExec slices
  ge::obs::analysis::TaskAnalysis analysis;  // the report's
  ge::obs::analysis::ReclaimAnalysis reclaim;
};

PostMortem post_mortem(const Workload& workload, const Inputs& inputs,
                       const SimRun& run, const std::string& dir,
                       bool split_analysis = false);

// Peak resident set of this process so far (MiB).
double peak_rss_mib();

}  // namespace perfbench
