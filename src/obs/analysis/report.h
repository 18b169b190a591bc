// Deterministic run reports: Markdown for humans, CSV for tooling.
//
// A ReportWriter accumulates analyzed tasks (analysis.h) and renders them as
// a report directory:
//
//   report.md      -- per-task summary: outcome split, lifecycle phase
//                     table, aggregated speed-residency table, the
//                     residency-vs-reported energy identity verdict,
//                     per-server tallies and recorded watchdog violations
//   summary.csv    -- one row per task (the report.md numbers, raw)
//   jobs.csv       -- one row per job: full lifecycle span + energy
//   residency.csv  -- one row per (task, server, core, speed bin)
//   timeline.csv   -- one row per (task, server, time bin)
//   tenants.csv    -- one row per (task, tenant); header-only for
//                     single-tenant runs
//   reclaim.csv    -- one row per (task, server, time bin): realised vs
//                     clairvoyantly re-sped energy (reclaim advisor)
//   trace.jsonl    -- the analysed trace itself, re-rendered, so a report
//                     dir is self-contained input for ge_report/ge_dashboard
//
// Output bytes are a pure function of the added (input, options) sequence:
// no timestamps, no locale, %.12g number formatting (util::format_number,
// the trace writer's).
// Reports therefore inherit the engine's determinism contract -- the same
// plan produces byte-identical report directories for any --jobs value,
// which CI enforces with a directory diff.  Schema: ge-report-v1, described
// field-by-field in docs/OBSERVABILITY.md ("Analysis & reports").
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"

namespace ge::obs::analysis {

struct ReportOptions : AnalysisOptions {
  // Verdict threshold for the energy identity in report.md.  In-process
  // analyses see the exact accrual terms (1e-9 holds); file-based analyses
  // round-trip every term through %.12g, so ge_report relaxes this.
  double energy_rel_tol = 1e-9;
};

class ReportWriter {
 public:
  explicit ReportWriter(ReportOptions options = {});

  // Analyzes one task (including the reclaim advisor) and appends it; tasks
  // render in add order.
  //
  // Lifetime contract: the writer keeps `input.buffer` (a pointer, not a
  // copy) and renders trace.jsonl from it in write_trace_jsonl() /
  // write_directory().  The buffer must outlive those calls and must not
  // change after add_task.  Every caller (ge_report, exp::write_report,
  // perfbench) owns its buffers until the report is written.
  void add_task(const TaskInput& input);

  const std::vector<TaskAnalysis>& tasks() const noexcept { return tasks_; }
  // One entry per added task, parallel to tasks().
  const std::vector<ReclaimAnalysis>& reclaims() const noexcept {
    return reclaims_;
  }

  void write_markdown(std::ostream& out) const;
  void write_summary_csv(std::ostream& out) const;
  void write_jobs_csv(std::ostream& out) const;
  void write_residency_csv(std::ostream& out) const;
  void write_timeline_csv(std::ostream& out) const;
  void write_tenants_csv(std::ostream& out) const;
  void write_reclaim_csv(std::ostream& out) const;
  void write_trace_jsonl(std::ostream& out) const;

  // Creates `dir` (and parents) and writes report.md, the six CSVs, and
  // trace.jsonl (streamed from the added buffers through TraceWriter, so it
  // is byte-identical to the --trace file of the same tasks).
  void write_directory(const std::string& dir) const;

 private:
  ReportOptions options_;
  std::vector<TaskAnalysis> tasks_;
  std::vector<ReclaimAnalysis> reclaims_;
  std::vector<const TraceBuffer*> buffers_;  // parallel to tasks_, not owned
};

}  // namespace ge::obs::analysis
