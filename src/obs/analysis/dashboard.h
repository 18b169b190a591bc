// Self-contained HTML fleet dashboard (schema: ge-dashboard-v1).
//
// write_dashboard() renders one or more analysed tasks as a single static
// HTML page with zero external fetches: styles are inline, every chart is
// inline SVG, and there are no scripts, so the file opens identically from
// a local path, a CI artifact store, or an air-gapped machine.  Per task it
// draws:
//
//   * a summary strip with the reclaim-advisor headline ("X% of the
//     realised energy was clairvoyantly avoidable");
//   * a per-core Gantt of exec slices coloured by speed (above a
//     deterministic slice cap the panel falls back to per-bin busy blocks,
//     and says so);
//   * speed-ladder residency bars;
//   * queue / quality / power / SLO-burn timelines;
//   * per-server lifecycle bands (ONLINE / DRAINING / OFF / WAKING);
//   * a cluster energy/load heatmap (servers x time bins);
//   * per-tenant panels;
//   * the reclaim advisor's per-server breakdown.
//
// Output bytes are a pure function of the inputs (no timestamps, no RNG,
// fixed-precision coordinates), so dashboards slot into the cmp-based
// determinism CI exactly like the report CSVs.  tools/check_dashboard.py
// validates the panel ids, well-formedness, and the no-external-URL pledge.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/analysis/report.h"
#include "obs/analysis/trace_reader.h"

namespace ge::obs::analysis {

struct DashboardOptions : ReportOptions {
  // Above this many exec slices a task's Gantt panel switches to binned
  // busy blocks (browsers choke on 10^6 SVG rects long before we do).
  std::size_t gantt_slice_cap = 4000;
};

// Renders the dashboard for tasks already analysed: `analyses` and
// `reclaims` are parallel to `inputs` (a ReportWriter's tasks() and
// reclaims() after adding the same inputs with the same options).
void write_dashboard(std::ostream& out, const std::vector<TaskInput>& inputs,
                     const std::vector<TaskAnalysis>& analyses,
                     const std::vector<ReclaimAnalysis>& reclaims,
                     const DashboardOptions& options = {});

// Renders the dashboard for the given tasks, running analyze_task and
// analyze_reclaim on each first.
void write_dashboard(std::ostream& out, const std::vector<TaskInput>& inputs,
                     const DashboardOptions& options = {});

// A ge-report-v1 directory loaded back into analyzable inputs (via the
// trace.jsonl the report writer embeds).  `error` is non-empty when the
// directory is missing, lacks trace.jsonl, or declares a different schema
// version -- callers print it and exit non-zero instead of emitting an
// empty report.
struct LoadedReport {
  std::string error;
  std::vector<ParsedTask> parsed;  // owns the buffers
  std::vector<TaskInput> inputs;   // buffer/model views into `parsed`

  bool ok() const noexcept { return error.empty(); }
};

LoadedReport load_report_dir(const std::string& dir);

}  // namespace ge::obs::analysis
