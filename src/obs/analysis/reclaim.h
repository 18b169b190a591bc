// Reclaim advisor: how much of a run's realised energy was avoidable?
//
// Post-hoc clairvoyant re-speed of a finished trace, after Aupy et al.,
// "Reclaiming the energy of a schedule".  The advisor replays the realised
// exec slices and asks: had a clairvoyant scheduler known every job's
// executed work up front, what is the minimum energy that completes the
// *same work* on the *same cores* within the *same windows*?  Three nested
// bounds come out, ordered by how much the re-speeder is allowed to cheat:
//
//   offline_j  <=  cont_j  <=  disc_j  <=  realized_j
//
//   * realized_j -- the energy the run actually integrated over its exec
//     slices (bit-identical to TaskAnalysis residency totals);
//   * disc_j -- per-core YDS re-speed priced through the convex envelope of
//     the run's DVFS ladder (only distinct from cont_j when the run used
//     discrete speeds; the envelope of the realised ladder upper-bounds the
//     best achievable discrete schedule while staying provably below the
//     realised energy, because realised speeds are ladder levels and the
//     YDS profile simultaneously minimises every convex power curve);
//   * cont_j -- per-core continuous YDS re-speed: for each core, the
//     minimum-energy preemptive schedule of its realised per-job work
//     within [release, max(deadline, last realised slice end)];
//   * offline_j -- fluid fleet-wide lower bound: all realised work pooled
//     onto one speed-unbounded machine with the m-core fluid power curve
//     a_min * m^(1-beta) * (S/u)^beta (Jensen: running m cores at the same
//     total speed never beats this curve).  m counts every core of the
//     fleet: the per-core models in-process, or info.cores per server (at
//     least every (server, core) that executed) for a trace read from a
//     file, which carries one server's core count.
//
// Both re-speeds run on the library's one general-release YDS engine
// (opt/yds.h): opt::yds_place gives the per-core schedules as real-time EDF
// slices, which the per-bin attribution needs, and opt::yds_min_energy the
// pooled bound.  This file only gathers the instances and prices them.
//
// Everything is a pure function of (TaskInput, TaskAnalysis): byte-stable
// outputs for a given trace, no clocks, no RNG.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/analysis/analysis.h"

namespace ge::obs::analysis {

// Per-server reclaim totals plus per-timeline-bin attribution on the
// TaskAnalysis bin grid (bin i covers (bin_end[i] - bin_width, bin_end[i]]).
struct ServerReclaim {
  std::int32_t server = 0;
  double realized_j = 0.0;
  double cont_j = 0.0;
  double disc_j = 0.0;
  std::vector<double> realized_bin_j;  // size = TaskAnalysis::bin_end.size()
  std::vector<double> cont_bin_j;
  std::vector<double> disc_bin_j;
};

struct ReclaimAnalysis {
  double realized_j = 0.0;  // sum of exec-slice energy, server-major order
  double cont_j = 0.0;      // sum of per-core continuous YDS re-speeds
  double disc_j = 0.0;      // ladder-envelope variant; == cont_j when the
                            // trace carried no ladder (continuous speeds)
  double offline_j = 0.0;   // pooled fluid fleet-wide lower bound
  // (realized - cont) / realized; 0 when the run spent no energy.  The
  // dashboard's "X% clairvoyantly avoidable" headline.
  double avoidable_frac = 0.0;
  std::vector<ServerReclaim> servers;  // ascending server id, one per server
};

// Runs the advisor over one task.  `analysis` must come from analyze_task()
// on the same input (the bin grid and job spans are reused).
ReclaimAnalysis analyze_reclaim(const TaskInput& input,
                                const TaskAnalysis& analysis);

}  // namespace ge::obs::analysis
