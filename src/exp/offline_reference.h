// Idealised offline reference for the optimality-gap study.
//
// How much of the energy GE leaves on the table is inherent to online,
// non-preemptive, partitioned scheduling?  This reference relaxes all three
// at once, clairvoyantly over the whole trace:
//
//   1. *Global* Longest-First cut: one demand level over every job of the
//      run such that the total quality equals the target.  (For a common
//      concave f this level allocation minimises the total work needed for
//      the target quality.)
//   2. *Fluid* multicore: the m cores are replaced by one machine whose
//      power law is the best m-way split, P_m(s) = m * a * (s / m)^beta --
//      by convexity no partitioned schedule of total speed s can draw less.
//   3. *Preemptive YDS* with true release times on that fluid machine.
//
// The result is an optimistic reference point, not a tight bound: it
// ignores the power budget H, per-core non-preemption, and the online
// information constraint.  GE landing within a modest factor of it says the
// heuristic captures most of the available savings.
#pragma once

#include "exp/config.h"
#include "workload/trace.h"

namespace ge::exp {

struct OfflineReference {
  double cut_level = 0.0;          // global demand level (units)
  double quality = 1.0;            // quality achieved by the global cut
  double total_work = 0.0;         // sum of cut targets (units)
  double energy = 0.0;             // fluid YDS energy (J)
  double peak_power = 0.0;         // highest instantaneous fluid power (W)
  bool within_budget = false;      // peak_power <= cfg.power_budget
};

// Computes the reference for `trace` at quality target `q_target` under the
// server parameters of `cfg`.  The YDS step costs O(n log n) per level of
// its split at the average speed (docs/ALGORITHMS.md, section 5).
OfflineReference offline_reference(const workload::Trace& trace, double q_target,
                                   const ExperimentConfig& cfg);

}  // namespace ge::exp
