// Quality-OPT: best partial processing under a speed cap (Sec. III-E).
//
// When a core's power cap cannot sustain the speed its queue requires, the
// paper applies the Quality-OPT step of Tians scheduling (He, Elnikety,
// Sun -- ICDCS'11): choose how much of each job to process so the total
// quality is maximised subject to the core's processing capacity.  For an
// EDF queue with all jobs released at `now` and speed cap `s`, feasibility
// of extra allocations x_j is exactly the nested prefix constraints
//
//     sum_{j<=k} x_j <= s * (d_k - now)        for every k,
//     0 <= x_j <= w_j                          (w_j = remaining target work).
//
// Maximising the separable concave objective sum_j f(e_j + x_j) over this
// polymatroid is solved exactly by water-filling combined with the classic
// tight-prefix decomposition: solve unconstrained, find the most violated
// prefix, pin it tight, recurse left and right.
//
// Every job shares one concave f, so the water-fill of a range raises all
// its jobs to one common level L: x_j = clamp(L - e_j, 0, w_j).  That sum is
// piecewise linear in L, with breakpoints e_j (slope +1) and e_j + w_j
// (slope -1), so one walk over the sorted breakpoints finds L exactly and f
// is never evaluated.  The breakpoints are sorted once per call; each
// sub-range of the recursion keeps its own slice, still sorted.
//
// For strictly concave f the level split is the unique optimum.  For a
// linear f every split of the budget is optimal, and the level solve
// returns the equal-level one (the former theta bisection filled the budget
// in EDF order instead).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ge::quality {
class QualityFunction;
}

namespace ge::opt {

struct AllocJob {
  double executed = 0.0;   // e_j: units already processed
  double max_extra = 0.0;  // w_j: most additional units worth processing
  double deadline = 0.0;   // absolute seconds
};

// Reusable working memory for maximize_quality.  The GE scheduler trims a
// core's targets in every overloaded round; routing those calls through one
// scratch makes a trim allocation-free in steady state.
struct QualityOptScratch {
  struct Breakpoint {
    double level = 0.0;     // e_j or e_j + w_j
    std::uint32_t job = 0;  // index into the jobs span
    std::int32_t slope = 0; // +1: job starts taking work; -1: it saturates
  };
  // Result of the last call, one entry per job.
  std::vector<double> extra;
  // Internal buffers (prefix capacities, sorted breakpoints, split spill);
  // exposed only for reuse.
  std::vector<double> capacity;
  std::vector<Breakpoint> breakpoints;
  std::vector<Breakpoint> spill;
};

// Computes the optimal extra allocation x_j (same order as `jobs`) into
// scratch.extra and returns a view of it, valid until the next call with
// the same scratch.  `jobs` must be EDF-sorted.  Deadlines at or before
// `now` force x_j contributions of the corresponding prefix towards zero.
// speed_cap <= 0 returns all zeros.
std::span<const double> maximize_quality(double now, std::span<const AllocJob> jobs,
                                         double speed_cap, QualityOptScratch& scratch);

// Total quality sum f(e_j + x_j) of an allocation (helper for tests).
double allocation_quality(std::span<const AllocJob> jobs,
                          std::span<const double> extra,
                          const quality::QualityFunction& f);

}  // namespace ge::opt
