#include "opt/quality_opt.h"

#include <algorithm>
#include <limits>

#include "quality/quality_function.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kTol = 1e-9;

using Breakpoint = QualityOptScratch::Breakpoint;

// Common-level water-filling for jobs [l, r] with a total budget, ignoring
// internal prefix constraints.  `bps` are the range's breakpoints sorted by
// level.  Writes allocations into x[l..r].
void waterfill(std::span<const AllocJob> jobs, std::size_t l, std::size_t r,
               double budget, std::span<const Breakpoint> bps, std::span<double> x) {
  double total_extra = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    total_extra += jobs[j].max_extra;
  }
  if (budget <= kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = 0.0;
    }
    return;
  }
  if (budget >= total_extra - kTol) {
    for (std::size_t j = l; j <= r; ++j) {
      x[j] = jobs[j].max_extra;
    }
    return;
  }
  // Between two breakpoints the allocation grows by `slope` units per unit
  // of level.  Walk the segments up to the one where it reaches the budget
  // and solve that segment for the level.  Before the first breakpoint the
  // slope is 0, so the starting `prev` only has to be finite.
  double level = std::numeric_limits<double>::infinity();
  double allocated = 0.0;
  double prev = 0.0;
  double slope = 0.0;
  for (const Breakpoint& bp : bps) {
    const double next = allocated + slope * (bp.level - prev);
    if (next >= budget) {
      level = prev + (budget - allocated) / slope;
      break;
    }
    allocated = next;
    prev = bp.level;
    slope += bp.slope;
  }
  double used = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    x[j] = std::clamp(level - jobs[j].executed, 0.0, jobs[j].max_extra);
    used += x[j];
  }
  // Distribute the rounding residual to jobs with slack (keeps the budget
  // fully used; the residual is tiny so optimality is unaffected).
  double residual = budget - used;
  for (std::size_t j = l; j <= r && residual > kTol; ++j) {
    const double slack = jobs[j].max_extra - x[j];
    const double take = std::min(slack, residual);
    x[j] += take;
    residual -= take;
  }
}

// Reorders `bps` so the breakpoints of jobs <= k come first, each part
// keeping its sorted order; returns the size of that first part.
std::size_t split_breakpoints(std::span<Breakpoint> bps, std::size_t k,
                              std::vector<Breakpoint>& spill) {
  spill.clear();
  std::size_t kept = 0;
  for (const Breakpoint& bp : bps) {
    if (bp.job <= k) {
      bps[kept++] = bp;
    } else {
      spill.push_back(bp);
    }
  }
  std::copy(spill.begin(), spill.end(), bps.begin() + static_cast<std::ptrdiff_t>(kept));
  return kept;
}

// Solves jobs [l, r] given `base` units already committed to earlier prefixes
// and `budget` units available to this range.  capacity(k) is the absolute
// prefix capacity s*(d_k - now) for job index k; `bps` are the sorted
// breakpoints of exactly the jobs in [l, r].
void solve(std::span<const AllocJob> jobs, std::size_t l, std::size_t r, double base,
           double budget, std::span<const double> capacity, std::span<Breakpoint> bps,
           std::vector<Breakpoint>& spill, std::span<double> x) {
  budget = std::max(budget, 0.0);
  waterfill(jobs, l, r, budget, bps, x);
  if (l == r) {
    return;
  }
  // Find the most violated internal prefix constraint.
  double worst_violation = kTol;
  std::size_t worst_k = r;
  double prefix = 0.0;
  for (std::size_t k = l; k < r; ++k) {
    prefix += x[k];
    const double allowed = std::max(capacity[k] - base, 0.0);
    const double violation = prefix - allowed;
    if (violation > worst_violation) {
      worst_violation = violation;
      worst_k = k;
    }
  }
  if (worst_k == r) {
    return;  // feasible
  }
  // Pin the worst prefix tight and recurse on both sides.
  const double left_budget = std::max(capacity[worst_k] - base, 0.0);
  const std::size_t left = split_breakpoints(bps, worst_k, spill);
  solve(jobs, l, worst_k, base, left_budget, capacity, bps.first(left), spill, x);
  solve(jobs, worst_k + 1, r, base + left_budget, budget - left_budget, capacity,
        bps.subspan(left), spill, x);
}

}  // namespace

std::span<const double> maximize_quality(double now, std::span<const AllocJob> jobs,
                                         double speed_cap, QualityOptScratch& scratch) {
  const std::size_t n = jobs.size();
  scratch.extra.assign(n, 0.0);
  if (n == 0 || speed_cap <= 0.0) {
    return scratch.extra;
  }
  GE_CHECK(n <= std::numeric_limits<std::uint32_t>::max(), "too many jobs");
  double prev_deadline = -std::numeric_limits<double>::infinity();
  for (const AllocJob& aj : jobs) {
    GE_CHECK(aj.executed >= 0.0, "negative executed work");
    GE_CHECK(aj.max_extra >= 0.0, "negative max_extra");
    GE_CHECK(aj.deadline >= prev_deadline - 1e-9, "jobs must be EDF-sorted");
    prev_deadline = aj.deadline;
  }
  scratch.capacity.resize(n);
  scratch.breakpoints.clear();
  for (std::size_t k = 0; k < n; ++k) {
    scratch.capacity[k] = speed_cap * std::max(jobs[k].deadline - now, 0.0);
    // A job with no room above e_j takes no work at any level.
    const double top = jobs[k].executed + jobs[k].max_extra;
    if (top > jobs[k].executed) {
      const auto job = static_cast<std::uint32_t>(k);
      scratch.breakpoints.push_back(Breakpoint{jobs[k].executed, job, +1});
      scratch.breakpoints.push_back(Breakpoint{top, job, -1});
    }
  }
  std::sort(scratch.breakpoints.begin(), scratch.breakpoints.end(),
            [](const Breakpoint& a, const Breakpoint& b) { return a.level < b.level; });
  solve(jobs, 0, n - 1, 0.0, scratch.capacity[n - 1], scratch.capacity,
        scratch.breakpoints, scratch.spill, scratch.extra);
  return scratch.extra;
}

double allocation_quality(std::span<const AllocJob> jobs, std::span<const double> extra,
                          const quality::QualityFunction& f) {
  GE_CHECK(jobs.size() == extra.size(), "jobs/extra size mismatch");
  double total = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total += f.value(jobs[j].executed + extra[j]);
  }
  return total;
}

}  // namespace ge::opt
