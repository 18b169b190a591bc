// Differential tests: the closed-form optimisers against brute force.
//
// The Energy-OPT planner and the Quality-OPT allocator are the two pieces of
// nontrivial optimisation theory in the scheduler; both have compact
// implementations whose correctness is easy to break silently (a wrong
// prefix bound still produces *a* plan).  On instances small enough to
// enumerate, brute force is an oracle:
//
//  * plan_min_energy: the optimal all-released schedule is a partition of
//    the EDF sequence into consecutive blocks, each run at the constant
//    speed that finishes it exactly at its last job's deadline.  With
//    n <= 7 jobs all 2^(n-1) partitions can be enumerated, infeasible ones
//    discarded, and the cheapest compared against the planner's energy.
//  * maximize_quality: the feasible set is the polymatroid of nested prefix
//    constraints; a fine grid over extra allocations (n <= 4) bounds the
//    optimum from below, and the analytic solution must match or beat every
//    feasible grid point.
//  * the full YDS scheduler is an independent implementation of the same
//    optimisation (critical intervals over arbitrary releases); with all
//    releases at zero its minimal energy must agree with plan_min_energy.
//  * the general-release YDS engine (parametric critical-interval search)
//    against the two rescanning constructions it replaced, kept below
//    verbatim as oracles: the timeline-collapsing yds_schedule and the
//    reclaim advisor's real-time placement.
//
// Every sweep uses fixed seeds so failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "opt/energy_opt.h"
#include "opt/plan.h"
#include "opt/quality_opt.h"
#include "opt/yds.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "util/check.h"
#include "workload/job.h"

namespace ge::opt {
namespace {

constexpr double kTol = 1e-6;

// Builds an EDF-sorted PlanJob instance over `jobs` storage.
std::vector<PlanJob> make_instance(std::vector<workload::Job>& storage,
                                   const std::vector<double>& work,
                                   const std::vector<double>& deadlines) {
  storage.clear();
  storage.resize(work.size());
  std::vector<PlanJob> plan(work.size());
  for (std::size_t i = 0; i < work.size(); ++i) {
    storage[i].id = i + 1;
    storage[i].deadline = deadlines[i];
    storage[i].demand = work[i];
    storage[i].target = work[i];
    plan[i] = PlanJob{&storage[i], work[i], deadlines[i]};
  }
  std::sort(plan.begin(), plan.end(), [](const PlanJob& a, const PlanJob& b) {
    if (a.deadline != b.deadline) {
      return a.deadline < b.deadline;
    }
    return a.job->id < b.job->id;
  });
  return plan;
}

// Brute-force minimal energy over all consecutive-block partitions of the
// EDF sequence.  A block [i, j] starts when the previous block ends and runs
// at the constant speed finishing exactly at deadline[j]; it is feasible
// when every intermediate job still meets its own deadline at that speed.
double brute_force_min_energy(double now, const std::vector<PlanJob>& jobs,
                              const power::PowerModel& pm) {
  const std::size_t n = jobs.size();
  double best = std::numeric_limits<double>::infinity();
  const std::uint32_t masks = 1u << (n - 1);  // bit k set = block break after k
  for (std::uint32_t mask = 0; mask < masks; ++mask) {
    double t = now;
    double energy = 0.0;
    bool feasible = true;
    std::size_t i = 0;
    while (i < n && feasible) {
      std::size_t j = i;
      while (j + 1 < n && ((mask >> j) & 1u) == 0) {
        ++j;
      }
      double block_work = 0.0;
      for (std::size_t k = i; k <= j; ++k) {
        block_work += jobs[k].remaining;
      }
      const double horizon = jobs[j].deadline - t;
      if (horizon <= 0.0) {
        feasible = false;
        break;
      }
      const double speed = block_work / horizon;
      // Intermediate deadlines within the block at this constant speed.
      double done = 0.0;
      for (std::size_t k = i; k <= j; ++k) {
        done += jobs[k].remaining;
        if (t + done / speed > jobs[k].deadline + kTol) {
          feasible = false;
          break;
        }
      }
      energy += pm.power(speed) * horizon;
      t = jobs[j].deadline;
      i = j + 1;
    }
    if (feasible) {
      best = std::min(best, energy);
    }
  }
  return best;
}

TEST(Differential, EnergyOptMatchesBruteForcePartitions) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> work_dist(50.0, 1200.0);
  std::uniform_real_distribution<double> slack_dist(0.05, 1.5);
  std::uniform_int_distribution<int> n_dist(1, 7);

  int optimal_hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = n_dist(rng);
    std::vector<double> work(static_cast<std::size_t>(n));
    std::vector<double> deadlines(static_cast<std::size_t>(n));
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      work[static_cast<std::size_t>(i)] = work_dist(rng);
      d += slack_dist(rng);
      deadlines[static_cast<std::size_t>(i)] = d;
    }
    std::vector<workload::Job> storage;
    const std::vector<PlanJob> jobs = make_instance(storage, work, deadlines);

    const ExecutionPlan plan =
        plan_min_energy(0.0, jobs, std::numeric_limits<double>::infinity());
    plan.validate(0.0);
    double total_work = 0.0;
    for (const PlanJob& j : jobs) {
      total_work += j.remaining;
    }
    EXPECT_NEAR(plan.total_units(), total_work, kTol * total_work)
        << "plan must complete every job when uncapped";

    const double oracle = brute_force_min_energy(0.0, jobs, pm);
    const double planned = plan.total_energy(pm);
    ASSERT_TRUE(std::isfinite(oracle)) << "instance has a feasible partition";
    // The planner must be optimal: no cheaper feasible partition exists, and
    // the planner's own energy is achieved by some partition.
    EXPECT_LE(planned, oracle * (1.0 + 1e-9)) << "trial " << trial;
    EXPECT_GE(planned, oracle * (1.0 - 1e-9)) << "trial " << trial;
    ++optimal_hits;
  }
  EXPECT_EQ(optimal_hits, 300);
}

TEST(Differential, EnergyOptAgreesWithFullYds) {
  // Independent-implementation cross-check: with every release at plan time
  // the full YDS critical-interval scheduler solves the same instance.
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(32);
  std::uniform_real_distribution<double> work_dist(50.0, 1500.0);
  std::uniform_real_distribution<double> slack_dist(0.05, 2.0);
  std::uniform_int_distribution<int> n_dist(1, 12);

  for (int trial = 0; trial < 200; ++trial) {
    const int n = n_dist(rng);
    std::vector<double> work(static_cast<std::size_t>(n));
    std::vector<double> deadlines(static_cast<std::size_t>(n));
    std::vector<YdsJob> yds(static_cast<std::size_t>(n));
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      work[k] = work_dist(rng);
      d += slack_dist(rng);
      deadlines[k] = d;
      yds[k] = YdsJob{0.0, d, work[k]};
    }
    std::vector<workload::Job> storage;
    const std::vector<PlanJob> jobs = make_instance(storage, work, deadlines);
    const ExecutionPlan plan =
        plan_min_energy(0.0, jobs, std::numeric_limits<double>::infinity());
    const double planned = plan.total_energy(pm);
    const double reference = yds_min_energy(yds, pm);
    EXPECT_NEAR(planned, reference, 1e-9 * std::max(planned, 1.0))
        << "trial " << trial << " n=" << n;
  }
}

// One scratch per call, returned as an owning vector.
std::vector<double> allocate(double now, std::span<const AllocJob> jobs, double cap) {
  QualityOptScratch scratch;
  const std::span<const double> x = maximize_quality(now, jobs, cap, scratch);
  return {x.begin(), x.end()};
}

// Feasibility of an extra-allocation vector under the nested prefix
// constraints sum_{j<=k} x_j <= cap * (d_k - now).
bool allocation_feasible(double now, const std::vector<AllocJob>& jobs,
                         const std::vector<double>& extra, double cap) {
  double prefix = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (extra[k] < -kTol || extra[k] > jobs[k].max_extra + kTol) {
      return false;
    }
    prefix += extra[k];
    if (prefix > cap * (jobs[k].deadline - now) + kTol) {
      return false;
    }
  }
  return true;
}

TEST(Differential, QualityOptBeatsEveryGridAllocation) {
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::mt19937_64 rng(33);
  std::uniform_real_distribution<double> extra_dist(50.0, 900.0);
  std::uniform_real_distribution<double> exec_dist(0.0, 300.0);
  std::uniform_real_distribution<double> slack_dist(0.1, 0.8);
  std::uniform_real_distribution<double> cap_dist(200.0, 1500.0);
  std::uniform_int_distribution<int> n_dist(1, 4);

  for (int trial = 0; trial < 120; ++trial) {
    const int n = n_dist(rng);
    std::vector<AllocJob> jobs(static_cast<std::size_t>(n));
    double d = 0.0;
    for (auto& j : jobs) {
      d += slack_dist(rng);
      j = AllocJob{exec_dist(rng), extra_dist(rng), d};
    }
    const double cap = cap_dist(rng);

    const std::vector<double> extra = allocate(0.0, jobs, cap);
    ASSERT_EQ(extra.size(), jobs.size());
    EXPECT_TRUE(allocation_feasible(0.0, jobs, extra, cap)) << "trial " << trial;
    const double analytic = allocation_quality(jobs, extra, f);

    // Exhaustive grid over x_j in [0, max_extra], 12 steps per axis
    // (12^4 = 20736 points max).  Every feasible grid point must not beat
    // the analytic optimum.
    constexpr int kSteps = 12;
    std::vector<int> idx(static_cast<std::size_t>(n), 0);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    double grid_best = -1.0;
    bool done = false;
    while (!done) {
      for (int i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        x[k] = jobs[k].max_extra * idx[k] / kSteps;
      }
      if (allocation_feasible(0.0, jobs, x, cap)) {
        grid_best = std::max(grid_best, allocation_quality(jobs, x, f));
      }
      int i = 0;
      while (i < n && ++idx[static_cast<std::size_t>(i)] > kSteps) {
        idx[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      done = i == n;
    }
    EXPECT_GE(analytic, grid_best - 1e-9) << "trial " << trial << " n=" << n;
  }
}

TEST(Differential, QualityOptUncappedTakesEverything) {
  // With capacity far above the total extra work the allocator must saturate
  // every job (f is strictly increasing below xmax).
  std::vector<AllocJob> jobs = {
      AllocJob{100.0, 400.0, 1.0},
      AllocJob{0.0, 700.0, 2.0},
      AllocJob{250.0, 300.0, 3.0},
  };
  const std::vector<double> extra = allocate(0.0, jobs, 1e7);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(extra[i], jobs[i].max_extra, 1e-6) << "job " << i;
  }
}

TEST(Differential, QualityOptZeroCapAllocatesNothing) {
  std::vector<AllocJob> jobs = {AllocJob{0.0, 500.0, 1.0}};
  for (double cap : {0.0, -5.0}) {
    const std::vector<double> extra = allocate(0.0, jobs, cap);
    ASSERT_EQ(extra.size(), 1u);
    EXPECT_EQ(extra[0], 0.0);
  }
}

// --- Oracle: the theta-bisection water-fill -------------------------------
// maximize_quality's former water-fill, kept verbatim: it bisects the
// common marginal quality theta (~55 steps) and maps each theta to a level
// through f's inverse derivative, whose generic bisection and exponential
// closed form are kept here too.

namespace bisection_oracle {

using quality::QualityFunction;

constexpr double kTol = 1e-9;

// Smallest x with f'(x) <= slope; 0 when slope >= f'(0), xmax when
// slope <= f'(xmax).  Closed form for the paper's exponential, bisection
// otherwise.
double inverse_derivative(const QualityFunction& f, double slope) {
  if (const auto* expf = dynamic_cast<const quality::ExponentialQuality*>(&f)) {
    const double c = expf->concavity();
    const double xmax = expf->xmax();
    const double norm = 1.0 - std::exp(-c * xmax);
    if (slope >= f.derivative(0.0)) {
      return 0.0;
    }
    if (slope <= f.derivative(xmax)) {
      return xmax;
    }
    // f'(x) = c e^{-cx} / norm  =>  x = -ln(slope * norm / c) / c.
    const double x = -std::log(slope * norm / c) / c;
    return std::clamp(x, 0.0, xmax);
  }
  // Generic bisection fallback; f' is non-increasing on [0, xmax].
  if (slope >= f.derivative(0.0)) {
    return 0.0;
  }
  if (slope <= f.derivative(f.xmax())) {
    return f.xmax();
  }
  double lo = 0.0;
  double hi = f.xmax();
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    // mid == lo or mid == hi is a fixed point: later iterations cannot move
    // either endpoint again (same mid, same branch every time), so breaking
    // here returns the same 0.5 * (lo + hi) the full loop would.
    const bool converged = mid == lo || mid == hi;
    if (f.derivative(mid) > slope) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  return 0.5 * (lo + hi);
}

// Equal-marginal water-filling for jobs [l, r] with a total budget, ignoring
// internal prefix constraints.  Writes allocations into x[l..r].
void waterfill(std::span<const AllocJob> jobs, std::size_t l, std::size_t r,
               double budget, const quality::QualityFunction& f,
               std::vector<double>& x) {
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
  // Bisection on the marginal-quality threshold theta: each job takes work
  // until its marginal f'(e_j + x_j) falls to theta.
  double theta_hi = 0.0;  // allocates nothing
  double theta_lo = std::numeric_limits<double>::infinity();
  for (std::size_t j = l; j <= r; ++j) {
    theta_hi = std::max(theta_hi, f.derivative(jobs[j].executed));
    theta_lo = std::min(theta_lo, f.derivative(jobs[j].executed + jobs[j].max_extra));
  }
  auto allocated_at = [&](double theta) {
    const double level = inverse_derivative(f, theta);
    double sum = 0.0;
    for (std::size_t j = l; j <= r; ++j) {
      const double want = level - jobs[j].executed;
      sum += std::clamp(want, 0.0, jobs[j].max_extra);
    }
    return sum;
  };
  double lo = theta_lo;
  double hi = theta_hi;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // Once the midpoint collides with an endpoint the interval cannot
    // shrink further: every later iteration recomputes this same mid and
    // takes this same branch, so hi has reached its final value.  Breaking
    // after the update is therefore bitwise-identical to running out the
    // full iteration count.
    const bool converged = mid == lo || mid == hi;
    if (allocated_at(mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (converged) {
      break;
    }
  }
  const double theta = hi;  // allocated_at(hi) <= budget
  const double level = inverse_derivative(f, theta);
  double used = 0.0;
  for (std::size_t j = l; j <= r; ++j) {
    x[j] = std::clamp(level - jobs[j].executed, 0.0, jobs[j].max_extra);
    used += x[j];
  }
  // Distribute the bisection residual to jobs with slack (keeps the budget
  // fully used; the residual is tiny so optimality is unaffected).
  double residual = budget - used;
  for (std::size_t j = l; j <= r && residual > kTol; ++j) {
    const double slack = jobs[j].max_extra - x[j];
    const double take = std::min(slack, residual);
    x[j] += take;
    residual -= take;
  }
}

// Solves jobs [l, r] given `base` units already committed to earlier prefixes
// and `budget` units available to this range.  capacity(k) is the absolute
// prefix capacity s*(d_k - now) for job index k.
void solve(std::span<const AllocJob> jobs, std::size_t l, std::size_t r, double base,
           double budget, std::span<const double> capacity,
           const quality::QualityFunction& f, std::vector<double>& x) {
  budget = std::max(budget, 0.0);
  waterfill(jobs, l, r, budget, f, x);
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
  solve(jobs, l, worst_k, base, left_budget, capacity, f, x);
  solve(jobs, worst_k + 1, r, base + left_budget, budget - left_budget, capacity, f,
        x);
}

std::vector<double> maximize_quality(double now, std::span<const AllocJob> jobs,
                                     double speed_cap,
                                     const quality::QualityFunction& f) {
  const std::size_t n = jobs.size();
  std::vector<double> x(n, 0.0);
  if (n == 0 || speed_cap <= 0.0) {
    return x;
  }
  double prev_deadline = -std::numeric_limits<double>::infinity();
  for (const AllocJob& aj : jobs) {
    GE_CHECK(aj.executed >= 0.0, "negative executed work");
    GE_CHECK(aj.max_extra >= 0.0, "negative max_extra");
    GE_CHECK(aj.deadline >= prev_deadline - 1e-9, "jobs must be EDF-sorted");
    prev_deadline = aj.deadline;
  }
  std::vector<double> capacity(n);
  for (std::size_t k = 0; k < n; ++k) {
    capacity[k] = speed_cap * std::max(jobs[k].deadline - now, 0.0);
  }
  solve(jobs, 0, n - 1, 0.0, capacity[n - 1], capacity, f, x);
  return x;
}

}  // namespace bisection_oracle

// The oracle's theta -> level map must invert f' (the bisection above is
// only as good as it).
class QualityFunctionProperties : public ::testing::TestWithParam<double> {};

TEST_P(QualityFunctionProperties, InverseDerivativeRoundTrip) {
  const quality::ExponentialQuality f(GetParam(), 1000.0);
  for (double x = 10.0; x <= 990.0; x += 49.0) {
    const double slope = f.derivative(x);
    EXPECT_NEAR(bisection_oracle::inverse_derivative(f, slope), x, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(ConcavitySweep, QualityFunctionProperties,
                         ::testing::Values(0.0005, 0.001, 0.002, 0.003, 0.005, 0.009));

TEST(PowerLawQuality, GenericInverseDerivative) {
  const quality::PowerLawQuality f(0.5, 1000.0);
  const double x = 400.0;
  EXPECT_NEAR(bisection_oracle::inverse_derivative(f, f.derivative(x)), x, 1e-4);
}

// --- The level solve against the bisection oracle --------------------------

struct QualityFamily {
  std::string name;
  std::unique_ptr<quality::QualityFunction> f;
  bool strictly_concave;
};

std::vector<QualityFamily> quality_families() {
  std::vector<QualityFamily> out;
  for (double c : {0.0005, 0.003, 0.009}) {
    out.push_back({"exp" + std::to_string(c),
                   std::make_unique<quality::ExponentialQuality>(c, 1000.0), true});
  }
  out.push_back({"powerlaw0.5", std::make_unique<quality::PowerLawQuality>(0.5, 1000.0),
                 true});
  out.push_back({"linear", std::make_unique<quality::LinearQuality>(1000.0), false});
  return out;
}

// Prefix feasibility against the clamped capacities s * max(d_k - now, 0),
// to the solver's own violation tolerance plus summation rounding.
bool level_feasible(double now, std::span<const AllocJob> jobs,
                    std::span<const double> x, double cap) {
  double prefix = 0.0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    if (x[k] < 0.0 || x[k] > jobs[k].max_extra) {
      return false;
    }
    prefix += x[k];
    const double capacity = cap * std::max(jobs[k].deadline - now, 0.0);
    if (prefix > capacity + 1e-9 + 1e-12 * capacity) {
      return false;
    }
  }
  return true;
}

// The oracle halves its theta bracket [min f'(e_j + w_j), max f'(e_j)] at
// most 100 times, which resolves theta to the last bit only when the
// bracket spans at most ~2^48.  The power law's f'(0) is 1e18, so with an
// untouched job (e_j = 0) the bracket is ~2^70 wide, the oracle stops
// ~1e-9 relative short in theta and tops the gap up in EDF order (~1e-7
// units off the exact level split).  Its allocations are compared
// elementwise only when the bracket is narrow enough; the objective check
// always applies.
bool oracle_converges(const quality::QualityFunction& f, std::span<const AllocJob> jobs) {
  double theta_hi = 0.0;
  double theta_lo = std::numeric_limits<double>::infinity();
  for (const AllocJob& j : jobs) {
    theta_hi = std::max(theta_hi, f.derivative(j.executed));
    theta_lo = std::min(theta_lo, f.derivative(j.executed + j.max_extra));
  }
  return theta_hi <= std::ldexp(theta_lo, 48);
}

void expect_matches_oracle(const QualityFamily& fam, double now,
                           const std::vector<AllocJob>& jobs, double cap,
                           const std::string& label) {
  SCOPED_TRACE(fam.name + " " + label + " n=" + std::to_string(jobs.size()));
  QualityOptScratch scratch;
  const std::span<const double> got = maximize_quality(now, jobs, cap, scratch);
  const std::vector<double> want =
      bisection_oracle::maximize_quality(now, jobs, cap, *fam.f);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(level_feasible(now, jobs, got, cap));
  const double q_got = allocation_quality(jobs, got, *fam.f);
  const double q_want = allocation_quality(jobs, want, *fam.f);
  EXPECT_GE(q_got, q_want - 1e-12 * std::abs(q_want));
  if (fam.strictly_concave && oracle_converges(*fam.f, jobs)) {
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-9) << "job " << j;
    }
  }
}

// Random EDF instances with knobs for the degenerate shapes: zero-extra
// jobs, shared executed volumes and deadlines at or before `now`.
std::vector<AllocJob> random_alloc_jobs(std::mt19937_64& rng, std::size_t n, double now,
                                        double p_zero_extra, double p_equal_exec,
                                        double p_expired) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> exec_dist(0.0, 300.0);
  std::uniform_real_distribution<double> extra_dist(1.0, 700.0);
  std::uniform_real_distribution<double> gap_dist(0.002, 0.05);
  std::vector<AllocJob> jobs(n);
  double d = now - 0.03;
  bool expired = true;
  // Half the instances share e_j = 0 (fresh jobs), the rest a random e_j.
  const double shared_exec = unit(rng) < 0.5 ? 0.0 : exec_dist(rng);
  for (AllocJob& j : jobs) {
    // EDF order puts expired jobs first: a prefix with deadlines at or
    // before `now` (later ones sit on `now` exactly), then the rest.
    expired = expired && unit(rng) < p_expired;
    d = expired ? std::min(d + 0.5 * gap_dist(rng), now)
                : std::max(d, now) + gap_dist(rng);
    j.deadline = d;
    j.executed = unit(rng) < p_equal_exec ? shared_exec : exec_dist(rng);
    j.max_extra = unit(rng) < p_zero_extra ? 0.0 : extra_dist(rng);
  }
  return jobs;
}

TEST(QualityOptLevel, MatchesBisectionOracleAcrossSizes) {
  const std::vector<QualityFamily> families = quality_families();
  std::mt19937_64 rng(1313);
  std::uniform_real_distribution<double> cap_dist(300.0, 6000.0);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 16; ++n) {
    sizes.push_back(n);
  }
  for (std::size_t n : {24, 32, 48, 64, 96, 128, 192, 256}) {
    sizes.push_back(n);
  }
  for (std::size_t n : sizes) {
    for (int trial = 0; trial < 3; ++trial) {
      const double now = 1.0;
      const std::vector<AllocJob> jobs = random_alloc_jobs(rng, n, now, 0.0, 0.0, 0.0);
      const double cap = cap_dist(rng);
      for (const QualityFamily& fam : families) {
        expect_matches_oracle(fam, now, jobs, cap, "trial " + std::to_string(trial));
      }
    }
  }
}

TEST(QualityOptLevel, MatchesBisectionOracleOnDegenerateInstances) {
  const std::vector<QualityFamily> families = quality_families();
  std::mt19937_64 rng(2626);
  std::uniform_real_distribution<double> cap_dist(300.0, 6000.0);
  struct Shape {
    const char* name;
    double p_zero_extra, p_equal_exec, p_expired;
  };
  const Shape shapes[] = {{"zero-extra", 0.4, 0.0, 0.0},
                          {"equal-exec", 0.0, 0.7, 0.0},
                          {"expired", 0.0, 0.0, 0.7},
                          {"all", 0.3, 0.5, 0.5}};
  for (const Shape& shape : shapes) {
    for (std::size_t n : {1, 2, 3, 5, 8, 17, 64, 256}) {
      for (int trial = 0; trial < 4; ++trial) {
        const double now = 1.0;
        const std::vector<AllocJob> jobs = random_alloc_jobs(
            rng, n, now, shape.p_zero_extra, shape.p_equal_exec, shape.p_expired);
        const double cap = cap_dist(rng);
        for (const QualityFamily& fam : families) {
          expect_matches_oracle(fam, now, jobs, cap, shape.name);
        }
      }
    }
  }
}

TEST(QualityOptLevel, BudgetOnABreakpoint) {
  // One shared deadline 1 s out, so the whole budget is the cap.  Levels
  // 100, 200 and 400 are breakpoints (an e_j or an e_j + w_j); the
  // budgets below are the allocations at exactly those levels.
  const std::vector<AllocJob> jobs = {
      AllocJob{0.0, 400.0, 1.0},
      AllocJob{100.0, 300.0, 1.0},
      AllocJob{200.0, 100.0, 1.0},
  };
  const std::vector<QualityFamily> families = quality_families();
  for (const auto& [level, budget] : {std::pair{100.0, 100.0}, std::pair{200.0, 300.0},
                                      std::pair{300.0, 600.0}, std::pair{400.0, 800.0}}) {
    for (const QualityFamily& fam : families) {
      expect_matches_oracle(fam, 0.0, jobs, budget,
                            "level " + std::to_string(level));
    }
    QualityOptScratch scratch;
    const std::span<const double> x = maximize_quality(0.0, jobs, budget, scratch);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_NEAR(x[j], std::clamp(level - jobs[j].executed, 0.0, jobs[j].max_extra),
                  1e-9)
          << "level " << level << " job " << j;
    }
  }
}

TEST(QualityOptLevel, LinearQualityTakesTheEqualLevelSplit) {
  // Any split is optimal for a linear f; the level solve returns the
  // equal-level one where the oracle fills in EDF order.
  const quality::LinearQuality f(1000.0);
  const std::vector<AllocJob> jobs = {AllocJob{0.0, 500.0, 1.0},
                                      AllocJob{0.0, 500.0, 1.0}};
  QualityOptScratch scratch;
  const std::span<const double> x = maximize_quality(0.0, jobs, 400.0, scratch);
  EXPECT_NEAR(x[0], 200.0, 1e-9);
  EXPECT_NEAR(x[1], 200.0, 1e-9);
  const std::vector<double> edf = bisection_oracle::maximize_quality(0.0, jobs, 400.0, f);
  EXPECT_NEAR(edf[0], 400.0, 1e-9);
  EXPECT_NEAR(edf[1], 0.0, 1e-9);
  EXPECT_NEAR(allocation_quality(jobs, x, f), allocation_quality(jobs, edf, f), 1e-12);
}

// --- Oracles: the rescanning general-release constructions ---------------
// Both are kept verbatim from before the parametric engine replaced them.
// The collapse oracle re-derives the critical interval from scratch every
// round over a shrinking timeline (O(n^2) per round); the placement oracle
// is the reclaim advisor's former real-time construction, also O(n^2) per
// round plus a linear-scan availability lookup.

namespace collapse_oracle {

constexpr double kTimeTol = 1e-12;

struct Critical {
  double t1 = 0.0;
  double t2 = 0.0;
  double intensity = -1.0;
};

// Finds the maximum-intensity interval.  t1 ranges over release points and
// t2 over deadline points (a classic property of the YDS optimum).  One
// deadline-sort per round, then an O(n) sweep per distinct release:
// O(n^2) per round overall.
Critical find_critical(const std::vector<YdsJob>& jobs) {
  Critical best;
  std::vector<double> releases;
  releases.reserve(jobs.size());
  for (const YdsJob& job : jobs) {
    releases.push_back(job.release);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()), releases.end());

  std::vector<const YdsJob*> by_deadline;
  by_deadline.reserve(jobs.size());
  for (const YdsJob& job : jobs) {
    by_deadline.push_back(&job);
  }
  std::sort(by_deadline.begin(), by_deadline.end(),
            [](const YdsJob* a, const YdsJob* b) { return a->deadline < b->deadline; });

  for (double t1 : releases) {
    double cumulative = 0.0;
    for (std::size_t i = 0; i < by_deadline.size(); ++i) {
      const YdsJob* job = by_deadline[i];
      if (job->release >= t1 - kTimeTol) {
        cumulative += job->work;
      }
      // Only evaluate at the last job sharing this deadline.
      if (i + 1 < by_deadline.size() &&
          by_deadline[i + 1]->deadline <= job->deadline + kTimeTol) {
        continue;
      }
      const double t2 = job->deadline;
      if (t2 <= t1 + kTimeTol || cumulative <= 0.0) {
        continue;
      }
      const double intensity = cumulative / (t2 - t1);
      if (intensity > best.intensity + 1e-12) {
        best = Critical{t1, t2, intensity};
      }
    }
  }
  return best;
}

YdsSchedule yds_schedule(std::span<const YdsJob> input) {
  std::vector<YdsJob> jobs;
  jobs.reserve(input.size());
  for (const YdsJob& job : input) {
    if (job.work <= 0.0) {
      continue;
    }
    GE_CHECK(job.deadline > job.release + kTimeTol,
             "YDS job needs a positive execution window");
    jobs.push_back(job);
  }

  YdsSchedule schedule;
  while (!jobs.empty()) {
    const Critical crit = find_critical(jobs);
    GE_CHECK(crit.intensity > 0.0, "no critical interval found");
    const double t1 = crit.t1;
    const double t2 = crit.t2;

    YdsBlock block;
    block.duration = t2 - t1;
    block.speed = crit.intensity;

    // Remove the jobs contained in [t1, t2] and excise the interval from
    // the timeline for the survivors.
    auto collapse = [t1, t2](double t) {
      if (t <= t1 + kTimeTol) {
        return t;
      }
      if (t < t2) {
        return t1;
      }
      return t - (t2 - t1);
    };
    std::vector<YdsJob> remaining;
    remaining.reserve(jobs.size());
    for (const YdsJob& job : jobs) {
      const bool contained =
          job.release >= t1 - kTimeTol && job.deadline <= t2 + kTimeTol;
      if (contained) {
        block.work += job.work;
        ++block.jobs;
        continue;
      }
      YdsJob shrunk = job;
      shrunk.release = collapse(job.release);
      shrunk.deadline = collapse(job.deadline);
      GE_CHECK(shrunk.deadline > shrunk.release + kTimeTol,
               "collapse produced an empty window");
      remaining.push_back(shrunk);
    }
    GE_CHECK(block.jobs > 0, "critical interval contained no job");
    schedule.blocks.push_back(block);
    jobs = std::move(remaining);
  }
  return schedule;
}

}  // namespace collapse_oracle

namespace placement_oracle {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One re-speedable unit of realised work: a (core, job) pair's executed
// units, to be completed within [release, deadline].
struct RJob {
  double release = 0.0;
  double deadline = 0.0;
  double work = 0.0;
  std::size_t idx = 0;  // index into the core's job list
};

// A placed re-speed slice: run job `idx` at `speed` over [t0, t1].
struct RSlice {
  double t0 = 0.0;
  double t1 = 0.0;
  double speed = 0.0;
  std::size_t idx = 0;
};

struct Placement {
  std::vector<double> speed;   // per input job: its critical-block speed
  std::vector<RSlice> slices;  // in placement order
};

// Disjoint sorted intervals with measure queries.  The cumulative measure
// M(t) (total availability at or before t) makes measure(avail cap [t1,t2])
// an O(log n) lookup during the candidate scan.
class Availability {
 public:
  Availability(double lo, double hi) {
    if (hi > lo) {
      ivs_.emplace_back(lo, hi);
    }
    rebuild();
  }

  bool empty() const { return ivs_.empty(); }

  double measure_between(double t1, double t2) const {
    if (t2 <= t1) {
      return 0.0;
    }
    return cum_at(t2) - cum_at(t1);
  }

  // avail cap [t1, t2], as intervals.
  std::vector<std::pair<double, double>> intersect(double t1, double t2) const {
    std::vector<std::pair<double, double>> out;
    for (const auto& [a, b] : ivs_) {
      const double lo = std::max(a, t1);
      const double hi = std::min(b, t2);
      if (hi > lo) {
        out.emplace_back(lo, hi);
      }
    }
    return out;
  }

  void excise(double t1, double t2) {
    std::vector<std::pair<double, double>> next;
    for (const auto& [a, b] : ivs_) {
      if (b <= t1 || a >= t2) {
        next.emplace_back(a, b);
        continue;
      }
      if (a < t1) {
        next.emplace_back(a, t1);
      }
      if (b > t2) {
        next.emplace_back(t2, b);
      }
    }
    ivs_ = std::move(next);
    rebuild();
  }

 private:
  void rebuild() {
    cum_.assign(ivs_.size() + 1, 0.0);
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      cum_[i + 1] = cum_[i] + (ivs_[i].second - ivs_[i].first);
    }
  }

  // Total availability measure in (-inf, t].
  double cum_at(double t) const {
    std::size_t i = 0;
    double extra = 0.0;
    while (i < ivs_.size() && ivs_[i].second <= t) {
      ++i;
    }
    if (i < ivs_.size() && ivs_[i].first < t) {
      extra = t - ivs_[i].first;
    }
    return cum_[i] + extra;
  }

  std::vector<std::pair<double, double>> ivs_;
  std::vector<double> cum_;
};

// Preemptive EDF of `crit` (window subseteq [t1,t2], sorted by (deadline,
// idx)) at constant speed over the availability segments; appends the
// produced slices.  YDS guarantees the critical work exactly fills the
// segments, so any floating-point residue below `work_eps` is dropped.
void edf_place(const std::vector<RJob>& crit, double speed,
               const std::vector<std::pair<double, double>>& segments,
               double work_eps, std::vector<RSlice>* slices) {
  // Injection order by release; run order by (deadline, idx).
  std::vector<std::size_t> by_release(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    by_release[i] = i;
  }
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              if (crit[a].release != crit[b].release) {
                return crit[a].release < crit[b].release;
              }
              return crit[a].idx < crit[b].idx;
            });
  std::vector<double> rem(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    rem[i] = crit[i].work;
  }
  // `ready` kept sorted by (deadline, idx): crit is already in that order,
  // so a sorted-insert of positions keeps ties deterministic.
  std::vector<std::size_t> ready;
  std::size_t next_rel = 0;
  for (std::size_t si = 0; si < segments.size(); ++si) {
    double t = segments[si].first;
    while (t < segments[si].second) {
      while (next_rel < by_release.size() &&
             crit[by_release[next_rel]].release <= t) {
        const std::size_t j = by_release[next_rel++];
        ready.insert(std::lower_bound(ready.begin(), ready.end(), j), j);
      }
      if (ready.empty()) {
        if (next_rel >= by_release.size()) {
          return;  // everything placed; trailing segment time unused (FP)
        }
        // Idle until the next release (it lands in this segment or later).
        t = std::max(t, crit[by_release[next_rel]].release);
        continue;
      }
      const std::size_t j = ready.front();
      double run_until = std::min(segments[si].second, t + rem[j] / speed);
      if (next_rel < by_release.size()) {
        run_until = std::min(run_until, crit[by_release[next_rel]].release);
      }
      if (run_until <= t) {
        // No representable progress: the residue is below FP resolution.
        rem[j] = 0.0;
        ready.erase(ready.begin());
        continue;
      }
      slices->push_back({t, run_until, speed, crit[j].idx});
      rem[j] -= speed * (run_until - t);
      t = run_until;
      if (rem[j] <= work_eps) {
        rem[j] = 0.0;
        ready.erase(ready.begin());
      }
    }
  }
}

// Critical-interval YDS with real-time placement.  Returns per-job block
// speeds and the placed slices; the continuous energy of the result equals
// opt::yds_min_energy on the same instance (differentially tested).
Placement yds_place(std::vector<RJob> jobs) {
  Placement out;
  out.speed.assign(jobs.size(), 0.0);
  std::vector<RJob> active;
  double lo = kInf;
  double hi = -kInf;
  double total_work = 0.0;
  for (const RJob& j : jobs) {
    if (j.work <= 0.0) {
      continue;
    }
    GE_CHECK(j.deadline > j.release, "reclaim: job window must be non-empty");
    active.push_back(j);
    lo = std::min(lo, j.release);
    hi = std::max(hi, j.deadline);
    total_work += j.work;
  }
  if (active.empty()) {
    return out;
  }
  const double work_eps = 1e-9 * std::max(1.0, total_work);
  Availability avail(lo, hi);

  while (!active.empty()) {
    GE_CHECK(!avail.empty(), "reclaim: ran out of availability");
    // Candidate intervals: [release, deadline] pairs.  For a fixed t1 the
    // contained work is accumulated over deadlines in ascending order.
    std::vector<double> releases;
    releases.reserve(active.size());
    for (const RJob& j : active) {
      releases.push_back(j.release);
    }
    std::sort(releases.begin(), releases.end());
    releases.erase(std::unique(releases.begin(), releases.end()),
                   releases.end());
    std::vector<std::size_t> by_deadline(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      by_deadline[i] = i;
    }
    std::sort(by_deadline.begin(), by_deadline.end(),
              [&](std::size_t a, std::size_t b) {
                return active[a].deadline < active[b].deadline;
              });

    double best_g = -1.0;
    double best_t1 = 0.0;
    double best_t2 = 0.0;
    for (const double t1 : releases) {
      double work = 0.0;
      for (std::size_t p = 0; p < by_deadline.size(); ++p) {
        const RJob& j = active[by_deadline[p]];
        if (j.release >= t1) {
          work += j.work;
        }
        const double t2 = j.deadline;
        // Later jobs may share this deadline; only evaluate the candidate
        // once all of them are folded in.
        if (p + 1 < by_deadline.size() &&
            active[by_deadline[p + 1]].deadline <= t2) {
          continue;
        }
        if (work <= 0.0) {
          continue;
        }
        const double span = avail.measure_between(t1, t2);
        if (span <= 0.0) {
          continue;
        }
        const double g = work / span;
        if (g > best_g) {
          best_g = g;
          best_t1 = t1;
          best_t2 = t2;
        }
      }
    }
    GE_CHECK(best_g > 0.0, "reclaim: no feasible critical interval");

    // Critical set: active jobs with window inside [t1, t2], EDF order.
    std::vector<RJob> crit;
    std::vector<RJob> rest;
    for (const RJob& j : active) {
      if (j.release >= best_t1 && j.deadline <= best_t2) {
        crit.push_back(j);
      } else {
        rest.push_back(j);
      }
    }
    std::sort(crit.begin(), crit.end(), [](const RJob& a, const RJob& b) {
      if (a.deadline != b.deadline) {
        return a.deadline < b.deadline;
      }
      return a.idx < b.idx;
    });
    for (const RJob& j : crit) {
      out.speed[j.idx] = best_g;
    }
    edf_place(crit, best_g, avail.intersect(best_t1, best_t2), work_eps,
              &out.slices);
    avail.excise(best_t1, best_t2);
    active = std::move(rest);
  }
  return out;
}

}  // namespace placement_oracle

// --- The engine against both oracles ----------------------------------------

enum class Family { kAgreeable, kRandom, kTies, kZeroWork, kTinyWindows, kAbutting };

const char* family_name(Family f) {
  switch (f) {
    case Family::kAgreeable: return "agreeable";
    case Family::kRandom: return "random";
    case Family::kTies: return "ties";
    case Family::kZeroWork: return "zero-work";
    case Family::kTinyWindows: return "tiny-windows";
    case Family::kAbutting: return "abutting";
  }
  return "?";
}

std::vector<YdsJob> make_family(Family family, std::size_t n,
                                std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> step(0, 12);
  std::vector<YdsJob> jobs;
  double release = 0.0;
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    YdsJob job;
    job.work = 10.0 + 990.0 * u(rng);
    switch (family) {
      case Family::kAgreeable:
        release += 0.3 * u(rng);
        deadline = std::max(deadline, release) + 0.05 + 0.5 * u(rng);
        job.release = release;
        job.deadline = deadline;
        break;
      case Family::kTies:
        // Releases and deadlines on a coarse grid: many shared points.
        job.release = 0.25 * step(rng);
        job.deadline = job.release + 0.25 * (1 + step(rng) % 4);
        break;
      case Family::kAbutting:
        // Dense jobs filling grid cells, light jobs whose windows start or
        // end exactly where a dense cell (a critical interval) does.
        job.release = 0.5 * step(rng);
        if (i % 3 == 0) {
          job.deadline = job.release + 0.5;
          job.work *= 4.0;
        } else {
          job.deadline = job.release + 0.5 * (1 + step(rng) % 5);
          job.work *= 0.3;
        }
        break;
      case Family::kRandom:
      case Family::kZeroWork:
      case Family::kTinyWindows:
        job.release = 3.0 * u(rng);
        job.deadline = job.release + 0.02 + 1.5 * u(rng);
        if (family == Family::kZeroWork && i % 3 == 1) {
          job.work = 0.0;
        }
        if (family == Family::kTinyWindows && i % 3 == 1) {
          // A ~1e-9 s window at a speed comparable to the others'.
          job.deadline = job.release + 1e-9;
          job.work = 1e-9 * (100.0 + 4000.0 * u(rng));
        }
        break;
    }
    jobs.push_back(job);
  }
  return jobs;
}

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

// 1e-12, or the placement oracle's own precision floor when that is
// coarser: it measures a window as M(d) - M(r), two cumulative sums of
// magnitude ~d, so a window of width d - r carries a relative error of
// about eps * d / (d - r) (1e-7 for a 1e-9 s window at t = 1 s).  The
// engine sums spans piecewise and does not lose those digits.
double speed_tolerance(const YdsJob& job) {
  return std::max(1e-12, 4.0 * std::numeric_limits<double>::epsilon() *
                             (1.0 + std::abs(job.deadline)) /
                             (job.deadline - job.release));
}

// Every slice inside its job's window, no two slices overlapping, and each
// job's work conserved to the placement's work_eps.
void expect_valid_placement(const std::vector<YdsJob>& jobs,
                            const YdsPlacement& placed,
                            const std::string& label) {
  double total = 0.0;
  for (const YdsJob& j : jobs) {
    total += std::max(j.work, 0.0);
  }
  const double work_eps = 1e-9 * std::max(1.0, total);
  std::vector<double> done(jobs.size(), 0.0);
  std::vector<std::pair<double, double>> spans;
  for (const YdsSlice& s : placed.slices) {
    ASSERT_LT(s.job, jobs.size()) << label;
    const YdsJob& j = jobs[s.job];
    EXPECT_LT(s.start, s.end) << label;
    EXPECT_GE(s.start, j.release) << label << " job " << s.job;
    EXPECT_LE(s.end, j.deadline) << label << " job " << s.job;
    EXPECT_EQ(s.speed, placed.speed[s.job]) << label;
    done[s.job] += s.speed * (s.end - s.start);
    spans.emplace_back(s.start, s.end);
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, spans[i - 1].second) << label << " overlap";
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(done[i], std::max(jobs[i].work, 0.0), work_eps)
        << label << " job " << i;
  }
}

TEST(YdsEngine, MatchesBothOraclesOnEveryFamily) {
  const power::PowerModel pm(5.0, 3.0, 1000.0);
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::size_t> n_dist(1, 40);
  for (Family family : {Family::kAgreeable, Family::kRandom, Family::kTies,
                        Family::kZeroWork, Family::kTinyWindows,
                        Family::kAbutting}) {
    for (int trial = 0; trial < 150; ++trial) {
      const std::string label = std::string(family_name(family)) + " trial " +
                                std::to_string(trial);
      const std::vector<YdsJob> jobs = make_family(family, n_dist(rng), rng);

      // Collapsed blocks: energy of yds_schedule vs the collapse oracle.
      const double engine_e = yds_schedule(jobs).energy(pm);
      const double collapse_e = collapse_oracle::yds_schedule(jobs).energy(pm);
      EXPECT_LE(relative_gap(engine_e, collapse_e), 1e-12) << label;

      // Real-time placement: slice energy and per-job speeds vs the
      // reclaim advisor's former construction.
      std::vector<placement_oracle::RJob> rjobs;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        rjobs.push_back({jobs[i].release, jobs[i].deadline, jobs[i].work, i});
      }
      const placement_oracle::Placement oracle =
          placement_oracle::yds_place(rjobs);
      const YdsPlacement placed = yds_place(jobs);
      double oracle_e = 0.0;
      for (const placement_oracle::RSlice& s : oracle.slices) {
        oracle_e += pm.power(s.speed) * (s.t1 - s.t0);
      }
      double placed_e = 0.0;
      for (const YdsSlice& s : placed.slices) {
        placed_e += pm.power(s.speed) * (s.end - s.start);
      }
      EXPECT_LE(relative_gap(placed_e, oracle_e), 1e-12) << label;
      EXPECT_LE(relative_gap(placed_e, engine_e), 1e-12) << label;
      ASSERT_EQ(placed.speed.size(), oracle.speed.size()) << label;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_LE(relative_gap(placed.speed[i], oracle.speed[i]),
                  speed_tolerance(jobs[i]))
            << label << " job " << i;
      }
      expect_valid_placement(jobs, placed, label);
    }
  }
}

// Larger instances, where the engine splits into independent pieces and
// runs many Dinkelbach rounds; one pass of each oracle keeps this fast.
TEST(YdsEngine, MatchesOraclesOnLargeInstances) {
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(42);
  for (Family family : {Family::kRandom, Family::kAgreeable, Family::kTies}) {
    for (std::size_t n : {200u, 600u}) {
      const std::string label =
          std::string(family_name(family)) + " n=" + std::to_string(n);
      const std::vector<YdsJob> jobs = make_family(family, n, rng);
      const double engine_e = yds_schedule(jobs).energy(pm);
      EXPECT_LE(relative_gap(engine_e,
                             collapse_oracle::yds_schedule(jobs).energy(pm)),
                1e-12)
          << label;
      std::vector<placement_oracle::RJob> rjobs;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        rjobs.push_back({jobs[i].release, jobs[i].deadline, jobs[i].work, i});
      }
      const placement_oracle::Placement oracle =
          placement_oracle::yds_place(rjobs);
      const YdsPlacement placed = yds_place(jobs);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_LE(relative_gap(placed.speed[i], oracle.speed[i]),
                  speed_tolerance(jobs[i]))
            << label << " job " << i;
      }
      expect_valid_placement(jobs, placed, label);
    }
  }
}

}  // namespace
}  // namespace ge::opt
