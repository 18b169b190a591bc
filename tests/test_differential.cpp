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
#include <random>
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

    const std::vector<double> extra = maximize_quality(0.0, jobs, cap, f);
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
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<AllocJob> jobs = {
      AllocJob{100.0, 400.0, 1.0},
      AllocJob{0.0, 700.0, 2.0},
      AllocJob{250.0, 300.0, 3.0},
  };
  const std::vector<double> extra = maximize_quality(0.0, jobs, 1e7, f);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(extra[i], jobs[i].max_extra, 1e-6) << "job " << i;
  }
}

TEST(Differential, QualityOptZeroCapAllocatesNothing) {
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::vector<AllocJob> jobs = {AllocJob{0.0, 500.0, 1.0}};
  for (double cap : {0.0, -5.0}) {
    const std::vector<double> extra = maximize_quality(0.0, jobs, cap, f);
    ASSERT_EQ(extra.size(), 1u);
    EXPECT_EQ(extra[0], 0.0);
  }
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
