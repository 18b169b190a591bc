// Bit-identity guards for the hot-path kernel optimisations.
//
// The optimised kernels (scratch-reuse LF cutter, beta==2 power fast path,
// flat-state event queue, EDF sort-once GE round) are only admissible if
// they produce *bit-identical* results to the originals -- the repo's
// determinism contract (docs/DETERMINISM.md) pins figures to seeds, so even
// a last-ulp drift would silently invalidate every pinned artefact.  Three
// layers of defence:
//
//  1. GoldenPinnedSeeds: end-to-end RunResults for eight pinned
//     (scheduler, rate, seed, ladder) points, captured from the
//     pre-optimisation build and compared with EXPECT_EQ (exact).
//  2. Reference-implementation sweeps: the optimised cutter and power model
//     against verbatim copies of the pre-optimisation code across thousands
//     of random instances, field-by-field bitwise.
//  3. Model-based event-queue check: random push/cancel/pop interleavings
//     against an obviously-correct reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "opt/job_cutter.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "sim/calendar_queue.h"
#include "sim/event_queue.h"
#include "workload/trace.h"

namespace ge {
namespace {

// ---------------------------------------------------------------------------
// 1. End-to-end golden results, captured from the pre-optimisation build
//    (commit e3d9eef) with %.17g precision -- enough to round-trip a double
//    exactly.  Any change in summation order, sort order or math library
//    call on the simulation path shows up here.
// ---------------------------------------------------------------------------

struct GoldenRun {
  const char* scheduler;
  double rate;
  std::uint64_t seed;
  bool discrete;
  double quality;
  double energy;
  double mean_response_ms;
  double aes_fraction;
  double avg_speed_ghz;
  std::uint64_t released;
  std::uint64_t completed;
  std::uint64_t partial;
  std::uint64_t dropped;
  std::uint64_t rounds;
};

// Re-pinned when Quality-OPT moved from the theta bisection to the exact
// level solve: floats moved by at most 4e-16 relative, every count
// stayed the same.
constexpr GoldenRun kGoldenRuns[] = {
    {"GE", 100, 11ULL, false, 0.90008764233722216, 430.32237279687808,
     148.54488186790354, 0.83401342970200809, 1.1852589280302941, 398, 75, 323, 0,
     312},
    {"GE", 220, 12ULL, false, 0.85601718414018235, 1239.1789690915582,
     142.48396268602281, 0.046697214226062371, 1.9243801383697197, 836, 285, 551,
     0, 130},
    {"GE", 180, 13ULL, true, 0.89167080675069632, 1120.9449139316621,
     144.89482603354921, 0.064212170081530157, 1.8288911621817325, 740, 194, 546,
     0, 115},
    {"BE", 220, 14ULL, false, 0.8257523892559151, 1273.728865153272,
     142.78149569599788, 0, 1.9617000687016282, 890, 261, 629, 0, 134},
    {"OQ", 150, 15ULL, false, 0.89590113488017564, 742.39511924111775,
     145.66464365623207, 1, 1.4554880041800737, 580, 68, 512, 0, 195},
    {"FCFS", 150, 16ULL, false, 0.91827324950069977, 890.26675004175115, 150, 0,
     1.620920858671796, 646, 428, 218, 0, 0},
    {"GE-NoComp", 200, 17ULL, false, 0.84686863380378685, 1144.484284326101,
     143.83918795583165, 1, 1.8020785197346278, 758, 112, 646, 0, 125},
    {"SJF", 150, 18ULL, true, 0.78376760874465978, 583.80449533284411,
     142.40554424137781, 0, 1.3235555631310858, 582, 428, 85, 69, 0},
};

TEST(KernelEquivalence, GoldenPinnedSeeds) {
  for (const GoldenRun& g : kGoldenRuns) {
    exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
    cfg.arrival_rate = g.rate;
    cfg.duration = 4.0;
    cfg.seed = g.seed;
    cfg.discrete_speeds = g.discrete;
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    const exp::RunResult r =
        exp::run_simulation(cfg, exp::SchedulerSpec::parse(g.scheduler), trace);
    SCOPED_TRACE(std::string(g.scheduler) + " rate=" + std::to_string(g.rate) +
                 " seed=" + std::to_string(g.seed));
    EXPECT_EQ(r.quality, g.quality);
    EXPECT_EQ(r.energy, g.energy);
    EXPECT_EQ(r.mean_response_ms, g.mean_response_ms);
    EXPECT_EQ(r.aes_fraction, g.aes_fraction);
    EXPECT_EQ(r.avg_speed_ghz, g.avg_speed_ghz);
    EXPECT_EQ(r.released, g.released);
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(r.partial, g.partial);
    EXPECT_EQ(r.dropped, g.dropped);
    EXPECT_EQ(r.rounds, g.rounds);
  }
}

// ---------------------------------------------------------------------------
// 2a. PowerModel beta==2 fast path vs std::pow.  glibc's pow is correctly
//     rounded for integer y=2, so a*(g*g) must agree bitwise; the sweep
//     covers the full speed range the simulator uses plus random draws.
// ---------------------------------------------------------------------------

TEST(KernelEquivalence, PowerModelBetaTwoBitIdenticalToPow) {
  const power::PowerModel fast(5.0, 2.0, 1000.0);
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> speed(0.0, 4000.0);
  for (int i = 0; i < 200000; ++i) {
    const double s = i < 4001 ? static_cast<double>(i) : speed(rng);
    const double ghz = s / 1000.0;
    EXPECT_EQ(fast.power(s), 5.0 * std::pow(ghz, 2.0)) << "speed=" << s;
  }
}

TEST(KernelEquivalence, PowerModelGenericBetaStillUsesPow) {
  const power::PowerModel cubic(5.0, 3.0, 1000.0);
  std::mt19937_64 rng(2025);
  std::uniform_real_distribution<double> speed(0.0, 4000.0);
  for (int i = 0; i < 50000; ++i) {
    const double s = speed(rng);
    EXPECT_EQ(cubic.power(s), 5.0 * std::pow(s / 1000.0, 3.0));
  }
}

TEST(KernelEquivalence, PowerModelRoundTripUnchanged) {
  // speed_for_power deliberately keeps std::pow(., 1/beta): pow(x, 0.5) and
  // sqrt(x) differ in the last ulp on this libm, so no fast path there.
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  for (double w : {0.0, 1.0, 5.0, 7.3, 20.0, 45.0, 80.0}) {
    EXPECT_NEAR(pm.power(pm.speed_for_power(w)), w, 1e-9 * std::max(w, 1.0));
  }
}

// ---------------------------------------------------------------------------
// 2b. LF cutter: optimised prefix-sum implementation vs a verbatim copy of
//     the pre-optimisation algorithm (quadratic re-evaluation per rung).
// ---------------------------------------------------------------------------

constexpr double kQualityTol = 1e-9;

double reference_batch_quality(std::span<const double> targets,
                               std::span<const double> demands,
                               const quality::QualityFunction& f) {
  double achieved = 0.0;
  double potential = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    achieved += f.value(targets[i]);
    potential += f.value(demands[i]);
  }
  return potential > 0.0 ? achieved / potential : 1.0;
}

// Verbatim pre-optimisation cut_longest_first (commit e3d9eef).
opt::CutResult reference_cut_longest_first(std::span<const double> demands,
                                           const quality::QualityFunction& f,
                                           double q_target) {
  opt::CutResult result;
  result.targets.assign(demands.begin(), demands.end());
  const std::size_t n = demands.size();
  if (n == 0 || q_target >= 1.0 - kQualityTol) {
    result.uncut = true;
    result.level = n == 0 ? 0.0 : *std::max_element(demands.begin(), demands.end());
    result.quality = 1.0;
    return result;
  }
  q_target = std::max(q_target, 0.0);

  std::vector<double> levels(demands.begin(), demands.end());
  std::sort(levels.begin(), levels.end(), std::greater<>());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  double potential = 0.0;
  for (double p : demands) {
    potential += f.value(p);
  }

  std::vector<double> sorted(demands.begin(), demands.end());
  std::sort(sorted.begin(), sorted.end());

  auto quality_at_level = [&](double level) {
    double achieved = 0.0;
    for (double p : sorted) {
      achieved += f.value(std::min(p, level));
    }
    return achieved / potential;
  };

  double level = levels.front();
  double quality = 1.0;
  int iterations = 0;
  std::size_t next_rung = 1;
  bool overshoot = false;
  while (quality > q_target + kQualityTol) {
    ++iterations;
    const double next_level = next_rung < levels.size() ? levels[next_rung] : 0.0;
    ++next_rung;
    level = next_level;
    quality = quality_at_level(level);
    if (level <= 0.0 && quality > q_target + kQualityTol) {
      break;
    }
    if (quality < q_target - kQualityTol) {
      overshoot = true;
      break;
    }
  }

  if (overshoot) {
    double f_uncut = 0.0;
    std::size_t cut_count = 0;
    for (double p : sorted) {
      if (p <= level + kQualityTol) {
        f_uncut += f.value(p);
      } else {
        ++cut_count;
      }
    }
    const double desired =
        (q_target * potential - f_uncut) / static_cast<double>(cut_count);
    const double clamped = std::clamp(desired, 0.0, 1.0);
    level = f.inverse(clamped);
  }

  result.level = level;
  result.iterations = iterations;
  for (std::size_t i = 0; i < n; ++i) {
    result.targets[i] = std::min(demands[i], level);
  }
  result.quality = reference_batch_quality(result.targets, demands, f);
  return result;
}

void expect_cut_identical(const opt::CutResult& got, const opt::CutResult& want) {
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.quality, want.quality);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.uncut, want.uncut);
  ASSERT_EQ(got.targets.size(), want.targets.size());
  for (std::size_t i = 0; i < want.targets.size(); ++i) {
    EXPECT_EQ(got.targets[i], want.targets[i]) << "target " << i;
  }
}

TEST(KernelEquivalence, CutterBitIdenticalToReference) {
  const quality::ExponentialQuality expq(0.003, 1000.0);
  const quality::PowerLawQuality plq(0.5, 1000.0);
  const quality::LinearQuality linq(1000.0);
  const quality::QualityFunction* fams[] = {&expq, &plq, &linq};

  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> demand(1.0, 1400.0);
  std::uniform_int_distribution<int> size_dist(1, 40);
  const double q_targets[] = {0.0, 0.2, 0.5, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0};

  opt::CutScratch scratch;  // one scratch across every case: catches stale state
  for (int trial = 0; trial < 400; ++trial) {
    const int n = size_dist(rng);
    std::vector<double> demands(static_cast<std::size_t>(n));
    for (double& d : demands) {
      d = demand(rng);
    }
    if (trial % 5 == 0 && n > 2) {
      // Duplicate demand levels: exercises the rung-dedup path.
      demands[1] = demands[0];
      demands[2] = demands[0];
    }
    for (const quality::QualityFunction* f : fams) {
      for (double q : q_targets) {
        SCOPED_TRACE(f->name() + " q=" + std::to_string(q) +
                     " trial=" + std::to_string(trial));
        const opt::CutResult want = reference_cut_longest_first(demands, *f, q);
        const opt::CutResult got = opt::cut_longest_first(demands, *f, q);
        expect_cut_identical(got, want);
        opt::cut_longest_first(demands, *f, q, scratch);
        expect_cut_identical(scratch.result, want);
      }
    }
  }
  // Empty batch.
  const opt::CutResult empty = opt::cut_longest_first({}, expq, 0.9);
  EXPECT_TRUE(empty.uncut);
  EXPECT_EQ(empty.level, 0.0);
}

TEST(KernelEquivalence, CutLevelBisectionStillMeetsTarget) {
  // cut_level_for_quality changed summation order (prefix sums); it is a
  // test-only cross-check path, so the contract is mathematical, not
  // bitwise: the returned level must achieve >= q_target.
  const quality::ExponentialQuality f(0.003, 1000.0);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> demand(1.0, 1400.0);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> demands(12);
    for (double& d : demands) {
      d = demand(rng);
    }
    for (double q : {0.3, 0.7, 0.9, 0.97}) {
      const double level = opt::cut_level_for_quality(demands, f, q);
      std::vector<double> targets(demands.size());
      for (std::size_t i = 0; i < demands.size(); ++i) {
        targets[i] = std::min(demands[i], level);
      }
      EXPECT_GE(opt::batch_quality(targets, demands, f), q - 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. EventQueue implementations (generational slot table) vs a reference
//    model (ordered map keyed by (time, push order)) under random
//    push/cancel/pop interleavings, including cancels of invalid, executed,
//    already-cancelled and stale (recycled-slot) ids.  Runs against both the
//    heap and the calendar queue.
// ---------------------------------------------------------------------------

template <typename Queue>
void event_queue_matches_reference_model() {
  Queue queue;
  // Continuous random times make key collisions measure-zero, so ordering
  // by (time, push order) matches the queue's (time, seq) contract.
  std::map<std::pair<double, std::uint64_t>, sim::EventId> model;
  std::vector<sim::EventId> issued;
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> time_dist(0.0, 100.0);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uint64_t pushes = 0;

  auto model_cancel = [&](sim::EventId id) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->second == id) {
        model.erase(it);
        return true;
      }
    }
    return false;
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = op_dist(rng);
    if (op < 5 || model.empty()) {
      const double t = time_dist(rng);
      const sim::EventId id = queue.push(t, [] {});
      EXPECT_TRUE(queue.is_pending(id));
      issued.push_back(id);
      model.emplace(std::make_pair(t, ++pushes), id);
    } else if (op < 7) {
      // Cancel a random id ever issued -- possibly done, cancelled, or a
      // stale handle whose slot was recycled -- or a never-issued one.
      sim::EventId id;
      if (op == 5 && !issued.empty()) {
        id = issued[std::uniform_int_distribution<std::size_t>(
            0, issued.size() - 1)(rng)];
      } else {
        id = (std::uint64_t{1} << 48) + 1000;  // never issued
      }
      EXPECT_EQ(queue.cancel(id), model_cancel(id)) << "id=" << id;
      EXPECT_FALSE(queue.cancel(0));  // kInvalidEventId is never pending
    } else {
      ASSERT_FALSE(queue.empty());
      const auto expected = model.begin();
      EXPECT_EQ(queue.next_time(), expected->first.first);
      const sim::Event ev = queue.pop();
      EXPECT_EQ(ev.time, expected->first.first);
      EXPECT_EQ(ev.id, expected->second);
      model.erase(expected);
      EXPECT_FALSE(queue.is_pending(ev.id));
      EXPECT_FALSE(queue.cancel(ev.id));  // done events cannot be cancelled
    }
    EXPECT_EQ(queue.size(), model.size());
    EXPECT_EQ(queue.empty(), model.empty());
  }

  // Drain: pop order must equal the model's (time, push order) order.
  while (!model.empty()) {
    const auto expected = model.begin();
    const sim::Event ev = queue.pop();
    EXPECT_EQ(ev.time, expected->first.first);
    EXPECT_EQ(ev.id, expected->second);
    model.erase(expected);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(KernelEquivalence, HeapEventQueueMatchesReferenceModel) {
  event_queue_matches_reference_model<sim::HeapEventQueue>();
}

TEST(KernelEquivalence, CalendarEventQueueMatchesReferenceModel) {
  event_queue_matches_reference_model<sim::CalendarEventQueue>();
}

template <typename Queue>
void event_queue_is_pending_tracks_lifecycle() {
  Queue queue;
  EXPECT_FALSE(queue.is_pending(sim::kInvalidEventId));
  EXPECT_FALSE(queue.is_pending(1));  // not yet issued
  const sim::EventId a = queue.push(1.0, [] {});
  const sim::EventId b = queue.push(2.0, [] {});
  EXPECT_TRUE(queue.is_pending(a));
  EXPECT_TRUE(queue.is_pending(b));
  EXPECT_TRUE(queue.cancel(b));
  EXPECT_FALSE(queue.is_pending(b));
  EXPECT_FALSE(queue.cancel(b));  // double-cancel refused
  EXPECT_EQ(queue.size(), 1u);
  const sim::Event ev = queue.pop();
  EXPECT_EQ(ev.id, a);
  EXPECT_FALSE(queue.is_pending(a));
  EXPECT_TRUE(queue.empty());
}

TEST(KernelEquivalence, HeapEventQueueIsPendingTracksLifecycle) {
  event_queue_is_pending_tracks_lifecycle<sim::HeapEventQueue>();
}

TEST(KernelEquivalence, CalendarEventQueueIsPendingTracksLifecycle) {
  event_queue_is_pending_tracks_lifecycle<sim::CalendarEventQueue>();
}

}  // namespace
}  // namespace ge
