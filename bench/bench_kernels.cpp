// Microbenchmarks of the algorithmic kernels (google-benchmark): LF job
// cutting, water-filling, the Energy-OPT planner, the Quality-OPT
// allocator, YDS, the power model, the quality functions, plan
// rectification, the event queue, and a full GE scheduling round.
//
// Emitting the machine-readable trajectory (see docs/BENCHMARKS.md), one
// command line (no trailing backslashes: -Wcomment, an error under -Werror):
//
//   bench_kernels --benchmark_repetitions=7
//     --benchmark_report_aggregates_only=true
//     --benchmark_format=json --benchmark_out=BENCH_kernels.json
//
// tools/bench_compare.py gates regressions between two such files.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/good_enough.h"
#include "core/load_estimator.h"
#include "core/plan_rectifier.h"
#include "opt/energy_opt.h"
#include "opt/job_cutter.h"
#include "opt/quality_opt.h"
#include "opt/yds.h"
#include "power/discrete_speed.h"
#include "power/distribution.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/job.h"

namespace {

// Stamp the *project's* build type into the JSON context; see
// tools/bench_compare.py, which refuses debug-built baselines on this key
// (`library_build_type` only describes the installed benchmark library).
const bool ge_build_type_registered = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("ge_build_type", "release");
#else
  benchmark::AddCustomContext("ge_build_type", "debug");
#endif
  return true;
}();

using ge::quality::ExponentialQuality;

const ExponentialQuality& paper_f() {
  static const ExponentialQuality f(0.003, 1000.0);
  return f;
}

std::vector<double> random_demands(std::size_t n, std::uint64_t seed) {
  ge::util::Rng rng(seed);
  std::vector<double> demands(n);
  for (double& d : demands) {
    d = rng.uniform(130.0, 1000.0);
  }
  return demands;
}

// Random EDF-sorted plan jobs backed by `jobs` (all released at t = 0).
std::vector<ge::opt::PlanJob> random_plan_jobs(std::vector<ge::workload::Job>& jobs,
                                               std::size_t n, std::uint64_t seed) {
  ge::util::Rng rng(seed);
  jobs.assign(n, ge::workload::Job{});
  std::vector<ge::opt::PlanJob> plan_jobs;
  plan_jobs.reserve(n);
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.005, 0.05);
    jobs[i].id = i + 1;
    jobs[i].deadline = deadline;
    jobs[i].demand = jobs[i].target = rng.uniform(50.0, 500.0);
    plan_jobs.push_back(ge::opt::PlanJob{&jobs[i], jobs[i].demand, deadline});
  }
  return plan_jobs;
}

// --- Job cutting -----------------------------------------------------------

void BM_JobCutterLongestFirst(benchmark::State& state) {
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::cut_longest_first(demands, paper_f(), 0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JobCutterLongestFirst)->Range(4, 1024);

void BM_JobCutterScratchReuse(benchmark::State& state) {
  // The scheduler-facing path: one CutScratch reused across rounds.
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 1);
  ge::opt::CutScratch scratch;
  for (auto _ : state) {
    ge::opt::cut_longest_first(demands, paper_f(), 0.9, scratch);
    benchmark::DoNotOptimize(scratch.result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JobCutterScratchReuse)->Range(4, 1024);

void BM_CutLevelBisection(benchmark::State& state) {
  const auto demands = random_demands(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::cut_level_for_quality(demands, paper_f(), 0.9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CutLevelBisection)->Range(4, 1024);

// --- Power distribution and the power model --------------------------------

void BM_WaterFilling(benchmark::State& state) {
  ge::util::Rng rng(3);
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
  for (double& d : demands) {
    d = rng.uniform(0.0, 40.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::power::water_filling(160.0, demands));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WaterFilling)->Range(4, 1024);

void BM_PowerModelPower(benchmark::State& state) {
  // The paper's P = a s^2 curve: the hottest arithmetic in the stack
  // (energy accounting, water-filling demands, plan peak power).
  const ge::power::PowerModel pm(5.0, 2.0, 1000.0);
  ge::util::Rng rng(11);
  std::vector<double> speeds(1024);
  for (double& s : speeds) {
    s = rng.uniform(0.0, 3200.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double s : speeds) {
      acc += pm.power(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(speeds.size()));
}
BENCHMARK(BM_PowerModelPower);

void BM_PowerModelPowerCubic(benchmark::State& state) {
  // Non-specialised exponent (beta = 3): the generic std::pow path.
  const ge::power::PowerModel pm(5.0, 3.0, 1000.0);
  ge::util::Rng rng(12);
  std::vector<double> speeds(1024);
  for (double& s : speeds) {
    s = rng.uniform(0.0, 3200.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double s : speeds) {
      acc += pm.power(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(speeds.size()));
}
BENCHMARK(BM_PowerModelPowerCubic);

void BM_PowerModelSpeedForPower(benchmark::State& state) {
  const ge::power::PowerModel pm(5.0, 2.0, 1000.0);
  ge::util::Rng rng(13);
  std::vector<double> watts(1024);
  for (double& w : watts) {
    w = rng.uniform(0.0, 60.0);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (double w : watts) {
      acc += pm.speed_for_power(w);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(watts.size()));
}
BENCHMARK(BM_PowerModelSpeedForPower);

// --- Quality functions ------------------------------------------------------

void BM_QualityFunctionValue(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    if (x > 1000.0) {
      x = 0.0;
    }
    benchmark::DoNotOptimize(paper_f().value(x));
  }
}
BENCHMARK(BM_QualityFunctionValue);

void BM_QualityFunctionInverse(benchmark::State& state) {
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q > 0.999) {
      q = 0.0;
    }
    benchmark::DoNotOptimize(paper_f().inverse(q));
  }
}
BENCHMARK(BM_QualityFunctionInverse);

void BM_PowerLawQualityValue(benchmark::State& state) {
  const ge::quality::PowerLawQuality f(0.5, 1000.0);
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    if (x > 1000.0) {
      x = 0.0;
    }
    benchmark::DoNotOptimize(f.value(x));
  }
}
BENCHMARK(BM_PowerLawQualityValue);

void BM_PowerLawQualityInverse(benchmark::State& state) {
  const ge::quality::PowerLawQuality f(0.5, 1000.0);
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q > 0.999) {
      q = 0.0;
    }
    benchmark::DoNotOptimize(f.inverse(q));
  }
}
BENCHMARK(BM_PowerLawQualityInverse);

// --- Planners ---------------------------------------------------------------

void BM_RequiredSpeed(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::required_speed(0.0, plan_jobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RequiredSpeed)->Range(4, 256);

void BM_EnergyOptPlanner(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::plan_min_energy(0.0, plan_jobs, 1e9));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnergyOptPlanner)->Range(4, 256);

void BM_QualityOptAllocator(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(5);
  std::vector<ge::opt::AllocJob> jobs;
  double deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deadline += rng.uniform(0.005, 0.05);
    jobs.push_back(ge::opt::AllocJob{rng.uniform(0.0, 100.0),
                                     rng.uniform(50.0, 500.0), deadline});
  }
  // The scheduler-facing path: one QualityOptScratch reused across calls.
  ge::opt::QualityOptScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ge::opt::maximize_quality(0.0, jobs, 1500.0, scratch).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QualityOptAllocator)->Range(4, 256);

void BM_FullYdsSchedule(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(7);
  std::vector<ge::opt::YdsJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double release = rng.uniform(0.0, static_cast<double>(n) / 150.0);
    jobs.push_back(ge::opt::YdsJob{release, release + rng.uniform(0.1, 0.4),
                                   rng.uniform(50.0, 500.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::opt::yds_schedule(jobs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullYdsSchedule)->Range(16, 512)->Arg(4096)->Arg(16384);

void BM_PlanRectifier(benchmark::State& state) {
  std::vector<ge::workload::Job> jobs;
  const auto plan_jobs =
      random_plan_jobs(jobs, static_cast<std::size_t>(state.range(0)), 31);
  const ge::opt::ExecutionPlan plan = ge::opt::plan_min_energy(0.0, plan_jobs, 1e9);
  const ge::power::DiscreteSpeedTable table =
      ge::power::DiscreteSpeedTable::uniform_ghz(0.2, 3.2, 1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ge::sched::rectify_plan(plan, table, 3200.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlanRectifier)->Range(4, 256);

// --- Event queue ------------------------------------------------------------

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ge::util::Rng rng(6);
  std::vector<double> times(n);
  for (double& t : times) {
    t = rng.uniform(0.0, 1000.0);
  }
  for (auto _ : state) {
    ge::sim::EventQueue queue;
    for (double t : times) {
      queue.push(t, [] {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Range(64, 16384);

void BM_EventQueueChurn(benchmark::State& state) {
  // The simulator's steady-state pattern: a rolling window of pending
  // events where every pop schedules a replacement and a third of the
  // events are cancelled before they fire (quantum re-arms, settled
  // deadlines).
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const std::size_t ops = 4 * window;
  for (auto _ : state) {
    ge::util::Rng rng(8);
    ge::sim::EventQueue queue;
    std::vector<ge::sim::EventId> pending;
    pending.reserve(window);
    double now = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
      pending.push_back(queue.push(rng.uniform(0.0, 1.0), [] {}));
    }
    for (std::size_t i = 0; i < ops; ++i) {
      if (i % 3 == 0 && !pending.empty()) {
        const std::size_t victim = rng.uniform_index(pending.size());
        queue.cancel(pending[victim]);
        pending[victim] = pending.back();
        pending.pop_back();
      }
      if (!queue.empty()) {
        const ge::sim::Event ev = queue.pop();
        now = ev.time;
      }
      pending.push_back(queue.push(now + rng.uniform(0.0, 1.0), [] {}));
    }
    benchmark::DoNotOptimize(queue.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_EventQueueChurn)->Range(64, 4096);

// --- Load estimator ---------------------------------------------------------

void BM_LoadEstimatorRate(benchmark::State& state) {
  ge::util::Rng rng(9);
  for (auto _ : state) {
    ge::sched::LoadEstimator load(2.0);
    double t = 0.0;
    double acc = 0.0;
    for (int i = 0; i < 4096; ++i) {
      t += rng.exponential(150.0);
      load.record_arrival(t);
      if (i % 16 == 0) {
        acc += load.rate(t);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LoadEstimatorRate);

// --- A full GE scheduling round ---------------------------------------------

// Drives real GoodEnoughScheduler rounds through a hand-built server: the
// measured loop covers EDF ordering, LF cutting, the hybrid power split,
// Quality-OPT trims and Energy-OPT planning exactly as a simulation does.
// items/s is scheduling rounds per second.
void BM_GESchedulingRound(benchmark::State& state) {
  const std::size_t cores = static_cast<std::size_t>(state.range(0));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    ge::sim::Simulator sim;
    ge::power::PowerModel pm(5.0, 2.0, 1000.0);
    ge::server::MulticoreServer server(cores, 20.0 * static_cast<double>(cores),
                                       pm, sim);
    ge::quality::ExponentialQuality f(0.003, 1000.0);
    ge::quality::QualityMonitor monitor(f);
    ge::sched::GoodEnoughOptions options;
    options.quantum = 0.05;
    ge::sched::SchedulerEnv env{&sim, &server, &f, &monitor};
    ge::sched::GoodEnoughScheduler scheduler(env, options);
    for (std::size_t i = 0; i < cores; ++i) {
      server.core(i).set_job_finished_callback(
          [&scheduler](ge::workload::Job* j) { scheduler.on_job_finished(j); });
      server.core(i).set_idle_callback(
          [&scheduler](int id) { scheduler.on_core_idle(id); });
    }
    scheduler.start();

    ge::util::Rng rng(10);
    std::vector<std::unique_ptr<ge::workload::Job>> jobs;
    double t = 0.0;
    const double rate = 15.0 * static_cast<double>(cores);
    while (t < 2.0) {
      t += rng.exponential(rate);
      auto job = std::make_unique<ge::workload::Job>();
      job->id = jobs.size() + 1;
      job->arrival = t;
      job->deadline = t + 0.15;
      job->demand = job->target = rng.uniform(130.0, 1000.0);
      ge::workload::Job* ptr = job.get();
      jobs.push_back(std::move(job));
      sim.schedule_at(t, [&scheduler, ptr] { scheduler.on_job_arrival(ptr); });
      sim.schedule_at(ptr->deadline,
                      [&scheduler, ptr] { scheduler.on_deadline(ptr); });
    }
    sim.run_until(2.2);
    scheduler.finish();
    rounds += scheduler.rounds();
    benchmark::DoNotOptimize(monitor.quality());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_GESchedulingRound)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
