// Tests for the ExperimentEngine: the determinism contract (bit-identical
// results for any worker count), trace sharing across a plan point, the
// plan-builder sweeps, and the replicate() statistics pinned against the
// pre-engine serial implementation.
#include <gtest/gtest.h>

#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/replicate.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"

namespace ge::exp {
namespace {

ExperimentConfig small_config(double rate = 120.0, double seconds = 2.0) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = rate;
  cfg.duration = seconds;
  cfg.seed = 42;
  return cfg;
}

// Bit-identical comparison of every RunResult field (EXPECT_EQ on doubles
// is exact, which is the point: parallel execution must not perturb even
// the last ulp).
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.arrival_rate, b.arrival_rate);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.static_energy, b.static_energy);
  EXPECT_EQ(a.avg_power, b.avg_power);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.p50_response_ms, b.p50_response_ms);
  EXPECT_EQ(a.p95_response_ms, b.p95_response_ms);
  EXPECT_EQ(a.p99_response_ms, b.p99_response_ms);
  EXPECT_EQ(a.aes_fraction, b.aes_fraction);
  EXPECT_EQ(a.avg_speed_ghz, b.avg_speed_ghz);
  EXPECT_EQ(a.speed_variance, b.speed_variance);
  EXPECT_EQ(a.released, b.released);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.wf_rounds, b.wf_rounds);
  EXPECT_EQ(a.es_rounds, b.es_rounds);
  EXPECT_EQ(a.busy_fraction, b.busy_fraction);
  EXPECT_EQ(a.energy_cov, b.energy_cov);
}

ExperimentPlan mixed_plan() {
  // Two points x three schedulers, plus an isolated run with its own seed:
  // exercises trace sharing, config variation and point isolation at once.
  ExperimentPlan plan;
  for (std::size_t p = 0; p < 2; ++p) {
    const double rate = p == 0 ? 110.0 : 170.0;
    for (const char* name : {"GE", "BE", "FCFS"}) {
      plan.add(small_config(rate), SchedulerSpec::parse(name), p);
    }
  }
  ExperimentConfig lone = small_config(140.0);
  lone.seed = 7;
  plan.add_isolated(lone, SchedulerSpec::parse("GE"));
  return plan;
}

TEST(ExperimentEngine, OneWorkerAndFourWorkersAreBitIdentical) {
  const ExperimentPlan plan = mixed_plan();
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const std::vector<RunResult> a = run_plan(plan, serial);
  const std::vector<RunResult> b = run_plan(plan, parallel);
  ASSERT_EQ(a.size(), plan.size());
  ASSERT_EQ(b.size(), plan.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(ExperimentEngine, RepeatedParallelRunsAreBitIdentical) {
  const ExperimentPlan plan = mixed_plan();
  ExecutionOptions parallel;
  parallel.jobs = 3;
  const std::vector<RunResult> a = run_plan(plan, parallel);
  const std::vector<RunResult> b = run_plan(plan, parallel);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(ExperimentEngine, EmptyPlanYieldsEmptyResults) {
  EXPECT_TRUE(run_plan(ExperimentPlan{}).empty());
}

TEST(ExperimentEngine, TasksAtAPointShareOneTrace) {
  ExperimentPlan plan;
  plan.add(small_config(), SchedulerSpec::parse("GE"), 0);
  plan.add(small_config(), SchedulerSpec::parse("BE"), 0);
  const std::vector<RunResult> results = run_plan(plan);
  // Same trace => same released-job count for every scheduler at the point.
  EXPECT_EQ(results[0].released, results[1].released);
}

TEST(ExperimentEngine, EffectiveJobsClampsToPlanAndFloorsAtOne) {
  ExecutionOptions opts;
  opts.jobs = 8;
  const ExperimentEngine engine(opts);
  EXPECT_EQ(engine.effective_jobs(3), 3u);
  EXPECT_EQ(engine.effective_jobs(100), 8u);
  ExecutionOptions auto_opts;  // jobs = 0 -> hardware_concurrency
  EXPECT_GE(ExperimentEngine(auto_opts).effective_jobs(100), 1u);
}

TEST(ExperimentEngineDeathTest, MismatchedWorkloadAtSharedPointDies) {
  ExperimentPlan plan;
  plan.add(small_config(110.0), SchedulerSpec::parse("GE"), 0);
  plan.add(small_config(170.0), SchedulerSpec::parse("BE"), 0);
  EXPECT_DEATH((void)run_plan(plan), "share the workload");
}

TEST(Sweep, ParallelSweepMatchesSerialSweep) {
  const std::vector<SchedulerSpec> specs{SchedulerSpec::parse("GE"),
                                         SchedulerSpec::parse("BE")};
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const auto a = sweep_arrival_rates(small_config(), specs, {100.0, 150.0}, serial);
  const auto b = sweep_arrival_rates(small_config(), specs, {100.0, 150.0}, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].results.size(), b[p].results.size());
    for (std::size_t s = 0; s < a[p].results.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "point " << p << " spec " << s);
      expect_identical(a[p].results[s], b[p].results[s]);
    }
  }
}

TEST(Sweep, VariantSweepLabelsSeriesAndSharesTraces) {
  std::vector<RunVariant> variants;
  variants.push_back({"budget-lo", SchedulerSpec::parse("GE"),
                      [](ExperimentConfig cfg) {
                        cfg.power_budget = 160.0;
                        return cfg;
                      }});
  variants.push_back({"budget-hi", SchedulerSpec::parse("GE"), nullptr});
  const auto points = sweep_variants(small_config(), variants, {120.0},
                                     configure_arrival_rate);
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].results.size(), 2u);
  EXPECT_EQ(points[0].results[0].scheduler, "budget-lo");
  EXPECT_EQ(points[0].results[1].scheduler, "budget-hi");
  // Shared trace: both variants saw the same jobs.
  EXPECT_EQ(points[0].results[0].released, points[0].results[1].released);

  const util::Table table = series_table(
      points, "rate", [](const RunResult& r) { return r.quality; });
  EXPECT_EQ(table.columns(), 3u);
}

TEST(Sweep, EmptySeriesTableKeepsXColumnHeader) {
  const util::Table table = series_table(
      {}, "arrival_rate", [](const RunResult& r) { return r.quality; });
  EXPECT_EQ(table.columns(), 1u);
  EXPECT_EQ(table.rows(), 0u);
}

// Statistics pinned against the pre-engine serial replicate() (captured at
// the commit introducing the engine): paper defaults, 150 req/s, 2 s
// horizon, seed 7, GE, 4 replicas.  Guards both the refactor and any later
// change that would silently alter replication results.  Re-pinned when
// Quality-OPT moved to the exact level solve (at most 2.5e-14 relative).
TEST(Replicate, MatchesPreEngineSerialValues) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 150.0;
  cfg.duration = 2.0;
  cfg.seed = 7;
  const ReplicationSummary s =
      replicate(cfg, SchedulerSpec::parse("GE"), 4);
  EXPECT_DOUBLE_EQ(s.quality.mean(), 0.90099869843882752);
  EXPECT_DOUBLE_EQ(s.quality.stddev(), 0.0027970569599473005);
  EXPECT_DOUBLE_EQ(s.energy.mean(), 390.3159768482372);
  EXPECT_DOUBLE_EQ(s.energy.stddev(), 34.812405858722585);
  EXPECT_DOUBLE_EQ(s.aes_fraction.mean(), 0.60518978504522292);
  EXPECT_DOUBLE_EQ(s.aes_fraction.stddev(), 0.11982312402337592);
  EXPECT_DOUBLE_EQ(s.p99_response_ms.mean(), 150.00000000000011);
}

TEST(Replicate, ParallelReplicationMatchesSerial) {
  const ExperimentConfig cfg = small_config(130.0);
  ExecutionOptions serial;
  serial.jobs = 1;
  ExecutionOptions parallel;
  parallel.jobs = 4;
  const ReplicationSummary a = replicate(cfg, SchedulerSpec::parse("GE"), 4, serial);
  const ReplicationSummary b =
      replicate(cfg, SchedulerSpec::parse("GE"), 4, parallel);
  EXPECT_EQ(a.quality.mean(), b.quality.mean());
  EXPECT_EQ(a.quality.stddev(), b.quality.stddev());
  EXPECT_EQ(a.energy.mean(), b.energy.mean());
  EXPECT_EQ(a.energy.stddev(), b.energy.stddev());
  EXPECT_EQ(a.p99_response_ms.mean(), b.p99_response_ms.mean());
}

}  // namespace
}  // namespace ge::exp
