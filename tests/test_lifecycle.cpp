// Tests for the server-lifecycle layer: the ServerLifecycle state machine,
// offline-aware dispatch (queue-at-dispatcher + re-dispatch on wake),
// admission control, multi-tenant accounting, the clairvoyant YDS offline
// bound, and -- most importantly -- the bit-identity contract: always-on
// single-tenant runs must reproduce the pre-lifecycle cluster results
// exactly (goldens captured from the last pre-lifecycle build at full
// double precision), and lifecycle/tenant runs must be byte-deterministic
// across --shards and streaming replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/lifecycle.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace ge {
namespace {

// ---------------------------------------------------------------------------
// ServerLifecycle state machine.

TEST(LifecycleSpec, ValidatesParameters) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.validate();  // must not abort

  cluster::LifecycleSpec negative = spec;
  negative.setup_energy_j = -1.0;
  EXPECT_DEATH(negative.validate(), "setup_energy_j");

  cluster::LifecycleSpec inverted = spec;
  inverted.windows = {{2.0, 1.0}};
  EXPECT_DEATH(inverted.validate(), "on_at");

  cluster::LifecycleSpec overlapping = spec;
  overlapping.windows = {{1.0, 3.0}, {2.0, 4.0}};
  EXPECT_DEATH(overlapping.validate(), "non-overlapping");
}

TEST(ServerLifecycle, WalksThroughStates) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.wake_latency_s = 0.5;
  spec.setup_energy_j = 25.0;
  cluster::ServerLifecycle lc(spec);
  EXPECT_TRUE(lc.dispatchable());
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);

  sim::Simulator sim;
  int wake_callbacks = 0;
  lc.schedule(sim, [&wake_callbacks] { ++wake_callbacks; });

  sim.run_until(1.5);  // inside the window, no drain grace -> straight OFF
  EXPECT_EQ(lc.state(), cluster::ServerState::kOff);
  EXPECT_FALSE(lc.dispatchable());

  sim.run_until(2.2);  // wake began at 2.0, latency 0.5 -> still waking
  EXPECT_EQ(lc.state(), cluster::ServerState::kWaking);
  EXPECT_FALSE(lc.dispatchable());
  EXPECT_EQ(lc.wakes(), 0u);

  sim.run_until(3.0);  // back online at 2.5
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);
  EXPECT_TRUE(lc.dispatchable());
  EXPECT_EQ(lc.wakes(), 1u);
  EXPECT_DOUBLE_EQ(lc.setup_energy_j(), 25.0);
  // Offline from 1.0 until dispatchable again at 2.5.
  EXPECT_DOUBLE_EQ(lc.offline_s(3.0), 1.5);
  EXPECT_EQ(wake_callbacks, 1);
}

TEST(ServerLifecycle, DrainGraceDelaysPowerOff) {
  cluster::LifecycleSpec spec;
  spec.windows = {{1.0, 2.0}};
  spec.drain_grace_s = 0.4;
  cluster::ServerLifecycle lc(spec);

  sim::Simulator sim;
  lc.schedule(sim, nullptr);

  sim.run_until(1.2);  // inside the grace: draining, not dispatchable
  EXPECT_EQ(lc.state(), cluster::ServerState::kDraining);
  EXPECT_FALSE(lc.dispatchable());
  sim.run_until(1.5);
  EXPECT_EQ(lc.state(), cluster::ServerState::kOff);
  sim.run_until(2.5);  // zero wake latency: online right at on_at
  EXPECT_EQ(lc.state(), cluster::ServerState::kOnline);
  EXPECT_EQ(lc.wakes(), 1u);
}

// ---------------------------------------------------------------------------
// Config plumbing.

TEST(LifecycleConfig, ChurnAndExplicitWindowAreExclusive) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.churn = 0.2;
  cfg.off_at = 1.0;
  cfg.on_at = 2.0;
  EXPECT_DEATH(cfg.validate(), "churn");
}

TEST(LifecycleConfig, ChurnWindowsAreDeterministicPerServer) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 3;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.churn = 0.3;
  cfg.churn_dwell = 0.5;
  cfg.duration = 2.0;
  ASSERT_TRUE(cfg.lifecycle_active());

  const auto a = cfg.cluster_node_specs(cfg.power_budget);
  const auto b = cfg.cluster_node_specs(cfg.power_budget);
  ASSERT_EQ(a.size(), 3u);
  bool any_windows = false;
  bool differ = false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    a[s].lifecycle.validate();
    ASSERT_EQ(a[s].lifecycle.windows.size(), b[s].lifecycle.windows.size());
    for (std::size_t w = 0; w < a[s].lifecycle.windows.size(); ++w) {
      any_windows = true;
      // Same seed -> bit-identical windows on every call.
      EXPECT_EQ(a[s].lifecycle.windows[w].off_at,
                b[s].lifecycle.windows[w].off_at);
      EXPECT_EQ(a[s].lifecycle.windows[w].on_at,
                b[s].lifecycle.windows[w].on_at);
    }
    if (s > 0 && a[s].lifecycle.windows.size() != a[0].lifecycle.windows.size()) {
      differ = true;
    } else if (s > 0 && !a[s].lifecycle.windows.empty() &&
               a[s].lifecycle.windows[0].off_at !=
                   a[0].lifecycle.windows[0].off_at) {
      differ = true;
    }
  }
  EXPECT_TRUE(any_windows);  // churn 0.3 over 2 s: some server goes offline
  EXPECT_TRUE(differ);       // per-server RNG streams, not one shared trace
}

// ---------------------------------------------------------------------------
// Whole-fleet-OFF dispatch: jobs queue at the dispatcher, re-dispatch on
// wake, conservation holds, and nothing settles late.

exp::ExperimentConfig fleet_off_config() {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 2;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 120.0;
  cfg.duration = 1.0;
  cfg.seed = 41;
  cfg.off_at = 0.0;  // the whole fleet is unavailable from t=0 ...
  cfg.on_at = 0.3;   // ... until the wake completes at 0.3 + 0.1
  cfg.wake_latency = 0.1;
  cfg.setup_energy = 30.0;
  return cfg;
}

TEST(FleetOff, JobsQueueAndRedispatchOnWake) {
  exp::ExperimentConfig cfg = fleet_off_config();
  ASSERT_TRUE(cfg.lifecycle_active());
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const exp::RunResult r = exp::run_simulation(
      cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);

  // Paper deadlines (>= 150 ms) comfortably cover the 0.4 s outage for jobs
  // arriving after t=0.25; earlier jobs expire in the dispatcher queue.
  EXPECT_EQ(r.released, trace.jobs().size());
  EXPECT_GT(r.expired_in_queue, 0u);
  EXPECT_EQ(r.rejected, 0u);

  // Each server wakes exactly once and charges its setup energy -- kept out
  // of the dynamic-energy column.
  EXPECT_EQ(r.wakes, 2u);
  EXPECT_DOUBLE_EQ(r.setup_energy_j, 60.0);
  EXPECT_GT(r.energy, 0.0);

  // Conservation at the dispatch tier: every released job either reached a
  // server or expired in the dispatcher queue...
  std::uint64_t dispatched = 0;
  double first_dispatch_t = -1.0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kDispatch) {
      ++dispatched;
      if (first_dispatch_t < 0.0) first_dispatch_t = ev.t;
    }
  }
  EXPECT_EQ(dispatched + r.expired_in_queue, r.released);
  // ... and nothing was dispatched before the fleet came back online.
  EXPECT_GE(first_dispatch_t, cfg.on_at + cfg.wake_latency);

  // No deadline drift: the watchdog's settlement / dispatch conservation and
  // monotone-clock checks all passed.
  std::uint64_t violations = 0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kViolation) ++violations;
  }
  EXPECT_EQ(violations, 0u);
}

TEST(FleetOff, NoExpiryMeansEveryJobDispatches) {
  exp::ExperimentConfig cfg = fleet_off_config();
  // Stretch deadlines past the outage: released == sum of dispatches.
  cfg.deadline_interval = 0.6;
  cfg.deadline_interval_max = 0.9;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);

  obs::RunTelemetry telemetry;
  telemetry.want_watchdog = true;
  const exp::RunResult r = exp::run_simulation(
      cfg, exp::SchedulerSpec::parse("GE"), trace, nullptr, &telemetry);

  EXPECT_EQ(r.expired_in_queue, 0u);
  std::uint64_t dispatched = 0;
  std::uint64_t violations = 0;
  for (const obs::TraceEvent& ev : telemetry.trace.events()) {
    if (ev.type == obs::TraceEventType::kDispatch) ++dispatched;
    if (ev.type == obs::TraceEventType::kViolation) ++violations;
  }
  EXPECT_EQ(dispatched, r.released);
  EXPECT_EQ(violations, 0u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(Admission, RejectsDemandBeyondTheSlackCap) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 150.0;
  cfg.duration = 2.0;
  cfg.seed = 42;
  cfg.admission = 0.6;  // harsh cap: demand > 0.6 * fair-speed * window
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));

  EXPECT_GT(r.rejected, 0u);
  EXPECT_LT(r.rejected, r.released);

  // The admission decision is a pure function of the job, so a re-run is
  // bit-identical.
  const exp::RunResult r2 =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(r2.rejected, r.rejected);
  EXPECT_EQ(r2.quality, r.quality);
  EXPECT_EQ(r2.energy, r.energy);

  // No admission: nothing rejected.
  cfg.admission = 0.0;
  const exp::RunResult open =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(open.rejected, 0u);
}

// ---------------------------------------------------------------------------
// Multi-tenant accounting.

TEST(Tenants, PerTenantSlicesPartitionTheRun) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 150.0;
  cfg.duration = 2.0;
  cfg.seed = 43;
  cfg.num_tenants = 3;
  cfg.tenant_qge = {0.9, 0.8, 0.95};
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));

  ASSERT_EQ(r.tenants.size(), 3u);
  std::uint64_t released = 0, completed = 0, partial = 0, dropped = 0;
  double energy = 0.0;
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const exp::TenantRunResult& tr = r.tenants[t];
    EXPECT_EQ(tr.q_target, cfg.tenant_qge[t]);
    EXPECT_GT(tr.released, 0u) << "tenant " << t;
    EXPECT_GE(tr.quality, 0.0);
    EXPECT_LE(tr.quality, 1.0);
    // SLO burn is the share of the error budget consumed.
    EXPECT_EQ(tr.slo_burn,
              (1.0 - tr.quality) / std::max(1.0 - tr.q_target, 1e-9));
    released += tr.released;
    completed += tr.completed;
    partial += tr.partial;
    dropped += tr.dropped;
    energy += tr.energy_j;
  }
  EXPECT_EQ(released, r.released);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(partial, r.partial);
  EXPECT_EQ(dropped, r.dropped);
  // Energy attribution by executed share sums back to the run total.
  EXPECT_NEAR(energy, r.energy, 1e-9 * std::max(r.energy, 1.0));
}

TEST(Tenants, DefaultTenantQgeFallsBackToGlobalTarget) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 1.0;
  cfg.seed = 44;
  cfg.num_tenants = 2;  // no tenant_qge: every tenant inherits q_ge
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  ASSERT_EQ(r.tenants.size(), 2u);
  for (const exp::TenantRunResult& tr : r.tenants) {
    EXPECT_EQ(tr.q_target, cfg.q_ge);
  }
}

TEST(Tenants, SingleTenantRunsKeepEmptySlices) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 1.0;
  const exp::RunResult r =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_TRUE(r.tenants.empty());
}

TEST(Tenants, TenantTagsAreDeterministic) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_tenants = 4;
  cfg.duration = 1.0;
  const workload::Trace a =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const workload::Trace b =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  ASSERT_EQ(a.jobs().size(), b.jobs().size());
  bool nonzero = false;
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(a.jobs()[i].tenant, b.jobs()[i].tenant);
    ASSERT_GE(a.jobs()[i].tenant, 0);
    ASSERT_LT(a.jobs()[i].tenant, 4);
    nonzero = nonzero || a.jobs()[i].tenant != 0;
  }
  EXPECT_TRUE(nonzero);

  // The tenant stream must not perturb arrivals/demands/deadlines: a
  // single-tenant trace on the same seed is bit-identical job for job.
  exp::ExperimentConfig single = cfg;
  single.num_tenants = 1;
  const workload::Trace base =
      workload::Trace::generate(single.workload_spec(), single.duration);
  ASSERT_EQ(base.jobs().size(), a.jobs().size());
  for (std::size_t i = 0; i < a.jobs().size(); ++i) {
    EXPECT_EQ(base.jobs()[i].arrival, a.jobs()[i].arrival);
    EXPECT_EQ(base.jobs()[i].demand, a.jobs()[i].demand);
    EXPECT_EQ(base.jobs()[i].deadline, a.jobs()[i].deadline);
    EXPECT_EQ(base.jobs()[i].tenant, 0);
  }
}

// ---------------------------------------------------------------------------
// Clairvoyant offline bound (YDS plugin).

TEST(OfflineBound, YdsPopulatesTheLowerBoundColumn) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 130.0;
  cfg.duration = 2.0;
  cfg.seed = 45;

  const exp::RunResult yds =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("YDS"));
  EXPECT_GT(yds.offline_energy_j, 0.0);
  EXPECT_EQ(yds.energy, 0.0);  // pseudo-scheduler: nothing executes
  // The global cut lands the quality essentially at the target.
  EXPECT_GE(yds.quality, cfg.q_ge - 0.02);

  const exp::RunResult ge =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"));
  EXPECT_EQ(ge.offline_energy_j, -1.0);  // online schedulers compute none
  // The bound is a lower bound on what the online run actually spent.
  EXPECT_LE(yds.offline_energy_j, ge.energy);
}

// ---------------------------------------------------------------------------
// Determinism: churn + tenants across shards and streaming replay.

void expect_identical(const exp::RunResult& a, const exp::RunResult& b) {
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.setup_energy_j, b.setup_energy_j);
  EXPECT_EQ(a.wakes, b.wakes);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.expired_in_queue, b.expired_in_queue);
  EXPECT_EQ(a.p99_response_ms, b.p99_response_ms);
  EXPECT_EQ(a.released, b.released);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].quality, b.tenants[t].quality);
    EXPECT_EQ(a.tenants[t].slo_burn, b.tenants[t].slo_burn);
    EXPECT_EQ(a.tenants[t].energy_j, b.tenants[t].energy_j);
    EXPECT_EQ(a.tenants[t].released, b.tenants[t].released);
  }
}

exp::ExperimentConfig churn_config() {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.num_servers = 4;
  cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 200.0;
  cfg.duration = 2.0;
  cfg.seed = 46;
  cfg.churn = 0.3;
  cfg.churn_dwell = 0.4;
  cfg.wake_latency = 0.05;
  cfg.setup_energy = 10.0;
  cfg.num_tenants = 2;
  cfg.tenant_qge = {0.9, 0.8};
  return cfg;
}

TEST(ChurnDeterminism, ShardedMatchesSerialBitForBit) {
  exp::ExperimentConfig serial = churn_config();
  const exp::RunResult a =
      exp::run_simulation(serial, exp::SchedulerSpec::parse("GE"));
  EXPECT_GT(a.wakes, 0u);  // churn actually took servers down

  exp::ExperimentConfig sharded = churn_config();
  sharded.shards = 4;
  const exp::RunResult b =
      exp::run_simulation(sharded, exp::SchedulerSpec::parse("GE"));
  expect_identical(a, b);
}

TEST(ChurnDeterminism, StreamingMatchesMaterialisedBitForBit) {
  exp::ExperimentConfig materialised = churn_config();
  const exp::RunResult a =
      exp::run_simulation(materialised, exp::SchedulerSpec::parse("GE"));

  exp::ExperimentConfig streaming = churn_config();
  streaming.stream = true;
  const exp::RunResult b =
      exp::run_simulation(streaming, exp::SchedulerSpec::parse("GE"));
  expect_identical(a, b);
}

// ---------------------------------------------------------------------------
// Bit-identity goldens: always-on, single-tenant cluster runs must exactly
// reproduce the pre-lifecycle cluster code path.  Captured at %.17g from
// the last build before the lifecycle refactor; every double compares with
// EXPECT_EQ on purpose.

struct GoldenCase {
  double quality, energy, static_energy, avg_power;
  double mean_ms, p50_ms, p95_ms, p99_ms;
  double aes_fraction, avg_speed_ghz, speed_variance, busy_fraction, energy_cov;
  double server_energy_cov, server_load_cov;
  std::uint64_t released, completed, partial, dropped, rounds, wf_rounds,
      es_rounds;
};

// Re-pinned when Quality-OPT moved from the theta bisection to the exact
// level solve: floats moved by at most 2e-14 relative, every count
// stayed the same.
const GoldenCase kClusterGoldens[] = {
    {0.56587724082986823, 324.70217712867037, 0, 162.35108856433519,
     140.67291253704991, 143.17535673944371, 150.00000000000003,
     150.00000000000014, 0.079781573069152414, 1.9510618629959113,
     0.05048741236893646, 0.66811373629107407, 0.016481284795732246,
     0.0075022852013330874, 0, 368ULL, 0ULL, 368ULL, 0ULL, 62ULL, 0ULL, 62ULL},
    {0.60163260926090723, 631.26837788939133, 0, 315.63418894469567,
     143.17061084948133, 146.06242313927947, 150.00000000000003,
     150.00000000000014, 0.076602606036120083, 1.9392425447920205,
     0.053948841269493564, 0.65669437363190608, 0.025849908838190831,
     0.013361650375972547, 0.017777292362333254, 656ULL, 9ULL, 647ULL, 0ULL,
     116ULL, 0ULL, 116ULL},
    {0.53243785922366504, 646.18934389021865, 0, 323.09467194510933,
     145.5447284736608, 148.35048039918442, 150.00000000000003,
     150.00000000000014, 0.085643156174699864, 1.9411372001962246,
     0.054469611783152447, 0.67083182997794599, 0.015210792656826936,
     0.0081954276394195624, 0.0034405088570410879, 769ULL, 0ULL, 769ULL, 0ULL,
     184ULL, 0ULL, 184ULL},
    {0.69961752696561907, 621.14024225437879, 0, 310.5701211271894,
     139.87846256932281, 146.68473997758389, 150.00000000000003,
     150.00000000000011, 0, 1.9039997156142565, 0.10864216997063392,
     0.66013298680611654, 0.063160534270097046, 0.017533796096419588,
     0.084252927019621074, 526ULL, 60ULL, 466ULL, 0ULL, 130ULL, 130ULL, 0ULL},
    {0.47248919386554383, 399.6338418067877, 0, 199.81692090339385,
     116.31714020673388, 118.99963519251332, 150.00000000000003,
     150.00000000000003, 0.069012280637373247, 1.8565128517389282,
     0.10550244331125262, 0.44644847944399557, 0.054123640237371429,
     0.038349315749851974, 0.12628324601824251, 561ULL, 8ULL, 553ULL, 0ULL,
     180ULL, 2ULL, 178ULL},
    {0.60863487062493271, 327.31274922524608, 0, 163.65637461262304,
     145.20753106106281, 149.99999999999991, 150.00000000000003,
     150.00000000000011, 0, 1.9749103636939014, 0.02011194397192588,
     0.66261901088842856, 0.021407504866125325, 0.0055089949868426386, 0,
     312ULL, 54ULL, 258ULL, 0ULL, 0ULL, 0ULL, 0ULL},
    {0.76904918739271055, 895.55549540207733, 0, 447.77774770103866,
     144.66947188052043, 149.99999999999991, 150.00000000000003,
     150.00000000000014, 0.094794845108694833, 1.8176188123686956,
     0.070255691941642662, 0.66204103694840355, 0.043520137295025484,
     0.31475651250422731, 0.3133806607838534, 703ULL, 110ULL, 593ULL, 0ULL,
     241ULL, 0ULL, 241ULL},
    {0.63039729904351383, 625.52342454728785, 0, 312.76171227364392,
     143.38309930306275, 146.00772128421039, 150.00000000000003,
     150.00000000000014, 0.099539613865742546, 1.977224500658185,
     0.12500501273374864, 0.61526433586807283, 0.29333063841725127,
     0.010692931401653965, 0, 580ULL, 14ULL, 564ULL, 2ULL, 114ULL, 0ULL,
     114ULL},
};

struct GoldenConfig {
  const char* sched;
  exp::ExperimentConfig cfg;
};

std::vector<GoldenConfig> golden_configs() {
  std::vector<GoldenConfig> cases;
  const auto base = [] {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 2.0;
    c.cores = 4;
    c.power_budget = 80.0;
    return c;
  };
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 200.0;
    c.seed = 31;
    cases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 320.0;
    c.seed = 32;
    cases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.cores = 2;
    c.power_budget = 40.0;
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 400.0;
    c.seed = 33;
    cases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRandom;
    c.arrival_rate = 250.0;
    c.seed = 34;
    cases.push_back({"BE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kLeastEnergy;
    c.arrival_rate = 280.0;
    c.seed = 35;
    c.discrete_speeds = true;
    cases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 150.0;
    c.seed = 36;
    cases.push_back({"OA", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 350.0;
    c.seed = 37;
    c.server_cores = {4, 2, 4, 2, 4, 2, 4, 2};
    c.server_power_scale = {1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2};
    cases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 300.0;
    c.seed = 38;
    c.failure_time = 1.0;
    c.failure_cores = 2;
    cases.push_back({"GE", c});
  }
  return cases;
}

TEST(ClusterGoldens, AlwaysOnRunsAreBitIdenticalToPreLifecycleBuild) {
  const std::vector<GoldenConfig> cases = golden_configs();
  ASSERT_EQ(cases.size(), std::size(kClusterGoldens));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenConfig& gc = cases[i];
    const GoldenCase& g = kClusterGoldens[i];
    const workload::Trace trace =
        workload::Trace::generate(gc.cfg.workload_spec(), gc.cfg.duration);
    const exp::RunResult r =
        exp::run_simulation(gc.cfg, exp::SchedulerSpec::parse(gc.sched), trace);
    EXPECT_EQ(r.quality, g.quality) << "case " << i;
    EXPECT_EQ(r.energy, g.energy) << "case " << i;
    EXPECT_EQ(r.static_energy, g.static_energy) << "case " << i;
    EXPECT_EQ(r.avg_power, g.avg_power) << "case " << i;
    EXPECT_EQ(r.mean_response_ms, g.mean_ms) << "case " << i;
    EXPECT_EQ(r.p50_response_ms, g.p50_ms) << "case " << i;
    EXPECT_EQ(r.p95_response_ms, g.p95_ms) << "case " << i;
    EXPECT_EQ(r.p99_response_ms, g.p99_ms) << "case " << i;
    EXPECT_EQ(r.aes_fraction, g.aes_fraction) << "case " << i;
    EXPECT_EQ(r.avg_speed_ghz, g.avg_speed_ghz) << "case " << i;
    EXPECT_EQ(r.speed_variance, g.speed_variance) << "case " << i;
    EXPECT_EQ(r.busy_fraction, g.busy_fraction) << "case " << i;
    EXPECT_EQ(r.energy_cov, g.energy_cov) << "case " << i;
    EXPECT_EQ(r.server_energy_cov, g.server_energy_cov) << "case " << i;
    EXPECT_EQ(r.server_load_cov, g.server_load_cov) << "case " << i;
    EXPECT_EQ(r.released, g.released) << "case " << i;
    EXPECT_EQ(r.completed, g.completed) << "case " << i;
    EXPECT_EQ(r.partial, g.partial) << "case " << i;
    EXPECT_EQ(r.dropped, g.dropped) << "case " << i;
    EXPECT_EQ(r.rounds, g.rounds) << "case " << i;
    EXPECT_EQ(r.wf_rounds, g.wf_rounds) << "case " << i;
    EXPECT_EQ(r.es_rounds, g.es_rounds) << "case " << i;
    // Lifecycle/tenant columns must stay at their inert defaults.
    EXPECT_EQ(r.wakes, 0u) << "case " << i;
    EXPECT_EQ(r.setup_energy_j, 0.0) << "case " << i;
    EXPECT_EQ(r.rejected, 0u) << "case " << i;
    EXPECT_EQ(r.expired_in_queue, 0u) << "case " << i;
    EXPECT_TRUE(r.tenants.empty()) << "case " << i;
  }
}

}  // namespace
}  // namespace ge
