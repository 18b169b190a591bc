// Property tests for the sharded parallel DES (docs/DESIGN.md, "Sharded
// parallel DES") plus the golden bit-identity pin.
//
// The executor promises (src/sim/shard_exec.h):
//
//  * conservative windows -- no shard ever executes an event at or past the
//    key of the next cross-shard (global) event;
//  * barrier-only interaction -- global events run while every worker is
//    parked at the barrier, with every shard drained to the global key;
//  * serial merge order -- per queue, the sharded (time, stamp) pop order
//    equals the serial (time, seq) pop order projected onto that queue;
//  * conservation -- every released job is dispatched to exactly one node,
//    whatever the shard count.
//
// The golden table at the bottom pins eight cluster configurations captured
// from the pre-shard serial runner at full %.17g precision; --shards 1 and
// --shards 4 must both reproduce every field exactly, mirroring the golden
// pins in test_golden_schedulers.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "core/queue_policy.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace ge::sim {
namespace {

// Harness for toy-event executor tests: one global simulator, `n` shard
// simulators, all in stamp mode, plus the stamper that ties them together.
struct ShardRig {
  explicit ShardRig(std::size_t n) : stamper(n) {
    global.set_stamp_mode(true);
    shard_sims.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto sim = std::make_unique<Simulator>();
      sim->set_stamp_mode(true);
      shards.push_back(sim.get());
      shard_sims.push_back(std::move(sim));
    }
  }

  Simulator global;
  std::vector<std::unique_ptr<Simulator>> shard_sims;
  std::vector<Simulator*> shards;
  ShardStamper stamper;
};

TEST(ShardExec, NoShardExecutesPastTheEpochHorizon) {
  constexpr std::size_t kShards = 4;
  ShardRig rig(kShards);

  // Horizon of epoch e (the key time of the e+1-th global event); filled at
  // each barrier.  Shard events record the epoch they executed in.
  std::vector<double> horizon_of_epoch;
  struct Exec {
    std::uint64_t epoch;
    double time;
  };
  std::vector<std::vector<Exec>> log(kShards);

  {
    ScopedStampContext setup(rig.stamper.serial_context());
    for (std::size_t s = 0; s < kShards; ++s) {
      for (int k = 0; k < 12; ++k) {
        const double t = 0.25 * (k + 1) + 0.01 * static_cast<double>(s);
        rig.shards[s]->schedule_at(t, [&rig, &log, s, t] {
          log[s].push_back({rig.stamper.epoch(), t});
        });
      }
    }
    for (double t : {1.0, 2.0, 3.0}) {
      rig.global.schedule_at(t, [] {});
    }
  }

  util::ThreadPool pool(2);
  ShardExecutor exec(rig.global, rig.shards, rig.stamper, pool);
  exec.on_epoch = [&](double time, std::uint64_t seq) {
    horizon_of_epoch.push_back(time);
    // At the barrier every shard is synced to the key and its remaining
    // events all sit at or beyond it.
    for (Simulator* shard : rig.shards) {
      EXPECT_EQ(shard->now(), time);
      double t = 0.0;
      std::uint64_t s = 0;
      if (shard->peek_key(t, s)) {
        EXPECT_TRUE(t > time || (t == time && s >= seq))
            << "shard holds an unexecuted event below the barrier key";
      }
    }
  };
  exec.run(4.0);

  ASSERT_EQ(horizon_of_epoch.size(), 3u);
  EXPECT_EQ(exec.epochs(), 3u);
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(log[s].size(), 12u) << "every toy event must run";
    double prev = -1.0;
    for (const Exec& e : log[s]) {
      // Conservative window: an event executed in epoch e happened strictly
      // before that epoch's global horizon (ties go to the shard here
      // because the global events were pushed later at equal times).
      if (e.epoch < horizon_of_epoch.size()) {
        EXPECT_LE(e.time, horizon_of_epoch[e.epoch])
            << "shard " << s << " ran past its window";
      }
      EXPECT_LE(prev, e.time) << "per-shard execution must be time-ordered";
      prev = e.time;
    }
  }
}

TEST(ShardExec, GlobalEventsRunOnlyAtQuiescentBarriers) {
  constexpr std::size_t kShards = 4;
  ShardRig rig(kShards);
  std::atomic<int> active_workers{0};
  std::atomic<int> violations{0};
  int global_runs = 0;

  {
    ScopedStampContext setup(rig.stamper.serial_context());
    for (std::size_t s = 0; s < kShards; ++s) {
      for (int k = 0; k < 50; ++k) {
        rig.shards[s]->schedule_at(0.05 * (k + 1), [&active_workers] {
          active_workers.fetch_add(1, std::memory_order_acq_rel);
          active_workers.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    }
    for (int g = 0; g < 4; ++g) {
      const double t = 0.6 * (g + 1);
      rig.global.schedule_at(t, [&, t] {
        ++global_runs;
        // Barrier-only interaction: no worker may be mid-event, and every
        // shard must have drained up to the global key and synced its clock.
        if (active_workers.load(std::memory_order_acquire) != 0) {
          ++violations;
        }
        for (Simulator* shard : rig.shards) {
          if (shard->now() != t) {
            ++violations;
          }
          double st = 0.0;
          std::uint64_t ss = 0;
          if (shard->peek_key(st, ss) && st < t) {
            ++violations;
          }
        }
      });
    }
  }

  util::ThreadPool pool(kShards);
  ShardExecutor exec(rig.global, rig.shards, rig.stamper, pool);
  exec.run(3.0);

  EXPECT_EQ(global_runs, 4);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(exec.executed_events(),
            static_cast<std::uint64_t>(kShards * 50 + 4));
}

// The merge-order contract, exercised on the tie cases that matter: setup
// pushes vs pushes made by shard events vs pushes made by global events, all
// landing at the same simulated time on the same queue.  The serial
// reference runs the identical logical program on one simulator; per queue,
// the sharded pop order must equal the serial order projected onto it.
TEST(ShardExec, MergePreservesSerialTieOrderPerQueue) {
  // Labels: "sK:..." runs on shard K, "g:..." on the global queue.
  std::vector<std::string> serial_order;
  {
    Simulator sim;
    auto rec = [&serial_order](std::string label) {
      return [&serial_order, label] { serial_order.push_back(label); };
    };
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string p = "s" + std::to_string(s);
      sim.schedule_at(1.0, rec(p + ":setup@1"));
      sim.schedule_at(2.5, rec(p + ":setup@2.5"));
    }
    // The t=1.0 shard events spawn a same-time rival for t=2.5.
    sim.schedule_at(1.0, [&sim, &serial_order] {
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s0:spawned@2.5"); });
    });
    // A global event at t=2.0 spawns children that also tie at t=2.5.
    sim.schedule_at(2.0, [&sim, &serial_order] {
      serial_order.push_back("g:@2");
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s0:global-child@2.5"); });
      sim.schedule_at(2.5, [&serial_order] { serial_order.push_back("s1:global-child@2.5"); });
    });
    sim.run_until(3.0);
  }

  std::vector<std::string> shard_order[2];
  std::vector<std::string> global_order;
  {
    ShardRig rig(2);
    auto rec = [&](std::size_t s, std::string label) {
      return [&shard_order, s, label] { shard_order[s].push_back(label); };
    };
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      for (std::size_t s = 0; s < 2; ++s) {
        const std::string p = "s" + std::to_string(s);
        rig.shards[s]->schedule_at(1.0, rec(s, p + ":setup@1"));
        rig.shards[s]->schedule_at(2.5, rec(s, p + ":setup@2.5"));
      }
      rig.shards[0]->schedule_at(1.0, [&rig, &shard_order] {
        rig.shards[0]->schedule_at(2.5, [&shard_order] {
          shard_order[0].push_back("s0:spawned@2.5");
        });
      });
      rig.global.schedule_at(2.0, [&rig, &shard_order, &global_order] {
        global_order.push_back("g:@2");
        rig.shards[0]->schedule_at(2.5, [&shard_order] {
          shard_order[0].push_back("s0:global-child@2.5");
        });
        rig.shards[1]->schedule_at(2.5, [&shard_order] {
          shard_order[1].push_back("s1:global-child@2.5");
        });
      });
    }
    util::ThreadPool pool(2);
    ShardExecutor exec(rig.global, rig.shards, rig.stamper, pool);
    exec.run(3.0);
  }

  // Project the serial order onto each queue and compare.
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<std::string> expected;
    const std::string p = "s" + std::to_string(s);
    for (const std::string& label : serial_order) {
      if (label.compare(0, p.size() + 1, p + ":") == 0) {
        expected.push_back(label);
      }
    }
    EXPECT_EQ(shard_order[s], expected) << "shard " << s;
  }
  std::vector<std::string> expected_global;
  for (const std::string& label : serial_order) {
    if (label.compare(0, 2, "g:") == 0) {
      expected_global.push_back(label);
    }
  }
  EXPECT_EQ(global_order, expected_global);
}

// ---------------------------------------------------------------------------
// Conservation across the dispatch tier, cluster assembled directly on shard
// simulators (no exp layer): released == sum of per-node dispatch counters
// for every shard count, and the per-node counters themselves match the
// serial assembly.

std::unique_ptr<sched::Scheduler> fcfs_factory(
    const sched::SchedulerEnv& env, const power::DiscreteSpeedTable* table) {
  sched::QueuePolicyOptions opts;
  opts.order = sched::QueueOrder::kFcfs;
  opts.speed_table = table;
  return std::make_unique<sched::QueuePolicyScheduler>(env, opts);
}

TEST(ShardExec, DispatchedJobConservationForEveryShardCount) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = 240.0;
  cfg.duration = 1.5;
  cfg.seed = 21;
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  constexpr std::size_t kServers = 4;
  const double horizon = cfg.duration + cfg.deadline_interval_max + 1.0;

  std::vector<std::uint64_t> serial_counts;
  for (std::size_t nshards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ShardRig rig(nshards);
    quality::ExponentialQuality f(cfg.quality_c, cfg.demand_max);
    std::vector<cluster::NodeSpec> nodes(kServers);
    for (cluster::NodeSpec& node : nodes) {
      node.core_models.assign(4, power::PowerModel(5.0, 2.0, 1000.0));
      node.power_budget = 80.0;
    }
    // Contiguous node -> shard blocks, exactly as the runner maps them.
    std::vector<Simulator*> node_sims(kServers);
    for (std::size_t i = 0; i < kServers; ++i) {
      node_sims[i] = rig.shards[i * nshards / kServers];
    }
    std::vector<workload::Job> jobs = trace.jobs();
    std::uint64_t released = 0;
    {
      ScopedStampContext setup(rig.stamper.serial_context());
      cluster::Cluster cluster(nodes, f, fcfs_factory,
                               cluster::DispatchPolicy::kRoundRobin, cfg.seed,
                               rig.global, node_sims);
      for (workload::Job& job : jobs) {
        // Round-robin is state-free: preroute at setup, then arrival and
        // deadline run on the owning node's shard (the runner's fast path).
        const std::size_t s = cluster.preroute(&job);
        Simulator* sim = node_sims[s];
        sim->schedule_at(job.arrival, [&cluster, &job] { cluster.deliver(&job); });
        sim->schedule_at(job.deadline,
                         [&cluster, &job] { cluster.on_deadline(&job); });
        ++released;
      }
      cluster.start();
      util::ThreadPool pool(nshards);
      ShardExecutor exec(rig.global, rig.shards, rig.stamper, pool);
      exec.run(horizon);
      cluster.finish();

      std::uint64_t dispatched = 0;
      std::vector<std::uint64_t> counts;
      for (std::size_t s = 0; s < cluster.size(); ++s) {
        counts.push_back(cluster.node(s).dispatched());
        dispatched += cluster.node(s).dispatched();
      }
      EXPECT_EQ(dispatched, released)
          << "released must equal the per-node dispatch sum at " << nshards
          << " shards";
      EXPECT_EQ(dispatched, jobs.size());
      if (nshards == 1) {
        serial_counts = counts;
      } else {
        EXPECT_EQ(counts, serial_counts)
            << "per-node routing must not depend on the shard count";
      }
    }
  }
}

}  // namespace
}  // namespace ge::sim

// ---------------------------------------------------------------------------
// Golden bit-identity pin: eight cluster configurations captured from the
// pre-shard serial runner at %.17g.  Both --shards 1 (the serial loop) and
// --shards 4 must reproduce every field bit-for-bit.

namespace ge::exp {
namespace {

struct ShardGolden {
  double quality;
  double energy;
  double static_energy;
  double avg_power;
  double mean_response_ms;
  double p50_response_ms;
  double p95_response_ms;
  double p99_response_ms;
  double aes_fraction;
  double avg_speed_ghz;
  double speed_variance;
  double busy_fraction;
  double energy_cov;
  double server_energy_cov;
  double server_load_cov;
  std::uint64_t released;
  std::uint64_t completed;
  std::uint64_t partial;
  std::uint64_t dropped;
  std::uint64_t rounds;
  std::uint64_t wf_rounds;
  std::uint64_t es_rounds;
};

// Captured 2026-08 from the serial cluster runner immediately before the
// shard refactor landed (commit history: "Add scheduler plugin registry...").
// Re-pinned when Quality-OPT moved from the theta bisection to the exact
// level solve: floats moved by at most 2e-14 relative, every count
// stayed the same.
const ShardGolden kGoldens[] = {
    {0.56587724082986823, 324.70217712867037, 0, 162.35108856433519,
     140.67291253704991, 143.17535673944371, 150.00000000000003, 150.00000000000014,
     0.079781573069152414, 1.9510618629959113, 0.05048741236893646, 0.66811373629107407, 0.016481284795732246,
     0.0075022852013330874, 0,
     368ULL, 0ULL, 368ULL, 0ULL, 62ULL, 0ULL, 62ULL},
    {0.60163260926090723, 631.26837788939133, 0, 315.63418894469567,
     143.17061084948133, 146.06242313927947, 150.00000000000003, 150.00000000000014,
     0.076602606036120083, 1.9392425447920205, 0.053948841269493564, 0.65669437363190608, 0.025849908838190831,
     0.013361650375972547, 0.017777292362333254,
     656ULL, 9ULL, 647ULL, 0ULL, 116ULL, 0ULL, 116ULL},
    {0.53243785922366504, 646.18934389021865, 0, 323.09467194510933,
     145.5447284736608, 148.35048039918442, 150.00000000000003, 150.00000000000014,
     0.085643156174699864, 1.9411372001962246, 0.054469611783152447, 0.67083182997794599, 0.015210792656826936,
     0.0081954276394195624, 0.0034405088570410879,
     769ULL, 0ULL, 769ULL, 0ULL, 184ULL, 0ULL, 184ULL},
    {0.69961752696561907, 621.14024225437879, 0, 310.5701211271894,
     139.87846256932281, 146.68473997758389, 150.00000000000003, 150.00000000000011,
     0, 1.9039997156142565, 0.10864216997063392, 0.66013298680611654, 0.063160534270097046,
     0.017533796096419588, 0.084252927019621074,
     526ULL, 60ULL, 466ULL, 0ULL, 130ULL, 130ULL, 0ULL},
    {0.47248919386554383, 399.6338418067877, 0, 199.81692090339385,
     116.31714020673388, 118.99963519251332, 150.00000000000003, 150.00000000000003,
     0.069012280637373247, 1.8565128517389282, 0.10550244331125262, 0.44644847944399557, 0.054123640237371429,
     0.038349315749851974, 0.12628324601824251,
     561ULL, 8ULL, 553ULL, 0ULL, 180ULL, 2ULL, 178ULL},
    {0.60863487062493271, 327.31274922524608, 0, 163.65637461262304,
     145.20753106106281, 149.99999999999991, 150.00000000000003, 150.00000000000011,
     0, 1.9749103636939014, 0.02011194397192588, 0.66261901088842856, 0.021407504866125325,
     0.0055089949868426386, 0,
     312ULL, 54ULL, 258ULL, 0ULL, 0ULL, 0ULL, 0ULL},
    {0.76904918739271055, 895.55549540207733, 0, 447.77774770103866,
     144.66947188052043, 149.99999999999991, 150.00000000000003, 150.00000000000014,
     0.094794845108694833, 1.8176188123686956, 0.070255691941642662, 0.66204103694840355, 0.043520137295025484,
     0.31475651250422731, 0.3133806607838534,
     703ULL, 110ULL, 593ULL, 0ULL, 241ULL, 0ULL, 241ULL},
    {0.63039729904351383, 625.52342454728785, 0, 312.76171227364392,
     143.38309930306275, 146.00772128421039, 150.00000000000003, 150.00000000000014,
     0.099539613865742546, 1.977224500658185, 0.12500501273374864, 0.61526433586807283, 0.29333063841725127,
     0.010692931401653965, 0,
     580ULL, 14ULL, 564ULL, 2ULL, 114ULL, 0ULL, 114ULL},
};

struct GoldenCase {
  const char* sched;
  ExperimentConfig cfg;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  auto base = [] {
    ExperimentConfig c = ExperimentConfig::paper_defaults();
    c.duration = 2.0;
    c.cores = 4;
    c.power_budget = 80.0;
    return c;
  };
  {
    ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 200.0;
    c.seed = 31;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 320.0;
    c.seed = 32;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.cores = 2;
    c.power_budget = 40.0;
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 400.0;
    c.seed = 33;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRandom;
    c.arrival_rate = 250.0;
    c.seed = 34;
    cases.push_back({"BE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kLeastEnergy;
    c.arrival_rate = 280.0;
    c.seed = 35;
    c.discrete_speeds = true;
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 150.0;
    c.seed = 36;
    cases.push_back({"OA", c});
  }
  {
    ExperimentConfig c = base();
    c.num_servers = 8;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 350.0;
    c.seed = 37;
    c.server_cores = {4, 2, 4, 2, 4, 2, 4, 2};
    c.server_power_scale = {1.0, 1.2, 1.0, 1.2, 1.0, 1.2, 1.0, 1.2};
    cases.push_back({"GE", c});
  }
  {
    ExperimentConfig c = base();
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

void expect_matches_golden(const RunResult& r, const ShardGolden& g) {
  EXPECT_EQ(r.quality, g.quality);
  EXPECT_EQ(r.energy, g.energy);
  EXPECT_EQ(r.static_energy, g.static_energy);
  EXPECT_EQ(r.avg_power, g.avg_power);
  EXPECT_EQ(r.mean_response_ms, g.mean_response_ms);
  EXPECT_EQ(r.p50_response_ms, g.p50_response_ms);
  EXPECT_EQ(r.p95_response_ms, g.p95_response_ms);
  EXPECT_EQ(r.p99_response_ms, g.p99_response_ms);
  EXPECT_EQ(r.aes_fraction, g.aes_fraction);
  EXPECT_EQ(r.avg_speed_ghz, g.avg_speed_ghz);
  EXPECT_EQ(r.speed_variance, g.speed_variance);
  EXPECT_EQ(r.busy_fraction, g.busy_fraction);
  EXPECT_EQ(r.energy_cov, g.energy_cov);
  EXPECT_EQ(r.server_energy_cov, g.server_energy_cov);
  EXPECT_EQ(r.server_load_cov, g.server_load_cov);
  EXPECT_EQ(r.released, g.released);
  EXPECT_EQ(r.completed, g.completed);
  EXPECT_EQ(r.partial, g.partial);
  EXPECT_EQ(r.dropped, g.dropped);
  EXPECT_EQ(r.rounds, g.rounds);
  EXPECT_EQ(r.wf_rounds, g.wf_rounds);
  EXPECT_EQ(r.es_rounds, g.es_rounds);
}

TEST(ShardGoldens, SerialAndShardedReproducePreRefactorResults) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("golden case " + std::to_string(i) + " sched=" +
                 cases[i].sched);
    const workload::Trace trace = workload::Trace::generate(
        cases[i].cfg.workload_spec(), cases[i].cfg.duration);
    const SchedulerSpec spec = SchedulerSpec::parse(cases[i].sched);

    ExperimentConfig serial_cfg = cases[i].cfg;
    serial_cfg.shards = 1;
    expect_matches_golden(run_simulation(serial_cfg, spec, trace),
                          kGoldens[i]);

    ExperimentConfig sharded_cfg = cases[i].cfg;
    sharded_cfg.shards = 4;
    expect_matches_golden(run_simulation(sharded_cfg, spec, trace),
                          kGoldens[i]);
  }
}

}  // namespace
}  // namespace ge::exp
