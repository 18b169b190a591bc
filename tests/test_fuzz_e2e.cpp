// Seeded end-to-end fuzzing of the full simulation stack.
//
// 200 random small configurations (scheduler, cores, budget, rate, DVFS
// mode, quality family, burstiness) are each run through run_simulation
// under three pairings that the architecture promises are equivalent:
//
//  * telemetry on vs off -- the observability layer is read-only, so
//    attaching a RunTelemetry (with or without trace recording) must not
//    perturb a single bit of the results (docs/OBSERVABILITY.md);
//  * ExperimentEngine --jobs 1 vs --jobs 4 -- parallel execution is
//    indexed by task order and must be byte-identical to serial
//    (docs/DETERMINISM.md);
//  * --shards 1 vs --shards {2,4} -- the sharded parallel event loop
//    (docs/DESIGN.md, "Sharded parallel DES") replays the serial event
//    order exactly, for every fleet size x stream combination;
//
// plus sanity invariants on every result: finite metrics, non-negative
// energy, quality in [0, 1], and outcome counts that add up.  A second
// batch of cases randomizes the cluster layer too (1-8 servers, every
// dispatch policy, occasional heterogeneous fleets) and additionally
// checks that the released total equals the sum of per-server dispatch
// counters.  Seeds are fixed, so any failure reproduces exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/telemetry.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

constexpr int kFuzzCases = 200;

const char* const kSchedulers[] = {
    "GE",    "BE",    "OQ",  "FCFS",     "FDFS", "SJF", "LJF",
    "GE-NoComp", "GE-WF", "GE-ES",
    // Speed-scaling zoo: bit-identity across stream/queue/telemetry paths
    // must hold for the registry newcomers too (incl. a parameterized one).
    "OA",    "QOA[1.5]", "AVR", "BKP"};

struct FuzzCase {
  ExperimentConfig cfg;
  SchedulerSpec spec;
};

FuzzCase make_fuzz_case(std::uint64_t seed) {
  util::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.seed = seed;
  cfg.duration = 0.3 + rng.uniform(0.0, 1.0);
  cfg.cores = 1 + rng.uniform_index(8);
  cfg.power_budget = rng.uniform(20.0, 300.0);
  cfg.arrival_rate = rng.uniform(10.0, 240.0);
  cfg.q_ge = rng.uniform(0.5, 0.99);
  cfg.quantum = rng.uniform(0.05, 0.6);
  cfg.counter_threshold = 1 + static_cast<int>(rng.uniform_index(10));
  cfg.critical_load = rng.uniform(50.0, 250.0);
  cfg.discrete_speeds = rng.uniform_index(3) == 0;
  cfg.monitor_window = rng.uniform_index(4) == 0 ? 200 : 0;
  if (rng.uniform_index(3) == 0) {
    cfg.deadline_interval_max = 0.4;
  }
  if (rng.uniform_index(4) == 0) {
    cfg.burst_peak_to_mean = rng.uniform(1.5, 3.0);
  }
  switch (rng.uniform_index(3)) {
    case 0:
      cfg.quality_family = QualityFamily::kExponential;
      cfg.quality_c = rng.uniform(0.001, 0.008);
      break;
    case 1:
      cfg.quality_family = QualityFamily::kLinear;
      break;
    default:
      cfg.quality_family = QualityFamily::kPowerLaw;
      cfg.quality_c = rng.uniform(0.3, 0.9);  // gamma for the power-law family
      break;
  }
  const char* sched = kSchedulers[rng.uniform_index(std::size(kSchedulers))];
  return FuzzCase{cfg, SchedulerSpec::parse(sched)};
}

// Cluster variant: the same random single-server shape plus a random fleet
// size and dispatch policy (servers == 1 exercises the forced-passthrough
// path).  Occasionally the fleet is heterogeneous in cores and efficiency.
FuzzCase make_cluster_fuzz_case(std::uint64_t seed) {
  FuzzCase fc = make_fuzz_case(seed);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  const std::size_t server_choices[] = {1, 2, 4, 8};
  fc.cfg.num_servers = server_choices[rng.uniform_index(4)];
  const cluster::DispatchPolicy policies[] = {
      cluster::DispatchPolicy::kRandom, cluster::DispatchPolicy::kRoundRobin,
      cluster::DispatchPolicy::kJsq, cluster::DispatchPolicy::kLeastEnergy};
  fc.cfg.dispatch = policies[rng.uniform_index(4)];
  if (fc.cfg.num_servers > 1 && rng.uniform_index(3) == 0) {
    for (std::size_t s = 0; s < fc.cfg.num_servers; ++s) {
      fc.cfg.server_cores.push_back(1 + rng.uniform_index(4));
      fc.cfg.server_power_scale.push_back(rng.uniform(1.0, 2.0));
    }
  }
  return fc;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.num_servers, b.num_servers);
  EXPECT_EQ(a.dispatch, b.dispatch);
  EXPECT_EQ(a.server_energy_cov, b.server_energy_cov);
  EXPECT_EQ(a.server_load_cov, b.server_load_cov);
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

void expect_sane(const RunResult& r, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_TRUE(std::isfinite(r.quality));
  EXPECT_TRUE(std::isfinite(r.energy));
  EXPECT_TRUE(std::isfinite(r.mean_response_ms));
  EXPECT_TRUE(std::isfinite(r.avg_speed_ghz));
  EXPECT_GE(r.energy, 0.0) << "energy can never be negative";
  EXPECT_GE(r.quality, 0.0);
  EXPECT_LE(r.quality, 1.0 + 1e-9);
  EXPECT_GE(r.aes_fraction, 0.0);
  EXPECT_LE(r.aes_fraction, 1.0 + 1e-9);
  EXPECT_GE(r.avg_speed_ghz, 0.0);
  EXPECT_EQ(r.completed + r.partial + r.dropped, r.released)
      << "every released job must be accounted for exactly once";
}

TEST(FuzzEndToEnd, TelemetryOnOffBitIdenticalAcross200Configs) {
  for (std::uint64_t seed = 1; seed <= kFuzzCases; ++seed) {
    const FuzzCase fc = make_fuzz_case(seed);
    const workload::Trace trace =
        workload::Trace::generate(fc.cfg.workload_spec(), fc.cfg.duration);
    const RunResult plain = run_simulation(fc.cfg, fc.spec, trace);

    obs::RunTelemetry telemetry;
    telemetry.want_trace = seed % 2 == 0;  // alternate metrics-only / full
    const RunResult instrumented =
        run_simulation(fc.cfg, fc.spec, trace, nullptr, &telemetry);

    const std::string what = "seed=" + std::to_string(seed) + " sched=" +
                             plain.scheduler + " rate=" +
                             std::to_string(fc.cfg.arrival_rate);
    expect_sane(plain, what);
    expect_identical(plain, instrumented, what);
  }
}

TEST(FuzzEndToEnd, EngineParallelismBitIdenticalAcross200Configs) {
  ExperimentPlan plan;
  for (std::uint64_t seed = 1; seed <= kFuzzCases; ++seed) {
    const FuzzCase fc = make_fuzz_case(seed);
    plan.add_isolated(fc.cfg, fc.spec);
  }
  const std::vector<RunResult> serial =
      run_plan(plan, ExecutionOptions{1, false, {}});
  const std::vector<RunResult> parallel =
      run_plan(plan, ExecutionOptions{4, false, {}});
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kFuzzCases));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string what =
        "task " + std::to_string(i) + " sched=" + serial[i].scheduler;
    expect_sane(serial[i], what);
    expect_identical(serial[i], parallel[i], what);
  }
}

// Streaming replay (--stream) must be bit-identical to the materialised
// path: same generator stream, same event tie order, same id-ordered
// accounting arithmetic (docs/DESIGN.md, "Streaming core").  Every third
// case also caps the workload with max_jobs, exercising the capped-prefix
// contract on both paths at once.
TEST(FuzzEndToEnd, StreamingReplayBitIdenticalAcross60Configs) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FuzzCase fc = make_fuzz_case(seed);
    if (seed % 3 == 0) {
      fc.cfg.max_jobs = 1 + 5 * seed;  // bites well before the horizon
    }
    const RunResult materialised = run_simulation(fc.cfg, fc.spec);

    ExperimentConfig streamed_cfg = fc.cfg;
    streamed_cfg.stream = true;
    const RunResult streamed = run_simulation(streamed_cfg, fc.spec);

    const std::string what = "seed=" + std::to_string(seed) + " sched=" +
                             materialised.scheduler + " max_jobs=" +
                             std::to_string(fc.cfg.max_jobs);
    expect_sane(materialised, what);
    expect_identical(materialised, streamed, what);
    if (fc.cfg.max_jobs > 0) {
      SCOPED_TRACE(what);
      EXPECT_LE(streamed.released, fc.cfg.max_jobs);
    }
  }
}

constexpr int kClusterFuzzCases = 100;

TEST(FuzzEndToEnd, ClusterTelemetryOnOffBitIdenticalAcross100Configs) {
  for (std::uint64_t seed = 1; seed <= kClusterFuzzCases; ++seed) {
    const FuzzCase fc = make_cluster_fuzz_case(seed);
    const workload::Trace trace =
        workload::Trace::generate(fc.cfg.workload_spec(), fc.cfg.duration);
    const RunResult plain = run_simulation(fc.cfg, fc.spec, trace);

    obs::RunTelemetry telemetry;
    telemetry.want_trace = seed % 2 == 0;  // alternate metrics-only / full
    const RunResult instrumented =
        run_simulation(fc.cfg, fc.spec, trace, nullptr, &telemetry);

    const std::string what = "seed=" + std::to_string(seed) + " sched=" +
                             plain.scheduler + " servers=" +
                             std::to_string(fc.cfg.num_servers) + " dispatch=" +
                             plain.dispatch;
    expect_sane(plain, what);
    expect_identical(plain, instrumented, what);

    // Conservation across the dispatch tier: every released job lands on
    // exactly one server, so the per-server dispatch counters sum to the
    // released total (single-server runs keep the flat metric namespace
    // and skip the per-server counters entirely).
    SCOPED_TRACE(what);
    EXPECT_EQ(instrumented.num_servers, fc.cfg.num_servers);
    if (fc.cfg.num_servers > 1) {
      double dispatched = 0.0;
      for (std::size_t s = 0; s < fc.cfg.num_servers; ++s) {
        const std::string prefix = "s" + std::to_string(s) + ".";
        dispatched +=
            telemetry.metrics.counter(prefix + "dispatched_jobs", "jobs")
                .value();
      }
      EXPECT_EQ(dispatched, static_cast<double>(instrumented.released));
    } else {
      EXPECT_EQ(instrumented.dispatch, "single")
          << "one-node clusters must force the passthrough dispatcher";
    }
  }
}

// Sharded parallel DES (--shards, docs/DESIGN.md "Sharded parallel DES"):
// for every shard count the run must be bit-identical to the serial loop.
// The matrix crosses shard count {1,2,4} with streaming on/off and fleet
// sizes {2,4,8}, with two random draws (scheduler/dispatch/shape) per cell.
// Streaming runs fall back to the serial loop internally, so the pairing
// also pins that fallback's identity.
TEST(FuzzEndToEnd, ShardMatrixBitIdenticalToSerial) {
  const std::size_t fleets[] = {2, 4, 8};
  const std::size_t shard_counts[] = {1, 2, 4};
  std::uint64_t seed = 4000;
  for (std::size_t servers : fleets) {
    for (bool stream : {false, true}) {
      for (int draw = 0; draw < 2; ++draw) {
        FuzzCase fc = make_cluster_fuzz_case(++seed);
        // The fleet size is the matrix axis, not the random draw; drop the
        // random per-server vectors (sized for the drawn fleet) with it.
        fc.cfg.num_servers = servers;
        fc.cfg.server_cores.clear();
        fc.cfg.server_power_scale.clear();
        fc.cfg.stream = stream;
        fc.cfg.shards = 1;
        const RunResult serial = run_simulation(fc.cfg, fc.spec);
        expect_sane(serial, "shard matrix serial seed=" + std::to_string(seed));
        for (std::size_t shards : shard_counts) {
          ExperimentConfig sharded_cfg = fc.cfg;
          sharded_cfg.shards = shards;
          const RunResult sharded = run_simulation(sharded_cfg, fc.spec);
          expect_identical(
              serial, sharded,
              "seed=" + std::to_string(seed) + " sched=" + serial.scheduler +
                  " servers=" + std::to_string(servers) + " dispatch=" +
                  serial.dispatch + (stream ? " stream" : " materialised") +
                  " shards=" + std::to_string(shards));
        }
      }
    }
  }
}

// Telemetry-attached runs take the serial loop regardless of --shards (the
// observability layer wants one global event sequence), so metrics JSON and
// the trace event stream must be byte-for-byte independent of the shard
// count -- same guarantee the engine gives for --jobs N.
TEST(FuzzEndToEnd, ShardTelemetryByteIdenticalAcross20Configs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzCase fc = make_cluster_fuzz_case(seed);
    const workload::Trace trace =
        workload::Trace::generate(fc.cfg.workload_spec(), fc.cfg.duration);

    fc.cfg.shards = 1;
    obs::RunTelemetry serial_tel;
    const RunResult serial =
        run_simulation(fc.cfg, fc.spec, trace, nullptr, &serial_tel);

    fc.cfg.shards = 4;
    obs::RunTelemetry sharded_tel;
    const RunResult sharded =
        run_simulation(fc.cfg, fc.spec, trace, nullptr, &sharded_tel);

    const std::string what = "seed=" + std::to_string(seed) + " sched=" +
                             serial.scheduler + " servers=" +
                             std::to_string(fc.cfg.num_servers);
    expect_identical(serial, sharded, what);
    SCOPED_TRACE(what);

    std::ostringstream serial_json;
    std::ostringstream sharded_json;
    serial_tel.metrics.write_json(serial_json);
    sharded_tel.metrics.write_json(sharded_json);
    EXPECT_EQ(serial_json.str(), sharded_json.str())
        << "merged metrics JSON must not depend on --shards";

    const auto& se = serial_tel.trace.events();
    const auto& pe = sharded_tel.trace.events();
    ASSERT_EQ(se.size(), pe.size());
    for (std::size_t i = 0; i < se.size(); ++i) {
      EXPECT_EQ(se[i].type, pe[i].type) << "event " << i;
      EXPECT_EQ(se[i].t, pe[i].t) << "event " << i;
      EXPECT_EQ(se[i].t2, pe[i].t2) << "event " << i;
      EXPECT_EQ(se[i].core, pe[i].core) << "event " << i;
      EXPECT_EQ(se[i].job, pe[i].job) << "event " << i;
      EXPECT_EQ(se[i].mode, pe[i].mode) << "event " << i;
      EXPECT_EQ(se[i].a, pe[i].a) << "event " << i;
      EXPECT_EQ(se[i].b, pe[i].b) << "event " << i;
      EXPECT_EQ(se[i].c, pe[i].c) << "event " << i;
    }
  }
}

TEST(FuzzEndToEnd, ClusterEngineParallelismBitIdenticalAcross100Configs) {
  ExperimentPlan plan;
  for (std::uint64_t seed = 1; seed <= kClusterFuzzCases; ++seed) {
    const FuzzCase fc = make_cluster_fuzz_case(seed);
    plan.add_isolated(fc.cfg, fc.spec);
  }
  const std::vector<RunResult> serial =
      run_plan(plan, ExecutionOptions{1, false, {}});
  const std::vector<RunResult> parallel =
      run_plan(plan, ExecutionOptions{4, false, {}});
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kClusterFuzzCases));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string what = "task " + std::to_string(i) + " sched=" +
                             serial[i].scheduler + " servers=" +
                             std::to_string(serial[i].num_servers);
    expect_sane(serial[i], what);
    expect_identical(serial[i], parallel[i], what);
  }
}

}  // namespace
}  // namespace ge::exp
