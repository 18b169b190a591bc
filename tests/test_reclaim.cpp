// Tests for the reclaim advisor (src/obs/analysis/reclaim.h): a fully
// hand-computed tiny case, a differential oracle against opt::yds_min_energy,
// the discrete-ladder envelope pricing, and the bound chain
//
//   offline_j <= cont_j <= disc_j <= realized_j
//
// across the lifecycle golden configs and a stream x shards fuzz matrix
// (where the advisor's numbers must also be bit-identical across the
// streaming and sharded paths, like every other output).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/reclaim.h"
#include "obs/analysis/trace_reader.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "opt/yds.h"
#include "power/discrete_speed.h"
#include "power/power_model.h"
#include "workload/trace.h"

namespace ge {
namespace {

using obs::TraceBuffer;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceTaskInfo;
using obs::analysis::ReclaimAnalysis;
using obs::analysis::ServerReclaim;
using obs::analysis::TaskAnalysis;
using obs::analysis::TaskInput;

// One synthetic job: arrival -> exec slice(s) on core 0 -> completion.
struct SynthJob {
  std::int64_t id;
  double arrival;
  double deadline;
  // (t0, t1, speed) slices, non-overlapping across jobs.
  std::vector<std::array<double, 3>> slices;
};

TraceBuffer synth_buffer(const std::vector<SynthJob>& jobs) {
  TraceBuffer buf;
  for (const SynthJob& j : jobs) {
    TraceEvent ev;
    ev.type = TraceEventType::kArrival;
    ev.t = j.arrival;
    ev.job = j.id;
    double work = 0.0;
    for (const auto& s : j.slices) {
      work += (s[1] - s[0]) * s[2];
    }
    ev.a = work;        // demand
    ev.b = j.deadline;  // deadline
    buf.push(ev);
  }
  for (const SynthJob& j : jobs) {
    double work = 0.0;
    for (const auto& s : j.slices) {
      TraceEvent ev;
      ev.type = TraceEventType::kExec;
      ev.t = s[0];
      ev.t2 = s[1];
      ev.core = 0;
      ev.job = j.id;
      ev.a = s[2];
      buf.push(ev);
      work += (s[1] - s[0]) * s[2];
    }
    TraceEvent done;
    done.type = TraceEventType::kCompletion;
    done.t = j.slices.back()[1];
    done.core = 0;
    done.job = j.id;
    done.a = work;
    done.b = work;
    done.c = 1.0;
    buf.push(done);
  }
  return buf;
}

TraceTaskInfo synth_info(std::size_t cores) {
  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "GE";
  info.arrival_rate = 4.0;
  info.cores = cores;
  info.power_budget = 20.0;
  info.power_model_json = "{\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}";
  return info;
}

ReclaimAnalysis reclaim_of(const TaskInput& input) {
  const TaskAnalysis analysis = obs::analysis::analyze_task(input);
  return obs::analysis::analyze_reclaim(input, analysis);
}

void expect_chain(const ReclaimAnalysis& r, const std::string& label) {
  const double tol = 1e-9 * std::max(1.0, r.realized_j);
  EXPECT_GE(r.offline_j, 0.0) << label;
  EXPECT_LE(r.offline_j, r.cont_j + tol) << label;
  EXPECT_LE(r.cont_j, r.disc_j + tol) << label;
  EXPECT_LE(r.disc_j, r.realized_j + tol) << label;
  EXPECT_GE(r.avoidable_frac, -1e-12) << label;
  EXPECT_LE(r.avoidable_frac, 1.0 + 1e-12) << label;
  // Per-server totals tile the task totals, and each server's per-bin
  // attribution tiles its own total.
  double realized = 0.0, cont = 0.0, disc = 0.0;
  for (const ServerReclaim& sr : r.servers) {
    realized += sr.realized_j;
    cont += sr.cont_j;
    disc += sr.disc_j;
    double rb = 0.0, cb = 0.0, db = 0.0;
    for (double v : sr.realized_bin_j) rb += v;
    for (double v : sr.cont_bin_j) cb += v;
    for (double v : sr.disc_bin_j) db += v;
    EXPECT_NEAR(rb, sr.realized_j, 1e-6 * std::max(1.0, sr.realized_j))
        << label << " server " << sr.server;
    EXPECT_NEAR(cb, sr.cont_j, 1e-6 * std::max(1.0, sr.cont_j))
        << label << " server " << sr.server;
    EXPECT_NEAR(db, sr.disc_j, 1e-6 * std::max(1.0, sr.disc_j))
        << label << " server " << sr.server;
  }
  EXPECT_NEAR(realized, r.realized_j, 1e-6 * std::max(1.0, r.realized_j))
      << label;
  EXPECT_NEAR(cont, r.cont_j, 1e-6 * std::max(1.0, r.cont_j)) << label;
  EXPECT_NEAR(disc, r.disc_j, 1e-6 * std::max(1.0, r.disc_j)) << label;
}

// The one-job case from test_analysis, fully by hand: 150 units realised at
// 1.5 GHz over 0.1 s (1.125 J) may stretch over its whole [0.25, 0.4]
// window at 1 GHz: 5 W * 0.15 s = 0.75 J.  No ladder => disc == cont; one
// core => the pooled fluid bound is the same YDS instance.
TEST(Reclaim, TinyTaskMatchesHandComputation) {
  const TraceBuffer buf =
      synth_buffer({{1, 0.25, 0.4, {{{0.25, 0.35, 1500.0}}}}});
  TaskInput input;
  input.info = synth_info(1);
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};

  const ReclaimAnalysis r = reclaim_of(input);
  EXPECT_NEAR(r.realized_j, 1.125, 1e-12);
  EXPECT_NEAR(r.cont_j, 0.75, 1e-9);
  EXPECT_NEAR(r.disc_j, 0.75, 1e-9);
  EXPECT_NEAR(r.offline_j, 0.75, 1e-9);
  EXPECT_NEAR(r.avoidable_frac, 1.0 / 3.0, 1e-9);
  ASSERT_EQ(r.servers.size(), 1u);
  expect_chain(r, "tiny");
}

// Differential oracle: on a single core the advisor's continuous re-speed
// must equal opt::yds_min_energy on the job set it reconstructs from the
// slices (work = integral of speed, window = [arrival, deadline]).  With
// one core the pooled fluid bound degenerates to the same instance too.
TEST(Reclaim, ContinuousReclaimMatchesYdsOracle) {
  const std::vector<SynthJob> jobs = {
      {1, 0.0, 1.0, {{0.0, 0.2, 900.0}, {0.5, 0.6, 400.0}}},
      {2, 0.1, 0.5, {{0.2, 0.45, 1800.0}}},
      {3, 0.6, 2.0, {{0.7, 1.1, 650.0}}},
      {4, 1.0, 1.9, {{1.1, 1.5, 1200.0}}},
  };
  const TraceBuffer buf = synth_buffer(jobs);
  TaskInput input;
  input.info = synth_info(1);
  input.buffer = &buf;
  const power::PowerModel pm(5.0, 2.0, 1000.0);
  input.models = {{pm}};

  std::vector<opt::YdsJob> oracle;
  for (const SynthJob& j : jobs) {
    double work = 0.0;
    for (const auto& s : j.slices) {
      work += (s[1] - s[0]) * s[2];
    }
    oracle.push_back({j.arrival, j.deadline, work});
  }
  const double expected = opt::yds_min_energy(oracle, pm);

  const ReclaimAnalysis r = reclaim_of(input);
  EXPECT_NEAR(r.cont_j, expected, 1e-9 * std::max(1.0, expected));
  EXPECT_NEAR(r.offline_j, expected, 1e-9 * std::max(1.0, expected));
  expect_chain(r, "oracle");
}

// Ladder pricing: a 160-unit job realised at 1.6 GHz (a ladder level) over
// [0.25, 0.35] with deadline 0.55 re-speeds continuously to 160/0.3 =
// 533.33 units/s; the 0.2 GHz ladder cannot run at that speed, and the
// convex envelope prices it on the 400-600 chord:
// (0.8 + (533.33-400)/200 * (1.8-0.8)) W * 0.3 s.
TEST(Reclaim, DiscreteLadderPricesAboveContinuous) {
  const TraceBuffer buf =
      synth_buffer({{1, 0.25, 0.55, {{0.25, 0.35, 1600.0}}}});
  TaskInput input;
  input.info = synth_info(1);
  input.info.ladder_units =
      power::DiscreteSpeedTable::uniform_ghz(0.2, 3.2, 1000.0).levels();
  input.buffer = &buf;
  input.models = {{power::PowerModel(5.0, 2.0, 1000.0)}};

  const ReclaimAnalysis r = reclaim_of(input);
  const double speed = 160.0 / 0.3;
  EXPECT_NEAR(r.realized_j, 5.0 * 1.6 * 1.6 * 0.1, 1e-12);
  EXPECT_NEAR(r.cont_j, 5.0 * (speed / 1000.0) * (speed / 1000.0) * 0.3, 1e-9);
  const double chord_w = 0.8 + (speed - 400.0) / 200.0 * (1.8 - 0.8);
  EXPECT_NEAR(r.disc_j, chord_w * 0.3, 1e-9);
  EXPECT_LT(r.cont_j, r.disc_j);
  EXPECT_LT(r.disc_j, r.realized_j);
  expect_chain(r, "ladder");
}

// Runs `sched` on cfg with trace capture and feeds the realised trace to
// the advisor, exactly as the engine's --report path does.
struct RunReclaim {
  exp::RunResult result;
  ReclaimAnalysis reclaim;
};

RunReclaim run_and_reclaim(const exp::ExperimentConfig& cfg,
                           const std::string& sched) {
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse(sched);
  obs::RunTelemetry telem;
  telem.want_trace = true;

  RunReclaim out;
  if (cfg.stream) {
    out.result = exp::run_simulation_stream(cfg, spec, nullptr, &telem);
  } else {
    const workload::Trace trace = workload::Trace::generate(
        cfg.workload_spec(), cfg.duration, cfg.max_jobs);
    out.result = exp::run_simulation(cfg, spec, trace, nullptr, &telem);
  }

  TaskInput input;
  input.info.task = 0;
  input.info.scheduler = sched;
  input.info.arrival_rate = cfg.arrival_rate;
  input.info.cores = cfg.cores;
  input.info.power_budget = exp::effective_budget(spec, cfg);
  input.info.power_model_json = cfg.power_model().describe_json();
  if (cfg.discrete_speeds) {
    input.info.ladder_units = power::DiscreteSpeedTable::uniform_ghz(
                                  cfg.discrete_step_ghz, cfg.discrete_max_ghz,
                                  cfg.power_model().units_per_ghz())
                                  .levels();
  }
  input.buffer = &telem.trace;
  for (const cluster::NodeSpec& node :
       cfg.cluster_node_specs(input.info.power_budget)) {
    input.models.push_back(node.core_models);
  }
  input.reported_energy_j = out.result.energy;

  const TaskAnalysis analysis = obs::analysis::analyze_task(input);
  out.reclaim = obs::analysis::analyze_reclaim(input, analysis);
  return out;
}

// The eight cluster configs test_lifecycle pins goldens for: dispatch
// policies, heterogeneous fleets, discrete speeds, a mid-run core failure.
struct NamedConfig {
  const char* sched;
  exp::ExperimentConfig cfg;
};

std::vector<NamedConfig> golden_configs() {
  std::vector<NamedConfig> cases;
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

TEST(ReclaimChain, HoldsOnEveryGoldenClusterConfig) {
  const std::vector<NamedConfig> cases = golden_configs();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RunReclaim rr = run_and_reclaim(cases[i].cfg, cases[i].sched);
    const std::string label =
        "golden case " + std::to_string(i) + " (" + cases[i].sched + ")";
    expect_chain(rr.reclaim, label);
    // The advisor's realised total is the run's own energy accounting,
    // exact in-process (no formatting round-trip).
    EXPECT_NEAR(rr.reclaim.realized_j, rr.result.energy,
                1e-9 * std::max(1.0, rr.result.energy))
        << label;
  }
}

// 5 base shapes x stream {off, on} x shards {1, 4}: the chain must hold
// everywhere, and all four variants of a base must agree bit-for-bit (the
// streaming and sharded paths pin bit-identical results, so the advisor,
// a pure function of the trace, must inherit that).
TEST(ReclaimChain, FuzzMatrixStreamShardsAgreeAndHold) {
  std::vector<NamedConfig> bases;
  {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 1.5;
    c.cores = 4;
    c.power_budget = 80.0;
    c.arrival_rate = 180.0;
    c.seed = 71;
    bases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 1.5;
    c.cores = 2;
    c.power_budget = 40.0;
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kJsq;
    c.arrival_rate = 260.0;
    c.seed = 72;
    bases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 1.5;
    c.cores = 4;
    c.power_budget = 80.0;
    c.num_servers = 2;
    c.dispatch = cluster::DispatchPolicy::kRoundRobin;
    c.arrival_rate = 150.0;
    c.seed = 73;
    c.discrete_speeds = true;
    bases.push_back({"GE", c});
  }
  {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 1.5;
    c.cores = 4;
    c.power_budget = 80.0;
    c.num_servers = 4;
    c.dispatch = cluster::DispatchPolicy::kRandom;
    c.arrival_rate = 300.0;
    c.seed = 74;
    bases.push_back({"BE", c});
  }
  {
    exp::ExperimentConfig c = exp::ExperimentConfig::paper_defaults();
    c.duration = 1.5;
    c.cores = 4;
    c.power_budget = 80.0;
    c.arrival_rate = 120.0;
    c.seed = 75;
    c.max_jobs = 150;
    bases.push_back({"OA", c});
  }

  for (std::size_t b = 0; b < bases.size(); ++b) {
    std::vector<ReclaimAnalysis> variants;
    for (bool stream : {false, true}) {
      for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        exp::ExperimentConfig cfg = bases[b].cfg;
        cfg.stream = stream;
        cfg.shards = shards;
        const RunReclaim rr = run_and_reclaim(cfg, bases[b].sched);
        const std::string label = "fuzz base " + std::to_string(b) +
                                  " stream=" + std::to_string(stream) +
                                  " shards=" + std::to_string(shards);
        expect_chain(rr.reclaim, label);
        variants.push_back(rr.reclaim);
      }
    }
    for (std::size_t v = 1; v < variants.size(); ++v) {
      EXPECT_EQ(variants[v].realized_j, variants[0].realized_j) << "base " << b;
      EXPECT_EQ(variants[v].cont_j, variants[0].cont_j) << "base " << b;
      EXPECT_EQ(variants[v].disc_j, variants[0].disc_j) << "base " << b;
      EXPECT_EQ(variants[v].offline_j, variants[0].offline_j) << "base " << b;
    }
  }
}

// A JSONL trace carries one server's core count and one fallback power
// model.  Read back as ge_report loads it, a fleet trace must still price
// the pooled fluid bound over every server's cores: the same machine the
// in-process path builds from the per-core models.
TEST(ReclaimChain, MultiServerTraceFileHoldsTheChain) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = 2.0;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.num_servers = 8;
  cfg.dispatch = cluster::DispatchPolicy::kJsq;
  cfg.arrival_rate = 480.0;
  cfg.seed = 83;
  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
  const workload::Trace trace = workload::Trace::generate(
      cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  obs::RunTelemetry telem;
  telem.want_trace = true;
  (void)exp::run_simulation(cfg, spec, trace, nullptr, &telem);

  TraceTaskInfo info;
  info.task = 0;
  info.scheduler = "GE";
  info.arrival_rate = cfg.arrival_rate;
  info.cores = cfg.cores;
  info.power_budget = exp::effective_budget(spec, cfg);
  info.power_model_json = cfg.power_model().describe_json();
  std::stringstream file;
  obs::TraceWriter writer(file, obs::TraceFormat::kJsonl);
  writer.append_task(info, telem.trace);
  writer.close();
  const std::vector<obs::analysis::ParsedTask> parsed =
      obs::analysis::read_trace_jsonl(file);
  ASSERT_EQ(parsed.size(), 1u);

  TaskInput input;
  input.info = parsed[0].info;
  input.buffer = &parsed[0].buffer;
  input.fallback_model = parsed[0].model;
  const ReclaimAnalysis from_file = reclaim_of(input);
  ASSERT_EQ(from_file.servers.size(), 8u);
  expect_chain(from_file, "8-server JSONL");

  // Every number round-trips %.12g, hence the 1e-9 tolerance.
  const ReclaimAnalysis in_process = run_and_reclaim(cfg, "GE").reclaim;
  EXPECT_NEAR(from_file.offline_j, in_process.offline_j,
              1e-9 * in_process.offline_j);
  EXPECT_NEAR(from_file.cont_j, in_process.cont_j, 1e-9 * in_process.cont_j);
}

// Cross-check against the registry's clairvoyant YDS pseudo-scheduler: at a
// load where GE completes everything (quality 1), the offline reference's
// fluid energy for the Q_GE cut is a lower bound on re-speeding the full
// realised work.
TEST(ReclaimChain, OfflineReferenceStaysBelowTheAdvisor) {
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.duration = 2.0;
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.arrival_rate = 25.0;
  cfg.seed = 81;

  const RunReclaim online = run_and_reclaim(cfg, "GE");
  ASSERT_GE(online.result.quality, cfg.q_ge);

  const workload::Trace trace = workload::Trace::generate(
      cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  const exp::RunResult yds =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("YDS"), trace);
  ASSERT_GE(yds.offline_energy_j, 0.0);
  EXPECT_LE(yds.offline_energy_j,
            online.reclaim.cont_j +
                1e-9 * std::max(1.0, online.reclaim.cont_j));
}

}  // namespace
}  // namespace ge
