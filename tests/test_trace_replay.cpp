// Trace replay through the serial job pipeline (docs/DESIGN.md, "Streaming
// core"): hand-built traces whose job events tie with each other and with
// the schedulers' own events.
//
// Every serial run releases its jobs through one pipeline that schedules
// each arrival only when the previous job is released.  Its job events must
// still pop in the order of scheduling every job event up front, before
// anything else -- the order the sharded path builds and the order the pins
// below were computed in.  The traces are built to expose any other order:
// jobs are numbered from 0, arrive in batches on the instants of the 0.5 s
// quantum grid (or on a finer grid that meets it every fourth step), and
// share deadlines, which often fall on the grid as well.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "workload/trace.h"

namespace ge::exp {
namespace {

// Eight jobs at every grid instant 0, 0.5, ..., 3 s.  In each batch the
// even jobs share the deadline t + 0.25 s and the odd ones are due at the
// next grid instant, together with the next batch's arrivals.
workload::Trace grid_trace() {
  std::vector<workload::Job> jobs;
  for (int b = 0; b <= 6; ++b) {
    const double t = 0.5 * b;
    for (int i = 0; i < 8; ++i) {
      workload::Job job;
      job.id = jobs.size();
      job.arrival = t;
      job.deadline = t + (i % 2 == 0 ? 0.25 : 0.5);
      job.demand = 150.0 + 97.0 * static_cast<double>((7 * job.id) % 11);
      jobs.push_back(job);
    }
  }
  return workload::Trace(std::move(jobs));
}

// Three jobs at every 0.125 s from 0 to 3 s, each due at the first grid
// instant at least 0.2 s after its arrival, so jobs of consecutive arrival
// instants share one deadline.
workload::Trace staggered_trace() {
  std::vector<workload::Job> jobs;
  for (int s = 0; s <= 24; ++s) {
    const double t = 0.125 * s;
    const double due = std::ceil((t + 0.2) / 0.5) * 0.5;
    for (int i = 0; i < 3; ++i) {
      workload::Job job;
      job.id = jobs.size();
      job.arrival = t;
      job.deadline = due;
      job.demand = 200.0 + 113.0 * static_cast<double>((5 * job.id) % 9);
      jobs.push_back(job);
    }
  }
  return workload::Trace(std::move(jobs));
}

// A quarter of the paper server, so the batches overload it.
ExperimentConfig replay_config(std::size_t servers,
                               cluster::DispatchPolicy dispatch) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.cores = 4;
  cfg.power_budget = 80.0;
  cfg.duration = 3.5;
  cfg.num_servers = servers;
  if (servers > 1) {
    cfg.dispatch = dispatch;
  }
  return cfg;
}

struct Pin {
  const char* scheduler;
  std::size_t servers;
  double quality;
  double energy_j;
  double mean_response_ms;
};

// Replays `trace` under every pin, checks the results bit for bit, and
// checks each multi-server run against the same config on the sharded
// path, which schedules every job event before the run starts.
void expect_pinned(const workload::Trace& trace,
                   cluster::DispatchPolicy dispatch,
                   const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(pin.scheduler) + " on " +
                 std::to_string(pin.servers) + " server(s)");
    ExperimentConfig cfg = replay_config(pin.servers, dispatch);
    const SchedulerSpec spec = SchedulerSpec::parse(pin.scheduler);
    const RunResult r = run_simulation(cfg, spec, trace);
    EXPECT_EQ(r.released, trace.size());
    EXPECT_EQ(r.quality, pin.quality);
    EXPECT_EQ(r.energy, pin.energy_j);
    EXPECT_EQ(r.mean_response_ms, pin.mean_response_ms);
    if (pin.servers > 1) {
      cfg.shards = pin.servers;
      const RunResult sharded = run_simulation(cfg, spec, trace);
      EXPECT_EQ(sharded.quality, r.quality);
      EXPECT_EQ(sharded.energy, r.energy);
      EXPECT_EQ(sharded.mean_response_ms, r.mean_response_ms);
      EXPECT_EQ(sharded.p99_response_ms, r.p99_response_ms);
      EXPECT_EQ(sharded.completed, r.completed);
      EXPECT_EQ(sharded.partial, r.partial);
      EXPECT_EQ(sharded.dropped, r.dropped);
      EXPECT_EQ(sharded.rounds, r.rounds);
    }
  }
}

TEST(TraceReplay, GridBatchesMatchTheUpFrontOrder) {
  expect_pinned(grid_trace(), cluster::DispatchPolicy::kJsq, {
      {"GE", 1, 0x1.915164eb12175p-1, 0x1.7d9380ca37b9dp+7, 0x1.1a7d1981ee36dp+8},
      {"BE", 1, 0x1.991c4bfe115e2p-1, 0x1.a6937db14d5cp+7, 0x1.1a6e40372968ep+8},
      {"OA", 1, 0x1.ad898dfc4bbecp-1, 0x1.c87beb5b2d4d4p+7, 0x1.576a3ecd6ed27p+8},
      {"OQ", 1, 0x1.89a84274477c3p-1, 0x1.4f45e09941261p+7, 0x1.1cbc9240b9447p+8},
      {"GE-WF", 1, 0x1.963b33c275873p-1, 0x1.97e1bbb7bb272p+7, 0x1.1aae5e19ab0f1p+8},
      {"FDFS", 1, 0x1.68eee35d7a88cp-1, 0x1.61c18fc504817p+7, 0x1.77p+8},
      {"GE", 2, 0x1.ccd662b96cc73p-1, 0x1.54a18396fa4ecp+7, 0x1.77p+8},
      {"BE", 2, 0x1.f24598646b15dp-1, 0x1.1ad75104d551ep+8, 0x1.77p+8},
      {"OA", 2, 0x1.e7fa08ec5c4bdp-1, 0x1.e161f75104d56p+7, 0x1.77p+8},
      {"OQ", 2, 0x1.cc0c4eef4125fp-1, 0x1.570a483548214p+7, 0x1.77p+8},
      {"GE-WF", 2, 0x1.cf0656e5e2011p-1, 0x1.80b3c4b0a3b2bp+7, 0x1.77p+8},
      {"FDFS", 2, 0x1.e7fa08ec5c4bdp-1, 0x1.e161f75104d56p+7, 0x1.77p+8},
  });
}

TEST(TraceReplay, StaggeredBatchesMatchTheUpFrontOrder) {
  expect_pinned(staggered_trace(), cluster::DispatchPolicy::kRoundRobin, {
      {"GE", 1, 0x1.560bceb72e288p-1, 0x1.80c9f0fd3bf3cp+7, 0x1.80ba5c3c4c9e2p+8},
      {"BE", 1, 0x1.65a55477371c1p-1, 0x1.0646b8cb16ba7p+8, 0x1.81613e475598bp+8},
      {"OA", 1, 0x1.3d0f74aa27351p-1, 0x1.f5974c1a8ac5dp+7, 0x1.739c81c4adba7p+8},
      {"OQ", 1, 0x1.4ab7532ceeae3p-1, 0x1.4d42e5461ccecp+7, 0x1.78537d14786b2p+8},
      {"GE-WF", 1, 0x1.62cb941953722p-1, 0x1.0041505016272p+8, 0x1.81801f2a4f1bp+8},
      {"FDFS", 1, 0x1.7422af645137p-2, 0x1.f0e6a55087011p+6, 0x1.b8p+8},
      {"GE", 2, 0x1.6a5ddbad361e9p-1, 0x1.f08e80bfd9c26p+7, 0x1.b8p+8},
      {"BE", 2, 0x1.701bc19c682b3p-1, 0x1.1e0e1a3239df3p+8, 0x1.b8p+8},
      {"OA", 2, 0x1.ceff88763ac32p-1, 0x1.53407d0762e2bp+8, 0x1.8982da2106389p+8},
      {"OQ", 2, 0x1.53650ac0ba44ap-1, 0x1.3d8c96f58215cp+7, 0x1.b8p+8},
      {"GE-WF", 2, 0x1.6a0da41461237p-1, 0x1.0f36a21a86b56p+8, 0x1.b8p+8},
      {"FDFS", 2, 0x1.6e05ba4b37c55p-1, 0x1.0250cab98580ap+8, 0x1.b8p+8},
  });
}

}  // namespace
}  // namespace ge::exp
