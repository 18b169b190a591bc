// Golden bit-identity for every pre-registry scheduler.
//
// The values below were captured from the enum+switch implementation of
// scheduler_spec.cpp immediately before the plugin-registry refactor
// (PR 7), with %.17g precision; EXPECT_EQ on doubles therefore pins the
// registry port to *bit-identical* RunResults.  Three configs exercise the
// main code paths: A = paper defaults, B = discrete DVFS on a smaller
// server, C = a 3-server cluster with JSQ dispatch.
//
// If one of these ever changes on purpose (an intentional behaviour
// change), re-capture the table with a %.17g dump from the commit *before*
// the change -- never hand-edit individual values.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"

namespace ge::exp {
namespace {

enum class Cfg { kA, kB, kC };

struct GoldenRow {
  Cfg cfg;
  const char* spec;        // parse() input ("#" rows are built by hand below)
  const char* scheduler;   // RunResult::scheduler (instance name)
  double quality;
  double energy;
  double mean_response_ms;
  double p99_response_ms;
  double avg_speed_ghz;
  std::uint64_t released;
  std::uint64_t completed;
  std::uint64_t partial;
  std::uint64_t dropped;
  std::uint64_t rounds;
};

// Captured pre-refactor at d9ad3c1 (see file comment).
// Re-pinned when Quality-OPT moved from the theta bisection to the exact
// level solve: floats moved by at most 2.8e-15 relative, every count
// stayed the same.
const GoldenRow kGoldens[] = {
    {Cfg::kA, "GE", "GE", 0.89654675174064802, 442.36338634853416, 145.08829789709802, 150.00000000000014, 1.5800326994163183, 322, 56, 266, 0, 79},
    {Cfg::kA, "GE-NoComp", "GE-NoComp", 0.88649642149091512, 432.24222397485983, 145.0555002639976, 150.00000000000014, 1.5581556044995, 322, 39, 283, 0, 79},
    {Cfg::kA, "GE-ES", "GE-ES", 0.88968415735590345, 412.81622813754893, 145.20855839683404, 150.00000000000014, 1.5551798306966877, 322, 91, 231, 0, 79},
    {Cfg::kA, "GE-WF", "GE-WF", 0.89724763720565315, 448.87011995924632, 145.09882054168597, 150.00000000000014, 1.5839320744568677, 322, 61, 261, 0, 79},
    {Cfg::kA, "GE-RR", "GE-RR", 0.27693530105247161, 493.52470674990536, 131.06610729888069, 149.99999999999997, 6.2138806787512779, 322, 0, 322, 0, 328},
    {Cfg::kA, "OQ", "OQ", 0.90254130433675284, 450.71446618587225, 145.15583928741853, 150.00000000000014, 1.5950822943157392, 322, 48, 274, 0, 79},
    {Cfg::kA, "BE", "BE", 0.96179773651984202, 532.62829649782702, 145.36008316934115, 150.00000000000014, 1.7448242522309063, 322, 259, 63, 0, 79},
    {Cfg::kA, "FCFS", "FCFS", 0.91737906809956238, 444.4371610019918, 150, 150.00000000000014, 1.6222704065209097, 322, 196, 126, 0, 0},
    {Cfg::kA, "FDFS", "FDFS", 0.91737906809956238, 444.4371610019918, 150, 150.00000000000014, 1.6222704065209097, 322, 196, 126, 0, 0},
    {Cfg::kA, "LJF", "LJF", 0.78933584424626224, 354.46265792255679, 150, 150.00000000000014, 1.4473768781748915, 322, 204, 57, 61, 0},
    {Cfg::kA, "SJF", "SJF", 0.69387110186462697, 253.79446475318051, 150, 150.00000000000014, 1.2123324307087793, 322, 215, 46, 61, 0},
    {Cfg::kA, "BE-P#", "BE-P(x0.800)", 0.9256756210555398, 466.03285225762988, 145.27328583574385, 150.00000000000014, 1.6522653431192886, 322, 201, 121, 0, 79},
    {Cfg::kA, "BE-S#", "BE-S(2.400GHz)", 0.93445683854330197, 461.87028787977272, 145.45565757976422, 150.00000000000014, 1.6586334850292899, 322, 221, 101, 0, 79},
    {Cfg::kB, "GE", "GE", 0.47130968473002255, 254.18916294259583, 136.51381152200466, 150.00000000000003, 1.987698036485585, 335, 0, 335, 0, 53},
    {Cfg::kB, "GE-NoComp", "GE-NoComp", 0.47130968473002255, 254.18916294259583, 136.51381152200466, 150.00000000000003, 1.987698036485585, 335, 0, 335, 0, 53},
    {Cfg::kB, "GE-ES", "GE-ES", 0.4706621112840762, 252.99853482412965, 136.2001446893907, 150.00000000000003, 1.9840854300373583, 335, 0, 335, 0, 53},
    {Cfg::kB, "GE-WF", "GE-WF", 0.47150148725012114, 254.50990994656996, 136.8003857437777, 150.00000000000003, 1.9888390094460475, 335, 0, 335, 0, 53},
    {Cfg::kB, "GE-RR", "GE-RR", 0.10463603141521327, 82.802951734960843, 145.42282001460973, 150.00000000000003, 3.1736191035881411, 335, 0, 335, 0, 340},
    {Cfg::kB, "OQ", "OQ", 0.47146381858658204, 254.30335500272233, 136.4927051779523, 150.00000000000003, 1.9884198962372348, 335, 0, 335, 0, 53},
    {Cfg::kB, "BE", "BE", 0.47219553228547956, 255.71167331095381, 136.43408437739387, 150.00000000000003, 1.9926709709308799, 335, 0, 335, 0, 53},
    {Cfg::kB, "FCFS", "FCFS", 0.45703767643625853, 247.86345026038018, 149.82817998080461, 150.00000000000003, 1.9586997449999455, 335, 6, 329, 0, 0},
    {Cfg::kB, "FDFS", "FDFS", 0.45703767643625853, 247.86345026038018, 149.82817998080461, 150.00000000000003, 1.9586997449999455, 335, 6, 329, 0, 0},
    {Cfg::kB, "LJF", "LJF", 0.36618783636037744, 228.94236415635828, 149.29299011497011, 150.00000000000003, 1.8752731051647338, 335, 38, 87, 210, 0},
    {Cfg::kB, "SJF", "SJF", 0.26803814188283831, 104.91965549735932, 147.19716505430989, 150.00000000000003, 1.2407253043866791, 335, 97, 28, 210, 0},
    {Cfg::kB, "BE-P#", "BE-P(x0.800)", 0.38740082277737259, 165.40194157738873, 141.87495285689911, 150.00000000000003, 1.6022035142275708, 335, 0, 335, 0, 53},
    {Cfg::kB, "BE-S#", "BE-S(2.400GHz)", 0.47145232666722675, 253.72963691776525, 136.08367467589889, 150.00000000000003, 1.9880169378664394, 335, 0, 335, 0, 53},
    {Cfg::kC, "GE", "GE", 0.89837820053689177, 168.25121541580083, 149.82850392165327, 150.00000000000003, 1.0461473667488019, 188, 14, 174, 0, 200},
    {Cfg::kC, "GE-NoComp", "GE-NoComp", 0.8901800978781127, 163.13129155791734, 150, 150.00000000000003, 1.0329350115291922, 188, 0, 188, 0, 200},
    {Cfg::kC, "GE-ES", "GE-ES", 0.89837820053689177, 168.25121541580083, 149.82850392165327, 150.00000000000003, 1.0461473667488019, 188, 14, 174, 0, 200},
    {Cfg::kC, "GE-WF", "GE-WF", 0.89999999999999947, 182.72550972449943, 150, 150.00000000000003, 1.0604800942478716, 188, 0, 188, 0, 200},
    {Cfg::kC, "GE-RR", "GE-RR", 0.24866291727604517, 67.827604101009058, 132.76786527996305, 150.00000000000003, 1.9956777584486813, 188, 0, 188, 0, 200},
    {Cfg::kC, "OQ", "OQ", 0.90846133639717541, 171.17693344588412, 150, 150.00000000000003, 1.059750205385138, 188, 0, 188, 0, 200},
    {Cfg::kC, "BE", "BE", 1, 255.16745942885996, 150, 150.00000000000003, 1.2299223581149776, 188, 188, 0, 0, 200},
    {Cfg::kC, "FCFS", "FCFS", 0.9809539022844791, 206.21683653641429, 150, 150.00000000000003, 1.1693862934858608, 188, 177, 11, 0, 0},
    {Cfg::kC, "FDFS", "FDFS", 0.9809539022844791, 206.21683653641429, 150, 150.00000000000003, 1.1693862934858608, 188, 177, 11, 0, 0},
    {Cfg::kC, "LJF", "LJF", 0.9809539022844791, 206.21683653641429, 150, 150.00000000000003, 1.1693862934858608, 188, 177, 11, 0, 0},
    {Cfg::kC, "SJF", "SJF", 0.9809539022844791, 206.21683653641429, 150, 150.00000000000003, 1.1693862934858608, 188, 177, 11, 0, 0},
    {Cfg::kC, "BE-P#", "BE-P(x0.800)", 1, 255.16745942885996, 150, 150.00000000000003, 1.2299223581149776, 188, 188, 0, 0, 200},
    {Cfg::kC, "BE-S#", "BE-S(2.400GHz)", 0.9809539022844791, 206.21683653641429, 150, 150.00000000000003, 1.1693862934858614, 188, 177, 11, 0, 200},
};

ExperimentConfig make_config(Cfg which) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  switch (which) {
    case Cfg::kA:
      cfg.duration = 2.0;
      cfg.arrival_rate = 150.0;
      cfg.seed = 7;
      break;
    case Cfg::kB:
      cfg.duration = 1.5;
      cfg.arrival_rate = 220.0;
      cfg.cores = 8;
      cfg.power_budget = 160.0;
      cfg.discrete_speeds = true;
      cfg.seed = 11;
      break;
    case Cfg::kC:
      cfg.duration = 1.0;
      cfg.arrival_rate = 180.0;
      cfg.num_servers = 3;
      cfg.dispatch = cluster::DispatchPolicy::kJsq;
      cfg.seed = 3;
      break;
  }
  return cfg;
}

SchedulerSpec make_spec(const std::string& label) {
  // The two calibrated variants were captured with programmatically-set
  // fields (how calibrate.cpp builds them), not bracket parameters.
  if (label == "BE-P#") {
    SchedulerSpec spec = SchedulerSpec::parse("BE-P");
    spec.budget_scale = 0.8;
    return spec;
  }
  if (label == "BE-S#") {
    SchedulerSpec spec = SchedulerSpec::parse("BE-S");
    spec.speed_cap_ghz = 2.4;
    return spec;
  }
  return SchedulerSpec::parse(label);
}

TEST(GoldenSchedulers, BitIdenticalThroughRegistry) {
  for (const GoldenRow& row : kGoldens) {
    const ExperimentConfig cfg = make_config(row.cfg);
    const RunResult r = run_simulation(cfg, make_spec(row.spec));
    SCOPED_TRACE(std::string(row.spec) + " on config " +
                 std::to_string(static_cast<int>(row.cfg)));
    EXPECT_EQ(r.scheduler, row.scheduler);
    EXPECT_EQ(r.quality, row.quality);
    EXPECT_EQ(r.energy, row.energy);
    EXPECT_EQ(r.mean_response_ms, row.mean_response_ms);
    EXPECT_EQ(r.p99_response_ms, row.p99_response_ms);
    EXPECT_EQ(r.avg_speed_ghz, row.avg_speed_ghz);
    EXPECT_EQ(r.released, row.released);
    EXPECT_EQ(r.completed, row.completed);
    EXPECT_EQ(r.partial, row.partial);
    EXPECT_EQ(r.dropped, row.dropped);
    EXPECT_EQ(r.rounds, row.rounds);
  }
}

}  // namespace
}  // namespace ge::exp
