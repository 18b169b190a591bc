// Trace record / replay: materialise a workload trace, save it to CSV,
// reload it, and verify that replaying it gives bit-identical results --
// the mechanism the benchmark harness uses for paired scheduler comparisons.
//
//   ./trace_replay [--rate 150] [--seconds 10] [--file /tmp/ge_trace.csv]
#include <cstdio>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = flags.get_double("rate", 150.0);
  cfg.duration = flags.get_double("seconds", 10.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));
  const std::string path = flags.get_string("file", "/tmp/ge_trace.csv");
  flags.exit_on_unknown("trace_replay");

  // Record.
  const workload::Trace original =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  original.save_csv(path);
  std::printf("recorded %zu requests (%.0f units total) to %s\n", original.size(),
              original.total_demand(), path.c_str());

  // Replay from disk.
  const workload::Trace replayed = workload::Trace::load_csv(path);
  std::printf("reloaded %zu requests from disk\n\n", replayed.size());

  const exp::SchedulerSpec spec = exp::SchedulerSpec::parse("GE");
  const exp::RunResult a = exp::run_simulation(cfg, spec, original);
  const exp::RunResult b = exp::run_simulation(cfg, spec, replayed);

  std::printf("%-22s %14s %14s\n", "", "in-memory", "replayed");
  std::printf("%-22s %14.6f %14.6f\n", "quality", a.quality, b.quality);
  std::printf("%-22s %14.3f %14.3f\n", "energy (J)", a.energy, b.energy);
  std::printf("%-22s %14llu %14llu\n", "completed",
              static_cast<unsigned long long>(a.completed),
              static_cast<unsigned long long>(b.completed));
  std::printf("%-22s %14llu %14llu\n", "dropped",
              static_cast<unsigned long long>(a.dropped),
              static_cast<unsigned long long>(b.dropped));

  const bool identical = a.quality == b.quality && a.completed == b.completed &&
                         std::abs(a.energy - b.energy) < 1e-6;
  std::printf("\nreplay %s the original run (CSV stores round-trip-exact doubles).\n",
              identical ? "reproduces" : "DIVERGES FROM");
  return identical ? 0 : 1;
}
