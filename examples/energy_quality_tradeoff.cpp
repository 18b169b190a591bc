// Domain scenario: negotiating the quality promise.  Sweeps the promised
// Q_GE and shows the energy each promise costs, with an ASCII frontier --
// the business-facing view of "good enough computing": every percent of
// quality you do not need is energy you do not pay for.
//
//   ./energy_quality_tradeoff [--rate 150] [--seconds 20]
#include <cstdio>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = flags.get_double("rate", 150.0);
  cfg.duration = flags.get_double("seconds", 20.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 9));
  flags.exit_on_unknown("energy_quality_tradeoff");

  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  const exp::RunResult be =
      exp::run_simulation(cfg, exp::SchedulerSpec::parse("BE"), trace);

  std::printf("Energy-quality frontier at %.0f req/s (best effort: quality %.4f, "
              "%.1f J)\n\n",
              cfg.arrival_rate, be.quality, be.energy);
  std::printf("%6s %9s %10s %9s   %s\n", "Q_GE", "quality", "energy_J", "saving",
              "energy bar");
  for (double target : {0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99}) {
    cfg.q_ge = target;
    const exp::RunResult r =
        exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"), trace);
    const double saving = 1.0 - r.energy / be.energy;
    const int bar = static_cast<int>(40.0 * r.energy / be.energy + 0.5);
    std::printf("%6.2f %9.4f %10.1f %8.1f%%   %s\n", target, r.quality, r.energy,
                saving * 100.0, std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  std::printf("\n(bar = GE energy relative to best effort; the concave quality "
              "function\nmakes the first relaxation percents the cheapest)\n");
  return 0;
}
