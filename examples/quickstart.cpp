// Quickstart: simulate a 16-core web-search server for 30 seconds under the
// Good Enough scheduler and print the headline metrics.
//
//   ./quickstart [--rate 150] [--seconds 30] [--qge 0.9] [--seed 1]
//                [--scheduler GE] [--json]
#include <cstdio>

#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);

  // 1. Describe the experiment: the paper's Sec. IV-B defaults, overridable
  //    from the command line.
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = flags.get_double("rate", 150.0);
  cfg.duration = flags.get_double("seconds", 30.0);
  cfg.q_ge = flags.get_double("qge", 0.9);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  // 2. Pick a scheduler.  "GE" is the paper's contribution; try "BE",
  //    "FCFS", "SJF", ... for the baselines.
  const exp::SchedulerSpec spec =
      exp::SchedulerSpec::parse(flags.get_string("scheduler", "GE"));
  const bool json = flags.get_bool("json", false);
  flags.exit_on_unknown("quickstart");

  // 3. Run the simulation.
  const exp::RunResult r = exp::run_simulation(cfg, spec);

  // 4. Report: human-readable by default, one JSON record with --json.
  if (json) {
    std::printf("%s\n", exp::to_json(r).c_str());
  } else {
    std::printf("%s", exp::summarize(r, cfg).c_str());
  }
  return 0;
}
