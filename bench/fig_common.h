// Shared plumbing for the figure-reproduction binaries.
//
// Every figNN binary accepts:
//   --seconds S    arrival horizon per point (default 60; paper uses 600)
//   --seed N       workload seed (default 1)
//   --rates a,b,c  arrival-rate sweep override
//   --csv          print strict CSV instead of aligned tables
//   --jobs N       worker threads for the experiment engine (default 0 =
//                  hardware_concurrency; results are bit-identical for any
//                  N, including 1)
//   --progress     force the engine's live progress line on stderr on/off
//                  (default: on when stderr is a terminal)
//   --trace F      write a simulation trace of every run to F
//   --trace-format jsonl|chrome   trace encoding (default jsonl; chrome
//                  loads in Perfetto / about:tracing)
//   --metrics F    write the merged metrics registry (JSON) to F
//   --report DIR   write the derived-analysis report (report.md + CSVs,
//                  schema ge-report-v1) to DIR
//   --watchdog     online invariant watchdog (default: on when --report is)
//   --profile      wall-clock self-profiling spans (prof.* metrics; off by
//                  default because wall clocks are nondeterministic)
//   --servers N    cluster size (default 1 = the paper's single server)
//   --dispatch P   dispatch policy for N > 1: random | rr | jsq |
//                  least-energy (default rr; see docs/CLUSTER.md)
//   --server-cores a,b,...        per-server core counts (default: all
//                  servers get --cores)
//   --server-power-scale a,b,...  per-server power_a multipliers
//   --server-max-ghz a,b,...      per-server DVFS ceilings (with --discrete)
//   --shards N     parallel-DES shard count for cluster runs (default 1 =
//                  serial event loop; bit-identical for any N, docs/CLI.md)
// (flag reference: docs/CLI.md; telemetry schema: docs/OBSERVABILITY.md)
// and prints one table per panel of the figure plus a note stating the
// qualitative shape the paper reports, so EXPERIMENTS.md can record
// paper-vs-measured directly from the output.
// Any other flag is a usage error: one stderr line naming it, exit code 2.
#pragma once

#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/sweep.h"
#include "util/flags.h"
#include "util/table.h"

namespace ge::bench {

struct FigureContext {
  exp::ExperimentConfig base;
  std::vector<double> rates;
  bool csv = false;
  // Engine execution options (--jobs / --progress); pass to the sweeps.
  exp::ExecutionOptions exec;
};

// Parses the common flags and applies them to the paper-default config;
// exits with status 2 on a flag it does not know.
FigureContext parse_figure_args(int argc, const char* const* argv,
                                std::vector<double> default_rates =
                                    exp::paper_arrival_rates());

// The same for a binary that reads flags of its own from `flags`: it must
// call flags.exit_on_unknown(name) after its last getter.
FigureContext parse_figure_args(const util::Flags& flags,
                                std::vector<double> default_rates =
                                    exp::paper_arrival_rates());

// Banner: figure id, title, key config values.
void print_banner(const FigureContext& ctx, const std::string& figure,
                  const std::string& title);

// Prints one panel: caption, table, and the paper's expected shape.
void print_panel(const FigureContext& ctx, const std::string& caption,
                 const util::Table& table, const std::string& paper_shape);

// Convenience metric lambdas.
double metric_quality(const exp::RunResult& r);
double metric_energy(const exp::RunResult& r);

}  // namespace ge::bench
