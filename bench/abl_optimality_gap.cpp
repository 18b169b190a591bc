// Ablation: optimality gap.  Compares GE's online, non-preemptive,
// partitioned schedule against the clairvoyant fluid YDS reference
// (offline_reference.h) on identical traces.
#include <cstdio>

#include "exp/offline_reference.h"
#include "fig_common.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  bench::FigureContext ctx =
      bench::parse_figure_args(flags, {100.0, 150.0, 200.0});
  // A few seconds rather than the figure-default 60 s, unless the caller
  // insists.
  ctx.base.duration = flags.get_double("seconds", 4.0);
  flags.exit_on_unknown("abl_optimality_gap");
  bench::print_banner(ctx, "Ablation",
                      "GE vs clairvoyant fluid-YDS reference (offline, "
                      "preemptive, unpartitioned, no budget)");

  // The offline YDS reference is not a run_simulation task, so this bench
  // fans out over the engine's substrate directly: one ThreadPool iteration
  // per rate computes the shared trace, the GE run and the reference, and
  // the rows are rendered in rate order afterwards.
  struct Row {
    exp::RunResult ge;
    exp::OfflineReference ref;
  };
  std::vector<Row> rows(ctx.rates.size());
  util::ThreadPool pool(ctx.exec.jobs == 0 ? util::ThreadPool::default_concurrency()
                                           : ctx.exec.jobs);
  pool.parallel_for(ctx.rates.size(), [&](std::size_t i) {
    exp::ExperimentConfig cfg = ctx.base;
    cfg.arrival_rate = ctx.rates[i];
    const workload::Trace trace =
        workload::Trace::generate(cfg.workload_spec(), cfg.duration);
    rows[i].ge = exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"), trace);
    rows[i].ref = exp::offline_reference(trace, cfg.q_ge, cfg);
  });

  util::Table table({"arrival_rate", "GE_quality", "GE_energy_J", "ref_quality",
                     "ref_energy_J", "gap_ratio", "ref_peak_W", "ref_feasible"});
  for (std::size_t i = 0; i < ctx.rates.size(); ++i) {
    const Row& row = rows[i];
    table.begin_row();
    table.add(ctx.rates[i], 1);
    table.add(row.ge.quality, 4);
    table.add(row.ge.energy, 1);
    table.add(row.ref.quality, 4);
    table.add(row.ref.energy, 1);
    table.add(row.ref.energy > 0.0 ? row.ge.energy / row.ref.energy : 0.0, 3);
    table.add(row.ref.peak_power, 1);
    table.add(std::string(row.ref.within_budget ? "yes" : "no"));
  }
  bench::print_panel(
      ctx, "GE energy vs the idealised offline reference", table,
      "the reference relaxes onlineness, partitioning, preemption and the "
      "power budget at once, so a gap well under ~2x means the GE heuristic "
      "captures most of the savings available at the same quality level; the "
      "gap narrows as load grows (less timing slack to exploit)");
  return 0;
}
