// Tutorial: add your own scheduler in ONE file -- no core/ or exp/ edits.
//
// This example implements Least-Laxity-First (LLF), registers it with the
// scheduler plugin registry from this translation unit's static init, and
// then drives it through the stock simulator by name, exactly as if it were
// a built-in ("--scheduler LLF" works because parse() is a registry
// lookup).  The three pieces every scheduler needs:
//
//   1. a sched::Scheduler subclass (the policy itself);
//   2. a SchedulerPlugin describing its CLI contract;
//   3. GE_REGISTER_SCHEDULER(...) to hand 2 to the registry.
//
// docs/SCHEDULERS.md walks through this file section by section.
//
//   ./custom_scheduler [--rate 150] [--seconds 10] [--seed 1]
#include <cstdio>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"
#include "opt/plan.h"
#include "server/multicore_server.h"
#include "util/check.h"
#include "util/flags.h"

namespace {

// ---------------------------------------------------------------------------
// 1. The policy.  LLF queues arrivals and, whenever a core is free, runs the
// job with the least laxity: slack = (deadline - now) - remaining/cap_speed,
// i.e. how long the job can still wait if we then run it flat out under the
// Equal-Sharing power cap.  Each dispatched job runs alone at the slowest
// deadline-meeting speed (the FCFS/FDFS family's semantics: cap-clipped
// jobs run to their deadline and settle partial).
// ---------------------------------------------------------------------------
class LeastLaxityScheduler : public ge::sched::Scheduler {
 public:
  explicit LeastLaxityScheduler(ge::sched::SchedulerEnv env)
      : Scheduler(env, "LLF"),
        core_cap_watts_(env.server->power_budget() /
                        static_cast<double>(env.server->core_count())) {}

  void on_job_arrival(ge::workload::Job* job) override {
    waiting_.push_back(job);
    dispatch();
  }

  void on_core_idle(int) override { dispatch(); }

  void on_deadline(ge::workload::Job* job) override {
    if (!job->settled) {
      std::erase(waiting_, job);
      settle(job);
    }
    dispatch();
  }

  void finish() override {
    for (ge::workload::Job* job : waiting_) {
      if (!job->settled) {
        settle(job);
      }
    }
    waiting_.clear();
    for (std::size_t i = 0; i < env_.server->core_count(); ++i) {
      auto queue = env_.server->core(i).queue();  // copy: settle() mutates it
      for (ge::workload::Job* job : queue) {
        if (!job->settled) {
          settle(job);
        }
      }
    }
  }

  std::size_t backlog() const override { return waiting_.size(); }

 private:
  double laxity(const ge::workload::Job* job, double t,
                double cap_speed) const {
    return (job->deadline - t) - job->remaining_demand() / cap_speed;
  }

  void dispatch() {
    const double t = now();
    for (;;) {
      for (ge::workload::Job* job : waiting_) {
        if (!job->settled && job->expired(t)) {
          settle(job);  // expired while queued: quality 0
        }
      }
      std::erase_if(waiting_,
                    [](const ge::workload::Job* j) { return j->settled; });
      if (waiting_.empty()) {
        return;
      }
      const int idle = env_.server->find_idle_core(t);
      if (idle < 0) {
        return;
      }
      ge::server::Core& core = env_.server->core(static_cast<std::size_t>(idle));
      const double cap_speed =
          core.power_model().speed_for_power(core_cap_watts_);
      std::size_t best = 0;
      for (std::size_t i = 1; i < waiting_.size(); ++i) {
        if (laxity(waiting_[i], t, cap_speed) <
            laxity(waiting_[best], t, cap_speed)) {
          best = i;
        }
      }
      ge::workload::Job* job = waiting_[best];
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(best));
      run_on_core(job, core, cap_speed);
    }
  }

  void run_on_core(ge::workload::Job* job, ge::server::Core& core,
                   double cap_speed) {
    const double t = now();
    job->core = core.id();
    core.queue().push_back(job);
    job->target = job->demand;
    const double window = job->deadline - t;
    GE_CHECK(window > 1e-9, "dispatching an expired job");
    // Slowest deadline-meeting speed; clip to the Equal-Sharing cap.
    double speed = job->remaining_demand() / window;
    double units = job->remaining_demand();
    if (speed > cap_speed) {
      speed = cap_speed;
      units = speed * window;
    }
    ge::opt::ExecutionPlan plan;
    if (units > 1e-6 && speed > 0.0) {
      plan.segments.push_back(
          ge::opt::PlanSegment{job, t, t + units / speed, speed, units});
    }
    core.install_plan(std::move(plan), core_cap_watts_);
  }

  std::vector<ge::workload::Job*> waiting_;
  double core_cap_watts_;  // H / m (Equal-Sharing)
};

// ---------------------------------------------------------------------------
// 2. The CLI contract: canonical name, aliases, parameter arity, factory.
// A parameterized scheduler would set min/max_params and read spec.params
// in the factory (see QOA in src/exp/schedulers/speed_scaling_family.cpp).
// ---------------------------------------------------------------------------
ge::exp::SchedulerPlugin make_llf() {
  ge::exp::SchedulerPlugin p;
  p.name = "LLF";
  p.aliases = {"LEAST-LAXITY"};
  p.summary = "tutorial plugin: least-laxity-first single-job queueing";
  p.factory = [](const ge::exp::SchedulerSpec&, const ge::sched::SchedulerEnv& env,
                 const ge::exp::ExperimentConfig&,
                 const ge::power::DiscreteSpeedTable*) {
    return std::make_unique<LeastLaxityScheduler>(env);
  };
  return p;
}

// ---------------------------------------------------------------------------
// 3. Registration.  Runs during static init, before main(); from here on
// "LLF" parses anywhere a scheduler name is accepted in this binary.
// ---------------------------------------------------------------------------
GE_REGISTER_SCHEDULER(make_llf);

}  // namespace

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = flags.get_double("rate", 150.0);
  cfg.duration = flags.get_double("seconds", 10.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.exit_on_unknown("custom_scheduler");

  // The new scheduler is a first-class citizen: parse by name (registry
  // lookup, case-insensitive) and compare against a built-in cousin.
  std::printf("%-6s %10s %10s %10s %10s\n", "sched", "quality", "energy_J",
              "completed", "partial");
  for (const char* name : {"LLF", "FDFS"}) {
    const exp::RunResult r =
        exp::run_simulation(cfg, exp::SchedulerSpec::parse(name));
    std::printf("%-6s %10.4f %10.1f %10llu %10llu\n", r.scheduler.c_str(),
                r.quality, r.energy,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.partial));
  }
  std::printf("\nLLF registered from examples/custom_scheduler.cpp -- no "
              "core/ or exp/ edits.\n");
  return 0;
}
