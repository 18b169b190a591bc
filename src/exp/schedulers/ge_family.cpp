// Registry plugins for the paper's own scheduler family: GE and its
// ablations (GE-NoComp, GE-ES, GE-WF, GE-RR), the Over-Qualified control
// (OQ), Best Effort (BE) and its calibrated power/speed-control variants
// (BE-P, BE-S).  Behaviour is pinned bit-identical to the pre-registry
// switch by tests/test_golden_schedulers.cpp.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/good_enough.h"
#include "exp/config.h"
#include "exp/scheduler_registry.h"
#include "exp/scheduler_spec.h"
#include "util/check.h"
#include "util/format.h"
#include "util/table.h"

namespace ge::exp {
namespace {

sched::GoodEnoughOptions ge_options(const ExperimentConfig& cfg,
                                    const power::DiscreteSpeedTable* table,
                                    bool cutting, bool compensation,
                                    double cut_target,
                                    power::DistributionPolicy policy) {
  sched::GoodEnoughOptions opts;
  opts.q_ge = cfg.q_ge;
  opts.cut_target = cut_target;
  opts.cutting = cutting;
  opts.compensation = compensation;
  opts.power_policy = policy;
  opts.critical_load = cfg.critical_load;
  opts.load_window = cfg.load_window;
  opts.quantum = cfg.quantum;
  opts.counter_threshold = cfg.counter_threshold;
  opts.speed_table = table;
  return opts;
}

SchedulerPlugin make_ge() {
  SchedulerPlugin p;
  p.name = "GE";
  p.summary = "Good Enough: quality cutting + compensation, hybrid ES/WF power";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, true, true, cfg.q_ge,
                   power::DistributionPolicy::kHybrid),
        "GE");
  };
  return p;
}

SchedulerPlugin make_ge_nocomp() {
  SchedulerPlugin p;
  p.name = "GE-NoComp";
  p.aliases = {"GE-NC"};
  p.summary = "GE without the compensation policy (Fig. 5 ablation)";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, true, false, cfg.q_ge,
                   power::DistributionPolicy::kHybrid),
        "GE-NoComp");
  };
  return p;
}

SchedulerPlugin make_ge_es() {
  SchedulerPlugin p;
  p.name = "GE-ES";
  p.summary = "GE forced to Equal-Sharing power distribution (Fig. 6/7)";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, true, true, cfg.q_ge,
                   power::DistributionPolicy::kEqualSharing),
        "GE-ES");
  };
  return p;
}

SchedulerPlugin make_ge_wf() {
  SchedulerPlugin p;
  p.name = "GE-WF";
  p.summary = "GE forced to Water-Filling power distribution (Fig. 6/7)";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, true, true, cfg.q_ge,
                   power::DistributionPolicy::kWaterFilling),
        "GE-WF");
  };
  return p;
}

SchedulerPlugin make_ge_rr() {
  SchedulerPlugin p;
  p.name = "GE-RR";
  p.summary = "GE with plain (non-cumulative) round-robin core assignment";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    sched::GoodEnoughOptions opts = ge_options(
        cfg, table, true, true, cfg.q_ge, power::DistributionPolicy::kHybrid);
    opts.cumulative_rr = false;
    return std::make_unique<sched::GoodEnoughScheduler>(env, opts, "GE-RR");
  };
  return p;
}

SchedulerPlugin make_oq() {
  SchedulerPlugin p;
  p.name = "OQ";
  p.summary = "Over-Qualified: cut to Q_GE + 2%, never compensate (Sec. IV-A-1)";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    // Over-Qualified: target 2% above the demanded quality, never
    // compensate (Sec. IV-A-1).
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, true, false, std::min(cfg.q_ge + 0.02, 1.0),
                   power::DistributionPolicy::kHybrid),
        "OQ");
  };
  return p;
}

SchedulerPlugin make_be() {
  SchedulerPlugin p;
  p.name = "BE";
  p.summary = "Best Effort: never cut quality, Water-Filling power";
  p.factory = [](const SchedulerSpec&, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, false, false, 1.0,
                   power::DistributionPolicy::kWaterFilling),
        "BE");
  };
  return p;
}

SchedulerPlugin make_be_p() {
  SchedulerPlugin p;
  p.name = "BE-P";
  p.summary = "power control: BE on a scaled power budget (Fig. 8)";
  p.params_help = "scale > 0: multiplier on the configured power budget "
                  "(default 1, i.e. plain BE)";
  p.min_params = 0;
  p.max_params = 1;
  p.apply_params = [](SchedulerSpec& spec) {
    if (!spec.params.empty()) {
      GE_CHECK(spec.params[0] > 0.0,
               "BE-P budget scale must be positive");
      spec.budget_scale = spec.params[0];
    }
  };
  p.display = [](const SchedulerSpec& spec) {
    if (spec.budget_scale == 1.0) {
      return std::string("BE-P");
    }
    return "BE-P[" + util::format_number(spec.budget_scale) + "]";
  };
  p.effective_budget = [](const SchedulerSpec& spec, const ExperimentConfig& cfg) {
    return cfg.power_budget * spec.budget_scale;
  };
  p.factory = [](const SchedulerSpec& spec, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    // The budget reduction is applied by the runner through
    // effective_budget(); the scheduling behaviour is plain BE.
    return std::make_unique<sched::GoodEnoughScheduler>(
        env,
        ge_options(cfg, table, false, false, 1.0,
                   power::DistributionPolicy::kWaterFilling),
        "BE-P(x" + util::format_double(spec.budget_scale, 3) + ")");
  };
  return p;
}

SchedulerPlugin make_be_s() {
  SchedulerPlugin p;
  p.name = "BE-S";
  p.summary = "speed control: BE with a uniform per-core speed cap (Fig. 8)";
  p.params_help = "cap_ghz > 0: per-core speed cap in GHz (default: uncapped)";
  p.min_params = 0;
  p.max_params = 1;
  p.apply_params = [](SchedulerSpec& spec) {
    if (!spec.params.empty()) {
      GE_CHECK(spec.params[0] > 0.0, "BE-S speed cap must be positive");
      spec.speed_cap_ghz = spec.params[0];
    }
  };
  p.display = [](const SchedulerSpec& spec) {
    if (!std::isfinite(spec.speed_cap_ghz)) {
      return std::string("BE-S");
    }
    return "BE-S[" + util::format_number(spec.speed_cap_ghz) + "]";
  };
  p.factory = [](const SchedulerSpec& spec, const sched::SchedulerEnv& env,
                 const ExperimentConfig& cfg, const power::DiscreteSpeedTable* table) {
    // Speed control caps every core uniformly ("limits the power
    // distributed to all the cores"), i.e. Equal-Sharing semantics; the
    // lack of WF rebalancing is why BE-P beats BE-S in Fig. 8.
    sched::GoodEnoughOptions opts = ge_options(
        cfg, table, false, false, 1.0, power::DistributionPolicy::kEqualSharing);
    opts.core_speed_cap = spec.speed_cap_ghz * cfg.units_per_ghz;
    return std::make_unique<sched::GoodEnoughScheduler>(
        env, opts,
        "BE-S(" + util::format_double(spec.speed_cap_ghz, 3) + "GHz)");
  };
  return p;
}

GE_REGISTER_SCHEDULER(make_ge);
GE_REGISTER_SCHEDULER(make_ge_nocomp);
GE_REGISTER_SCHEDULER(make_ge_es);
GE_REGISTER_SCHEDULER(make_ge_wf);
GE_REGISTER_SCHEDULER(make_ge_rr);
GE_REGISTER_SCHEDULER(make_oq);
GE_REGISTER_SCHEDULER(make_be);
GE_REGISTER_SCHEDULER(make_be_p);
GE_REGISTER_SCHEDULER(make_be_s);

}  // namespace
}  // namespace ge::exp
