#include "exp/scheduler_spec.h"

#include <cstdlib>

#include "exp/config.h"
#include "exp/scheduler_registry.h"
#include "util/check.h"
#include "util/format.h"

namespace ge::exp {
namespace {

std::string format_params(const std::vector<double>& params) {
  std::string out = "[";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ",";
    util::append_number(out, params[i]);
  }
  out += "]";
  return out;
}

}  // namespace

const SchedulerPlugin& SchedulerSpec::resolved() const {
  if (plugin != nullptr) {
    return *plugin;
  }
  const SchedulerPlugin* ge = SchedulerRegistry::instance().find("GE");
  GE_CHECK(ge != nullptr, "default scheduler plugin 'GE' is not registered");
  return *ge;
}

bool SchedulerSpec::is(std::string_view canonical_name) const {
  return resolved().name == canonical_name;
}

std::string SchedulerSpec::display_name() const {
  const SchedulerPlugin& p = resolved();
  if (p.display) {
    return p.display(*this);
  }
  if (params.empty()) {
    return p.name;
  }
  return p.name + format_params(params);
}

SchedulerSpec SchedulerSpec::parse(const std::string& name) {
  std::string base = name;
  std::vector<double> params;
  const std::size_t lb = name.find('[');
  if (lb != std::string::npos) {
    GE_CHECK(!name.empty() && name.back() == ']',
             "bad scheduler spec (expected trailing ']'): " + name);
    base = name.substr(0, lb);
    const std::string inside = name.substr(lb + 1, name.size() - lb - 2);
    std::size_t pos = 0;
    while (pos < inside.size()) {
      std::size_t comma = inside.find(',', pos);
      if (comma == std::string::npos) comma = inside.size();
      const std::string token = inside.substr(pos, comma - pos);
      char* end = nullptr;
      const double value = std::strtod(token.c_str(), &end);
      GE_CHECK(!token.empty() && end == token.c_str() + token.size(),
               "bad scheduler parameter '" + token + "' in: " + name);
      params.push_back(value);
      pos = comma + 1;
    }
    GE_CHECK(!params.empty(), "empty scheduler parameter list in: " + name);
  }

  const SchedulerPlugin* p = SchedulerRegistry::instance().find(base);
  GE_CHECK(p != nullptr, "unknown scheduler name: " + name);
  GE_CHECK(params.size() >= p->min_params && params.size() <= p->max_params,
           "scheduler " + p->name + " expects between " +
               std::to_string(p->min_params) + " and " +
               std::to_string(p->max_params) + " parameters, got " +
               std::to_string(params.size()) + ": " + name);

  SchedulerSpec spec;
  spec.plugin = p;
  spec.params = std::move(params);
  if (p->apply_params) {
    p->apply_params(spec);
  }
  return spec;
}

double effective_budget(const SchedulerSpec& spec, const ExperimentConfig& cfg) {
  const SchedulerPlugin& p = spec.resolved();
  if (p.effective_budget) {
    return p.effective_budget(spec, cfg);
  }
  return cfg.power_budget;
}

std::unique_ptr<sched::Scheduler> make_scheduler(const SchedulerSpec& spec,
                                                 const sched::SchedulerEnv& env,
                                                 const ExperimentConfig& cfg,
                                                 const power::DiscreteSpeedTable* table) {
  return spec.resolved().factory(spec, env, cfg, table);
}

}  // namespace ge::exp
