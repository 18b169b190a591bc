#include "gate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>

namespace perfbench {
namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Appends one message per differing field.
class Diff {
 public:
  Diff(Failures& out, std::string what) : out_(out), what_(std::move(what)) {}

  void field(const char* name, double a, double b) {
    if (!same_bits(a, b)) {
      out_.push_back(what_ + ": " + name + " " + fmt(a) + " != " + fmt(b));
    }
  }
  void field(const char* name, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      out_.push_back(what_ + ": " + name + " " + std::to_string(a) +
                     " != " + std::to_string(b));
    }
  }
  void field(const char* name, const std::string& a, const std::string& b) {
    if (a != b) {
      out_.push_back(what_ + ": " + name + " '" + a + "' != '" + b + "'");
    }
  }

 private:
  Failures& out_;
  std::string what_;
};

}  // namespace

void append(Failures& to, const Failures& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void Tally::record(const Failures& failures) {
  ++attempted;
  if (failures.empty()) {
    return;
  }
  ++failed;
  for (const std::string& f : failures) {
    std::cerr << "perfbench: run " << attempted << " failed: " << f << "\n";
  }
}

Failures check_outcome(const ge::exp::RunResult& r) {
  Failures out;
  if (r.released == 0) {
    out.push_back("no job was released");
  }
  if (r.released != r.completed + r.partial + r.dropped) {
    out.push_back("released " + std::to_string(r.released) +
                  " != completed + partial + dropped " +
                  std::to_string(r.completed + r.partial + r.dropped));
  }
  if (!(r.quality >= 0.0 && r.quality <= 1.0)) {
    out.push_back("quality " + fmt(r.quality) + " outside [0, 1]");
  }
  if (!(r.energy > 0.0) || !std::isfinite(r.energy)) {
    out.push_back("energy " + fmt(r.energy) + " is not positive and finite");
  }
  return out;
}

Failures check_same_result(const ge::exp::RunResult& a,
                           const ge::exp::RunResult& b, const std::string& what) {
  Failures out;
  Diff d(out, what);
#define PERFBENCH_FIELD(f) d.field(#f, a.f, b.f)
  PERFBENCH_FIELD(scheduler);
  PERFBENCH_FIELD(arrival_rate);
  PERFBENCH_FIELD(duration);
  PERFBENCH_FIELD(quality);
  PERFBENCH_FIELD(energy);
  PERFBENCH_FIELD(static_energy);
  PERFBENCH_FIELD(avg_power);
  PERFBENCH_FIELD(mean_response_ms);
  PERFBENCH_FIELD(p50_response_ms);
  PERFBENCH_FIELD(p95_response_ms);
  PERFBENCH_FIELD(p99_response_ms);
  PERFBENCH_FIELD(aes_fraction);
  PERFBENCH_FIELD(avg_speed_ghz);
  PERFBENCH_FIELD(speed_variance);
  PERFBENCH_FIELD(released);
  PERFBENCH_FIELD(completed);
  PERFBENCH_FIELD(partial);
  PERFBENCH_FIELD(dropped);
  PERFBENCH_FIELD(rounds);
  PERFBENCH_FIELD(wf_rounds);
  PERFBENCH_FIELD(es_rounds);
  PERFBENCH_FIELD(busy_fraction);
  PERFBENCH_FIELD(energy_cov);
  PERFBENCH_FIELD(num_servers);
  PERFBENCH_FIELD(dispatch);
  PERFBENCH_FIELD(server_energy_cov);
  PERFBENCH_FIELD(server_load_cov);
  PERFBENCH_FIELD(setup_energy_j);
  PERFBENCH_FIELD(wakes);
  PERFBENCH_FIELD(rejected);
  PERFBENCH_FIELD(expired_in_queue);
  PERFBENCH_FIELD(offline_energy_j);
  PERFBENCH_FIELD(reclaim_energy_j);
  PERFBENCH_FIELD(reclaim_disc_j);
  PERFBENCH_FIELD(reclaim_offline_j);
#undef PERFBENCH_FIELD
  d.field("tenants.size", static_cast<std::uint64_t>(a.tenants.size()),
          static_cast<std::uint64_t>(b.tenants.size()));
  for (std::size_t t = 0; t < std::min(a.tenants.size(), b.tenants.size()); ++t) {
    const ge::exp::TenantRunResult& x = a.tenants[t];
    const ge::exp::TenantRunResult& y = b.tenants[t];
    Diff td(out, what + " tenant " + std::to_string(t));
    td.field("q_target", x.q_target, y.q_target);
    td.field("quality", x.quality, y.quality);
    td.field("slo_burn", x.slo_burn, y.slo_burn);
    td.field("energy_j", x.energy_j, y.energy_j);
    td.field("released", x.released, y.released);
    td.field("completed", x.completed, y.completed);
    td.field("partial", x.partial, y.partial);
    td.field("dropped", x.dropped, y.dropped);
  }
  return out;
}

Failures check_reclaim_chain(const ge::obs::analysis::ReclaimAnalysis& r) {
  Failures out;
  const double tol = 1e-9 * std::max(1.0, r.realized_j);
  if (!(r.offline_j >= 0.0)) {
    out.push_back("reclaim: offline " + fmt(r.offline_j) + " < 0");
  }
  if (!(r.offline_j <= r.cont_j + tol)) {
    out.push_back("reclaim: offline " + fmt(r.offline_j) + " > continuous " +
                  fmt(r.cont_j));
  }
  if (!(r.cont_j <= r.disc_j + tol)) {
    out.push_back("reclaim: continuous " + fmt(r.cont_j) + " > ladder " +
                  fmt(r.disc_j));
  }
  if (!(r.disc_j <= r.realized_j + tol)) {
    out.push_back("reclaim: ladder " + fmt(r.disc_j) + " > realised " +
                  fmt(r.realized_j));
  }
  return out;
}

Failures check_post_mortem(const ge::obs::analysis::TaskAnalysis& in_memory,
                           const ge::obs::analysis::TaskAnalysis& reread) {
  Failures out;
  Diff d(out, "re-read analysis");
  d.field("jobs", static_cast<std::uint64_t>(in_memory.jobs.size()),
          static_cast<std::uint64_t>(reread.jobs.size()));
  d.field("released", in_memory.released, reread.released);
  d.field("completed", in_memory.completed, reread.completed);
  d.field("partial", in_memory.partial, reread.partial);
  d.field("dropped", in_memory.dropped, reread.dropped);
  d.field("missed", in_memory.missed, reread.missed);
  d.field("rounds", in_memory.rounds, reread.rounds);
  d.field("mode_switches", in_memory.mode_switches, reread.mode_switches);
  d.field("cuts", in_memory.cuts, reread.cuts);
  d.field("violations", static_cast<std::uint64_t>(in_memory.violations.size()),
          static_cast<std::uint64_t>(reread.violations.size()));
  const double ref = std::max(1.0, std::abs(in_memory.integrated_energy_j));
  if (!(std::abs(in_memory.integrated_energy_j - reread.integrated_energy_j) <=
        1e-6 * ref)) {
    out.push_back("re-read analysis: integrated energy " +
                  fmt(reread.integrated_energy_j) + " != in-memory " +
                  fmt(in_memory.integrated_energy_j));
  }
  if (!in_memory.violations.empty()) {
    out.push_back(std::to_string(in_memory.violations.size()) +
                  " watchdog violation(s) recorded in the trace");
  }
  if (!(in_memory.energy_rel_err >= 0.0 && in_memory.energy_rel_err <= 1e-9)) {
    out.push_back("energy identity: relative error " +
                  fmt(in_memory.energy_rel_err) + " > 1e-9");
  }
  return out;
}

Failures check_watchdog(const ge::obs::analysis::MetricsValues& metrics) {
  Failures out;
  if (!(metrics.get("watchdog.checks", 0.0) > 0.0)) {
    out.push_back("watchdog did not run");
  }
  const double violations = metrics.get("watchdog.violations", -1.0);
  if (violations != 0.0) {
    out.push_back("watchdog: " + fmt(violations) + " violation(s)");
  }
  return out;
}

Failures check_span_tiling(double loop_ns, double ge_round_ns) {
  Failures out;
  if (!(loop_ns > 0.0)) {
    out.push_back("prof.sim_run_ns is not positive");
  }
  if (!(ge_round_ns >= 0.0 && ge_round_ns <= loop_ns)) {
    out.push_back("prof.ge_round_ns " + fmt(ge_round_ns) +
                  " does not fit inside prof.sim_run_ns " + fmt(loop_ns));
  }
  return out;
}

}  // namespace perfbench
