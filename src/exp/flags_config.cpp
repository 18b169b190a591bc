#include "exp/flags_config.h"

#include <unistd.h>

#include "util/check.h"

namespace ge::exp {

ExperimentConfig apply_flags(ExperimentConfig cfg, const util::Flags& flags) {
  cfg.arrival_rate = flags.get_double("rate", cfg.arrival_rate);
  cfg.duration = flags.get_double("seconds", cfg.duration);
  cfg.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
  cfg.cores = static_cast<std::size_t>(
      flags.get_int("cores", static_cast<std::int64_t>(cfg.cores)));
  cfg.power_budget = flags.get_double("budget", cfg.power_budget);
  cfg.q_ge = flags.get_double("qge", cfg.q_ge);

  const std::string family = flags.get_string("quality-family", "");
  if (family == "linear") {
    cfg.quality_family = QualityFamily::kLinear;
  } else if (family == "powerlaw") {
    cfg.quality_family = QualityFamily::kPowerLaw;
  } else if (family == "exponential") {
    cfg.quality_family = QualityFamily::kExponential;
  } else {
    GE_CHECK(family.empty(), "unknown quality family: " + family);
  }
  cfg.quality_c = flags.get_double("quality-c", cfg.quality_c);

  cfg.demand_alpha = flags.get_double("alpha", cfg.demand_alpha);
  cfg.demand_min = flags.get_double("xmin", cfg.demand_min);
  cfg.demand_max = flags.get_double("xmax", cfg.demand_max);

  // Deadlines are given in milliseconds on the command line.
  cfg.deadline_interval =
      flags.get_double("deadline", cfg.deadline_interval * 1000.0) / 1000.0;
  cfg.deadline_interval_max = std::max(
      cfg.deadline_interval,
      flags.get_double("deadline-max", cfg.deadline_interval_max * 1000.0) / 1000.0);

  cfg.burst_peak_to_mean = flags.get_double("burst", cfg.burst_peak_to_mean);
  cfg.burst_fraction = flags.get_double("burst-fraction", cfg.burst_fraction);
  cfg.burst_dwell = flags.get_double("burst-dwell", cfg.burst_dwell);

  cfg.quantum = flags.get_double("quantum", cfg.quantum);
  cfg.counter_threshold = static_cast<int>(
      flags.get_int("counter", cfg.counter_threshold));
  cfg.critical_load = flags.get_double("critical-load", cfg.critical_load);
  cfg.load_window = flags.get_double("load-window", cfg.load_window);
  cfg.monitor_window = static_cast<std::size_t>(
      flags.get_int("monitor-window", static_cast<std::int64_t>(cfg.monitor_window)));

  cfg.discrete_speeds = flags.get_bool("discrete", cfg.discrete_speeds);
  cfg.discrete_step_ghz = flags.get_double("step-ghz", cfg.discrete_step_ghz);
  cfg.discrete_max_ghz = flags.get_double("max-ghz", cfg.discrete_max_ghz);

  cfg.static_power_per_core = flags.get_double("static-power", cfg.static_power_per_core);
  cfg.hetero_spread = flags.get_double("hetero-spread", cfg.hetero_spread);
  cfg.failure_time = flags.get_double("failure-time", cfg.failure_time);
  cfg.failure_cores = static_cast<std::size_t>(
      flags.get_int("failure-cores", static_cast<std::int64_t>(cfg.failure_cores)));

  // Cluster shape (--servers 1 is the paper's single-server setup).
  cfg.num_servers = static_cast<std::size_t>(
      flags.get_int("servers", static_cast<std::int64_t>(cfg.num_servers)));
  const std::string dispatch = flags.get_string("dispatch", "");
  if (!dispatch.empty()) {
    cfg.dispatch = cluster::parse_dispatch_policy(dispatch);
  }
  for (double n : flags.get_double_list("server-cores", {})) {
    cfg.server_cores.push_back(static_cast<std::size_t>(n));
  }
  cfg.server_power_scale =
      flags.get_double_list("server-power-scale", cfg.server_power_scale);
  cfg.server_max_ghz = flags.get_double_list("server-max-ghz", cfg.server_max_ghz);

  // Server lifecycle: availability churn or one explicit off/on window, plus
  // wake-transition costs (docs/CLI.md, "Server lifecycle").
  cfg.churn = flags.get_double("churn", cfg.churn);
  cfg.churn_dwell = flags.get_double("churn-dwell", cfg.churn_dwell);
  cfg.off_at = flags.get_double("off-at", cfg.off_at);
  cfg.on_at = flags.get_double("on-at", cfg.on_at);
  cfg.setup_energy = flags.get_double("setup-energy", cfg.setup_energy);
  cfg.wake_latency = flags.get_double("wake-latency", cfg.wake_latency);
  cfg.drain_grace = flags.get_double("drain-grace", cfg.drain_grace);

  // Multi-tenant workload: tenant count, optional per-tenant Q_GE targets,
  // and the admission-control slack factor (0 disables admission).
  cfg.num_tenants = static_cast<std::size_t>(
      flags.get_int("tenants", static_cast<std::int64_t>(cfg.num_tenants)));
  cfg.tenant_qge = flags.get_double_list("tenant-qge", cfg.tenant_qge);
  cfg.admission = flags.get_double("admission", cfg.admission);

  // Parallel-DES shard count (docs/CLI.md; 1 = serial event loop).
  cfg.shards = static_cast<std::size_t>(
      flags.get_int("shards", static_cast<std::int64_t>(cfg.shards)));

  // Streaming replay controls (docs/CLI.md, "Streaming replay").
  cfg.stream = flags.get_bool("stream", cfg.stream);
  cfg.max_jobs = static_cast<std::uint64_t>(
      flags.get_int("max-jobs", static_cast<std::int64_t>(cfg.max_jobs)));
  return cfg;
}

ExecutionOptions parse_execution_options(const util::Flags& flags) {
  ExecutionOptions exec;
  exec.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  // Progress goes to stderr; default it on only for interactive runs so CI
  // logs and `2> file` captures stay clean.
  exec.progress = flags.get_bool("progress", isatty(STDERR_FILENO) != 0);
  exec.telemetry.trace_path = flags.get_string("trace", "");
  exec.telemetry.trace_format =
      obs::parse_trace_format(flags.get_string("trace-format", "jsonl"));
  exec.telemetry.metrics_path = flags.get_string("metrics", "");
  exec.telemetry.report_dir = flags.get_string("report", "");
  // A report without the watchdog would silently drop the invariant section;
  // opt out explicitly with --watchdog false if the overhead matters.
  exec.telemetry.watchdog =
      flags.get_bool("watchdog", !exec.telemetry.report_dir.empty());
  exec.telemetry.profile = flags.get_bool("profile", false);
  return exec;
}

}  // namespace ge::exp
