// Experiment configuration: every constant of the paper's simulation setup
// (Sec. IV-B) in one struct, so a benchmark binary can start from
// paper_defaults() and override the swept parameter.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/dispatcher.h"
#include "power/power_model.h"
#include "quality/quality_function.h"
#include "workload/generator.h"

namespace ge::cluster {
struct NodeSpec;
}

namespace ge::exp {

// Which concave family Eq. (1)'s role is played by (Fig. 9 uses the
// exponential; the others support sensitivity studies).
enum class QualityFamily {
  kExponential,  // (1 - e^{-cx}) / (1 - e^{-c xmax}), the paper's Eq. (1)
  kLinear,       // x / xmax -- no diminishing returns (control)
  kPowerLaw,     // (x / xmax)^gamma with gamma = quality_c interpreted in (0,1)
};

const char* to_string(QualityFamily family) noexcept;

struct ExperimentConfig {
  // Server (Sec. II-B / IV-B).
  std::size_t cores = 16;
  double power_budget = 320.0;  // W
  double power_a = 5.0;
  double power_beta = 2.0;
  double units_per_ghz = 1000.0;  // 1 GHz completes 1000 units/s

  // Quality function, Eq. (1).  For kPowerLaw, quality_c is the exponent
  // gamma in (0,1) instead of the concavity multiplier.
  QualityFamily quality_family = QualityFamily::kExponential;
  double quality_c = 0.003;

  // Workload (web search model).
  double arrival_rate = 150.0;  // req/s
  double demand_alpha = 3.0;
  double demand_min = 130.0;   // units
  double demand_max = 1000.0;  // units; also the quality function's xmax
  double deadline_interval = 0.150;      // s
  double deadline_interval_max = 0.150;  // s; > interval => random windows

  // Burstiness of the arrival process (1.0 = plain Poisson; see
  // workload::OnOffPoissonProcess).
  double burst_peak_to_mean = 1.0;
  double burst_fraction = 0.2;
  double burst_dwell = 1.0;

  // Static power per core (W), drawn for the whole run.  The paper ignores
  // it because cores cannot be shut down, making it a constant offset for
  // every scheduler; it is modelled here so the offset can be included in
  // absolute energy reports.
  double static_power_per_core = 0.0;

  // GE parameters.
  double q_ge = 0.9;
  double critical_load = 154.0;  // req/s (hybrid ES/WF switch)
  double overload_rate = 198.0;  // req/s (plot annotation only)
  double quantum = 0.5;          // s
  int counter_threshold = 8;     // waiting requests
  double load_window = 2.0;      // s
  std::size_t monitor_window = 0;  // settled jobs; 0 = cumulative (paper)

  // Discrete DVFS (Fig. 12).
  bool discrete_speeds = false;
  double discrete_step_ghz = 0.2;
  double discrete_max_ghz = 3.2;

  // Core heterogeneity (beyond the paper; its conclusion points at "other
  // hardware platforms").  The power scale factor a_i grows linearly from
  // `power_a` on core 0 to `power_a * hetero_spread` on core m-1: higher a
  // means the same speed costs more power (less efficient silicon).
  // hetero_spread == 1 keeps the paper's homogeneous server.
  double hetero_spread = 1.0;

  // Fault injection: at `failure_time` seconds, `failure_cores` cores (the
  // highest-indexed ones, on the highest-indexed server) go offline
  // permanently.  failure_time < 0 disables injection.  Jobs pinned to a
  // failed core are stranded (no migration) and settle at their deadlines.
  double failure_time = -1.0;
  std::size_t failure_cores = 0;

  // Cluster (beyond the paper, which studies one server; Sec. VII points at
  // server farms).  `num_servers` servers sit behind a dispatch tier; each
  // gets its own scheduler instance and, by default, `cores` cores under a
  // budget of `power_budget` (scaled by core-count ratio when a server's
  // core count differs).  num_servers == 1 is the paper's setup and
  // reproduces the pre-cluster results bit-identically; `dispatch` is
  // ignored in that case (the passthrough policy is forced).
  std::size_t num_servers = 1;
  cluster::DispatchPolicy dispatch = cluster::DispatchPolicy::kRoundRobin;
  // Per-server heterogeneity knobs; each is either empty (every server uses
  // the homogeneous default) or has exactly num_servers entries.
  std::vector<std::size_t> server_cores;     // core count per server
  std::vector<double> server_power_scale;    // multiplier on power_a per server
  std::vector<double> server_max_ghz;        // discrete_max_ghz per server

  // Server lifecycle (cluster/lifecycle.h): availability churn and wake
  // costs.  Two mutually exclusive ways to take servers offline:
  //   * `churn` in (0,1): per-server random availability traces.  Each
  //     server alternates exponential ON/OFF dwells from its own dedicated
  //     RNG stream (seeded from `seed` and the server index), tuned so the
  //     long-run OFF fraction is `churn` with mean OFF dwell `churn_dwell`.
  //   * `off_at`/`on_at` >= 0: one explicit fleet-wide window -- every
  //     server is off in [off_at, on_at) (tests, maintenance scenarios).
  // Both default off; then no lifecycle is built and the always-on path is
  // taken bit-identically.
  double churn = 0.0;        // long-run fraction of time a server is OFF
  double churn_dwell = 1.0;  // mean OFF dwell, seconds
  double off_at = -1.0;      // explicit window start, < 0 disables
  double on_at = -1.0;       // explicit window end
  double setup_energy = 0.0;  // J charged per completed wake
  double wake_latency = 0.0;  // s between the wake trigger and ONLINE
  double drain_grace = 0.0;   // s spent DRAINING before OFF

  // Multi-tenant workload: jobs are tagged with a uniform tenant in
  // [0, num_tenants); per-tenant quality targets drive the SLO-burn report
  // columns and `tN.` metrics.  `tenant_qge` is either empty (every tenant
  // inherits q_ge) or has exactly num_tenants entries.  num_tenants == 1 is
  // the paper's single-tenant setup, bit-identical to the pre-tenant path.
  std::size_t num_tenants = 1;
  std::vector<double> tenant_qge;

  // Admission control (Kling & Pietrzyk-style profitability screen): reject
  // jobs whose required speed demand/window exceeds `admission` times the
  // nominal per-core speed -- finishing them would force disproportionately
  // expensive high-speed execution (power is superlinear in speed), so
  // their marginal energy outweighs their quality value.  0 disables (admit
  // everything); rejected jobs settle at arrival with zero work.
  double admission = 0.0;

  // Run control.  `duration` is the arrival horizon; the run then drains
  // until every released job settles.  The paper uses 600 s; the benchmark
  // default of 60 s preserves every curve shape at a tenth of the wall time
  // (energies scale linearly with duration).
  double duration = 60.0;
  std::uint64_t seed = 1;

  // Streaming replay (docs/DESIGN.md, "Streaming core").  When `stream` is
  // true the runner draws each job from the generator as the previous one is
  // released instead of replaying a trace generated up front: resident
  // memory tracks jobs *in flight*, so 10^6+-job replays fit in a small,
  // flat RSS.  Results are bit-identical to the trace replay (fuzz-pinned).
  bool stream = false;
  // Cap on released jobs, 0 = unlimited.  Applies to both paths (the capped
  // run replays the capped prefix of the uncapped job stream), so
  // stream on/off and capped sweeps stay comparable.
  std::uint64_t max_jobs = 0;
  // When true the runner samples total power and checks it never exceeds
  // the budget (used by tests; cheap but pointless in sweeps).
  bool verify_power = false;
  // Parallel-DES shard count (docs/DESIGN.md §11): the fleet's event loop
  // is split into `shards` per-server-group simulators advanced on worker
  // threads, with a barrier at every cross-shard event.  Results are
  // bit-identical to the serial loop for any value (fuzz- and golden-
  // pinned); 1 (the default) is exactly the serial path.  Capped at
  // num_servers; runs that need a single event sequence (streaming replay,
  // telemetry capture) fall back to the serial loop regardless.
  std::size_t shards = 1;

  static ExperimentConfig paper_defaults();

  // Aborts (GE_CHECK) on out-of-domain values: non-positive cores/budget/
  // rates, quality targets outside [0,1], inverted deadline bounds, etc.
  // run_simulation() validates implicitly.
  void validate() const;

  workload::WorkloadSpec workload_spec() const;
  power::PowerModel power_model() const;
  // One model per core; varies only when hetero_spread > 1.
  std::vector<power::PowerModel> core_power_models() const;
  // Core count of server `s` (server_cores override, else `cores`).
  std::size_t server_core_count(std::size_t s) const;
  // Sum of core counts across all servers.
  std::size_t total_cores() const;
  // One NodeSpec per server, ready for cluster::Cluster.  `budget` is the
  // per-server budget for a default-sized server (the runner passes the
  // scheduler's effective budget); servers with a different core count get
  // it scaled by their core-count ratio.
  std::vector<cluster::NodeSpec> cluster_node_specs(double budget) const;
  std::unique_ptr<quality::QualityFunction> make_quality_function() const;

  // True when any server carries availability windows (churn or an explicit
  // off_at/on_at window); such runs route every arrival through the cluster
  // (no preroute-at-setup in the sharded runner).
  bool lifecycle_active() const noexcept {
    return churn > 0.0 || (off_at >= 0.0 && on_at > off_at);
  }
  // Q_GE target for `tenant` (tenant_qge override, else q_ge).
  double tenant_q_target(std::size_t tenant) const;

  // Mean demand of the bounded-Pareto distribution (~192.1 units).
  double mean_demand() const;
  // Nominal capacity in units/s with every core at the ES speed (H/m).
  double nominal_capacity() const;
  // Arrival rate that saturates the nominal capacity with uncut work.
  double saturation_rate() const;
};

}  // namespace ge::exp
