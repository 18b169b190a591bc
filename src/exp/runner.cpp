#include "exp/runner.h"

#include "exp/timeline.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "core/good_enough.h"
#include "obs/analysis/watchdog.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "quality/quality_function.h"
#include "quality/quality_monitor.h"
#include "server/multicore_server.h"
#include "sim/shard_exec.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/quantiles.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/job_store.h"

namespace ge::exp {
namespace {

constexpr double kCompleteTol = 1e-6;

// Trace capacity reserved per job of a replayed trace.  One-server runs
// record about 9-17 events per job (fleets more; their buffers grow past the
// reservation as before).  Sizing the buffer once spares the doubling's
// copies and the fresh pages each step touches; capacity a run does not use
// is address space that is never touched.
constexpr std::size_t kTraceEventsPerJob = 16;

// Per-job end-of-life accounting, shared verbatim by the serial job pipeline
// and the sharded path.  Bit-identity between the two hinges on this being
// the *single* definition of the per-job arithmetic: both feed jobs in
// release order, so the floating-point accumulation sequence is identical.
struct JobAccounting {
  const quality::QualityFunction* f;
  RunResult* result;
  double achieved = 0.0;
  double potential = 0.0;
  util::QuantileCollector responses;

  // Per-tenant accumulators; sized num_tenants on multi-tenant runs, empty
  // otherwise (single-tenant accounting touches none of this).
  struct TenantAcc {
    double achieved = 0.0;
    double potential = 0.0;
    double executed = 0.0;  // sum of min(executed, demand), units
    std::uint64_t released = 0;
    std::uint64_t completed = 0;
    std::uint64_t partial = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<TenantAcc> tenants;

  void account(const workload::Job& job) {
    GE_CHECK(job.settled, "job left unsettled at end of run");
    const double credited = std::min(job.executed, job.demand);
    const double value = f->value(credited);
    const double best = f->value(job.demand);
    achieved += value;
    potential += best;
    GE_CHECK(job.finish_time >= job.arrival - 1e-9, "finish before arrival");
    responses.add((job.finish_time - job.arrival) * 1000.0);
    ++result->released;
    std::uint64_t* outcome;
    if (job.executed >= job.demand - kCompleteTol) {
      outcome = &result->completed;
    } else if (job.executed > kCompleteTol) {
      outcome = &result->partial;
    } else {
      outcome = &result->dropped;
    }
    ++*outcome;
    if (!tenants.empty()) {
      GE_CHECK(job.tenant >= 0 &&
                   static_cast<std::size_t>(job.tenant) < tenants.size(),
               "job tenant out of range");
      TenantAcc& acc = tenants[static_cast<std::size_t>(job.tenant)];
      acc.achieved += value;
      acc.potential += best;
      acc.executed += credited;
      ++acc.released;
      if (outcome == &result->completed) {
        ++acc.completed;
      } else if (outcome == &result->partial) {
        ++acc.partial;
      } else {
        ++acc.dropped;
      }
    }
  }
};

// The job pipeline every serial run releases its jobs through
// (docs/DESIGN.md, "Streaming core").  Jobs come from a cursor over the
// caller's trace or from the workload generator and live in a JobStore arena
// from release to retirement.  Each arrival event stages the next one, and
// the k-th released job's arrival and deadline carry the keys 2k-1 and 2k,
// below every other event's (Simulator::schedule_keyed), so job events pop
// in the order of scheduling them all up front, as the sharded path does.
// Jobs retire at their deadline event -- the last event that can touch a
// job -- and pass through a reorder buffer keyed by release ordinal into
// JobAccounting, because a later job's deadline can fire first.  The buffer
// holds at most the jobs whose deadline windows overlap, not the run.
struct StreamState {
  workload::JobStore store;
  const std::vector<workload::Job>* trace;  // null: draw from `gen`
  std::optional<workload::WorkloadGenerator> gen;
  // Stop rules: a trace is released whole; the generator stops at the
  // arrival horizon or the max_jobs cap, as Trace::generate does, so both
  // sources release the same jobs for one cfg.
  std::uint64_t limit;
  double horizon;
  std::optional<workload::Job> staged;  // drawn, not yet released
  std::uint64_t staged_count = 0;       // release ordinal of `staged`
  std::map<std::uint64_t, workload::Job> retired;  // keyed by release ordinal
  std::uint64_t next_account = 1;

  StreamState(double quarantine_delay, const ExperimentConfig& cfg,
              const workload::Trace* source)
      : store(quarantine_delay),
        trace(source != nullptr ? &source->jobs() : nullptr),
        limit(source != nullptr ? source->size()
              : cfg.max_jobs == 0 ? std::numeric_limits<std::uint64_t>::max()
                                  : cfg.max_jobs),
        horizon(source != nullptr ? std::numeric_limits<double>::infinity()
                                  : cfg.duration) {
    if (source == nullptr) {
      gen.emplace(cfg.workload_spec());
    }
  }

  // Draws the next job into `staged`; false once the source is exhausted.
  bool stage() {
    if (staged_count == limit) {
      return false;  // checked first: the cap draws no more randomness
    }
    workload::Job job = trace != nullptr ? (*trace)[staged_count] : gen->next();
    if (job.arrival >= horizon) {
      return false;
    }
    staged = job;
    ++staged_count;
    return true;
  }
};

// Installs the profitability screen (config.h `admission`): reject jobs
// whose required speed demand/window exceeds admission * the nominal
// per-core speed.  A pure function of the job, so the hook is deterministic
// across serial/sharded/streaming execution.
void install_admission(const ExperimentConfig& cfg, cluster::Cluster& cluster) {
  if (cfg.admission <= 0.0) {
    return;
  }
  const double per_core_watts =
      cfg.power_budget / static_cast<double>(cfg.cores);
  const double speed_cap =
      cfg.admission * cfg.power_model().speed_for_power(per_core_watts);
  cluster.set_admission_hook([speed_cap](const workload::Job& job) {
    return job.demand <= speed_cap * job.window();
  });
}

// Sizes the per-tenant accumulators on multi-tenant runs.
void init_tenants(const ExperimentConfig& cfg, JobAccounting& acct) {
  if (cfg.num_tenants > 1) {
    acct.tenants.resize(cfg.num_tenants);
  }
}

// Builds the run's cluster.  Node i runs on node_sims[i] (every entry is
// `control` on the serial path); `control` carries the dispatcher and the
// cross-node events.  The cluster's dispatcher points back at it, so the
// result must be bound in place (guaranteed elision), never moved.
cluster::Cluster build_cluster(const ExperimentConfig& cfg,
                               const SchedulerSpec& spec,
                               const quality::QualityFunction& f, double budget,
                               sim::Simulator& control,
                               const std::vector<sim::Simulator*>& node_sims) {
  // Every run is a cluster run; the paper's single server is the one-node
  // cluster with the passthrough dispatcher (bit-identical results -- see
  // src/cluster/cluster.h and the golden test in tests/test_cluster.cpp).
  return cluster::Cluster(
      cfg.cluster_node_specs(budget), f,
      [&spec, &cfg](const sched::SchedulerEnv& env,
                    const power::DiscreteSpeedTable* table) {
        return make_scheduler(spec, env, cfg, table);
      },
      cfg.dispatch, cfg.seed, control, node_sims);
}

// Drain horizon: all deadlines fall within duration + the widest deadline
// window.
double run_horizon(const ExperimentConfig& cfg) {
  return cfg.duration + cfg.deadline_interval_max + 2.0 * cfg.quantum;
}

// Schedules the events that are not jobs -- the power-cap check grid, the
// core failure and the timeline sampler, in that order -- on the control
// simulator.  Each reads or mutates servers across the cluster, so on a
// sharded run it is a cross-shard event, exact at the barrier.  Job events
// precede these at equal time on both paths -- scheduled first on the
// sharded path, keyed below them on the serial one -- so the (time, seq)
// orders agree.
void schedule_control_events(const ExperimentConfig& cfg,
                             cluster::Cluster& cluster, sim::Simulator& control,
                             Timeline* timeline) {
  if (cfg.verify_power) {
    // Sample total power on a grid; no server may exceed its own budget.
    const double step = 0.01;
    for (double t = step; t < cfg.duration + cfg.deadline_interval_max; t += step) {
      control.schedule_at(t, [&cluster, &control] {
        for (std::size_t s = 0; s < cluster.size(); ++s) {
          const server::MulticoreServer& server = cluster.node(s).server();
          GE_CHECK(server.total_power(control.now()) <=
                       server.power_budget() * (1.0 + 1e-6) + 1e-6,
                   "total power exceeded the budget");
        }
      });
    }
  }

  if (cfg.failure_time >= 0.0 && cfg.failure_cores > 0) {
    control.schedule_at(cfg.failure_time, [&cluster, &control, &cfg] {
      // Failures hit the highest-indexed cores of the highest-indexed server
      // (validate() guarantees it has enough cores).
      server::MulticoreServer& server = cluster.node(cluster.size() - 1).server();
      const std::size_t n = server.core_count();
      for (std::size_t i = n - cfg.failure_cores; i < n; ++i) {
        server.core(i).set_offline(control.now());
      }
    });
  }

  if (timeline != nullptr) {
    GE_CHECK(timeline->interval > 0.0, "timeline interval must be positive");
    // Mode comes from node 0's scheduler; with GE on every node they switch
    // on their own feedback, and node 0 is the representative trace.
    auto* ge_sched =
        dynamic_cast<sched::GoodEnoughScheduler*>(&cluster.node(0).scheduler());
    const double horizon = run_horizon(cfg);
    for (double t = timeline->interval; t < horizon; t += timeline->interval) {
      control.schedule_at(t, [&cluster, &control, ge_sched, timeline] {
        TimelinePoint point;
        point.time = control.now();
        point.total_power = cluster.total_power(point.time);
        point.quality = cluster.monitored_quality();
        point.busy_cores = cluster.busy_cores(point.time);
        point.backlog = cluster.total_backlog();
        if (ge_sched != nullptr) {
          point.mode =
              ge_sched->mode() == sched::GoodEnoughScheduler::Mode::kBq ? 1 : 0;
        }
        timeline->points.push_back(point);
      });
    }
  }
}

// Post-run aggregation over the per-job accounting and per-node state,
// shared by the serial and sharded paths.  Jobs were accounted in release
// order and every loop here walks nodes in node order, so the floating-point
// accumulation sequence depends only on the final state, not on how the run
// was executed -- this is what makes sharded results bit-identical to
// serial ones.  `now` is the simulator clock at the end of the run
// (== horizon on every path).
void finalize_results(const ExperimentConfig& cfg, const power::PowerModel& pm,
                      cluster::Cluster& cluster, JobAccounting& acct,
                      double horizon, double now, RunResult& result) {
  result.scheduler = cluster.node(0).scheduler().name();
  result.arrival_rate = cfg.arrival_rate;
  result.duration = cfg.duration;
  result.num_servers = static_cast<std::uint64_t>(cluster.size());
  result.dispatch = cluster.dispatcher().name();

  result.quality = acct.potential > 0.0 ? acct.achieved / acct.potential : 1.0;
  result.energy = cluster.total_energy();
  result.static_energy = cfg.static_power_per_core *
                         static_cast<double>(cluster.total_cores()) * horizon;
  result.avg_power = cfg.duration > 0.0 ? result.energy / cfg.duration : 0.0;
  util::QuantileCollector& responses = acct.responses;
  if (responses.count() > 0) {
    result.mean_response_ms = responses.mean();
    result.p50_response_ms = responses.quantile(0.50);
    result.p95_response_ms = responses.quantile(0.95);
    result.p99_response_ms = responses.quantile(0.99);
  }

  double aes = 0.0;
  double bq = 0.0;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    aes += cluster.node(s).scheduler().aes_time(now);
    bq += cluster.node(s).scheduler().bq_time(now);
  }
  result.aes_fraction = (aes + bq) > 0.0 ? aes / (aes + bq) : 0.0;

  const util::TimeWeightedStats speed = cluster.aggregate_speed_stats();
  result.avg_speed_ghz = pm.ghz(speed.mean());
  const double ghz_scale = 1.0 / (cfg.units_per_ghz * cfg.units_per_ghz);
  result.speed_variance = speed.variance() * ghz_scale;
  result.busy_fraction = cluster.total_busy_time() /
                         (static_cast<double>(cluster.total_cores()) * horizon);
  util::RunningStats core_energy;
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    const server::MulticoreServer& server = cluster.node(s).server();
    for (std::size_t i = 0; i < server.core_count(); ++i) {
      core_energy.add(server.core(i).energy());
    }
  }
  result.energy_cov =
      core_energy.mean() > 0.0 ? core_energy.stddev() / core_energy.mean() : 0.0;

  if (cluster.size() > 1) {
    util::RunningStats server_energy;
    util::RunningStats server_load;
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      server_energy.add(cluster.node(s).server().total_energy());
      server_load.add(static_cast<double>(cluster.node(s).dispatched()));
    }
    result.server_energy_cov = server_energy.mean() > 0.0
                                   ? server_energy.stddev() / server_energy.mean()
                                   : 0.0;
    result.server_load_cov =
        server_load.mean() > 0.0 ? server_load.stddev() / server_load.mean() : 0.0;
  }

  for (std::size_t s = 0; s < cluster.size(); ++s) {
    if (auto* ge = dynamic_cast<sched::GoodEnoughScheduler*>(
            &cluster.node(s).scheduler())) {
      result.rounds += ge->rounds();
      result.wf_rounds += ge->wf_rounds();
      result.es_rounds += ge->es_rounds();
    }
  }

  result.setup_energy_j = cluster.total_setup_energy();
  result.wakes = cluster.total_wakes();
  result.rejected = cluster.rejected();
  result.expired_in_queue = cluster.expired_in_queue();
  // The offline bound covers the whole trace, so node 0's value is the
  // run's (offline reference schedulers are single-server anyway).
  result.offline_energy_j = cluster.node(0).scheduler().offline_bound_energy();

  if (!acct.tenants.empty()) {
    double executed_total = 0.0;
    for (const JobAccounting::TenantAcc& acc : acct.tenants) {
      executed_total += acc.executed;
    }
    result.tenants.resize(acct.tenants.size());
    for (std::size_t t = 0; t < acct.tenants.size(); ++t) {
      const JobAccounting::TenantAcc& acc = acct.tenants[t];
      TenantRunResult& out = result.tenants[t];
      out.q_target = cfg.tenant_q_target(t);
      out.quality = acc.potential > 0.0 ? acc.achieved / acc.potential : 1.0;
      out.slo_burn =
          (1.0 - out.quality) / std::max(1.0 - out.q_target, 1e-9);
      out.energy_j =
          executed_total > 0.0 ? result.energy * (acc.executed / executed_total)
                               : 0.0;
      out.released = acc.released;
      out.completed = acc.completed;
      out.partial = acc.partial;
      out.dropped = acc.dropped;
    }
  }
}

// One sharded experiment (docs/DESIGN.md §11): per-server-group simulators
// advanced by worker threads, with a barrier at every cross-shard event.
// Only trace-fed, telemetry-free runs shard (run_simulation_impl routes
// here).  Every job event is scheduled at setup, before anything else, which
// is the order the serial run's keyed job events reproduce.  Results are
// bit-identical to the serial path because
//   * setup and every cross-shard event run in the serial stamp context,
//     whose shared counter reproduces the serial (time, seq) order, so each
//     queue's order is the serial order projected onto it;
//   * a shard's servers interact with nothing outside the shard between
//     cross-shard events, so their state evolution is the serial one;
//   * accounting walks the jobs in release order and finalize_results walks
//     the final state in node order.
RunResult run_simulation_sharded(const ExperimentConfig& cfg,
                                 const SchedulerSpec& spec,
                                 const workload::Trace& trace,
                                 Timeline* timeline, std::size_t nshards) {
  const power::PowerModel pm = cfg.power_model();
  const double budget = effective_budget(spec, cfg);
  const std::unique_ptr<quality::QualityFunction> fp = cfg.make_quality_function();
  const quality::QualityFunction& f = *fp;

  sim::ShardStamper stamper(nshards);
  sim::ScopedStampContext setup_scope(stamper.serial_context());

  sim::Simulator global_sim;
  global_sim.set_stamp_mode(true);
  std::vector<sim::Simulator> shard_sims(nshards);
  std::vector<sim::Simulator*> shard_ptrs;
  shard_ptrs.reserve(nshards);
  for (sim::Simulator& shard : shard_sims) {
    shard.set_stamp_mode(true);
    shard_ptrs.push_back(&shard);
  }
  // Contiguous server blocks per shard, balanced to within one server.
  std::vector<sim::Simulator*> node_sims(cfg.num_servers);
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    node_sims[s] = shard_ptrs[s * nshards / cfg.num_servers];
  }
  cluster::Cluster cluster =
      build_cluster(cfg, spec, f, budget, global_sim, node_sims);
  install_admission(cfg, cluster);

  RunResult result;
  JobAccounting acct{&f, &result, 0.0, 0.0, {}, {}};
  init_tenants(cfg, acct);
  std::vector<workload::Job> jobs = trace.jobs();

  // State-free dispatch policies consult nothing the run mutates, so taking
  // the decisions at setup replays the exact pick sequence the serial run
  // makes at the arrival events (same jobs, same order, same private RNG
  // stream); each arrival and deadline then lives entirely on its server's
  // shard, and a run without verify/failure/timeline events needs no
  // barriers at all.  State-reading policies (JSQ, least-energy) must
  // observe the fleet exactly as the serial run would, so their arrivals
  // and deadlines become cross-shard barrier events instead -- as must
  // every arrival of a lifecycle or admission-controlled run, where the
  // dispatch decision depends on run time state (server availability) or
  // may not dispatch at all.
  const bool preroutable =
      (cfg.dispatch == cluster::DispatchPolicy::kSingle ||
       cfg.dispatch == cluster::DispatchPolicy::kRandom ||
       cfg.dispatch == cluster::DispatchPolicy::kRoundRobin) &&
      !cfg.lifecycle_active() && cfg.admission <= 0.0;
  for (workload::Job& job : jobs) {
    if (preroutable) {
      const std::size_t s = cluster.preroute(&job);
      sim::Simulator& shard = *node_sims[s];
      shard.schedule_at(job.arrival, [&cluster, &job] { cluster.deliver(&job); });
      shard.schedule_at(job.deadline,
                        [&cluster, &job] { cluster.on_deadline(&job); });
    } else {
      global_sim.schedule_at(job.arrival,
                             [&cluster, &job] { cluster.on_job_arrival(&job); });
      global_sim.schedule_at(job.deadline,
                             [&cluster, &job] { cluster.on_deadline(&job); });
    }
  }

  schedule_control_events(cfg, cluster, global_sim, timeline);
  const double horizon = run_horizon(cfg);

  {
    util::ThreadPool pool(
        std::min(nshards, util::ThreadPool::default_concurrency()));
    sim::ShardExecutor exec(global_sim, std::move(shard_ptrs), stamper, pool);
    cluster.start();
    exec.run(horizon);
    cluster.finish();
  }

  acct.responses.reserve(jobs.size());
  for (const workload::Job& job : jobs) {
    acct.account(job);
  }
  finalize_results(cfg, pm, cluster, acct, horizon, horizon, result);
  return result;
}

// Shards only when nothing requires the single serial event sequence: the
// run must replay a trace (a generator-fed run draws each job as the
// previous one is released, one global chain) and be telemetry-free
// (trace/metric emission order is the serial event interleaving, which
// shards do not reconstruct).  A capped count of 1 -- including every
// single-server run -- takes the serial path unchanged.
std::size_t effective_shard_count(const ExperimentConfig& cfg, bool trace_fed,
                                  bool with_telemetry) {
  if (!trace_fed || with_telemetry || cfg.shards <= 1) {
    return 1;
  }
  return std::min(cfg.shards, cfg.num_servers);
}

// One experiment end to end.  `trace == nullptr` draws the jobs from the
// workload generator on the fly; otherwise the caller's trace is replayed.
// Either way a serial run releases them through one StreamState pipeline.
RunResult run_simulation_impl(const ExperimentConfig& cfg,
                              const SchedulerSpec& spec,
                              const workload::Trace* trace, Timeline* timeline,
                              obs::RunTelemetry* telemetry) {
  cfg.validate();
  const std::size_t nshards =
      effective_shard_count(cfg, trace != nullptr, telemetry != nullptr);
  if (nshards > 1) {
    return run_simulation_sharded(cfg, spec, *trace, timeline, nshards);
  }
  sim::Simulator sim;
  // Install telemetry before any component is built: cores and schedulers
  // cache their handles at construction.
  obs::Telemetry tel_view;
  if (telemetry != nullptr) {
    tel_view = telemetry->view();
    sim.set_telemetry(&tel_view);
  }
  obs::TraceBuffer* trace_buf = nullptr;
  if (obs::Telemetry* tel = sim.telemetry()) {
    trace_buf = tel->trace;
  }
  const power::PowerModel pm = cfg.power_model();
  const double budget = effective_budget(spec, cfg);
  const std::unique_ptr<quality::QualityFunction> fp = cfg.make_quality_function();
  const quality::QualityFunction& f = *fp;

  cluster::Cluster cluster = build_cluster(
      cfg, spec, f, budget, sim,
      std::vector<sim::Simulator*>(cfg.num_servers, &sim));
  install_admission(cfg, cluster);

  // The watchdog observes the trace buffer live, re-deriving each invariant
  // from the same events the analysis layer consumes; violations land in the
  // buffer itself (as kViolation events) plus the watchdog.* counters.
  std::unique_ptr<obs::analysis::Watchdog> watchdog;
  if (telemetry != nullptr && telemetry->want_watchdog && trace_buf != nullptr) {
    obs::analysis::WatchdogOptions wopts;
    for (const cluster::NodeSpec& node : cfg.cluster_node_specs(budget)) {
      wopts.models.push_back(node.core_models);
      wopts.server_budgets_w.push_back(node.power_budget);
    }
    watchdog = std::make_unique<obs::analysis::Watchdog>(*trace_buf, wopts,
                                                         &telemetry->metrics);
    trace_buf->set_observer(watchdog.get());
  }

  RunResult result;
  JobAccounting acct{&f, &result, 0.0, 0.0, {}, {}};
  init_tenants(cfg, acct);

  if (trace != nullptr) {
    acct.responses.reserve(trace->size());
    if (trace_buf != nullptr) {
      trace_buf->reserve(trace_buf->size() + trace->size() * kTraceEventsPerJob);
    }
  }
  // The quarantine must outlast every scheduler-side reference to a settled
  // job.  The GE engine purges settled pointers from its waiting queue and
  // EDF caches at the next round, and the quantum chain bounds the round
  // gap; two quanta leave generous slack.
  StreamState st(2.0 * cfg.quantum + 1e-3, cfg, trace);
  std::function<void()> release_staged;
  const auto stage_next = [&sim, &st, &release_staged] {
    if (st.stage()) {
      sim.schedule_keyed(st.staged->arrival, 2 * st.staged_count - 1,
                         [&release_staged] { release_staged(); });
    }
  };
  release_staged = [&cluster, &sim, &st, &stage_next, &acct, trace_buf] {
    st.store.reclaim(sim.now());
    workload::Job* job = st.store.acquire(*st.staged);
    const std::uint64_t k = st.staged_count;
    st.staged.reset();
    sim.schedule_keyed(job->deadline, 2 * k, [&cluster, &sim, &st, &acct, job, k] {
      cluster.on_deadline(job);
      GE_CHECK(job->settled, "deadline event left the job unsettled");
      st.retired.emplace(k, *job);
      st.store.retire(job, sim.now());
      while (!st.retired.empty() && st.retired.begin()->first == st.next_account) {
        acct.account(st.retired.begin()->second);
        st.retired.erase(st.retired.begin());
        ++st.next_account;
      }
    });
    stage_next();
    if (trace_buf != nullptr) {
      obs::TraceEvent ev;
      ev.type = obs::TraceEventType::kArrival;
      ev.t = job->arrival;
      ev.job = static_cast<std::int64_t>(job->id);
      ev.a = job->demand;
      ev.b = job->deadline;
      ev.c = static_cast<double>(job->tenant);
      trace_buf->push(ev);
    }
    cluster.on_job_arrival(job);
  };
  stage_next();

  schedule_control_events(cfg, cluster, sim, timeline);
  const double horizon = run_horizon(cfg);

  {
    obs::ScopedTimer run_timer(
        tel_view.profile != nullptr ? &tel_view.profile->sim_run : nullptr);
    cluster.start();
    sim.run_until(horizon);
    cluster.finish();
  }

  // Everything released must have retired (every deadline precedes the
  // horizon) and drained through the reorder buffer in release order.
  GE_CHECK(!st.staged.has_value(), "staged arrival never released");
  GE_CHECK(st.retired.empty(), "retired jobs stuck in the reorder buffer");
  GE_CHECK(st.store.in_flight() == 0, "jobs still in flight after drain");
  finalize_results(cfg, pm, cluster, acct, horizon, sim.now(), result);

  if (watchdog != nullptr) {
    obs::analysis::Watchdog::Totals totals;
    totals.released = result.released;
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      totals.server_energy_j.push_back(cluster.node(s).server().total_energy());
    }
    watchdog->finish(sim.now(), totals);
    trace_buf->set_observer(nullptr);
  }

  if (telemetry != nullptr) {
    obs::MetricsRegistry& reg = telemetry->metrics;
    reg.counter("jobs.released", "jobs").add(static_cast<double>(result.released));
    reg.counter("jobs.completed", "jobs").add(static_cast<double>(result.completed));
    reg.counter("jobs.partial", "jobs").add(static_cast<double>(result.partial));
    reg.counter("jobs.dropped", "jobs").add(static_cast<double>(result.dropped));
    reg.counter("energy.total_j", "J").add(result.energy);
    reg.counter("energy.static_j", "J").add(result.static_energy);
    reg.counter("sim.events_executed", "events")
        .add(static_cast<double>(sim.executed_events()));
    // Worst run quality across merged tasks; the full distribution is in the
    // run.quality histogram.
    reg.gauge("quality.monitored", "ratio", obs::Gauge::Merge::kMin)
        .set(result.quality);
    reg.histogram("run.quality",
                  {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, "ratio")
        .observe(result.quality);
    if (trace == nullptr) {
      // Memory gauges of generator-fed runs only, so the metric schema of
      // trace-fed runs stays byte-identical.  Peaks merge with kMax.
      reg.gauge("stream.peak_in_flight", "jobs", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(st.store.peak_in_flight()));
      reg.gauge("stream.arena_slots", "jobs", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(st.store.capacity()));
      reg.gauge("stream.arena_bytes", "bytes", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(st.store.memory_bytes()));
      reg.gauge("sim.peak_pending_events", "events", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(sim.peak_pending_events()));
    }
    if (cfg.lifecycle_active() || cfg.admission > 0.0) {
      // Dispatcher-level settlements; gated so the default metric schema
      // stays byte-identical.
      reg.counter("jobs.rejected", "jobs")
          .add(static_cast<double>(result.rejected));
      reg.counter("jobs.expired_in_queue", "jobs")
          .add(static_cast<double>(result.expired_in_queue));
      reg.gauge("dispatch.pending_peak", "jobs", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(cluster.pending_peak()));
    }
    if (cfg.lifecycle_active()) {
      reg.counter("lifecycle.wakes", "wakes")
          .add(static_cast<double>(result.wakes));
      reg.counter("lifecycle.setup_energy_j", "J").add(result.setup_energy_j);
      cluster.export_lifecycle_metrics(reg, horizon);
    }
    if (cfg.num_tenants > 1) {
      // Per-tenant slices under "tN." prefixes, mirroring the per-server
      // "sK." scheme; the gauge lets validators recover the tenant count.
      reg.gauge("workload.tenants", "tenants", obs::Gauge::Merge::kMax)
          .set(static_cast<double>(cfg.num_tenants));
      for (std::size_t t = 0; t < result.tenants.size(); ++t) {
        const TenantRunResult& tr = result.tenants[t];
        const std::string prefix = "t" + std::to_string(t) + ".";
        reg.counter(prefix + "released", "jobs")
            .add(static_cast<double>(tr.released));
        reg.counter(prefix + "completed", "jobs")
            .add(static_cast<double>(tr.completed));
        reg.counter(prefix + "partial", "jobs")
            .add(static_cast<double>(tr.partial));
        reg.counter(prefix + "dropped", "jobs")
            .add(static_cast<double>(tr.dropped));
        reg.counter(prefix + "energy_j", "J").add(tr.energy_j);
        reg.gauge(prefix + "quality", "ratio", obs::Gauge::Merge::kMin)
            .set(tr.quality);
        reg.gauge(prefix + "slo_burn", "ratio", obs::Gauge::Merge::kMax)
            .set(tr.slo_burn);
      }
    }
    if (cluster.size() == 1) {
      // Single-server runs keep the unprefixed metric schema byte-for-byte.
      cluster.node(0).server().export_metrics(reg, horizon);
    } else {
      cluster.export_metrics(reg, horizon);
    }
  }
  return result;
}

}  // namespace

RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec) {
  if (cfg.stream) {
    return run_simulation_stream(cfg, spec);
  }
  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration, cfg.max_jobs);
  return run_simulation(cfg, spec, trace);
}

RunResult run_simulation_stream(const ExperimentConfig& cfg,
                                const SchedulerSpec& spec, Timeline* timeline,
                                obs::RunTelemetry* telemetry) {
  return run_simulation_impl(cfg, spec, nullptr, timeline, telemetry);
}

RunResult run_simulation(const ExperimentConfig& cfg, const SchedulerSpec& spec,
                         const workload::Trace& trace, Timeline* timeline,
                         obs::RunTelemetry* telemetry) {
  GE_CHECK(!cfg.stream,
           "cfg.stream is set but a materialised trace was supplied; use "
           "run_simulation_stream (or run_simulation without a trace)");
  return run_simulation_impl(cfg, spec, &trace, timeline, telemetry);
}

}  // namespace ge::exp
