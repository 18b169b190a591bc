// Discrete-event simulator: a virtual clock plus an event queue.
//
// Components schedule closures at absolute or relative virtual times; the
// simulator executes them in non-decreasing time order (FIFO among equal
// timestamps).  Time never goes backwards; scheduling in the past is a
// checked error.  This is the substrate every experiment in the paper runs
// on -- the paper's evaluation is entirely simulation-based.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"

namespace ge::obs {
struct Telemetry;
}

namespace ge::sim {

class Simulator {
 public:
  Simulator() = default;
  // Components hold references to their simulator, so it never moves.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  double now() const noexcept { return now_; }

  // Telemetry rides on the simulator because every instrumented component
  // (cores, schedulers, the runner) already holds a Simulator reference.
  // Null (the default) means telemetry is off; hooks test the pointer once
  // at construction or per event.  With GE_NO_TELEMETRY the accessor is a
  // constexpr nullptr, so the compiler deletes the hooks outright.
#ifdef GE_NO_TELEMETRY
  static constexpr obs::Telemetry* telemetry() noexcept { return nullptr; }
  void set_telemetry(obs::Telemetry*) noexcept {}
#else
  obs::Telemetry* telemetry() const noexcept { return telemetry_; }
  void set_telemetry(obs::Telemetry* telemetry) noexcept { telemetry_ = telemetry; }
#endif

  // Schedules `action` at absolute virtual time `time` (>= now).
  EventId schedule_at(double time, std::function<void()> action);

  // As schedule_at, under the caller's unique tie-break key `seq` below
  // EventQueue::kFirstPushSeq: at equal time keyed events pop in `seq` order
  // ahead of every schedule_at event, whenever they were scheduled.  The
  // runner keys job events this way.  Not allowed in stamp mode.
  EventId schedule_keyed(double time, std::uint64_t seq,
                         std::function<void()> action);

  // Schedules `action` `delay` seconds from now (delay >= 0).
  EventId schedule_in(double delay, std::function<void()> action);

  // Cancels a pending event; returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  bool event_pending(EventId id) const { return queue_.is_pending(id); }

  // Executes the next event, if any.  Returns false when the queue is empty.
  bool step();

  // Runs events with time <= horizon, then advances the clock to exactly
  // `horizon` (even if no event lands there).
  void run_until(double horizon);

  // --- sharded-run hooks (see shard_exec.h) -------------------------------
  // In stamp mode schedule_at draws its (time, seq) tie-break from the
  // calling thread's current StampContext instead of the queue's private
  // counter, so several simulators can share one run-wide tie order.
  void set_stamp_mode(bool on) noexcept { stamp_mode_ = on; }

  // Key of the earliest pending event; returns false when the queue is empty.
  bool peek_key(double& time, std::uint64_t& seq) const;

  // Executes every pending event whose key is strictly below (time, seq) --
  // including events those executions schedule.  The clock is left at the
  // last executed event, not advanced to `time`.
  void run_until_key(double time, std::uint64_t seq);

  // Advances the clock without executing anything (>= now required).  The
  // sharded executor syncs every shard's clock to the epoch key before the
  // cross-shard event runs, so state read during that event is at-time.
  void advance_clock_to(double time);

  // Runs until the event queue is empty.
  void run_to_completion();

  std::uint64_t executed_events() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  // High-water mark of concurrently pending events (streaming gauge).
  std::size_t peak_pending_events() const noexcept { return queue_.peak_live(); }

 private:
  double now_ = 0.0;
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  bool stamp_mode_ = false;
#ifndef GE_NO_TELEMETRY
  obs::Telemetry* telemetry_ = nullptr;
#endif
};

}  // namespace ge::sim
