#include "sim/simulator.h"

#include "sim/shard_exec.h"
#include "util/check.h"

namespace ge::sim {

EventId Simulator::schedule_at(double time, std::function<void()> action) {
  GE_CHECK(time >= now_ - 1e-9, "cannot schedule an event in the past");
  const double at = time < now_ ? now_ : time;
  if (stamp_mode_) {
    StampContext* ctx = current_stamp_context();
    GE_CHECK(ctx != nullptr,
             "stamp-mode schedule_at outside a ScopedStampContext");
    return queue_.push_with_seq(at, ctx->next_stamp(), std::move(action));
  }
  return queue_.push(at, std::move(action));
}

EventId Simulator::schedule_keyed(double time, std::uint64_t seq,
                                  std::function<void()> action) {
  GE_CHECK(!stamp_mode_ && seq < EventQueue::kFirstPushSeq,
           "schedule_keyed needs a queue out of stamp mode and a seq below "
           "push()'s band");
  GE_CHECK(time >= now_ - 1e-9, "cannot schedule an event in the past");
  return queue_.push_with_seq(time < now_ ? now_ : time, seq, std::move(action));
}

EventId Simulator::schedule_in(double delay, std::function<void()> action) {
  GE_CHECK(delay >= -1e-9, "negative delay");
  return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(action));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

bool Simulator::step() {
  if (queue_.empty()) {
    return false;
  }
  Event ev = queue_.pop();
  GE_CHECK(ev.time >= now_ - 1e-9, "event time went backwards");
  if (ev.time > now_) {
    now_ = ev.time;
  }
  ++executed_;
  ev.action();
  return true;
}

void Simulator::run_until(double horizon) {
  GE_CHECK(horizon >= now_, "run_until horizon is in the past");
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    step();
  }
  now_ = horizon;
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

bool Simulator::peek_key(double& time, std::uint64_t& seq) const {
  if (queue_.empty()) {
    return false;
  }
  queue_.next_key(time, seq);
  return true;
}

void Simulator::run_until_key(double time, std::uint64_t seq) {
  double t = 0.0;
  std::uint64_t s = 0;
  while (peek_key(t, s) && (t < time || (t == time && s < seq))) {
    step();
  }
}

void Simulator::advance_clock_to(double time) {
  GE_CHECK(time >= now_, "advance_clock_to is behind the clock");
  now_ = time;
}

}  // namespace ge::sim
