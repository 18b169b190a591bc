#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace ge::sim {

EventId EventQueue::push(double time, std::function<void()> action) {
  return push_with_seq(time, next_seq_++, std::move(action));
}

EventId EventQueue::push_with_seq(double time, std::uint64_t seq,
                                  std::function<void()> action) {
  GE_CHECK(action != nullptr, "event action must be callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    GE_CHECK(slots_.size() < (std::size_t{1} << 32),
             "event slot table overflow");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].state = SlotState::kLive;
  ++live_count_;
  if (live_count_ > peak_live_) {
    peak_live_ = live_count_;
  }
  heap_.push_back(Entry{time, seq, slot, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return encode(slot, slots_[slot].gen);
}

bool EventQueue::cancel(EventId id) {
  if (!is_pending(id)) {
    return false;
  }
  const std::uint64_t v = id - 1;
  slots_[static_cast<std::uint32_t>(v)].state = SlotState::kCancelled;
  --live_count_;
  return true;
}

bool EventQueue::is_pending(EventId id) const {
  if (id == kInvalidEventId) {
    return false;
  }
  const std::uint64_t v = id - 1;
  const std::uint32_t slot = static_cast<std::uint32_t>(v);
  const std::uint32_t gen = static_cast<std::uint32_t>(v >> 32);
  return slot < slots_.size() && slots_[slot].gen == gen &&
         slots_[slot].state == SlotState::kLive;
}

void EventQueue::release_slot(std::uint32_t slot) const {
  ++slots_[slot].gen;  // invalidate outstanding handles
  slots_[slot].state = SlotState::kFree;
  free_slots_.push_back(slot);
}

double EventQueue::next_time() const {
  GE_CHECK(!empty(), "next_time() on empty queue");
  skim();
  return heap_.front().time;
}

void EventQueue::next_key(double& time, std::uint64_t& seq) const {
  GE_CHECK(!empty(), "next_key() on empty queue");
  skim();
  time = heap_.front().time;
  seq = heap_.front().seq;
}

Event EventQueue::pop() {
  GE_CHECK(!empty(), "pop() on empty queue");
  skim();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  const EventId id = encode(entry.slot, slots_[entry.slot].gen);
  release_slot(entry.slot);
  --live_count_;
  return Event{entry.time, id, std::move(entry.action)};
}

void EventQueue::skim() const {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].state != SlotState::kLive) {
    release_slot(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

}  // namespace ge::sim
