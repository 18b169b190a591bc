// Pending-event set for the discrete-event simulator: a binary min-heap
// keyed by (time, sequence number), O(log n) push/pop.
//
// Ordering contract: events pop in non-decreasing time order, ties broken by
// a sequence number: push() draws it from a per-queue monotone counter, and
// push_with_seq() takes it from the caller.  (time, seq) is a total order,
// so the pop sequence -- and with it every simulation result -- is a pure
// function of the pushed keys.  tests/test_sim.cpp and the reference-model
// check in tests/test_kernel_equivalence.cpp pin it.
//
// Cancellation is lazy: a cancelled event is marked dead in the slot table
// and its entry is dropped when it surfaces at the heap top.
//
// Slot recycling: event liveness used to live in a flat byte-per-id table
// that grew with every id ever issued -- O(total events) resident memory,
// which defeats bounded-memory streaming replay.  Ids are now generational
// handles: the low 32 bits name a slot in a recycled table, the high 32 bits
// carry the slot's generation, and +1 keeps 0 as kInvalidEventId.  A slot
// returns to the free list when its entry physically leaves the heap (pop or
// dead-entry skim), so the table size tracks *pending* events.  Stale handles
// fail the generation check, preserving the old API promise that
// cancel()/is_pending() on an executed id are a safe no-op.  The tie-break
// sequence number is deliberately separate from the id so recycling cannot
// perturb event order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace ge::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

struct Event {
  double time = 0.0;
  EventId id = kInvalidEventId;
  std::function<void()> action;
};

class EventQueue {
 public:
  // Inserts an event and returns its id.  Ids are unique among *pending*
  // events; a fresh queue that never recycles hands out 1, 2, 3, ...
  EventId push(double time, std::function<void()> action);

  // Inserts an event whose tie-break seq is supplied by the caller instead
  // of the internal counter.  Seqs must be unique per queue.  Sharded runs
  // (see shard_exec.h) stamp every push, on queues that see no push().  A
  // serial run keys its job events below kFirstPushSeq, push()'s first seq,
  // so they win every equal-time tie against push() events.
  EventId push_with_seq(double time, std::uint64_t seq,
                        std::function<void()> action);
  static constexpr std::uint64_t kFirstPushSeq = std::uint64_t{1} << 63;

  // Cancels a pending event.  Returns false (and does nothing) if the id is
  // unknown, stale, already executed, or already cancelled.
  bool cancel(EventId id);

  bool is_pending(EventId id) const;

  bool empty() const noexcept { return live_count_ == 0; }
  std::size_t size() const noexcept { return live_count_; }  // live events

  // Time of the earliest live event; requires !empty().
  double next_time() const;

  // Full (time, seq) key of the earliest live event; requires !empty().
  // The sharded executor compares keys across queues to find the next
  // cross-shard event and the per-shard safe horizon.
  void next_key(double& time, std::uint64_t& seq) const;

  // Removes and returns the earliest live event; requires !empty().
  Event pop();

  // --- introspection (tests, gauges) ---
  // Allocated slot-table entries; with recycling this tracks the peak
  // *concurrently pending* events, not the total ever scheduled.
  // total_pushed() counts push() calls only.
  std::size_t slot_count() const noexcept { return slots_.size(); }
  std::size_t peak_live() const noexcept { return peak_live_; }
  std::uint64_t total_pushed() const noexcept { return next_seq_ - kFirstPushSeq; }

 private:
  // One pending (or lazily-dead) event in the heap.  `seq` is the
  // tie-break; `slot` indexes the slot table.
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::function<void()> action;
  };

  // Heap comparator: (time, seq) reversed, so the earliest entry is on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) {
        return b.time < a.time;
      }
      return b.seq < a.seq;
    }
  };

  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };
  struct Slot {
    std::uint32_t gen = 0;
    SlotState state = SlotState::kFree;
  };

  static EventId encode(std::uint32_t slot, std::uint32_t gen) noexcept {
    return ((static_cast<EventId>(gen) << 32) | slot) + 1;
  }

  // Returns a physically-removed entry's slot to the free list.  `mutable`
  // path: skimming happens inside const next_time().
  void release_slot(std::uint32_t slot) const;

  // Pops dead entries off the top of the heap, so that on a non-empty queue
  // heap_.front() is the earliest live entry.
  void skim() const;

  mutable std::vector<Entry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;  // LIFO
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t next_seq_ = kFirstPushSeq;  // push()'s tie-break counter
};

}  // namespace ge::sim
