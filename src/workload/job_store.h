// Arena/pool storage for in-flight jobs (the streaming replay core).
//
// Every serial run releases its jobs into a JobStore, whether they are drawn
// from the workload generator or read from a trace.  A per-run copy of the
// whole workload would grow with the *total* job count, which rules out
// 10^6..10^8-job replays.  JobStore instead hands out pointer-stable slots
// from slab allocations and recycles the slot of every *retired* (settled
// and accounted) job, so resident memory tracks the number of jobs in
// flight, not the number ever seen.
//
// Pointer stability: jobs are allocated in fixed-size slabs that are never
// moved or freed while the store lives, so a Job* stays valid from acquire()
// until its slot is recycled.  Schedulers keep raw Job* in run queues, EDF
// caches and plan segments, and may read a *settled* job's pointer until the
// next planning round purges it.  Recycling therefore goes through a
// time-based quarantine: retire(job, now) parks the slot until
// now + quarantine_delay, and reclaim(now) only returns slots whose
// quarantine has lapsed to the free list.  Callers size the delay to cover
// the maximum scheduler-side retention (for the GE round chain: one quantum;
// see docs/DESIGN.md "Streaming core").
//
// Slot reuse is LIFO (better cache behaviour); the quarantine queue is FIFO
// because retirement times are monotone in simulation time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "workload/job.h"

namespace ge::workload {

class JobStore {
 public:
  // quarantine_delay: seconds of simulated time a retired slot stays
  // unavailable before reuse (0 = immediate reuse).
  explicit JobStore(double quarantine_delay = 0.0)
      : quarantine_delay_(quarantine_delay) {}

  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  // Copies `proto` into a stable slot and returns it.  The pointer stays
  // valid until the slot is retired, quarantined out, and reused.
  Job* acquire(const Job& proto);

  // Marks a settled job's slot for recycling once the quarantine lapses.
  // The job must have come from this store and must be settled.
  void retire(Job* job, double now);

  // Moves quarantined slots whose release time has passed to the free list.
  // Call periodically (e.g. per arrival) with the current simulated time.
  void reclaim(double now);

  // Jobs currently acquired and not yet retired.
  std::size_t in_flight() const noexcept { return in_flight_; }
  // High-water mark of in_flight() over the store's lifetime.
  std::size_t peak_in_flight() const noexcept { return peak_in_flight_; }
  // Total acquire() calls ever.
  std::uint64_t total_acquired() const noexcept { return total_acquired_; }
  // Slots allocated across all slabs (the arena footprint).
  std::size_t capacity() const noexcept { return kSlabJobs * slabs_.size(); }
  // Approximate resident bytes of the arena (slabs only).
  std::size_t memory_bytes() const noexcept {
    return capacity() * sizeof(Job);
  }
  // Slots parked in quarantine right now (retired, not yet reusable).
  std::size_t quarantined() const noexcept { return limbo_.size(); }

  double quarantine_delay() const noexcept { return quarantine_delay_; }

 private:
  static constexpr std::size_t kSlabJobs = 4096;

  struct Quarantined {
    Job* job;
    double release_time;
  };

  std::vector<std::unique_ptr<Job[]>> slabs_;
  std::size_t slab_used_ = kSlabJobs;  // slots handed out of the last slab
  std::vector<Job*> free_;             // recycled slots, LIFO
  std::deque<Quarantined> limbo_;      // FIFO; release times are monotone
  double quarantine_delay_;
  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
  std::uint64_t total_acquired_ = 0;
};

}  // namespace ge::workload
