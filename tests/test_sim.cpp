// Unit tests for the discrete-event engine: the EventQueue's
// (time, scheduling-order) dequeue contract and the Simulator built on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace ge::sim {
namespace {

TEST(EventQueueContract, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueContract, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().action();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueContract, CancelRemovesEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueContract, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
}

TEST(EventQueueContract, CancelExecutedIdIsNoop) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueContract, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueContract, SizeCountsLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueContract, CancelMiddleOfEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(0); });
  const EventId mid = q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.cancel(mid);
  while (!q.empty()) {
    q.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueueContract, SlotTableRecyclesRetiredIds) {
  // The liveness table must track *pending* events, not every id ever
  // issued: a long push/pop chain with a bounded working set keeps a
  // bounded slot table (the O(max_job_id) regression this guards against).
  EventQueue q;
  for (int i = 0; i < 10; ++i) {
    q.push(static_cast<double>(i), [] {});
  }
  for (int round = 0; round < 1000; ++round) {
    q.pop();
    q.push(static_cast<double>(10 + round), [] {});
  }
  EXPECT_EQ(q.size(), 10u);
  EXPECT_LE(q.slot_count(), 16u);
  EXPECT_EQ(q.total_pushed(), 1010u);
  EXPECT_LE(q.peak_live(), 11u);
}

TEST(EventQueueContract, RecycledSlotsKeepHandlesDistinct) {
  // A recycled slot's new id must not alias the retired one: the old
  // handle stays dead for cancel()/is_pending() and the new one is live.
  EventQueue q;
  const EventId first = q.push(1.0, [] {});
  q.pop();
  const EventId second = q.push(2.0, [] {});
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.is_pending(first));
  EXPECT_TRUE(q.is_pending(second));
  EXPECT_FALSE(q.cancel(first));
  EXPECT_TRUE(q.cancel(second));
}

TEST(EventQueueContract, JobBandSeqsPopAheadOfPushedEvents) {
  // Seqs below kFirstPushSeq (the runner's job band) win every equal-time
  // tie against push() events, and order among themselves by seq, whichever
  // was pushed first; push()'s counter ignores them.
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(10); });
  q.push_with_seq(1.0, 4, [&] { order.push_back(4); });
  q.push(1.0, [&] { order.push_back(11); });
  q.push_with_seq(1.0, 1, [&] { order.push_back(1); });
  q.push_with_seq(0.5, 9, [&] { order.push_back(9); });
  q.push_with_seq(1.0, 3, [&] { order.push_back(3); });
  EXPECT_EQ(q.total_pushed(), 2u);
  while (!q.empty()) {
    q.pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{9, 1, 3, 4, 10, 11}));
  EXPECT_EQ(q.total_pushed(), 2u);
}

TEST(Simulator, KeyedEventsTieBreakAheadOfScheduledOnes) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    // Keyed while an equal-time schedule_at event is already pending.
    sim.schedule_keyed(2.0, 2, [&] { order.push_back(2); });
  });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_keyed(2.0, 1, [&] { order.push_back(1); });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DEATH(sim.schedule_keyed(3.0, EventQueue::kFirstPushSeq, [] {}),
               "seq below");
  sim.set_stamp_mode(true);
  EXPECT_DEATH(sim.schedule_keyed(3.0, 5, [] {}), "out of stamp mode");
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.5, [&] { seen = sim.now(); });
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(10.0);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(10.0, [&] { late_ran = true; });
  sim.run_until(5.0);
  EXPECT_FALSE(late_ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(15.0);
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int count = 0;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) {
      sim.schedule_in(1.0, tick);
    }
  };
  sim.schedule_at(1.0, tick);
  sim.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.event_pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.event_pending(id));
  sim.run_until(2.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(static_cast<double>(i), [] {});
  }
  sim.run_until(100.0);
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, RunToCompletionDrainsQueue) {
  Simulator sim;
  int runs = 0;
  sim.schedule_at(1.0, [&] { ++runs; });
  sim.schedule_at(2.0, [&] { ++runs; });
  sim.run_to_completion();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, SameTimestampFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Simulator, SchedulingInThePastDies) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_DEATH(sim.schedule_at(1.0, [] {}), "past");
}

}  // namespace
}  // namespace ge::sim
