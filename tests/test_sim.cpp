// Tests for the discrete-event kernel: ordering, cancellation, periodic
// timers, horizons, and the type-erased action storage.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace lagover {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilRespectsHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  const auto count = sim.run_until(5.0);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PeriodicTimerFiresRepeatedly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_periodic(1.0, [&] { ++fired; });
  sim.run_until(5.5);
  EXPECT_EQ(fired, 5);
}

TEST(SimulatorTest, PeriodicTimerCanCancelItself) {
  Simulator sim;
  int fired = 0;
  EventId id = 0;
  id = sim.schedule_periodic(1.0, [&] {
    if (++fired == 3) sim.cancel(id);
  });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, PeriodicCancellingItselfReleasesItsAction) {
  Simulator sim;
  auto alive = std::make_shared<int>(0);
  int reused = 0;
  EventId id = 0;
  id = sim.schedule_periodic(1.0, [&, alive] {
    if (++*alive < 2) return;
    sim.cancel(id);
    sim.schedule_after(0.5, [&] { ++reused; });  // takes the freed slot
  });
  sim.run_until(10.0);
  EXPECT_EQ(*alive, 2);
  EXPECT_EQ(reused, 1);
  EXPECT_EQ(alive.use_count(), 1);  // the timer's action is gone
}

TEST(SimulatorTest, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step(10.0));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(10.0));
  EXPECT_FALSE(sim.step(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(SimulatorTest, CancelOfFiredOrUnknownIdReturnsFalse) {
  Simulator sim;
  EventId self = 0;
  bool self_cancel = true;
  self = sim.schedule_at(1.0, [&] { self_cancel = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(self_cancel);  // a running one-shot has already fired
  EXPECT_FALSE(sim.cancel(self));
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(12345));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PendingEventsCountsLiveEvents) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const EventId timer = sim.schedule_periodic(1.0, [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(2.5);
  EXPECT_EQ(sim.pending_events(), 1u);  // the timer
  EXPECT_TRUE(sim.cancel(timer));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, EmptyActionFailsPrecondition) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_at(1.0, std::function<void()>{}), "precondition");
  EXPECT_DEATH(sim.schedule_periodic(1.0, nullptr), "precondition");
}

TEST(SimulatorTest, InlineSizedActionIsStoredInline) {
  std::array<std::uint64_t, 5> words{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  EventAction action = [out, words] {
    for (const std::uint64_t w : words) *out += w;
  };
  EXPECT_TRUE(action.stored_inline());
  Simulator sim;
  sim.schedule_after(1.0, std::move(action));
  sim.run();
  EXPECT_EQ(sum, 15u);
}

TEST(SimulatorTest, ActionLargerThanInlineBufferRunsFromHeap) {
  auto alive = std::make_shared<int>(0);
  std::array<std::uint64_t, 16> words{};
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i;
  std::uint64_t sum = 0;
  Simulator sim;
  {
    EventAction large = [alive, words, &sum] {
      for (const std::uint64_t w : words) sum += w;
      ++*alive;
    };
    EXPECT_FALSE(large.stored_inline());
    sim.schedule_at(2.0, std::move(large));
  }
  const EventId cancelled = sim.schedule_at(3.0, [alive, words] {
    *alive += static_cast<int>(words[1]);
  });
  EXPECT_EQ(alive.use_count(), 3);
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_EQ(alive.use_count(), 2);  // cancelling destroys the action
  sim.run();
  EXPECT_EQ(sum, 120u);
  EXPECT_EQ(*alive, 1);
  EXPECT_EQ(alive.use_count(), 1);  // fired actions are destroyed too
}

TEST(SimulatorTest, MoveOnlyActionsAreAccepted) {
  Simulator sim;
  int fired = 0;
  auto owned = std::make_unique<int>(7);
  sim.schedule_after(1.0, [&fired, owned = std::move(owned)] {
    fired += *owned;
  });
  sim.run();
  EXPECT_EQ(fired, 7);
}

TEST(SimulatorTest, PeriodicActionKeepsItsState) {
  Simulator sim;
  std::vector<int> seen;
  sim.schedule_periodic(1.0, [&seen, count = 0]() mutable {
    seen.push_back(++count);
  });
  sim.run_until(3.5);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ActionSurvivesSlabGrowthWhileRunning) {
  // The running action schedules enough events to regrow the slab; its
  // own captures must stay intact.
  Simulator sim;
  std::uint64_t checksum = 0;
  const std::array<std::uint64_t, 4> words{11, 22, 33, 44};
  sim.schedule_at(1.0, [&sim, &checksum, words] {
    for (int i = 0; i < 1000; ++i) sim.schedule_after(1.0, [] {});
    for (const std::uint64_t w : words) checksum += w;
  });
  sim.run();
  EXPECT_EQ(checksum, 110u);
  EXPECT_EQ(sim.executed_events(), 1001u);
}

}  // namespace
}  // namespace lagover
