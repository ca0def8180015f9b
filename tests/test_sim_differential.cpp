// Differential tests for the Simulator kernel. A reference kernel — the
// earlier map-based design: a priority queue of ids plus a map of
// one-shot actions, a map of periodic timers and a set of cancelled ids
// — and the vector-heap kernel are driven with the same seeded random
// op sequences: equal-timestamp schedules, periodic timers, cancels of
// pending, fired, cancelled, unknown and stale ids, schedules and
// cancels from inside actions (a periodic cancelling itself included),
// and step/run_until with horizons. After every op both must agree on
// the firing order, every return value, now(), pending_events() and
// executed_events(). A second test pins a steady-state schedule/fire
// cycle to zero heap allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/perf.hpp"

namespace lagover {
namespace {

/// The reference kernel, kept as it was before the vector-heap rebuild.
class ReferenceSimulator {
 public:
  using Action = std::function<void()>;

  SimTime now() const noexcept { return now_; }
  std::uint64_t executed_events() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept {
    return queue_.size() - cancelled_.size();
  }

  EventId schedule_at(SimTime when, Action action) {
    LAGOVER_EXPECTS(when >= now_);
    LAGOVER_EXPECTS(action != nullptr);
    const EventId id = next_id_++;
    actions_.emplace(id, std::move(action));
    queue_.push(Entry{when, next_seq_++, id});
    return id;
  }

  EventId schedule_after(SimTime delay, Action action) {
    LAGOVER_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(EventId id) {
    if (cancelled_.count(id) != 0) return false;
    const bool was_periodic = periodics_.erase(id) != 0;
    if (actions_.erase(id) == 0 && !was_periodic) return false;
    cancelled_.insert(id);
    return true;
  }

  bool step(SimTime horizon) {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      if (cancelled_.count(top.id) != 0) {
        queue_.pop();
        cancelled_.erase(top.id);
        continue;
      }
      if (top.when > horizon) return false;
      queue_.pop();
      now_ = top.when;
      const auto periodic_it = periodics_.find(top.id);
      if (periodic_it != periodics_.end()) {
        queue_.push(
            Entry{now_ + periodic_it->second.period, next_seq_++, top.id});
        Action action = periodic_it->second.action;
        ++executed_;
        action();
        return true;
      }
      auto it = actions_.find(top.id);
      LAGOVER_ASSERT(it != actions_.end());
      Action action = std::move(it->second);
      actions_.erase(it);
      ++executed_;
      action();
      return true;
    }
    return false;
  }

  std::uint64_t run_until(SimTime horizon) {
    std::uint64_t fired = 0;
    while (step(horizon)) ++fired;
    if (now_ < horizon) now_ = horizon;
    return fired;
  }

  EventId schedule_periodic(SimTime period, Action action) {
    LAGOVER_EXPECTS(period > 0.0);
    LAGOVER_EXPECTS(action != nullptr);
    const EventId id = next_id_++;
    periodics_.emplace(id, Periodic{period, std::move(action)});
    queue_.push(Entry{now_ + period, next_seq_++, id});
    return id;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Periodic {
    SimTime period;
    Action action;
  };

  EventId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::map<EventId, Action> actions_;
  std::map<EventId, Periodic> periodics_;
  std::set<EventId> cancelled_;
};

/// Ids neither kernel ever issues: 0, the all-ones id, and a generation
/// no slot reaches.
constexpr EventId kUnknownIds[] = {0, std::numeric_limits<EventId>::max(),
                                   (EventId{0xFFFFFFFF} << 32) | 1};

/// Drives one kernel. Events are named by label (their index in
/// `ids_`), so both kernels' traces compare although their ids differ.
/// Actions draw from the driver's own Rng: both drivers start from the
/// same seed, so they draw alike for as long as their kernels agree.
template <typename Sim>
class Driver {
 public:
  explicit Driver(std::uint64_t seed) : rng_(seed) {}

  Sim& sim() { return sim_; }
  const std::vector<double>& trace() const { return trace_; }
  const std::vector<EventId>& ids() const { return ids_; }

  /// Top-level ops; each appends its return value to the trace.
  void schedule(SimTime delay, bool relative, int kind) {
    const auto label = static_cast<double>(ids_.size());
    ids_.push_back(relative
                       ? sim_.schedule_after(delay, action(kind))
                       : sim_.schedule_at(sim_.now() + delay, action(kind)));
    trace_.push_back(label);
  }
  void schedule_periodic(SimTime period, int kind) {
    const auto label = static_cast<double>(ids_.size());
    ids_.push_back(sim_.schedule_periodic(period, action(kind)));
    trace_.push_back(label);
  }
  void cancel_label(std::size_t label) {
    trace_.push_back(sim_.cancel(ids_[label]) ? 1.0 : 0.0);
  }
  void cancel_id(EventId id) { trace_.push_back(sim_.cancel(id) ? 1 : 0); }
  void step(SimTime horizon) { trace_.push_back(sim_.step(horizon)); }
  void run_until(SimTime horizon) {
    trace_.push_back(static_cast<double>(sim_.run_until(horizon)));
  }

  /// One-shot actions by kind: 0 fires and logs only; 1 schedules one
  /// or two more events; 2 cancels a random event (itself included).
  /// Periodic timers use kind 3: log, and cancel themselves on their
  /// third firing with some probability; kind 4 also schedules, and
  /// cancels itself on its fourth firing.
  typename Sim::Action action(int kind) {
    const std::size_t label = ids_.size();
    return [this, kind, label] { fire(kind, label); };
  }

 private:
  void fire(int kind, std::size_t label) {
    trace_.push_back(-1.0 - static_cast<double>(label));
    trace_.push_back(sim_.now());
    trace_.push_back(static_cast<double>(sim_.pending_events()));
    trace_.push_back(static_cast<double>(sim_.executed_events()));
    if (label >= fired_.size()) fired_.resize(label + 1, 0);
    const int fired = ++fired_[label];
    // Kind 4 cancels itself before it schedules, so its freed slot is
    // reused while it still runs.
    if (kind == 4 && fired >= 4) cancel_label(label);
    switch (kind) {
      case 1:
      case 4: {
        if (kind == 4 && !rng_.bernoulli(0.3)) break;
        const int count = 1 + static_cast<int>(rng_.next_below(2));
        for (int i = 0; i < count; ++i) {
          const SimTime delay = 0.5 * static_cast<double>(rng_.next_below(4));
          const int child = static_cast<int>(rng_.next_below(3));
          const auto child_label = static_cast<double>(ids_.size());
          ids_.push_back(sim_.schedule_after(delay, action(child)));
          trace_.push_back(child_label);
        }
        break;
      }
      case 2: {
        const std::size_t target =
            rng_.bernoulli(0.3) ? label : rng_.next_below(ids_.size());
        cancel_label(target);
        break;
      }
      case 3:
        if (fired >= 3 && rng_.bernoulli(0.5)) cancel_label(label);
        break;
      default:
        break;
    }
  }

  Sim sim_;
  Rng rng_;
  std::vector<EventId> ids_;
  std::vector<int> fired_;
  std::vector<double> trace_;
};

void expect_same_state(Driver<Simulator>& fast,
                       Driver<ReferenceSimulator>& ref, int op) {
  ASSERT_EQ(fast.trace(), ref.trace()) << "op " << op;
  ASSERT_EQ(fast.sim().now(), ref.sim().now()) << "op " << op;
  ASSERT_EQ(fast.sim().pending_events(), ref.sim().pending_events())
      << "op " << op;
  ASSERT_EQ(fast.sim().executed_events(), ref.sim().executed_events())
      << "op " << op;
}

/// A top-level cancel: the label it named, and how many events had been
/// scheduled when it ran.
struct CancelOp {
  std::size_t target;
  std::size_t issued;
};

/// How often a cancel named an id whose slot had since been reused by a
/// newer event (the stale-generation path).
std::size_t stale_reused_cancels(const std::vector<EventId>& ids,
                                 const std::vector<CancelOp>& cancels) {
  std::size_t stale = 0;
  for (const CancelOp& cancel : cancels) {
    const EventId id = ids[cancel.target];
    for (std::size_t later = cancel.target + 1; later < cancel.issued;
         ++later)
      if ((ids[later] & 0xFFFFFFFF) == (id & 0xFFFFFFFF)) {
        ++stale;
        break;
      }
  }
  return stale;
}

TEST(SimulatorDifferentialTest, RandomOpSequencesMatchReference) {
  std::size_t total_fired = 0;
  std::size_t stale_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Driver<Simulator> fast(seed * 7919);
    Driver<ReferenceSimulator> ref(seed * 7919);
    Rng ops(seed);
    std::vector<CancelOp> cancels;
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t pick = ops.next_below(100);
      const SimTime offset = 0.5 * static_cast<double>(ops.next_below(5));
      if (pick < 30) {
        const bool relative = ops.bernoulli(0.5);
        const int kind = static_cast<int>(ops.next_below(3));
        fast.schedule(offset, relative, kind);
        ref.schedule(offset, relative, kind);
      } else if (pick < 35) {
        const SimTime period = 0.5 + 0.5 * static_cast<double>(
                                             ops.next_below(4));
        const int kind = ops.bernoulli(0.5) ? 3 : 4;
        fast.schedule_periodic(period, kind);
        ref.schedule_periodic(period, kind);
      } else if (pick < 55 && !fast.ids().empty()) {
        const std::size_t label = ops.next_below(fast.ids().size());
        cancels.push_back({label, fast.ids().size()});
        fast.cancel_label(label);
        ref.cancel_label(label);
      } else if (pick < 60) {
        const EventId id = kUnknownIds[ops.next_below(3)];
        fast.cancel_id(id);
        ref.cancel_id(id);
      } else if (pick < 85) {
        const SimTime horizon = ops.bernoulli(0.1)
                                    ? std::numeric_limits<SimTime>::infinity()
                                    : fast.sim().now() + offset;
        fast.step(horizon);
        ref.step(horizon);
      } else {
        const SimTime horizon = fast.sim().now() + offset;
        fast.run_until(horizon);
        ref.run_until(horizon);
      }
      expect_same_state(fast, ref, op);
      if (testing::Test::HasFatalFailure()) return;
    }
    fast.run_until(fast.sim().now() + 50.0);
    ref.run_until(ref.sim().now() + 50.0);
    expect_same_state(fast, ref, -1);
    if (testing::Test::HasFatalFailure()) return;
    total_fired += fast.sim().executed_events();
    stale_cancels += stale_reused_cancels(fast.ids(), cancels);
  }
  // The sequences must reach the paths they are meant to check.
  EXPECT_GT(total_fired, 5000u);
  EXPECT_GT(stale_cancels, 100u);
}

TEST(SimulatorDifferentialTest, StaleIdOfReusedSlotCancelsNothing) {
  Simulator sim;
  int fired = 0;
  const EventId first = sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(first));
  const EventId second = sim.schedule_at(1.0, [&] { fired += 10; });
  EXPECT_EQ(first & 0xFFFFFFFF, second & 0xFFFFFFFF);  // same slot
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.cancel(second));
}

/// A capture of exactly the inline size: the feed's delivery lambdas.
struct InlinePayload {
  std::uint64_t* sink;
  std::uint64_t words[5];
};
static_assert(sizeof(InlinePayload) == EventAction::kInlineBytes);

void alloc_cycle(Simulator& sim, std::uint64_t& sink) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    const InlinePayload payload{&sink, {i, i + 1, i + 2, i + 3, i + 4}};
    sim.schedule_after(0.25 * static_cast<double>(i % 7), [payload] {
      *payload.sink += payload.words[0] + payload.words[4];
    });
  }
  while (sim.step(std::numeric_limits<SimTime>::infinity())) {
  }
}

TEST(SimulatorAllocTest, ScheduleAndFireDoNotAllocateAfterWarmUp) {
  if (!telemetry::alloc_hook_compiled()) GTEST_SKIP();
  Simulator sim;
  std::uint64_t sink = 0;
  alloc_cycle(sim, sink);  // warm-up: heap, slab and free-list capacity
  telemetry::set_alloc_tracking(true);
  const telemetry::AllocStats before = telemetry::alloc_stats();
  alloc_cycle(sim, sink);
  const telemetry::AllocStats after = telemetry::alloc_stats();
  telemetry::set_alloc_tracking(false);
  EXPECT_EQ(after.allocs - before.allocs, 0u);
  EXPECT_EQ(sim.executed_events(), 512u);
  EXPECT_GT(sink, 0u);
}

TEST(SimulatorAllocTest, PeriodicFiringDoesNotAllocate) {
  if (!telemetry::alloc_hook_compiled()) GTEST_SKIP();
  Simulator sim;
  std::uint64_t sink = 0;
  const InlinePayload payload{&sink, {1, 2, 3, 4, 5}};
  sim.schedule_periodic(1.0, [payload] { *payload.sink += payload.words[2]; });
  sim.run_until(4.5);  // warm-up
  telemetry::set_alloc_tracking(true);
  const telemetry::AllocStats before = telemetry::alloc_stats();
  sim.run_until(104.5);
  const telemetry::AllocStats after = telemetry::alloc_stats();
  telemetry::set_alloc_tracking(false);
  EXPECT_EQ(after.allocs - before.allocs, 0u);
  EXPECT_EQ(sink, 3u * 104u);
}

}  // namespace
}  // namespace lagover
