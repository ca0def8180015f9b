#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace lagover {

namespace {

constexpr std::uint64_t kSlotMask = 0xFFFFFFFFULL;

EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (static_cast<std::uint64_t>(gen) << 32) | (slot + 1ULL);
}

// `when` >= 0 always (the clock starts at 0 and never runs back); adding
// +0.0 turns a -0.0 into +0.0, which it equals, so their bits order alike.
std::uint64_t time_bits(SimTime when) noexcept {
  return std::bit_cast<std::uint64_t>(when + 0.0);
}

// Heap order is (time, seq) as one 128-bit integer: a branch-free compare.
// Seqs are unique, so the order is total and any correct heap pops the
// same sequence.
__extension__ using OrderKey = unsigned __int128;

template <typename E>
OrderKey order_key(const E& entry) noexcept {
  return (static_cast<OrderKey>(entry.time_bits) << 64) | entry.seq;
}

// A 4-ary heap: half the depth of a binary one, for three more compares
// per level among adjacent entries.
constexpr std::size_t kArity = 4;

}  // namespace

EventId Simulator::schedule_at(SimTime when, Action action) {
  LAGOVER_EXPECTS(when >= now_);
  LAGOVER_EXPECTS(static_cast<bool>(action));
  return arm(when, 0.0, std::move(action));
}

EventId Simulator::schedule_after(SimTime delay, Action action) {
  LAGOVER_EXPECTS(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(action));
}

EventId Simulator::schedule_periodic(SimTime period, Action action) {
  LAGOVER_EXPECTS(period > 0.0);
  LAGOVER_EXPECTS(static_cast<bool>(action));
  return arm(now_ + period, period, std::move(action));
}

EventId Simulator::arm(SimTime when, SimTime period, Action action) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    LAGOVER_ASSERT(slots_.size() < kSlotMask);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.period = period;
  ++live_;
  push(Entry{time_bits(when), next_seq_++, slot, s.gen});
  return make_id(slot, s.gen);
}

void Simulator::release(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action = nullptr;
  ++s.gen;  // its id and any heap entry for it go stale
  --live_;
  free_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t slot = (id & kSlotMask) - 1;  // id 0 wraps: unknown
  if (slot >= slots_.size()) return false;
  if (slots_[slot].gen != static_cast<std::uint32_t>(id >> 32)) return false;
  release(static_cast<std::uint32_t>(slot));
  return true;
}

bool Simulator::step(SimTime horizon) {
  LAGOVER_EXPECTS(!firing_);
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (slots_[top.slot].gen != top.gen) {  // cancelled
      pop();
      continue;
    }
    const SimTime when = std::bit_cast<SimTime>(top.time_bits);
    if (when > horizon) return false;
    pop();
    now_ = when;
    ++executed_;
    firing_ = true;
    // The action runs from a local: it may schedule events, and slab
    // growth must never move a running callable.
    Slot& slot = slots_[top.slot];
    if (slot.period > 0.0) {
      // Re-arm before firing; the action may cancel its own timer.
      push(Entry{time_bits(now_ + slot.period), next_seq_++, top.slot,
                 top.gen});
      Action action = std::move(slot.action);
      action();
      Slot& after = slots_[top.slot];
      if (after.gen == top.gen) after.action = std::move(action);
    } else {
      Action action = std::move(slot.action);
      release(top.slot);
      action();
    }
    firing_ = false;
    return true;
  }
  return false;
}

std::uint64_t Simulator::run_until(SimTime horizon) {
  std::uint64_t fired = 0;
  while (step(horizon)) ++fired;
  // Advance the clock to the horizon so callers' time arithmetic stays
  // simple even when the last event fell short of it.
  if (now_ < horizon) now_ = horizon;
  return fired;
}

std::uint64_t Simulator::run() {
  std::uint64_t fired = 0;
  while (step(std::numeric_limits<SimTime>::infinity())) ++fired;
  return fired;
}

void Simulator::push(Entry entry) {
  const OrderKey key = order_key(entry);
  std::size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (key >= order_key(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void Simulator::pop() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  const OrderKey last_key = order_key(last);
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t best = first;
    OrderKey best_key = order_key(heap_[first]);
    for (std::size_t child = first + 1; child < end; ++child) {
      const OrderKey key = order_key(heap_[child]);
      const bool earlier = key < best_key;
      best = earlier ? child : best;
      best_key = earlier ? key : best_key;
    }
    if (best_key >= last_key) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

}  // namespace lagover
