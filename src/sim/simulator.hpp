// Discrete-event simulation kernel: a time-ordered event queue with
// stable FIFO ordering for simultaneous events, cancellable handles, and
// periodic timers. This is the substrate for the asynchronous LagOver
// construction engine and the feed-dissemination simulations.
//
// One structure holds the queue: a vector 4-ary heap of small
// {time, seq, slot, generation} entries over a slab of reusable action
// slots. Actions up to EventAction::kInlineBytes live inside their
// slot, so a steady-state schedule/fire cycle allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace lagover {

/// Simulated time in abstract "time units" (the paper's latency unit;
/// a depth-1 node's poll period is 1.0).
using SimTime = double;

/// Identifies a scheduled event so it can be cancelled: the slab slot
/// (plus one, so no id is 0) in the low 32 bits, the slot's generation
/// in the high 32.
using EventId = std::uint64_t;

/// Move-only, type-erased `void()` callable. A nothrow-movable callable
/// of at most kInlineBytes is stored inside the object; larger ones go
/// to the heap. Lambdas, function pointers and std::function convert
/// implicitly; a null pointer or empty std::function gives an empty
/// action.
class EventAction {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventAction() noexcept = default;
  EventAction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventAction> &&
                                        std::is_invocable_v<D&>>>
  EventAction(F&& f) {
    if constexpr (kNullable<D>) {
      if (f == nullptr) return;
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
    }
    ops_ = &kOps<D>;
  }

  EventAction(EventAction&& other) noexcept { take(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

  /// Whether the callable sits in the inline buffer (false when empty).
  bool stored_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys `from`; null when a byte
    /// copy does both (trivially copyable inline callables, and the
    /// pointer of a heap one).
    void (*relocate)(void* to, void* from) noexcept;
    /// Null when there is nothing to destroy.
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kNullable =
      std::is_pointer_v<D> || std::is_same_v<D, std::function<void()>>;

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D& inline_target(void* storage) noexcept {
    return *std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D* heap_target(void* storage) noexcept {
    D* heap = nullptr;
    std::memcpy(&heap, storage, sizeof(heap));
    return heap;
  }

  template <typename D>
  static constexpr Ops make_ops() noexcept {
    if constexpr (kFitsInline<D>) {
      Ops ops{[](void* s) { std::invoke(inline_target<D>(s)); }, nullptr,
              nullptr, true};
      if constexpr (!std::is_trivially_copyable_v<D>)
        ops.relocate = [](void* to, void* from) noexcept {
          D& source = inline_target<D>(from);
          ::new (to) D(std::move(source));
          source.~D();
        };
      if constexpr (!std::is_trivially_destructible_v<D>)
        ops.destroy = [](void* s) noexcept { inline_target<D>(s).~D(); };
      return ops;
    } else {
      return Ops{[](void* s) { std::invoke(*heap_target<D>(s)); }, nullptr,
                 [](void* s) noexcept { delete heap_target<D>(s); }, false};
    }
  }
  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  void take(EventAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr)
      std::memcpy(storage_, other.storage_, kInlineBytes);
    else
      ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Single-threaded discrete-event simulator. Events scheduled for the
/// same timestamp fire in scheduling order (stable), which keeps runs
/// reproducible. Actions may schedule and cancel events, but must not
/// call step()/run()/run_until() themselves, nor throw out of them.
class LAGOVER_THREAD_HOSTILE Simulator {
 public:
  using Action = EventAction;

  SimTime now() const noexcept { return now_; }
  std::uint64_t executed_events() const noexcept { return executed_; }
  std::size_t pending_events() const noexcept { return live_; }

  /// Schedules `action` at absolute time `when` (>= now).
  EventId schedule_at(SimTime when, Action action);

  /// Schedules `action` after a relative delay (>= 0).
  EventId schedule_after(SimTime delay, Action action);

  /// Cancels a pending event; cancelling an already-fired, cancelled or
  /// unknown id is a no-op and returns false. A one-shot cancelling
  /// itself while it runs has already fired.
  bool cancel(EventId id);

  /// Runs events until the queue empties or `horizon` is passed; the
  /// clock ends at min(horizon, last event time). Returns the number of
  /// events executed by this call.
  std::uint64_t run_until(SimTime horizon);

  /// Runs until the queue is empty.
  std::uint64_t run();

  /// Executes exactly one event if any is pending before `horizon`;
  /// returns whether an event fired.
  bool step(SimTime horizon);

  /// Schedules `action` every `period` starting at now + period, until
  /// `cancel` is called on the returned id or the horizon is reached.
  /// The id remains valid across firings, and the action (with any
  /// state it mutates) is kept, not copied, between them.
  EventId schedule_periodic(SimTime period, Action action);

 private:
  struct Entry {
    /// The bits of the firing time: times are >= 0, and the bits of
    /// non-negative doubles order like their values.
    std::uint64_t time_bits;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;  ///< stale once the slot's generation moves on
  };
  struct Slot {
    Action action;
    SimTime period = 0.0;  ///< > 0 for a periodic timer
    std::uint32_t gen = 0;
  };

  EventId arm(SimTime when, SimTime period, Action action);
  void release(std::uint32_t slot) noexcept;
  void push(Entry entry);
  void pop() noexcept;

  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  bool firing_ = false;
  std::vector<Entry> heap_;  // 4-ary min-heap on (when, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slots, reused LIFO
};

}  // namespace lagover
