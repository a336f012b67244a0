// Discrete-event simulation core.
//
// The GreenGPU platform is modelled as a discrete-event system: kernel
// completions, DVFS controller invocations, power-meter samples and division
// decisions are all events on a single queue.  The queue provides stable FIFO
// ordering for events scheduled at the same timestamp and cheap cancellation
// (needed when a frequency change reschedules an in-flight kernel completion).
//
// This is the simulator's hottest path, so it avoids per-event allocation:
// callbacks are stored inline (InlineAction) and handle state lives in a
// pooled slab of recycled slots instead of one shared_ptr per event.
// Cancellation stays lazy, but when cancelled entries outnumber live ones
// the heap is compacted in one pass — DVFS-driven rescheduling cancels
// constantly, and without compaction long runs drag dead entries through
// every sift.
//
// Periodic controller ticks (the CPU governor, the GPU scaler, the trace
// recorder) dominate the event count, so they bypass the heap: a recurring
// timer sits in a small lane beside it and is re-keyed in place each time
// it fires (see schedule_every()).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/inline_function.h"
#include "src/common/thread_checker.h"
#include "src/common/units.h"

namespace gg::common {
class SnapshotWriter;
class SnapshotReader;
}  // namespace gg::common

namespace gg::sim {

namespace detail {

/// Recycled per-event handle state.  A slot stays allocated while the heap
/// entry (or timer-lane entry) exists or any EventHandle still points at
/// it, so outcome flags survive exactly as long as someone can ask about
/// them.
struct EventSlab {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t handle_refs{0};
    std::uint32_t next_free{kNone};
    bool in_heap{false};
    bool in_lane{false};
    bool cancelled{false};
    bool fired{false};
  };

  std::vector<Slot> slots;
  std::uint32_t free_head{kNone};
  /// Cancelled entries still sitting in the heap (drives compaction).
  std::size_t cancelled_in_heap{0};
  /// Cancelled timers still holding their lane entry.
  std::size_t cancelled_in_lane{0};

  GG_HOT std::uint32_t acquire() {
    if (free_head == kNone) {
      // GG_LINT_ALLOW(hot-alloc): slab grows amortized to the run's peak
      // in-flight event count, then recycles slots forever.
      slots.push_back(Slot{0, kNone, true, false, false, false});
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t idx = free_head;
    Slot& s = slots[idx];
    free_head = s.next_free;
    s = Slot{0, kNone, true, false, false, false};
    return idx;
  }

  void release_if_unused(std::uint32_t idx) {
    Slot& s = slots[idx];
    if (s.handle_refs == 0 && !s.in_heap && !s.in_lane) {
      s.next_free = free_head;
      free_head = idx;
    }
  }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation.  Copies share state.
/// A handle from schedule_every() stays pending() until cancelled and never
/// reports fired(): a recurring timer has no last firing.
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other) : slab_(other.slab_), idx_(other.idx_) {
    if (slab_) ++slab_->slots[idx_].handle_refs;
  }

  EventHandle(EventHandle&& other) noexcept
      : slab_(std::move(other.slab_)), idx_(other.idx_) {
    other.idx_ = detail::EventSlab::kNone;
  }

  EventHandle& operator=(const EventHandle& other) {
    if (this != &other) {
      EventHandle copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      detach();
      slab_ = std::move(other.slab_);
      idx_ = other.idx_;
      other.idx_ = detail::EventSlab::kNone;
    }
    return *this;
  }

  ~EventHandle() { detach(); }

  /// Cancel the event if it has not fired yet.  Safe to call repeatedly and
  /// on default-constructed handles.
  void cancel() {
    if (!slab_) return;
    auto& s = slab_->slots[idx_];
    if (s.fired || s.cancelled) return;
    s.cancelled = true;
    if (s.in_heap) {
      ++slab_->cancelled_in_heap;
    } else if (s.in_lane) {
      ++slab_->cancelled_in_lane;
    }
  }

  [[nodiscard]] bool valid() const { return slab_ != nullptr; }
  [[nodiscard]] bool cancelled() const {
    return slab_ && slab_->slots[idx_].cancelled;
  }
  [[nodiscard]] bool fired() const { return slab_ && slab_->slots[idx_].fired; }
  [[nodiscard]] bool pending() const {
    if (!slab_) return false;
    const auto& s = slab_->slots[idx_];
    return !s.fired && !s.cancelled;
  }

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventSlab> slab, std::uint32_t idx)
      : slab_(std::move(slab)), idx_(idx) {
    ++slab_->slots[idx_].handle_refs;
  }

  void detach() {
    if (!slab_) return;
    auto& s = slab_->slots[idx_];
    --s.handle_refs;
    slab_->release_if_unused(idx_);
    slab_.reset();
    idx_ = detail::EventSlab::kNone;
  }

  std::shared_ptr<detail::EventSlab> slab_;
  std::uint32_t idx_{detail::EventSlab::kNone};
};

/// Min-heap event queue with deterministic same-time ordering (by insertion
/// sequence number).
class EventQueue {
 public:
  using Action = InlineAction<40>;

  /// Current simulated time.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `action` at absolute time `when` (must be >= now()).
  EventHandle schedule_at(Seconds when, Action action);

  /// Schedule `action` `delay` from now (delay must be >= 0).
  EventHandle schedule_in(Seconds delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Fire `action` at `first` (must be >= now()) and then every `period`
  /// (must be > 0) until the returned handle is cancelled — from outside or
  /// from inside the action itself.  Equivalent, firing for firing, to the
  /// self-rescheduling chain
  ///
  ///     h = schedule_at(first, [&] { action(); h = schedule_in(period, ...); });
  ///
  /// including its ordering against other events: a tick at time t keys as
  /// (t, seq) exactly like a heap entry, the next instant is computed as
  /// fire time + period, and the next sequence number is taken after the
  /// action returns.  Unlike the chain, a tick costs no heap operation, slab
  /// slot, handle copy or action move.  The handle stays pending() (and
  /// counts in pending_count()) until cancelled; fired() is never true.
  EventHandle schedule_every(Seconds first, Seconds period, Action action);

  /// Run events with timestamp <= `until`, then advance the clock to `until`.
  void run_until(Seconds until);

  /// Run until the queue is empty (cancelled events do not keep it alive;
  /// a live recurring timer does, forever).
  void run_until_empty();

  /// Fire exactly one event if any is pending; returns false if none.
  bool step();

  [[nodiscard]] bool empty() const;
  /// Live (un-cancelled, un-fired) events, recurring timers included.  O(1).
  [[nodiscard]] std::size_t pending_count() const {
    return heap_.size() - slab_->cancelled_in_heap + timers_in_lane_ -
           slab_->cancelled_in_lane;
  }
  /// Heap entries including lazily-deleted cancelled ones (lets tests and
  /// benchmarks observe compaction).
  [[nodiscard]] std::size_t queued_count() const { return heap_.size(); }

  /// Total events fired, every timer tick included (for tests and
  /// microbenchmarks).
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }
  /// Times the heap was rebuilt to shed cancelled entries.
  [[nodiscard]] std::uint64_t compaction_count() const { return compactions_; }

  /// Serialize virtual time and counters.  Pending events are NOT captured
  /// (their callbacks are arbitrary closures); checkpoints are taken at
  /// quiescent points where the queue is drained, and load() enforces that.
  void save(common::SnapshotWriter& w) const;
  /// Restore clock/counters into an EMPTY queue (throws std::logic_error
  /// otherwise) so resumed runs schedule against the checkpointed clock.
  void load(common::SnapshotReader& r);

 private:
  struct Entry {
    Seconds when;
    std::uint64_t seq;
    Action action;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// A recurring timer: keyed like an Entry, re-keyed in place per tick.
  struct Timer {
    Seconds when;
    std::uint64_t seq;
    Seconds period;
    Action action;
    /// Slab slot of the handle; kNone while the lane entry is free.
    std::uint32_t slot;
    /// Set while the action runs: the entry is neither due nor reusable.
    bool firing;
  };
  /// The heap's (when, seq) order, across timers and heap entries.
  template <typename A, typename B>
  static bool fires_before(const A& a, const B& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Below this size a full rebuild costs more than it saves.
  static constexpr std::size_t kCompactionMinSize = 64;

  /// Pop cancelled entries off the top so empty()/peek logic sees live
  /// events, and rebuild the heap outright once cancelled entries are the
  /// majority.
  void drop_cancelled() const;
  void compact() const;
  void retire_entry(const Entry& e) const;

  /// Earliest live timer, not counting one whose action is running;
  /// retires cancelled timers on the way.  Null if none.
  Timer* next_timer();
  void retire_timer(Timer& t);
  void fire_timer(Timer& t);

  mutable std::vector<Entry> heap_;  // binary heap ordered by Later
  /// Recurring-timer lane.  A deque so adding a timer from inside a running
  /// action never moves that action; free entries (slot == kNone) are
  /// reused by schedule_every().
  std::deque<Timer> timers_;
  /// Lane entries holding a slot, cancelled-but-unretired ones included.
  std::size_t timers_in_lane_{0};

  /// The queue is single-owner by contract: each simulation (campaign cell,
  /// test, bench) drives its own queue on one thread.  Armed in debug/TSan
  /// builds; compiles away in release.
  common::ThreadChecker owner_;
  std::shared_ptr<detail::EventSlab> slab_{std::make_shared<detail::EventSlab>()};
  Seconds now_{0.0};
  std::uint64_t next_seq_{0};
  std::uint64_t fired_{0};
  mutable std::uint64_t compactions_{0};
};

}  // namespace gg::sim
