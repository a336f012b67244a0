#include "src/sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/snapshot.h"

namespace gg::sim {

GG_HOT EventHandle EventQueue::schedule_at(Seconds when, Action action) {
  owner_.assert_owner("sim::EventQueue");
  if (when < now_) throw std::invalid_argument("EventQueue: schedule in the past");
  if (!action) throw std::invalid_argument("EventQueue: empty action");
  const std::uint32_t slot = slab_->acquire();
  // GG_LINT_ALLOW(hot-alloc): heap storage grows amortized to the run's
  // peak pending-event count; steady-state pushes reuse capacity.
  heap_.push_back(Entry{when, next_seq_++, std::move(action), slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{slab_, slot};
}

EventHandle EventQueue::schedule_every(Seconds first, Seconds period, Action action) {
  owner_.assert_owner("sim::EventQueue");
  if (first < now_) throw std::invalid_argument("EventQueue: schedule in the past");
  if (!(period > Seconds{0.0})) {
    throw std::invalid_argument("EventQueue: timer period must be > 0");
  }
  if (!action) throw std::invalid_argument("EventQueue: empty action");
  const std::uint32_t slot = slab_->acquire();
  auto& s = slab_->slots[slot];
  s.in_heap = false;
  s.in_lane = true;
  Timer* t = nullptr;
  for (Timer& entry : timers_) {
    if (entry.slot == detail::EventSlab::kNone) {
      t = &entry;
      break;
    }
  }
  if (t == nullptr) t = &timers_.emplace_back();
  *t = Timer{first, next_seq_++, period, std::move(action), slot, false};
  ++timers_in_lane_;
  return EventHandle{slab_, slot};
}

void EventQueue::retire_timer(Timer& t) {
  auto& s = slab_->slots[t.slot];
  s.in_lane = false;
  if (s.cancelled) --slab_->cancelled_in_lane;
  slab_->release_if_unused(t.slot);
  t.slot = detail::EventSlab::kNone;
  t.action = Action{};
  --timers_in_lane_;
}

EventQueue::Timer* EventQueue::next_timer() {
  if (timers_in_lane_ == 0) return nullptr;
  Timer* next = nullptr;
  for (Timer& t : timers_) {
    if (t.slot == detail::EventSlab::kNone || t.firing) continue;
    if (slab_->slots[t.slot].cancelled) {
      retire_timer(t);
      continue;
    }
    if (next == nullptr || fires_before(t, *next)) next = &t;
  }
  return next;
}

void EventQueue::bound_span() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  bool foreign = !heap_.empty();
  Seconds first_foreign = foreign ? heap_.front().when : Seconds{kInf};
  for (const Timer& o : timers_) {
    if (o.slot == detail::EventSlab::kNone || o.firing || slab_->slots[o.slot].cancelled) {
      continue;
    }
    foreign = true;
    first_foreign = std::min(first_foreign, o.when);
  }
  span_bounded_ = true;
  if (!foreign) {
    // Nothing else pending: without a run_until() limit, just this tick.
    span_last_ = span_limit_.get() == kInf ? Seconds{-kInf} : span_limit_;
    return;
  }
  // A re-keyed tick loses every tie (its sequence number is the newest), so
  // the last tick that still fires first is strictly before the foreign one.
  span_last_ =
      std::min(span_limit_, Seconds{std::nextafter(first_foreign.get(), -kInf)});
}

// Re-keys the timer in place: no heap operation, slot, handle or action
// move per tick.  The next key is what the equivalent chain would get —
// fire time + period, and a sequence number taken after the action ran.
// The action may already have taken further ticks through
// advance_current_timer(), each re-keyed the same way; the key left here
// follows its last one.
GG_HOT void EventQueue::fire_timer(Timer& t, Seconds limit) {
  now_ = t.when;
  ++fired_;
  ++timer_bodies_;
  t.firing = true;
  firing_ = &t;
  span_limit_ = limit;
  span_bounded_ = false;
  t.action();
  firing_ = nullptr;
  t.firing = false;
  if (slab_->slots[t.slot].cancelled) {
    retire_timer(t);
  } else {
    t.when = t.when + t.period;
    t.seq = next_seq_++;
  }
}

void EventQueue::retire_entry(const Entry& e) const {
  auto& s = slab_->slots[e.slot];
  s.in_heap = false;
  slab_->release_if_unused(e.slot);
}

void EventQueue::compact() const {
  auto dead = [this](const Entry& e) {
    if (!slab_->slots[e.slot].cancelled) return false;
    retire_entry(e);
    return true;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  slab_->cancelled_in_heap = 0;
  ++compactions_;
}

void EventQueue::drop_cancelled() const {
  if (slab_->cancelled_in_heap * 2 > heap_.size() &&
      heap_.size() >= kCompactionMinSize) {
    compact();
    return;
  }
  while (!heap_.empty() && slab_->slots[heap_.front().slot].cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    retire_entry(heap_.back());
    heap_.pop_back();
    --slab_->cancelled_in_heap;
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty() && timers_in_lane_ == slab_->cancelled_in_lane;
}

GG_HOT bool EventQueue::step() {
  return dispatch(Seconds{std::numeric_limits<double>::infinity()});
}

GG_HOT bool EventQueue::dispatch(Seconds limit) {
  owner_.assert_owner("sim::EventQueue");
  drop_cancelled();
  if (Timer* t = next_timer();
      t != nullptr && (heap_.empty() || fires_before(*t, heap_.front()))) {
    fire_timer(*t, limit);
    return true;
  }
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  now_ = e.when;
  auto& s = slab_->slots[e.slot];
  s.fired = true;
  retire_entry(e);
  ++fired_;
  e.action();
  return true;
}

void EventQueue::run_until(Seconds until) {
  if (until < now_) throw std::invalid_argument("EventQueue: run_until in the past");
  for (;;) {
    drop_cancelled();
    const Timer* t = next_timer();
    const bool heap_due = !heap_.empty() && heap_.front().when <= until;
    if (!heap_due && (t == nullptr || t->when > until)) break;
    dispatch(until);
  }
  now_ = until;
}

void EventQueue::run_until_empty() {
  while (step()) {
  }
}

void EventQueue::save(common::SnapshotWriter& w) const {
  w.f64(now_.get());
  w.u64(next_seq_);
  w.u64(fired_);
  w.u64(compactions_);
}

void EventQueue::load(common::SnapshotReader& r) {
  if (!empty()) {
    throw std::logic_error("EventQueue: load() requires an empty queue");
  }
  now_ = Seconds{r.f64()};
  next_seq_ = r.u64();
  fired_ = r.u64();
  compactions_ = r.u64();
}

}  // namespace gg::sim
