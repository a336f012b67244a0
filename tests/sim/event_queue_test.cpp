#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"

namespace gg::sim {
namespace {

using namespace gg::literals;

TEST(EventQueue, StartsAtTimeZeroEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0_s);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3_s, [&] { order.push_back(3); });
  q.schedule_at(1_s, [&] { order.push_back(1); });
  q.schedule_at(2_s, [&] { order.push_back(2); });
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3_s);
}

TEST(EventQueue, SameTimeFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1_s, [&order, i] { order.push_back(i); });
  }
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  q.schedule_at(2_s, [] {});
  q.run_until(2_s);
  bool fired = false;
  q.schedule_in(3_s, [&] { fired = true; });
  q.run_until(5_s);
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 5_s);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(10_s);
  EXPECT_EQ(q.now(), 10_s);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5_s, [&] { ++fired; });
  q.schedule_at(5.0001_s, [&] { ++fired; });
  q.run_until(5_s);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 5_s);
}

TEST(EventQueue, PastScheduleThrows) {
  EventQueue q;
  q.run_until(5_s);
  EXPECT_THROW(q.schedule_at(4_s, [] {}), std::invalid_argument);
}

TEST(EventQueue, PastRunUntilThrows) {
  EventQueue q;
  q.run_until(5_s);
  EXPECT_THROW(q.run_until(4_s), std::invalid_argument);
}

TEST(EventQueue, EmptyActionThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1_s, EventQueue::Action{}), std::invalid_argument);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule_at(1_s, [&] { fired = true; });
  h.cancel();
  q.run_until_empty();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(h.cancelled());
  EXPECT_FALSE(h.fired());
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  EventHandle h = q.schedule_at(1_s, [] {});
  q.run_until_empty();
  EXPECT_TRUE(h.fired());
  h.cancel();  // no-op after firing
  EXPECT_TRUE(h.fired());
}

TEST(EventQueue, DefaultHandleIsInvalid) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  h.cancel();  // must not crash
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  EventQueue q;
  q.schedule_at(1_s, [] {});
  EventHandle h = q.schedule_at(2_s, [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  h.cancel();
  EXPECT_EQ(q.pending_count(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(q.now().get());
    if (times.size() < 3) q.schedule_in(1_s, chain);
  };
  q.schedule_at(1_s, chain);
  q.run_until_empty();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, EventCanCancelLaterEvent) {
  EventQueue q;
  bool second = false;
  EventHandle h = q.schedule_at(2_s, [&] { second = true; });
  q.schedule_at(1_s, [&] { h.cancel(); });
  q.run_until_empty();
  EXPECT_FALSE(second);
}

TEST(EventQueue, FiredCountCountsOnlyFired) {
  EventQueue q;
  q.schedule_at(1_s, [] {});
  EventHandle h = q.schedule_at(2_s, [] {});
  h.cancel();
  q.run_until_empty();
  EXPECT_EQ(q.fired_count(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenOnlyCancelled) {
  EventQueue q;
  EventHandle h = q.schedule_at(1_s, [] {});
  h.cancel();
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CompactionRebuildsWhenCancelledAreTheMajority) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 128; ++i) {
    handles.push_back(q.schedule_at(Seconds{1.0 + i}, [] {}));
  }
  // Cancel a majority, but keep the earliest event live so the lazy
  // pop-from-the-top path cannot shed them one by one.
  for (int i = 1; i <= 70; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(q.queued_count(), 128u);
  EXPECT_EQ(q.pending_count(), 58u);
  EXPECT_EQ(q.compaction_count(), 0u);

  EXPECT_FALSE(q.empty());  // majority cancelled -> one-pass rebuild
  EXPECT_EQ(q.compaction_count(), 1u);
  EXPECT_EQ(q.queued_count(), 58u);
  EXPECT_EQ(q.pending_count(), 58u);

  q.run_until_empty();
  EXPECT_EQ(q.fired_count(), 58u);
}

TEST(EventQueue, SmallQueuesAreNeverCompacted) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(q.schedule_at(Seconds{1.0 + i}, [] {}));
  }
  for (int i = 1; i <= 20; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.compaction_count(), 0u);  // below the rebuild threshold
  EXPECT_EQ(q.queued_count(), 32u);     // lazy deletion still in place
  q.run_until_empty();
  EXPECT_EQ(q.fired_count(), 12u);
  EXPECT_EQ(q.compaction_count(), 0u);
}

TEST(EventQueue, CompactionPreservesFifoOrderAndOutcomes) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> cancelled;
  std::vector<EventHandle> live;
  for (int i = 0; i < 100; ++i) {
    // Everything at the same timestamp: FIFO order must survive the rebuild.
    EventHandle h = q.schedule_at(1_s, [&order, i] { order.push_back(i); });
    if (i % 3 != 0) {
      cancelled.push_back(std::move(h));
    } else {
      live.push_back(std::move(h));
    }
  }
  for (auto& h : cancelled) h.cancel();
  q.run_until_empty();
  EXPECT_GE(q.compaction_count(), 1u);
  ASSERT_EQ(order.size(), 34u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_LT(order[i - 1], order[i]);
  for (const auto& h : live) EXPECT_TRUE(h.fired());
  for (const auto& h : cancelled) {
    EXPECT_TRUE(h.cancelled());
    EXPECT_FALSE(h.fired());
  }
}

TEST(EventQueue, HandlesOutliveTheQueue) {
  EventHandle fired, dropped;
  {
    EventQueue q;
    fired = q.schedule_at(1_s, [] {});
    dropped = q.schedule_at(2_s, [] {});
    dropped.cancel();
    q.run_until_empty();
  }
  EXPECT_TRUE(fired.fired());
  EXPECT_FALSE(fired.cancelled());
  EXPECT_TRUE(dropped.cancelled());
  EXPECT_FALSE(dropped.fired());
}

TEST(EventQueue, RetainedHandlesSurviveSlotRecycling) {
  EventQueue q;
  std::vector<EventHandle> kept;
  for (int round = 0; round < 50; ++round) {
    // Most handles are dropped immediately, so their slots recycle across
    // rounds; the kept ones must keep reporting their own outcome.
    for (int i = 0; i < 20; ++i) {
      EventHandle h = q.schedule_in(Seconds{1.0 + i}, [] {});
      if (i == 0) kept.push_back(std::move(h));
    }
    q.run_until_empty();
  }
  ASSERT_EQ(kept.size(), 50u);
  for (const auto& h : kept) {
    EXPECT_TRUE(h.fired());
    EXPECT_FALSE(h.cancelled());
  }
}

TEST(EventQueue, CancelChurnTriggersCompaction) {
  // DVFS-style rescheduling: a standing population is repeatedly cancelled
  // and replaced, so cancelled entries outgrow live ones between compactions.
  EventQueue q;
  constexpr std::size_t kPending = 100;
  std::vector<EventHandle> handles(kPending);
  double base = 1.0;
  for (std::size_t i = 0; i < kPending; ++i) {
    handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
  }
  for (int round = 0; round < 8; ++round) {
    base += 1.0;
    for (std::size_t i = 0; i < kPending; ++i) {
      handles[i].cancel();
      handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
    }
    EXPECT_EQ(q.pending_count(), kPending);
  }
  q.run_until_empty();
  EXPECT_EQ(q.fired_count(), kPending);
  EXPECT_GE(q.compaction_count(), 1u);
  for (const auto& h : handles) EXPECT_TRUE(h.fired());
}

TEST(EventQueue, MoveOnlyCaptureFires) {
  // unique_ptr capture: inline storage, relocated via move-construction.
  EventQueue q;
  auto value = std::make_unique<int>(42);
  int seen = 0;
  q.schedule_at(1_s, [p = std::move(value), &seen] { seen = *p; });
  q.run_until_empty();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueue, OversizedCaptureFallsBackToHeapBox) {
  // A capture larger than the inline buffer must still work (boxed path).
  EventQueue q;
  struct Big {
    double payload[16];
  };
  Big big{};
  big.payload[0] = 1.5;
  big.payload[15] = 2.5;
  double sum = 0.0;
  q.schedule_at(1_s, [big, &sum] { sum = big.payload[0] + big.payload[15]; });
  q.run_until_empty();
  EXPECT_EQ(sum, 4.0);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<double> times;
  for (int i = 1000; i >= 1; --i) {
    q.schedule_at(Seconds{static_cast<double>(i)}, [&times, &q] {
      times.push_back(q.now().get());
    });
  }
  q.run_until_empty();
  ASSERT_EQ(times.size(), 1000u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LT(times[i - 1], times[i]);
}

TEST(EventQueue, SnapshotRoundTripsClockAndCounters) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1_s, [&fired] { ++fired; });
  q.schedule_at(2_s, [&fired] { ++fired; });
  q.run_until(5_s);
  ASSERT_EQ(fired, 2);

  common::SnapshotWriter w;
  q.save(w);

  EventQueue restored;
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  restored.load(r);
  EXPECT_EQ(restored.now(), q.now());
  EXPECT_EQ(restored.fired_count(), q.fired_count());
  EXPECT_EQ(restored.compaction_count(), q.compaction_count());
  // The restored clock gates scheduling exactly like the original's.
  EXPECT_THROW(restored.schedule_at(1_s, [] {}), std::invalid_argument);
  bool ran = false;
  restored.schedule_at(6_s, [&ran] { ran = true; });
  restored.run_until(6_s);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, SnapshotLoadRequiresEmptyQueue) {
  EventQueue q;
  q.run_until(3_s);
  common::SnapshotWriter w;
  q.save(w);

  EventQueue busy;
  busy.schedule_at(1_s, [] {});
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(busy.load(r), std::logic_error);
}

// --- Recurring timers (schedule_every) -------------------------------------

/// (time, id) per firing, plus (-1, pending_count) probes between runs.
using FiringLog = std::vector<std::pair<double, std::uint64_t>>;

/// A seeded mixed schedule — recurring ticks on dyadic periods (so ticks of
/// different timers collide exactly), one-shots landing exactly on tick
/// instants, cancellations from actions, a timer started mid-run — driven
/// either through schedule_every() or through the self-rescheduling chain
/// idiom it replaces, which stays here as the oracle.
FiringLog run_mixed_schedule(std::uint64_t seed, bool use_timers) {
  EventQueue q;
  Rng rng(seed);
  FiringLog log;
  constexpr std::size_t kTimers = 5;  // the last one starts mid-run
  const double periods[kTimers] = {0.25, 0.5, 0.125, 0.375, 0.25};
  std::vector<EventHandle> handles(kTimers);
  std::function<void(std::size_t)> tick;

  std::function<void(std::size_t, Seconds)> arm_chain = [&](std::size_t k, Seconds when) {
    handles[k] = q.schedule_at(when, [&, k] {
      tick(k);
      arm_chain(k, q.now() + Seconds{periods[k]});
    });
  };
  auto start = [&](std::size_t k, Seconds first) {
    if (use_timers) {
      handles[k] = q.schedule_every(first, Seconds{periods[k]}, [&tick, k] { tick(k); });
    } else {
      arm_chain(k, first);
    }
  };
  auto one_shot = [&](Seconds when, std::uint64_t id) {
    q.schedule_at(when, [&, id] {
      log.emplace_back(q.now().get(), id);
      if (rng.uniform() < 0.02) handles[rng.uniform_int(kTimers - 1)].cancel();
    });
  };
  tick = [&](std::size_t k) {
    log.emplace_back(q.now().get(), k);
    // Lands exactly on this timer's next instant: FIFO puts it first.
    if (rng.uniform() < 0.3) one_shot(q.now() + Seconds{periods[k]}, 100 + k);
    // Lands on the 1/8 s grid every timer ticks on.
    if (rng.uniform() < 0.2) {
      one_shot(q.now() + Seconds{0.125 * static_cast<double>(rng.uniform_int(6))}, 200);
    }
    if (rng.uniform() < 0.03) {
      const std::size_t other = rng.uniform_int(kTimers - 1);
      if (other != k) handles[other].cancel();
    }
    if (k == 0 && !handles[kTimers - 1].valid() && rng.uniform() < 0.1) {
      start(kTimers - 1, q.now() + Seconds{0.125});
    }
  };

  for (std::size_t k = 0; k + 1 < kTimers; ++k) {
    start(k, Seconds{0.125 * static_cast<double>(rng.uniform_int(8))});
  }
  for (int i = 0; i < 40; ++i) {
    one_shot(Seconds{0.125 * static_cast<double>(rng.uniform_int(160))}, 300);
  }
  for (int round = 1; round <= 40; ++round) {
    const Seconds target{0.5 * round};
    q.run_until(target < q.now() ? q.now() : target);
    log.emplace_back(-1.0, q.pending_count());
    for (int i = 0; i < 3; ++i) q.step();
  }
  log.emplace_back(-2.0, q.fired_count());
  for (auto& h : handles) h.cancel();
  q.run_until_empty();
  log.emplace_back(-3.0, q.fired_count());
  return log;
}

TEST(EventQueueTimer, MatchesTheSelfReschedulingChainFiringForFiring) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FiringLog timers = run_mixed_schedule(seed, true);
    const FiringLog chain = run_mixed_schedule(seed, false);
    ASSERT_GT(timers.size(), 200u) << "seed " << seed;
    EXPECT_EQ(timers, chain) << "seed " << seed;
  }
}

TEST(EventQueueTimer, FiresEveryPeriodAndCountsEveryTick) {
  EventQueue q;
  std::vector<double> times;
  EventHandle h = q.schedule_every(1_s, 0.5_s, [&] { times.push_back(q.now().get()); });
  q.run_until(3_s);
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5, 2.0, 2.5, 3.0}));
  EXPECT_EQ(q.fired_count(), 5u);
  EXPECT_TRUE(h.pending());
  EXPECT_FALSE(h.fired());
  h.cancel();
  EXPECT_TRUE(h.cancelled());
  EXPECT_FALSE(h.pending());
  q.run_until(10_s);
  EXPECT_EQ(times.size(), 5u);
}

TEST(EventQueueTimer, CancellingItsOwnHandleFromTheActionStopsIt) {
  EventQueue q;
  int fires = 0;
  EventHandle h;
  h = q.schedule_every(1_s, 1_s, [&] {
    if (++fires == 3) h.cancel();
  });
  q.run_until(10_s);
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(h.cancelled());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(EventQueueTimer, AnActionCanCancelAnotherTimer) {
  EventQueue q;
  int a = 0;
  int b = 0;
  EventHandle hb = q.schedule_every(1_s, 1_s, [&] { ++b; });
  EventHandle ha = q.schedule_every(1.5_s, 1_s, [&] {
    if (++a == 2) hb.cancel();
  });
  q.run_until(6_s);
  EXPECT_EQ(b, 2);  // 1 s, 2 s; cancelled at 2.5 s before its 3 s tick
  EXPECT_EQ(a, 5);
  EXPECT_EQ(q.pending_count(), 1u);
  ha.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTimer, AddingTimersFromAnActionDoesNotMoveIt) {
  // The lane must be stable storage: were the running action relocated by
  // the lane growing underneath it, reading its own captures afterwards
  // would be a use-after-free (caught under GREENGPU_SANITIZE=address).
  EventQueue q;
  std::vector<EventHandle> added;
  int fires = 0;
  const std::uint64_t marker = 0x5eedf00d;
  EventHandle h = q.schedule_every(1_s, 1_s, [&q, &added, &fires, marker] {
    for (int i = 0; i < 64; ++i) {
      added.push_back(q.schedule_every(q.now() + 0.5_s, 1_s, [] {}));
    }
    EXPECT_EQ(marker, 0x5eedf00du);
    ++fires;
  });
  q.run_until(2_s);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(q.pending_count(), 129u);
  // Cancelled entries are recycled: re-adding reuses them.
  for (auto& a : added) a.cancel();
  EXPECT_EQ(q.pending_count(), 1u);
  q.run_until(3_s);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(q.fired_count(), 2u + 64u + 1u);
  h.cancel();
}

TEST(EventQueueTimer, CountsInPendingEmptyAndTheInclusiveRunUntilBoundary) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  int fires = 0;
  EventHandle h = q.schedule_every(2_s, 2_s, [&] { ++fires; });
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending_count(), 1u);
  q.schedule_at(1_s, [] {});
  EXPECT_EQ(q.pending_count(), 2u);
  q.run_until(2_s);  // inclusive: the tick at exactly 2 s fires
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(q.now(), 2_s);
  q.run_until(3.999_s);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(q.pending_count(), 1u);
  h.cancel();
  EXPECT_EQ(q.pending_count(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueueTimer, HandleOutlivesTheQueue) {
  EventHandle survivor;
  int fires = 0;
  {
    EventQueue q;
    survivor = q.schedule_every(1_s, 1_s, [&fires] { ++fires; });
    q.run_until(2_s);
  }
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(survivor.valid());
  EXPECT_TRUE(survivor.pending());
  survivor.cancel();  // must not touch the dead queue
  EXPECT_TRUE(survivor.cancelled());
}

TEST(EventQueueTimer, LoadThrowsWhileATimerIsLive) {
  EventQueue q;
  q.run_until(3_s);
  common::SnapshotWriter w;
  q.save(w);

  EventQueue busy;
  EventHandle h = busy.schedule_every(1_s, 1_s, [] {});
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(busy.load(r), std::logic_error);
  h.cancel();
  common::SnapshotReader again = common::SnapshotReader::from_payload(w.payload());
  busy.load(again);
  EXPECT_EQ(busy.now(), 3_s);
}

TEST(EventQueueTimer, RejectsBadArguments) {
  EventQueue q;
  q.run_until(5_s);
  EXPECT_THROW(q.schedule_every(4_s, 1_s, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_every(6_s, 0_s, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_every(6_s, Seconds{-1.0}, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_every(6_s, 1_s, EventQueue::Action{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

// --- Runs of ticks (advance_current_timer) ---------------------------------

/// A seeded schedule of recurring timers whose tick body touches the queue
/// (schedules a one-shot on some timer's future instant, cancels a timer)
/// on some ticks and only logs on the rest.  With `spans` each action
/// advances through every tick that leaves the queue untouched; otherwise
/// it runs one tick per dispatch — the oracle.
struct SpanLog {
  FiringLog firings;
  std::uint64_t bodies{0};
};

SpanLog run_span_schedule(std::uint64_t seed, bool spans) {
  EventQueue q;
  Rng rng(seed);
  SpanLog out;
  FiringLog& log = out.firings;
  constexpr std::size_t kTimers = 3;
  const double periods[kTimers] = {0.125, 0.375, 0.1};
  const double firsts[kTimers] = {0.125, 0.25, 0.1};
  std::vector<EventHandle> handles(kTimers);
  std::uint64_t one_shots_fired = 0;

  // Timer k's tick instants, accumulated exactly as the lane does.
  auto instant_after = [&](std::size_t k, Seconds t) {
    Seconds w{firsts[k]};
    while (w <= t) w = w + Seconds{periods[k]};
    return w;
  };
  auto one_shot = [&](Seconds when, std::uint64_t id) {
    q.schedule_at(when, [&, id] {
      log.emplace_back(q.now().get(), id);
      ++one_shots_fired;
    });
  };
  // True when the tick touched the queue (a span must end there).
  auto tick = [&](std::size_t k) {
    log.emplace_back(q.now().get(), k);
    const double r = rng.uniform();
    if (r < 0.04) {
      const Seconds after = q.now() + Seconds{rng.uniform(0.0, 2.0)};
      one_shot(instant_after(rng.uniform_int(kTimers), after), 100 + k);
      return true;
    }
    if (r < 0.05) {
      handles[rng.uniform_int(kTimers)].cancel();
      return true;
    }
    return false;
  };
  for (std::size_t k = 0; k < kTimers; ++k) {
    handles[k] = q.schedule_every(Seconds{firsts[k]}, Seconds{periods[k]},
                                  [&tick, &q, spans, k] {
                                    while (!tick(k) && spans && q.advance_current_timer()) {
                                    }
                                  });
  }
  for (int i = 0; i < 40; ++i) {
    one_shot(Seconds{0.125 * static_cast<double>(rng.uniform_int(400))}, 300);
  }
  for (int round = 0; round < 80; ++round) {
    const double pick = rng.uniform();
    if (pick < 0.4) {
      q.run_until(q.now() + Seconds{rng.uniform(0.0, 1.5)});
    } else if (pick < 0.7) {
      q.run_until(instant_after(rng.uniform_int(kTimers), q.now()));
    } else {
      const std::uint64_t seen = one_shots_fired;
      // Quiescent ticks never change the condition, so a step() that
      // takes a whole span stops where tick-by-tick stepping would.
      while (one_shots_fired == seen && q.step()) {
      }
    }
    log.emplace_back(-1.0, q.fired_count());
    log.emplace_back(-2.0, q.pending_count());
  }
  for (auto& h : handles) h.cancel();
  q.run_until_empty();
  log.emplace_back(-3.0, q.fired_count());
  out.bodies = q.timer_bodies_run();
  return out;
}

TEST(EventQueueSpan, MatchesPerTickTimersFiringForFiring) {
  std::uint64_t span_bodies = 0;
  std::uint64_t plain_bodies = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const SpanLog spans = run_span_schedule(seed, true);
    const SpanLog plain = run_span_schedule(seed, false);
    ASSERT_GT(plain.firings.size(), 300u) << "seed " << seed;
    EXPECT_EQ(spans.firings, plain.firings) << "seed " << seed;
    span_bodies += spans.bodies;
    plain_bodies += plain.bodies;
  }
  EXPECT_LT(span_bodies * 3, plain_bodies * 2);
}

TEST(EventQueueSpan, RunsToTheFirstForeignEventAndCountsOneBody) {
  EventQueue q;
  std::vector<double> ticks;
  EventHandle h = q.schedule_every(1_s, 1_s, [&] {
    do {
      ticks.push_back(q.now().get());
    } while (q.advance_current_timer());
  });
  // A foreign event at exactly 5 s fires before the tick at 5 s: the tick
  // re-keyed there holds the newest sequence number.
  std::vector<double> foreign;
  q.schedule_at(5_s, [&] { foreign.push_back(q.now().get()); });
  ASSERT_TRUE(q.step());
  EXPECT_EQ(ticks, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(q.fired_count(), 4u);
  EXPECT_EQ(q.timer_bodies_run(), 1u);
  EXPECT_EQ(q.now(), 4_s);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(foreign, (std::vector<double>{5.0}));
  // Nothing else pending: step() takes a single tick.
  ASSERT_TRUE(q.step());
  EXPECT_EQ(ticks.size(), 5u);
  EXPECT_EQ(q.timer_bodies_run(), 2u);
  // run_until() bounds the span inclusively and leaves the next tick keyed.
  q.run_until(Seconds{8.5});
  EXPECT_EQ(ticks.size(), 8u);
  EXPECT_EQ(q.timer_bodies_run(), 3u);
  EXPECT_EQ(q.fired_count(), 9u);
  EXPECT_EQ(q.now(), Seconds{8.5});
  // A limit exactly on a tick instant: the span takes that tick too.
  q.run_until(11_s);
  EXPECT_EQ(ticks.back(), 11.0);
  EXPECT_EQ(q.timer_bodies_run(), 4u);
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueSpan, AnotherTimerBoundsTheSpan) {
  EventQueue q;
  std::vector<std::pair<double, int>> log;
  EventHandle a = q.schedule_every(0.25_s, 0.25_s, [&] {
    do {
      log.emplace_back(q.now().get(), 0);
    } while (q.advance_current_timer());
  });
  EventHandle b = q.schedule_every(1_s, 1_s, [&] { log.emplace_back(q.now().get(), 1); });
  q.run_until(2_s);
  // At 1 s and 2 s the advancing timer registered first, but its re-keyed
  // ticks hold newer sequence numbers than the other timer's: that one
  // fires first, exactly as with per-tick dispatch.
  const std::vector<std::pair<double, int>> expected = {
      {0.25, 0}, {0.5, 0}, {0.75, 0}, {1.0, 1}, {1.0, 0}, {1.25, 0}, {1.5, 0},
      {1.75, 0}, {2.0, 1}, {2.0, 0}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(q.fired_count(), 10u);
  EXPECT_EQ(q.timer_bodies_run(), 5u);  // spans [0.25, 0.75], [1, 1.75], [2] + 2 plain
  a.cancel();
  b.cancel();
}

TEST(EventQueueSpan, OnlyARunningTimerActionAdvances) {
  EventQueue q;
  int ticks = 0;
  EventHandle h = q.schedule_every(1_s, 1_s, [&] { ++ticks; });
  q.schedule_at(Seconds{0.5}, [&] { EXPECT_FALSE(q.advance_current_timer()); });
  EXPECT_FALSE(q.advance_current_timer());
  q.run_until(Seconds{0.5});
  EXPECT_EQ(q.fired_count(), 1u);
  EXPECT_EQ(q.now(), Seconds{0.5});
  // After a timer action returned, nothing is current any more.
  q.run_until(3_s);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(q.advance_current_timer());
  EXPECT_EQ(q.fired_count(), 4u);
  EXPECT_EQ(q.timer_bodies_run(), 3u);
  EXPECT_EQ(q.now(), 3_s);
  h.cancel();
}

}  // namespace
}  // namespace gg::sim
