// Race stress for sim::EventQueue slab reuse under concurrent campaigns.
//
// The queue is single-owner by contract (one simulation, one thread); what
// must hold under concurrency is *isolation*: N queues churning their
// pooled slabs side by side share nothing — no static free list, no global
// sequence counter — so per-queue behaviour is bit-identical to a solo run.
// TSan (GREENGPU_SANITIZE=thread) turns any accidental sharing into a hard
// failure; in debug/TSan builds common::ThreadChecker additionally aborts
// if a queue is ever driven from two threads.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/greengpu/campaign.h"
#include "src/greengpu/policy.h"

namespace gg::sim {
namespace {

/// Deterministic slab-heavy churn: schedule bursts, cancel a comb pattern,
/// reschedule from callbacks, drain; a recurring timer per round is
/// cancelled at its end, so timer-lane entries and their slots recycle too.
/// Returns (fired, compactions) — identical for every isolated queue by
/// construction.
std::pair<std::uint64_t, std::uint64_t> churn(int rounds) {
  EventQueue q;
  for (int round = 0; round < rounds; ++round) {
    EventHandle ticker = q.schedule_every(q.now(), Seconds{0.003}, [&q] {
      if (q.pending_count() < 16) q.schedule_in(Seconds{0.0015}, [] {});
    });
    std::vector<EventHandle> handles;
    for (int e = 0; e < 200; ++e) {
      handles.push_back(q.schedule_in(Seconds{0.001 * (e % 16 + 1)}, [&q] {
        if (q.pending_count() < 8) q.schedule_in(Seconds{0.0001}, [] {});
      }));
    }
    // Cancel a majority so compaction kicks in and slots recycle hard.
    for (std::size_t h = 0; h < handles.size(); ++h) {
      if (h % 4 != 0) handles[h].cancel();
    }
    q.run_until(q.now() + Seconds{0.5});
    ticker.cancel();
  }
  q.run_until_empty();
  return {q.fired_count(), q.compaction_count()};
}

TEST(EventQueueStress, ConcurrentPrivateQueuesReuseSlabsIndependently) {
  const auto reference = churn(25);
  EXPECT_GT(reference.first, 0u);
  EXPECT_GT(reference.second, 0u);  // the cancel comb must actually compact

  constexpr int kThreads = 8;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&results, t] { results[t] = churn(25); });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

TEST(EventQueueStress, HandleLifetimesSpanQueueDestruction) {
  // Slab slots must survive as long as any handle can still ask about
  // them, even after the owning queue died — per thread, many times over.
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int round = 0; round < 200; ++round) {
        EventHandle survivor;
        EventHandle ticker;
        {
          EventQueue q;
          survivor = q.schedule_in(Seconds{1.0}, [] {});
          ticker = q.schedule_every(Seconds{0.05}, Seconds{0.02}, [] {});
          q.schedule_in(Seconds{0.5}, [] {}).cancel();
          q.run_until(Seconds{0.1});
        }
        EXPECT_TRUE(survivor.valid());
        EXPECT_FALSE(survivor.fired());
        EXPECT_TRUE(ticker.pending());
        ticker.cancel();
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(EventQueueStress, ConcurrentCampaignsStayByteIdentical) {
  // Two whole campaigns running at once, each fanning cells over its own
  // JobPool — every cell owns a platform, an event queue and a fault
  // injector, so this is the heaviest cross-instance slab traffic the repo
  // generates.  Both must reproduce the serial report byte-for-byte.
  auto report = [](std::size_t jobs) {
    greengpu::CampaignConfig cfg;
    cfg.workloads = {"pathfinder"};
    cfg.policies = {greengpu::Policy::best_performance(), greengpu::Policy::green_gpu()};
    cfg.options.faults.seed = 77;
    cfg.options.faults.util_stale_rate = 0.05;
    cfg.options.faults.clock_reject_rate = 0.05;
    cfg.jobs = jobs;
    const greengpu::CampaignResult r = run_campaign(cfg);
    std::ostringstream csv;
    write_campaign_csv(csv, r);
    return csv.str();
  };
  const std::string serial = report(1);
  std::string a, b;
  std::thread ta([&] { a = report(2); });
  std::thread tb([&] { b = report(2); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

}  // namespace
}  // namespace gg::sim
