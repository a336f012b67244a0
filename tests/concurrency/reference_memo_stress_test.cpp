// Race stress for the workloads' reference memo (src/workloads/
// reference_memo.h).
//
// Written for the TSan lane (GREENGPU_SANITIZE=thread): eight threads run
// their own instance of the same cold config, then verify at the same
// moment, so every verify() races on the cold memo entry.  All must pass and
// the memo must end up holding exactly one reference for the config.
// Passes in every lane; TSan gives the "no data races" half its teeth.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/reference_memo.h"

namespace gg::workloads {
namespace {

constexpr std::size_t kThreads = 8;

template <typename W>
void race_on_cold_entry(const typename W::Config& config) {
  const ReferenceMemoStats before = reference_memo<W>().stats();
  std::latch ready(kThreads);
  std::atomic<std::size_t> passed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      W wl(config);
      greengpu::RunOptions o;
      o.pool_workers = 1;
      o.verify = false;
      (void)greengpu::run_experiment(wl, greengpu::Policy::best_performance(), o);
      ready.arrive_and_wait();
      if (wl.verify()) passed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(passed.load(), kThreads);
  const ReferenceMemoStats after = reference_memo<W>().stats();
  EXPECT_EQ(after.entries, before.entries + 1);
  // Racing threads may each compute a copy; only the first one is kept.
  EXPECT_GE(after.computed, before.computed + 1);
  EXPECT_LE(after.computed, before.computed + kThreads);
}

TEST(ReferenceMemoStress, ConcurrentColdVerifiesShareOneReference) {
  KmeansConfig kmeans;
  kmeans.points = 1024;
  kmeans.iterations = 4;
  kmeans.seed = 7001;
  race_on_cold_entry<Kmeans>(kmeans);

  HotspotConfig hotspot;
  hotspot.rows = 32;
  hotspot.cols = 32;
  hotspot.iterations = 4;
  hotspot.seed = 7002;
  race_on_cold_entry<Hotspot>(hotspot);
}

}  // namespace
}  // namespace gg::workloads
