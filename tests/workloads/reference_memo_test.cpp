// The reference memo (src/workloads/reference_memo.h) shares each config's
// scalar reference across instances.  These tests pin down that sharing the
// expected output never turns verify() into a tautology: a run that stops
// one iteration short still fails against a warm memo, configs that differ
// only in their seed get their own references, and a warm memo gives the
// same verdict a cold one does.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/bfs.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/kmeans_pipeline.h"
#include "src/workloads/nbody.h"
#include "src/workloads/pathfinder.h"
#include "src/workloads/qrng.h"
#include "src/workloads/reference_memo.h"
#include "src/workloads/srad.h"
#include "src/workloads/srad_stream.h"
#include "src/workloads/streamcluster.h"

namespace gg::workloads {
namespace {

/// One workload type with a small config whose last iteration still
/// changes the output (so a truncated run has a wrong answer to catch).
struct MemoCase {
  std::string name;
  std::function<WorkloadPtr(std::uint64_t seed)> make;
  std::function<ReferenceMemoStats()> stats;
};

void PrintTo(const MemoCase& c, std::ostream* os) { *os << c.name; }

template <typename W>
MemoCase memo_case(std::string name, typename W::Config config) {
  return {std::move(name),
          [config](std::uint64_t seed) -> WorkloadPtr {
            typename W::Config c = config;
            c.seed = seed;
            return std::make_unique<W>(c);
          },
          [] { return reference_memo<W>().stats(); }};
}

std::vector<MemoCase> memo_cases() {
  BfsConfig bfs;  // chain graph: round k reaches vertex k
  bfs.nodes = 64;
  bfs.avg_degree = 1;
  bfs.iterations = 12;
  NbodyConfig nbody;
  nbody.bodies = 48;
  nbody.iterations = 4;
  PathfinderConfig pf;
  pf.cols = 256;
  pf.iterations = 6;
  QrngConfig qg;
  qg.points = 256;
  qg.iterations = 6;
  qg.phase_length = 2;
  SradConfig srad;
  srad.rows = 24;
  srad.cols = 24;
  srad.iterations = 4;
  HotspotConfig hotspot;
  hotspot.rows = 24;
  hotspot.cols = 24;
  hotspot.iterations = 4;
  KmeansConfig kmeans;
  kmeans.points = 512;
  kmeans.dims = 2;
  kmeans.clusters = 4;
  kmeans.iterations = 3;
  StreamclusterConfig sc;
  sc.points = 256;
  sc.dims = 4;
  sc.iterations = 3;
  sc.warmup_iterations = 1;
  KmeansPipelineConfig kp;
  kp.points = 512;
  kp.dims = 2;
  kp.clusters = 4;
  kp.iterations = 3;
  kp.chunks = 4;
  SradStreamConfig ss;
  ss.rows = 16;
  ss.cols = 16;
  ss.iterations = 3;
  ss.frames_per_iteration = 2;
  return {memo_case<Bfs>("bfs", bfs),
          memo_case<Nbody>("nbody", nbody),
          memo_case<Pathfinder>("pathfinder", pf),
          memo_case<Qrng>("QG", qg),
          memo_case<Srad>("srad_v2", srad),
          memo_case<Hotspot>("hotspot", hotspot),
          memo_case<Kmeans>("kmeans", kmeans),
          memo_case<Streamcluster>("streamcluster", sc),
          memo_case<KmeansPipeline>("kmeans_pipeline", kp),
          memo_case<SradStream>("srad_stream", ss)};
}

/// Run `iterations` iterations (0 = all) through setup, the iteration loop
/// and teardown, then ask the workload itself for its verdict.
bool run_and_verify(Workload& wl, std::size_t iterations = 0, bool model_only = false) {
  greengpu::RunOptions o;
  o.pool_workers = 2;
  o.verify = false;
  o.max_iterations = iterations;
  o.model_only = model_only;
  (void)greengpu::run_experiment(wl, greengpu::Policy::best_performance(), o);
  return wl.verify();
}

class ReferenceMemoTest : public ::testing::TestWithParam<MemoCase> {};

TEST_P(ReferenceMemoTest, TruncatedRunFailsAgainstWarmMemo) {
  const MemoCase& c = GetParam();
  const WorkloadPtr warm = c.make(1001);
  ASSERT_TRUE(run_and_verify(*warm));
  const ReferenceMemoStats before = c.stats();

  const WorkloadPtr truncated = c.make(1001);
  EXPECT_FALSE(run_and_verify(*truncated, truncated->iterations() - 1));
  // The memo was warm: nothing was recomputed for the truncated run.
  EXPECT_EQ(c.stats().computed, before.computed);
  EXPECT_EQ(c.stats().entries, before.entries);
}

TEST_P(ReferenceMemoTest, ConfigsDifferingOnlyInSeedVerifyInEitherOrder) {
  const MemoCase& c = GetParam();
  const ReferenceMemoStats before = c.stats();
  for (const auto& [first, second] : {std::pair{2001, 2002}, std::pair{2004, 2003}}) {
    const WorkloadPtr a = c.make(first);
    const WorkloadPtr b = c.make(second);
    EXPECT_TRUE(run_and_verify(*a)) << "seed " << first;
    EXPECT_TRUE(run_and_verify(*b)) << "seed " << second;
  }
  EXPECT_EQ(c.stats().entries, before.entries + 4);
}

TEST_P(ReferenceMemoTest, ColdAndWarmVerdictsAgree) {
  const MemoCase& c = GetParam();
  // A truncated run against a cold memo, then against the warm one.
  const WorkloadPtr cold_short = c.make(3001);
  const std::size_t short_run = cold_short->iterations() - 1;
  const bool cold_short_verdict = run_and_verify(*cold_short, short_run);
  const WorkloadPtr warm_short = c.make(3001);
  EXPECT_EQ(run_and_verify(*warm_short, short_run), cold_short_verdict);
  EXPECT_FALSE(cold_short_verdict);

  // A full run against a cold memo, then against the warm one.
  const ReferenceMemoStats before = c.stats();
  const WorkloadPtr cold_full = c.make(3002);
  const bool cold_full_verdict = run_and_verify(*cold_full);
  const ReferenceMemoStats after_cold = c.stats();
  const WorkloadPtr warm_full = c.make(3002);
  EXPECT_EQ(run_and_verify(*warm_full), cold_full_verdict);
  EXPECT_TRUE(cold_full_verdict);
  EXPECT_EQ(c.stats().computed, after_cold.computed);
  EXPECT_EQ(after_cold.computed, before.computed + 1);
  EXPECT_EQ(c.stats().entries, before.entries + 1);
}

TEST_P(ReferenceMemoTest, VerifyBeforeAnyRunIsFalse) {
  const MemoCase& c = GetParam();
  const ReferenceMemoStats before = c.stats();
  const WorkloadPtr wl = c.make(4001);
  EXPECT_FALSE(wl->verify());
  EXPECT_EQ(c.stats().computed, before.computed);
  EXPECT_EQ(c.stats().entries, before.entries);
}

TEST_P(ReferenceMemoTest, ModelOnlyRunLeavesMemoUntouched) {
  const MemoCase& c = GetParam();
  // A model-only run builds no inputs: its verify() is false, and it must
  // not store a reference computed from empty inputs for the config.
  const ReferenceMemoStats before = c.stats();
  const WorkloadPtr model = c.make(6001);
  EXPECT_FALSE(run_and_verify(*model, 0, /*model_only=*/true));
  EXPECT_EQ(c.stats().computed, before.computed);
  EXPECT_EQ(c.stats().entries, before.entries);

  // A later full run of the same config computes the real reference.
  const WorkloadPtr full = c.make(6001);
  EXPECT_TRUE(run_and_verify(*full));
  EXPECT_EQ(c.stats().computed, before.computed + 1);
  EXPECT_EQ(c.stats().entries, before.entries + 1);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReferenceMemoTest, ::testing::ValuesIn(memo_cases()),
                         [](const ::testing::TestParamInfo<MemoCase>& p) {
                           return p.param.name;
                         });

TEST(ReferenceMemo, KeysOnTheWholeConfig) {
  // Fields that do not change the expected output still get their own
  // entry: the key is the whole struct, so it cannot go stale.
  KmeansConfig a;
  a.points = 64;
  a.iterations = 2;
  a.seed = 5001;
  KmeansConfig b = a;
  b.profile.core_util = 0.5;
  ASSERT_NE(a, b);
  ReferenceMemo<KmeansConfig, int> memo;
  int calls = 0;
  const auto compute = [&calls] { return ++calls; };
  EXPECT_EQ(*memo.get_or_compute(a, compute), 1);
  EXPECT_EQ(*memo.get_or_compute(b, compute), 2);
  EXPECT_EQ(*memo.get_or_compute(a, compute), 1);
  EXPECT_EQ(memo.stats().entries, 2u);
  EXPECT_EQ(memo.stats().computed, 2u);
}

}  // namespace
}  // namespace gg::workloads
