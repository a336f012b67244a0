// Parameterized correctness tests over the full Table II workload suite:
// every workload must run end-to-end on the simulated stack and verify its
// results against the scalar reference, under several policies.
#include <gtest/gtest.h>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/registry.h"

namespace gg::workloads {
namespace {

class WorkloadSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSuiteTest, RegistryConstructs) {
  const WorkloadPtr wl = make_workload(GetParam());
  ASSERT_NE(wl, nullptr);
  EXPECT_GT(wl->iterations(), 0u);
  EXPECT_FALSE(wl->name().empty());
  EXPECT_FALSE(wl->description().empty());
}

TEST_P(WorkloadSuiteTest, ProfileTargetsAreValidUtilizations) {
  const WorkloadPtr wl = make_workload(GetParam());
  for (std::size_t it = 0; it < wl->iterations(); ++it) {
    const IntensityProfile p = wl->profile(it);
    EXPECT_GE(p.core_util, 0.0);
    EXPECT_LE(p.core_util, 1.0);
    EXPECT_GE(p.mem_util, 0.0);
    EXPECT_LE(p.mem_util, 1.0);
    EXPECT_GT(p.unit_time_s, 0.0);
    EXPECT_GT(p.units_per_iteration, 0.0);
    EXPECT_GT(p.cpu_slowdown, 0.0);
  }
}

TEST_P(WorkloadSuiteTest, VerifiesUnderBestPerformance) {
  const WorkloadPtr wl = make_workload(GetParam());
  greengpu::RunOptions o;
  o.pool_workers = 2;
  const auto r = greengpu::run_experiment(*wl, greengpu::Policy::best_performance(), o);
  EXPECT_TRUE(r.verified) << GetParam();
  EXPECT_GT(r.exec_time.get(), 0.0);
  EXPECT_GT(r.gpu_energy.get(), 0.0);
}

TEST_P(WorkloadSuiteTest, VerifiesUnderGreenGpu) {
  // Results must be identical (and correct) regardless of how the work was
  // divided and clocked.
  const WorkloadPtr wl = make_workload(GetParam());
  greengpu::RunOptions o;
  o.pool_workers = 2;
  const auto r = greengpu::run_experiment(*wl, greengpu::Policy::green_gpu(), o);
  EXPECT_TRUE(r.verified) << GetParam();
}

TEST_P(WorkloadSuiteTest, ScalingNeverIncreasesGpuEnergyMuch) {
  // Frequency scaling may cost a little time but must not blow up energy:
  // the WMA's loss weighting is performance-first.
  const std::string name = GetParam();
  greengpu::RunOptions o;
  o.pool_workers = 2;
  const auto base =
      greengpu::run_experiment(name, greengpu::Policy::best_performance(), o);
  const auto scaled = greengpu::run_experiment(name, greengpu::Policy::scaling_only(), o);
  EXPECT_LT(scaled.gpu_energy.get(), base.gpu_energy.get() * 1.02) << name;
  EXPECT_LT(scaled.exec_time.get(), base.exec_time.get() * 1.10) << name;
}

INSTANTIATE_TEST_SUITE_P(TableII, WorkloadSuiteTest,
                         ::testing::ValuesIn(all_workload_names()),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n) {
                             if (c == '-' || c == ' ') c = '_';
                           }
                           return n;
                         });

TEST(Registry, AllNamesCount) { EXPECT_EQ(all_workload_names().size(), 9u); }

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_workload("not-a-workload"), std::invalid_argument);
}

TEST(Registry, AliasesResolve) {
  EXPECT_EQ(make_workload("PF")->name(), "pathfinder");
  EXPECT_EQ(make_workload("qrng")->name(), "QG");
  EXPECT_EQ(make_workload("SC")->name(), "streamcluster");
  EXPECT_EQ(make_workload("srad")->name(), "srad_v2");
}

TEST(Registry, EveryNameAndAliasIsAcceptedByBoth) {
  std::vector<std::string> names = all_workload_names();
  for (const auto& n : pipeline_workload_names()) names.push_back(n);
  for (const char* alias : {"PF", "qrng", "srad", "SC"}) names.emplace_back(alias);
  ASSERT_EQ(names.size(), 15u);
  for (const auto& n : names) {
    EXPECT_TRUE(is_workload_name(n)) << n;
    EXPECT_NO_THROW((void)make_workload(n)) << n;
  }
}

TEST(Registry, UnknownNamesAreRejectedByBoth) {
  // Near misses: case, whitespace, prefixes and the empty name.
  for (const char* n : {"", "not-a-workload", "BFS", "bfs ", "kmean", "kmeans_", "pf", "sc",
                        "trace-replay"}) {
    EXPECT_FALSE(is_workload_name(n)) << n;
    EXPECT_THROW((void)make_workload(n), std::invalid_argument) << n;
  }
  try {
    (void)make_workload("nope");
    FAIL() << "make_workload accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown workload: nope");
  }
}

TEST(Registry, DivisibleWorkloadsArePaperPair) {
  const auto names = divisible_workload_names();
  ASSERT_EQ(names.size(), 2u);
  for (const auto& n : names) {
    EXPECT_TRUE(make_workload(n)->divisible());
  }
  // All others are GPU-only in the paper's experiments.
  for (const auto& n : all_workload_names()) {
    const auto wl = make_workload(n);
    const bool should_divide = n == "kmeans" || n == "hotspot";
    EXPECT_EQ(wl->divisible(), should_divide) << n;
  }
}

TEST(FluctuatingWorkloads, ProfilesActuallyFluctuate) {
  // Table II flags QG and streamcluster as highly fluctuating.
  for (const auto& name : {"QG", "streamcluster"}) {
    const auto wl = make_workload(name);
    double lo = 1.0, hi = 0.0;
    for (std::size_t it = 0; it < wl->iterations(); ++it) {
      const double u = wl->profile(it).core_util;
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
    EXPECT_GT(hi - lo, 0.3) << name;
  }
}

TEST(StableWorkloads, ProfilesAreConstant) {
  for (const auto& name : {"bfs", "lud", "nbody", "pathfinder", "srad_v2",
                           "hotspot", "kmeans"}) {
    const auto wl = make_workload(name);
    const IntensityProfile first = wl->profile(0);
    for (std::size_t it = 1; it < wl->iterations(); ++it) {
      EXPECT_EQ(wl->profile(it).core_util, first.core_util) << name;
      EXPECT_EQ(wl->profile(it).mem_util, first.mem_util) << name;
    }
  }
}

TEST(TableIIClasses, UtilizationClassesMatchPaper) {
  auto core_of = [](const char* n) { return make_workload(n)->profile(0).core_util; };
  auto mem_of = [](const char* n) { return make_workload(n)->profile(0).mem_util; };
  // bfs: high core and memory.
  EXPECT_GE(core_of("bfs"), 0.75);
  EXPECT_GE(mem_of("bfs"), 0.75);
  // lud, hotspot, kmeans: medium core, low memory.
  for (const char* n : {"lud", "hotspot", "kmeans"}) {
    EXPECT_GE(core_of(n), 0.4) << n;
    EXPECT_LE(core_of(n), 0.7) << n;
    EXPECT_LE(mem_of(n), 0.35) << n;
  }
  // pathfinder: low both.
  EXPECT_LE(core_of("pathfinder"), 0.4);
  EXPECT_LE(mem_of("pathfinder"), 0.3);
  // nbody: core-bounded (Section III-A).
  EXPECT_GE(core_of("nbody"), 0.9);
  // srad: high core, medium memory.
  EXPECT_GE(core_of("srad_v2"), 0.75);
  EXPECT_GE(mem_of("srad_v2"), 0.35);
  EXPECT_LE(mem_of("srad_v2"), 0.65);
}

}  // namespace
}  // namespace gg::workloads
