// Model-only runs build no host data: constructors are config-only and
// setup builds inputs only when compute is on, so every simulated size must
// come from the config.  These tests pin that down per workload: a
// model-only run and a full run with the same policy and options must give
// identical simulated results and identical transfer/device-memory
// accounting, while the model-only run backs none of its device memory.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/registry.h"

namespace gg::workloads {
namespace {

struct Outcome {
  greengpu::ExperimentResult result;
  cudalite::RuntimeStats stats;
};

Outcome run(const std::string& name, bool model_only) {
  const WorkloadPtr wl = make_workload(name);
  greengpu::RunOptions o;
  o.pool_workers = 2;
  o.model_only = model_only;
  const greengpu::Policy policy = greengpu::Policy::green_gpu();
  greengpu::ExperimentEngine engine(*wl, policy, o);
  greengpu::ExperimentResult result = engine.run();
  return {std::move(result), engine.runtime().stats()};
}

std::vector<std::string> every_workload() {
  std::vector<std::string> names = all_workload_names();
  for (const std::string& n : pipeline_workload_names()) names.push_back(n);
  return names;
}

class ModelOnlyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelOnlyTest, MatchesFullRunAndBacksNoDeviceMemory) {
  const Outcome full = run(GetParam(), /*model_only=*/false);
  const Outcome model = run(GetParam(), /*model_only=*/true);
  ASSERT_TRUE(full.result.verified);
  EXPECT_TRUE(model.result.verify_skipped);

  // Simulated results: exact equality, not a tolerance.
  EXPECT_EQ(model.result.exec_time.get(), full.result.exec_time.get());
  EXPECT_EQ(model.result.gpu_energy.get(), full.result.gpu_energy.get());
  EXPECT_EQ(model.result.cpu_energy.get(), full.result.cpu_energy.get());
  EXPECT_EQ(model.result.final_ratio, full.result.final_ratio);
  EXPECT_EQ(model.result.iteration_count, full.result.iteration_count);
  EXPECT_EQ(model.result.scaler_decision_count, full.result.scaler_decision_count);
  EXPECT_EQ(model.result.governor_decision_count, full.result.governor_decision_count);
  EXPECT_EQ(model.result.division_moves, full.result.division_moves);
  EXPECT_EQ(model.result.gpu_frequency_transitions, full.result.gpu_frequency_transitions);

  // Transfer and device-memory accounting come from the config alone.
  EXPECT_EQ(model.stats.bytes_h2d, full.stats.bytes_h2d);
  EXPECT_EQ(model.stats.bytes_d2h, full.stats.bytes_d2h);
  EXPECT_EQ(model.stats.h2d_copies, full.stats.h2d_copies);
  EXPECT_EQ(model.stats.d2h_copies, full.stats.d2h_copies);
  EXPECT_EQ(model.stats.device_bytes_peak, full.stats.device_bytes_peak);
  EXPECT_EQ(model.stats.kernels_launched, full.stats.kernels_launched);
  EXPECT_EQ(model.stats.host_tasks, full.stats.host_tasks);

  EXPECT_GT(full.stats.host_backed_bytes, 0u);
  EXPECT_EQ(model.stats.host_backed_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ModelOnlyTest, ::testing::ValuesIn(every_workload()),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

}  // namespace
}  // namespace gg::workloads
