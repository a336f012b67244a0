// Hot-path microbenchmarks (google-benchmark): controller update costs, the
// discrete-event core, and the device model — the pieces whose overhead the
// paper argues is "light-weight" (Sections V and VI).

#include <benchmark/benchmark.h>

#include <sstream>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/cudalite/thread_pool.h"
#include "src/greengpu/division.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/loss.h"
#include "src/greengpu/weight_table.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/event_queue.h"
#include "src/sim/gpu_device.h"
#include "src/sim/platform.h"
#include "src/workloads/sobol.h"

namespace {

using namespace gg;
using namespace gg::literals;

std::vector<double> losses(double u, double alpha) {
  const auto umeans = greengpu::umean_table(sim::geforce8800_core_table());
  std::vector<double> out(umeans.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = greengpu::component_loss(u, umeans[i], alpha);
  }
  return out;
}

void BM_WmaUpdate(benchmark::State& state) {
  greengpu::WeightTable table(6, 6);
  const auto cl = losses(0.63, 0.15);
  const auto ml = losses(0.41, 0.02);
  for (auto _ : state) {
    table.update(cl, ml, 0.3, 0.2, 1e-2);
    benchmark::DoNotOptimize(table.argmax());
  }
}
BENCHMARK(BM_WmaUpdate);

void BM_FixedWmaUpdate(benchmark::State& state) {
  greengpu::FixedWeightTable table(6, 6);
  const auto cl = losses(0.63, 0.15);
  const auto ml = losses(0.41, 0.02);
  for (auto _ : state) {
    table.update(cl, ml, 0.3, 0.2);
    benchmark::DoNotOptimize(table.argmax());
  }
}
BENCHMARK(BM_FixedWmaUpdate);

/// Pre-blended loss rows, as QuantizedLossTable hands them to the fused path.
std::vector<double> scaled_losses(double u, double alpha, double scale) {
  auto out = losses(u, alpha);
  for (double& x : out) x *= scale;
  return out;
}

void BM_WmaUpdateFused(benchmark::State& state) {
  greengpu::WeightTable table(6, 6);
  const auto cl = scaled_losses(0.63, 0.15, 0.3);
  const auto ml = scaled_losses(0.41, 0.02, 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.update_fused(cl.data(), ml.data(), 0.8, 1e-2));
  }
}
BENCHMARK(BM_WmaUpdateFused);

void BM_FixedWmaUpdateFused(benchmark::State& state) {
  greengpu::FixedWeightTable table(6, 6);
  const auto cl = scaled_losses(0.63, 0.15, 0.3);
  const auto ml = scaled_losses(0.41, 0.02, 0.7);
  const std::uint32_t one_minus_beta_raw = UQ08::from_double(0.8).raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.update_fused(cl.data(), ml.data(), one_minus_beta_raw));
  }
}
BENCHMARK(BM_FixedWmaUpdateFused);

/// Full Algorithm 1 step (NVML read + loss rows + weight update + argmax +
/// actuation) through the fused fast path vs the straight-line reference.
/// Ring retention on both so neither pays unbounded log growth.
void scaler_step_bench(benchmark::State& state, bool reference) {
  sim::Platform platform;
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  greengpu::WmaParams params;
  params.reference_impl = reference;
  greengpu::GpuFrequencyScaler scaler(nvml, settings, params);
  scaler.set_record(greengpu::RecordOptions{greengpu::RecordMode::kRing, 64});
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaler.step(Seconds{t}));
    t += 3.0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ScalerStepFast(benchmark::State& state) { scaler_step_bench(state, false); }
BENCHMARK(BM_ScalerStepFast);

void BM_ScalerStepReference(benchmark::State& state) { scaler_step_bench(state, true); }
BENCHMARK(BM_ScalerStepReference);

void BM_LossComputation(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(losses(rng.uniform(), 0.15));
  }
}
BENCHMARK(BM_LossComputation);

void BM_DivisionStep(benchmark::State& state) {
  const greengpu::DivisionParams params;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greengpu::division_step(
        params, 0.30, Seconds{1.0 + rng.uniform()}, Seconds{1.0 + rng.uniform()}));
  }
}
BENCHMARK(BM_DivisionStep);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
    }
    q.run_until_empty();
    benchmark::DoNotOptimize(q.fired_count());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueScheduleCancelFire(benchmark::State& state) {
  // Half the scheduled events are cancelled before any fire: the lazy-deleted
  // entries ride through every heap sift until compaction reclaims them.
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles;
    handles.reserve(500);
    for (int i = 0; i < 1000; ++i) {
      sim::EventHandle h = q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
      if (i & 1) handles.push_back(h);
    }
    for (auto& h : handles) h.cancel();
    q.run_until_empty();
    benchmark::DoNotOptimize(q.fired_count());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleCancelFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // DVFS-style rescheduling: a standing population of in-flight completions is
  // repeatedly cancelled and replaced, so cancelled entries vastly outnumber
  // live ones unless the queue compacts.
  constexpr std::size_t kPending = 512;
  constexpr int kRounds = 16;
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventHandle> handles(kPending);
    double base = 1.0;
    for (std::size_t i = 0; i < kPending; ++i) {
      handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
    }
    for (int round = 0; round < kRounds; ++round) {
      base += 1.0;
      for (std::size_t i = 0; i < kPending; ++i) {
        handles[i].cancel();
        handles[i] = q.schedule_at(Seconds{base + static_cast<double>(i)}, [] {});
      }
    }
    q.run_until_empty();
    benchmark::DoNotOptimize(q.fired_count());
  }
  state.SetItemsProcessed(state.iterations() * kPending * (kRounds + 1));
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_EventQueuePeriodicTick(benchmark::State& state) {
  // The controller-tick shape of a model-only cell: an ondemand-style 0.1 s
  // timer and a 3 s scaler-style timer firing from the timer lane, beside a
  // few one-shot completions in the heap.  Items are ticks fired.
  constexpr int kTicks = 1000;
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t work = 0;
    sim::EventHandle governor = q.schedule_every(0.1_s, 0.1_s, [&work] { ++work; });
    sim::EventHandle scaler = q.schedule_every(3_s, 3_s, [&work] { work += 2; });
    for (int i = 1; i <= 4; ++i) q.schedule_at(Seconds{25.0 * i}, [] {});
    while (q.fired_count() < kTicks) q.step();
    governor.cancel();
    scaler.cancel();
    benchmark::DoNotOptimize(work);
  }
  state.SetItemsProcessed(state.iterations() * kTicks);
}
BENCHMARK(BM_EventQueuePeriodicTick);

void BM_GovernorQuiescentSpan(benchmark::State& state) {
  // The ondemand governor on a spinning CPU (the synchronous stack waiting
  // on the GPU) beside a 3 s scaler-style timer: every governor tick past
  // the first is quiescent.  Arg 1 attaches the governor, whose ticks run
  // in spans (one dispatch per run of ticks); Arg 0 fires the same step()
  // from a timer that never advances, one dispatch per tick.  Items are
  // governor ticks.
  const bool spans = state.range(0) != 0;
  std::int64_t ticks = 0;
  for (auto _ : state) {
    sim::Platform platform;
    sim::EventQueue& q = platform.queue();
    greengpu::OndemandGovernor gov(platform, greengpu::OndemandParams{});
    gov.set_record(greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0});
    platform.cpu().set_spinning(true);
    sim::EventHandle per_tick;
    if (spans) {
      gov.attach();
    } else {
      per_tick = q.schedule_every(0.1_s, 0.1_s, [&gov, &q] { gov.step(q.now()); });
    }
    sim::EventHandle scaler = q.schedule_every(3_s, 3_s, [] {});
    q.run_until(300_s);
    per_tick.cancel();
    scaler.cancel();
    gov.detach();
    ticks += static_cast<std::int64_t>(gov.steps());
    benchmark::DoNotOptimize(platform.cpu().energy().get());
  }
  state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_GovernorQuiescentSpan)->Arg(0)->Arg(1);

void BM_GpuKernelCycle(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    sim::GpuDevice gpu(q, sim::GpuSpec{}, sim::geforce8800_core_table(),
                       sim::geforce8800_memory_table(), 0, 0);
    sim::KernelWork w;
    w.units = 100.0;
    w.overhead_per_unit = Seconds{1e-3};
    for (int i = 0; i < 100; ++i) gpu.submit(w, {});
    q.run_until_empty();
    benchmark::DoNotOptimize(gpu.kernels_completed());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_GpuKernelCycle);

void BM_GpuMidKernelRetarget(benchmark::State& state) {
  sim::EventQueue q;
  sim::GpuDevice gpu(q, sim::GpuSpec{}, sim::geforce8800_core_table(),
                     sim::geforce8800_memory_table(), 0, 0);
  sim::KernelWork w;
  w.units = 1e9;
  w.core_cycles_per_unit = 1e6;
  gpu.submit(w, {});
  std::size_t level = 0;
  for (auto _ : state) {
    level = (level + 1) % 6;
    gpu.set_core_level(level);  // accounts + reschedules completion
  }
}
BENCHMARK(BM_GpuMidKernelRetarget);

void BM_SobolSample(benchmark::State& state) {
  workloads::Sobol sobol(4);
  std::uint64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sobol.sample(i, i & 3));
    ++i;
  }
}
BENCHMARK(BM_SobolSample);

void BM_JsonWriterReport(benchmark::State& state) {
  for (auto _ : state) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("runs");
    w.begin_array();
    for (int i = 0; i < 36; ++i) {
      w.begin_object();
      w.kv("workload", "kmeans");
      w.kv("energy", 1024815.0 + i);
      w.kv("verified", true);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_JsonWriterReport);

void BM_CampaignCell(benchmark::State& state) {
  // End-to-end cost of one campaign cell (the unit the parallel experiment
  // engine fans out): full lud run under the frequency-scaling policy.
  greengpu::RunOptions options;
  options.pool_workers = 1;
  for (auto _ : state) {
    const auto r = greengpu::run_experiment(
        "lud", greengpu::Policy::scaling_only(), options);
    benchmark::DoNotOptimize(r.total_energy().get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignCell);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  cudalite::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<double> xs(1 << 16, 1.0);
  for (auto _ : state) {
    pool.parallel_for_chunks(xs.size(), [&xs](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) xs[i] *= 1.0000001;
    });
    benchmark::DoNotOptimize(xs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
