// bench_campaign — performance record for the parallel experiment engine.
//
//   bench_campaign [--jobs N] [--out FILE.json]
//
// Runs the default (workload x policy) campaign across a worker sweep
// (--jobs 1, N/2, N) and
//   * asserts the CSV and JSON reports are byte-identical (the determinism
//     contract) at every sweep point, with and without fault injection,
//   * records wall-clock, runs/sec and the parallel speedup, plus a
//     single_core_host marker so the perf gate never compares parallel
//     speedups across host classes,
//   * times the batch campaign engine against the scalar engine on a
//     fault-replicate sweep (the batch engine's target shape: many cells
//     per workload sharing a warm-up prefix), asserts the two engines'
//     reports are byte-identical at every --jobs value, and counts the host
//     bytes behind the sweep's model-only device memory (must be 0),
//   * counts the sweep's logical CPU-governor ticks per governor body the
//     event queue dispatched (quiescent ticks run in spans),
//   * times the sim::EventQueue hot paths (schedule/fire, cancelled-entry
//     ride-along, DVFS-style cancel churn, recurring-timer ticks) in ns per
//     event, and asserts a seeded mixed schedule fires identically through
//     schedule_every and through the self-rescheduling chain it replaced,
//   * times one Algorithm 1 scaler step through the fused fast path and the
//     straight-line reference (ns/op + speedup) and asserts their decision
//     streams match over the timed runs,
//   * measures the crash-checkpoint overhead (journal + periodic controller
//     snapshots at --checkpoint-every 0/10/100 vs no checkpointing) and
//     asserts the journaled reports stay byte-identical to the plain run,
// then writes the whole record as JSON (default BENCH_campaign.json).
//
// Exit code 0 iff every identity check passed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/batch_engine.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/wma_scaler.h"
#include "src/sim/crash.h"
#include "src/sim/event_queue.h"
#include "src/sim/platform.h"
#include "src/workloads/registry.h"

namespace {

using namespace gg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CampaignRun {
  std::string csv;
  std::string json;
  double seconds{0.0};
  std::size_t runs{0};
};

CampaignRun to_run(const greengpu::CampaignResult& result, double seconds) {
  CampaignRun out;
  out.seconds = seconds;
  out.runs = result.cells.size();
  std::ostringstream csv, json;
  greengpu::write_campaign_csv(csv, result);
  greengpu::write_campaign_json(json, result);
  out.csv = csv.str();
  out.json = json.str();
  return out;
}

CampaignRun run_campaign_timed(const greengpu::CampaignConfig& cfg) {
  const auto start = Clock::now();
  const greengpu::CampaignResult result = greengpu::run_campaign(cfg);
  return to_run(result, seconds_since(start));
}

CampaignRun run_campaign_checkpointed_timed(const greengpu::CampaignConfig& cfg,
                                            const greengpu::CheckpointOptions& ckpt) {
  const auto start = Clock::now();
  const greengpu::CampaignResult result = greengpu::run_campaign_checkpointed(cfg, ckpt);
  return to_run(result, seconds_since(start));
}

/// Fault channels that perturb every cell but never abort an un-hardened
/// controller (no launch/host failures, no throttle episodes), so the
/// default four policies all finish and the identity check exercises the
/// per-cell RNG fork.
sim::FaultConfig benign_faults() {
  sim::FaultConfig f;
  f.seed = 0xB16B00B5u;
  f.util_drop_rate = 0.05;
  f.util_stale_rate = 0.05;
  f.util_corrupt_rate = 0.02;
  f.clock_reject_rate = 0.05;
  return f;
}

struct QueueTimings {
  double schedule_fire_ns{0.0};
  double schedule_cancel_fire_ns{0.0};
  double cancel_churn_ns{0.0};
  double periodic_tick_ns{0.0};
  bool periodic_matches_chain{false};
  std::uint64_t events_fired{0};  // anti-elision checksum
  std::uint64_t compactions{0};
};

/// (time, id) of every firing of a seeded mixed schedule — three recurring
/// ticks on dyadic periods (so they collide exactly) plus one-shots, some
/// landing exactly on tick instants — driven through schedule_every
/// (`timers`) or through the self-rescheduling chain idiom it replaced.
std::vector<std::pair<double, int>> periodic_firing_log(std::uint64_t seed, bool timers) {
  sim::EventQueue q;
  Rng rng(seed);
  std::vector<std::pair<double, int>> log;
  const double periods[3] = {0.125, 0.25, 0.375};
  std::vector<sim::EventHandle> handles(3);
  auto one_shot = [&](Seconds when, int id) {
    q.schedule_at(when, [&log, &q, id] { log.emplace_back(q.now().get(), id); });
  };
  std::function<void(int)> tick = [&](int k) {
    log.emplace_back(q.now().get(), k);
    if (rng.uniform() < 0.3) one_shot(q.now() + Seconds{periods[k]}, 10 + k);
  };
  std::function<void(int, Seconds)> arm = [&](int k, Seconds when) {
    handles[k] = q.schedule_at(when, [&, k] {
      tick(k);
      arm(k, q.now() + Seconds{periods[k]});
    });
  };
  for (int k = 0; k < 3; ++k) {
    const Seconds first{0.125 * static_cast<double>(rng.uniform_int(4))};
    if (timers) {
      handles[k] = q.schedule_every(first, Seconds{periods[k]}, [&tick, k] { tick(k); });
    } else {
      arm(k, first);
    }
  }
  for (int i = 0; i < 50; ++i) {
    one_shot(Seconds{0.125 * static_cast<double>(rng.uniform_int(400))}, 99);
  }
  q.run_until(Seconds{50.0});
  for (auto& h : handles) h.cancel();
  q.run_until_empty();
  return log;
}

QueueTimings time_event_queue() {
  using namespace gg::literals;
  QueueTimings t;

  {  // schedule + fire, 1000 events per queue
    constexpr int kReps = 2000, kEvents = 1000;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      for (int i = 0; i < kEvents; ++i) {
        q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
      }
      q.run_until_empty();
      t.events_fired += q.fired_count();
    }
    t.schedule_fire_ns = seconds_since(start) * 1e9 / (double(kReps) * kEvents);
  }

  {  // half the events cancelled before any fire
    constexpr int kReps = 2000, kEvents = 1000;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      std::vector<sim::EventHandle> handles;
      handles.reserve(kEvents / 2);
      for (int i = 0; i < kEvents; ++i) {
        sim::EventHandle h = q.schedule_in(Seconds{static_cast<double>(i)}, [] {});
        if (i & 1) handles.push_back(h);
      }
      for (auto& h : handles) h.cancel();
      q.run_until_empty();
      t.events_fired += q.fired_count();
    }
    t.schedule_cancel_fire_ns = seconds_since(start) * 1e9 / (double(kReps) * kEvents);
  }

  {  // DVFS-style churn: standing population repeatedly cancelled + replaced
    constexpr std::size_t kPending = 512;
    constexpr int kReps = 200, kRounds = 16;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
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
      t.events_fired += q.fired_count();
      t.compactions += q.compaction_count();
    }
    t.cancel_churn_ns =
        seconds_since(start) * 1e9 / (double(kReps) * kPending * (kRounds + 1));
  }

  {  // controller ticks: a 0.1 s and a 3 s timer beside sparse one-shots
    constexpr int kReps = 2000;
    constexpr std::uint64_t kTicks = 1000;
    std::uint64_t work = 0;
    const auto start = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventQueue q;
      sim::EventHandle governor = q.schedule_every(0.1_s, 0.1_s, [&work] { ++work; });
      sim::EventHandle scaler = q.schedule_every(3_s, 3_s, [&work] { work += 2; });
      for (int i = 1; i <= 4; ++i) q.schedule_at(Seconds{25.0 * i}, [] {});
      while (q.fired_count() < kTicks) q.step();
      governor.cancel();
      scaler.cancel();
      t.events_fired += q.fired_count() + (work & 1);
    }
    t.periodic_tick_ns = seconds_since(start) * 1e9 / (double(kReps) * kTicks);
  }

  t.periodic_matches_chain = true;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    t.periodic_matches_chain = t.periodic_matches_chain &&
                               periodic_firing_log(seed, true) == periodic_firing_log(seed, false);
  }
  return t;
}

struct ScalerTimings {
  double fast_ns{0.0};
  double reference_ns{0.0};
  double speedup{0.0};
  bool decisions_match{true};
  std::uint64_t steps{0};
};

/// ns per full Algorithm 1 step for one implementation; appends the chosen
/// pair of every step to `chosen` so the two runs can be compared.
double time_scaler_steps(bool reference, std::uint64_t steps,
                         std::vector<greengpu::PairIndex>& chosen) {
  sim::Platform platform;
  cudalite::NvmlDevice nvml(platform);
  cudalite::NvSettings settings(platform);
  greengpu::WmaParams params;
  params.reference_impl = reference;
  greengpu::GpuFrequencyScaler scaler(nvml, settings, params);
  scaler.set_record(greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0});
  chosen.reserve(chosen.size() + steps);
  const auto start = Clock::now();
  double t = 0.0;
  for (std::uint64_t i = 0; i < steps; ++i) {
    chosen.push_back(scaler.step(Seconds{t}).chosen);
    t += 3.0;
  }
  return seconds_since(start) * 1e9 / static_cast<double>(steps);
}

ScalerTimings time_scaler_step() {
  ScalerTimings t;
  t.steps = 200000;
  std::vector<greengpu::PairIndex> fast_chosen, ref_chosen;
  // Warm-up pass each to fault in code and settle the tables.
  { std::vector<greengpu::PairIndex> tmp; (void)time_scaler_steps(false, 1000, tmp); }
  { std::vector<greengpu::PairIndex> tmp; (void)time_scaler_steps(true, 1000, tmp); }
  t.fast_ns = time_scaler_steps(false, t.steps, fast_chosen);
  t.reference_ns = time_scaler_steps(true, t.steps, ref_chosen);
  t.speedup = t.fast_ns > 0.0 ? t.reference_ns / t.fast_ns : 0.0;
  t.decisions_match = fast_chosen == ref_chosen;
  return t;
}

/// Sync-vs-pipelined comparison for one pipeline workload, all in simulated
/// units (host-class independent: both schedules run through the same model).
struct PipelineComparison {
  std::string name;
  double sync_seconds{0.0};
  double pipelined_seconds{0.0};
  double makespan_speedup{0.0};
  double sync_energy_j{0.0};
  double pipelined_energy_j{0.0};
  double overlap_efficiency{0.0};  // overlapped / copy-engine-busy seconds
  bool verified{false};
};

PipelineComparison compare_pipeline(const std::string& name) {
  greengpu::RunOptions options;
  options.pool_workers = 2;
  workloads::PipelineTuning tuning = workloads::pipeline_tuning();
  tuning.pipelined = false;
  workloads::set_pipeline_tuning(tuning);
  const greengpu::ExperimentResult sync =
      greengpu::run_experiment(name, greengpu::Policy::best_performance(), options);
  tuning.pipelined = true;
  workloads::set_pipeline_tuning(tuning);
  const greengpu::ExperimentResult pipe =
      greengpu::run_experiment(name, greengpu::Policy::best_performance(), options);

  PipelineComparison c;
  c.name = name;
  c.sync_seconds = sync.exec_time.get();
  c.pipelined_seconds = pipe.exec_time.get();
  c.makespan_speedup =
      c.pipelined_seconds > 0.0 ? c.sync_seconds / c.pipelined_seconds : 0.0;
  c.sync_energy_j = sync.total_energy().get();
  c.pipelined_energy_j = pipe.total_energy().get();
  double copy_busy = 0.0, overlap = 0.0;
  for (const auto& it : pipe.iterations) {
    copy_busy += it.copy_busy_time.get();
    overlap += it.overlap_time.get();
  }
  c.overlap_efficiency = copy_busy > 0.0 ? overlap / copy_busy : 0.0;
  c.verified = sync.verified && pipe.verified;
  return c;
}

/// Logical CPU-governor ticks and the governor bodies the queue's timer
/// lane dispatched for them, summed over every cell of `cfg`'s plan.  Each
/// cell runs standalone and model-only (the same events as a full run), so
/// no snapshot restore resets the queue's dispatch count.  Without a trace
/// recorder the lane holds at most the scaler and the governor; the scaler
/// runs one body and records one decision per tick, so the governor's
/// bodies are the lane's bodies less the scaler's decisions.
struct GovernorSpanCounts {
  std::uint64_t ticks{0};
  std::uint64_t bodies{0};
  [[nodiscard]] double ticks_per_body() const {
    return bodies > 0 ? static_cast<double>(ticks) / static_cast<double>(bodies) : 0.0;
  }
};

GovernorSpanCounts governor_span_counts(const greengpu::CampaignConfig& cfg) {
  const greengpu::CampaignPlan plan = greengpu::plan_campaign(cfg);
  const std::size_t per_row = plan.policies.size();
  GovernorSpanCounts counts;
  for (std::size_t i = 0; i < plan.total(); ++i) {
    greengpu::RunOptions options = cfg.options;
    if (options.faults.any_faults()) {
      options.faults.seed = greengpu::campaign_cell_seed(options.faults.seed, i);
    }
    options.model_only = true;
    options.record = greengpu::RecordOptions{greengpu::RecordMode::kCounters, 0};
    const workloads::WorkloadPtr workload =
        workloads::make_workload(plan.workloads[i / per_row]);
    greengpu::ExperimentEngine engine(*workload, plan.policies[i % per_row], options);
    engine.start();
    while (engine.iteration() < engine.total_iterations()) engine.step_iteration();
    const greengpu::ExperimentResult r = engine.finish();
    counts.ticks += r.governor_decision_count;
    counts.bodies +=
        engine.platform().queue().timer_bodies_run() - r.scaler_decision_count;
  }
  return counts;
}

bool report_identity(const char* what, const CampaignRun& a, const CampaignRun& b) {
  const bool csv_ok = a.csv == b.csv;
  const bool json_ok = a.json == b.json;
  std::printf("[%s] %s: CSV %s, JSON %s\n", csv_ok && json_ok ? "OK" : "FAIL", what,
              csv_ok ? "identical" : "DIFFERS", json_ok ? "identical" : "DIFFERS");
  return csv_ok && json_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const long long jobs_flag = flags.get_int("jobs", 0);
  const std::string out_file = flags.get_string("out", "BENCH_campaign.json");
  const auto unknown = flags.unconsumed();
  if (!unknown.empty()) {
    for (const auto& key : unknown) std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }

  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::size_t jobs = jobs_flag <= 0 ? (host_cpus ? host_cpus : 1)
                                          : static_cast<std::size_t>(jobs_flag);
  const bool single_core_host = host_cpus <= 1;

  std::printf("bench_campaign: host_cpus=%u jobs=%zu%s\n", host_cpus, jobs,
              single_core_host ? " (single-core host)" : "");

  // Worker sweep: 1, N/2, N (deduplicated; collapses to {1} on a
  // single-core host).  Every point must produce identical bytes.
  std::vector<std::size_t> jobs_sweep{1};
  if (jobs / 2 > 1) jobs_sweep.push_back(jobs / 2);
  if (jobs > jobs_sweep.back()) jobs_sweep.push_back(jobs);

  greengpu::CampaignConfig serial_cfg;
  serial_cfg.jobs = 1;
  greengpu::CampaignConfig parallel_cfg;
  parallel_cfg.jobs = jobs;

  std::printf("running campaign serially (--jobs 1)...\n");
  const CampaignRun serial = run_campaign_timed(serial_cfg);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", serial.runs, serial.seconds,
              serial.runs / serial.seconds);
  std::vector<CampaignRun> sweep_runs{serial};
  bool sweep_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = serial_cfg;
    cfg.jobs = jobs_sweep[i];
    std::printf("running campaign with %zu workers...\n", jobs_sweep[i]);
    const CampaignRun run = run_campaign_timed(cfg);
    std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", run.runs, run.seconds,
                run.runs / run.seconds);
    sweep_identical =
        sweep_identical && run.csv == serial.csv && run.json == serial.json;
    sweep_runs.push_back(run);
  }
  const CampaignRun& parallel = sweep_runs.back();
  const double speedup = serial.seconds / parallel.seconds;
  std::printf("  speedup vs --jobs 1: %.2fx\n", speedup);

  bool ok = report_identity("fault-free", serial, parallel) && sweep_identical;
  if (!sweep_identical) std::printf("[FAIL] jobs sweep reports differ\n");

  // Same comparison with fault injection: each cell's fault RNG must fork
  // from the campaign seed by cell index, never by execution order.
  greengpu::CampaignConfig faulted_serial = serial_cfg;
  faulted_serial.options.faults = benign_faults();
  greengpu::CampaignConfig faulted_parallel = parallel_cfg;
  faulted_parallel.options.faults = benign_faults();
  std::printf("re-running with fault injection (benign channels)...\n");
  const CampaignRun f_serial = run_campaign_timed(faulted_serial);
  const CampaignRun f_parallel = run_campaign_timed(faulted_parallel);
  ok = report_identity("fault-injected", f_serial, f_parallel) && ok;

  // Batch engine vs scalar engine on the shape the batch engine targets:
  // a fault-replicate sweep (every policy expanded into kReplicates seeded
  // copies) with a fault-free warm-up window, so the engine can memoize one
  // verification per workload and fork replicates from a shared prefix
  // snapshot.  Same-host, same-config, so the speedup is comparable on any
  // machine; the reports must be byte-identical at every --jobs value.
  constexpr std::size_t kReplicates = 6;
  constexpr std::size_t kWarmup = 4;
  greengpu::CampaignConfig sweep_scalar;
  sweep_scalar.jobs = 1;
  sweep_scalar.engine = greengpu::CampaignEngine::kScalar;
  sweep_scalar.fault_replicates = kReplicates;
  sweep_scalar.options.faults = benign_faults();
  sweep_scalar.options.faults_active_from = kWarmup;
  std::printf("running replicate sweep (x%zu) with the scalar engine...\n", kReplicates);
  const CampaignRun b_scalar = run_campaign_timed(sweep_scalar);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", b_scalar.runs, b_scalar.seconds,
              b_scalar.runs / b_scalar.seconds);
  greengpu::CampaignConfig sweep_batch = sweep_scalar;
  sweep_batch.engine = greengpu::CampaignEngine::kBatch;
  std::printf("running replicate sweep (x%zu) with the batch engine...\n", kReplicates);
  const CampaignRun b_batch = run_campaign_timed(sweep_batch);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", b_batch.runs, b_batch.seconds,
              b_batch.runs / b_batch.seconds);
  const double batch_speedup = b_batch.seconds > 0.0 ? b_scalar.seconds / b_batch.seconds : 0.0;
  std::printf("  batch engine speedup vs scalar: %.2fx\n", batch_speedup);
  ok = report_identity("batch-vs-scalar", b_scalar, b_batch) && ok;
  bool batch_jobs_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = sweep_batch;
    cfg.jobs = jobs_sweep[i];
    const CampaignRun run = run_campaign_timed(cfg);
    batch_jobs_identical =
        batch_jobs_identical && run.csv == b_batch.csv && run.json == b_batch.json;
  }
  std::printf("[%s] batch engine across jobs sweep: %s\n",
              batch_jobs_identical ? "OK" : "FAIL",
              batch_jobs_identical ? "identical" : "DIFFER");
  ok = batch_jobs_identical && ok;
  // Count gate, not a clock: the sweep's model-only cells must build no
  // host data, so none of their device memory may have host storage.
  const greengpu::CampaignPlan sweep_plan = greengpu::plan_campaign(sweep_batch);
  std::vector<greengpu::CampaignCell> sweep_cells(sweep_plan.total());
  greengpu::BatchCampaignEngine sweep_engine(sweep_plan, sweep_batch.options,
                                             sweep_batch.jobs);
  sweep_engine.run(sweep_cells);
  const std::uint64_t model_host_bytes = sweep_engine.stats().model_only_host_bytes;
  std::printf("[%s] model-only cells' host-backed device bytes: %llu\n",
              model_host_bytes == 0 ? "OK" : "FAIL",
              static_cast<unsigned long long>(model_host_bytes));
  ok = model_host_bytes == 0 && ok;
  // Count, not a clock: quiescent governor ticks run in spans, so the
  // lane dispatches far fewer governor bodies than the governor ticks.
  const GovernorSpanCounts spans = governor_span_counts(sweep_batch);
  std::printf("  governor ticks per dispatched body: %.2f (%llu ticks, %llu bodies)\n",
              spans.ticks_per_body(), static_cast<unsigned long long>(spans.ticks),
              static_cast<unsigned long long>(spans.bodies));

  // Pipeline workloads: the asynchronous multi-stream schedule vs the
  // synchronous baseline, in simulated seconds and joules (both sides run
  // through the same model, so the speedup holds on any host class), plus
  // the full determinism matrix over the pipeline campaign — jobs sweep,
  // batch engine, and a kill/resume cycle must all reproduce the bytes.
  const workloads::PipelineTuning saved_tuning = workloads::pipeline_tuning();
  std::printf("comparing pipelined vs synchronous schedules...\n");
  std::vector<PipelineComparison> pipeline_runs;
  double min_pipeline_speedup = 0.0;
  double min_overlap_efficiency = 0.0;
  bool pipeline_verified = true;
  bool pipeline_energy_lower = true;
  for (const std::string& name : workloads::pipeline_workload_names()) {
    const PipelineComparison c = compare_pipeline(name);
    std::printf("  %-16s sync %.1f s -> pipelined %.1f s (%.2fx), "
                "energy %.0f J -> %.0f J, overlap %.0f%%%s\n",
                c.name.c_str(), c.sync_seconds, c.pipelined_seconds,
                c.makespan_speedup, c.sync_energy_j, c.pipelined_energy_j,
                c.overlap_efficiency * 100.0, c.verified ? "" : " [FAIL verify]");
    min_pipeline_speedup = pipeline_runs.empty()
                               ? c.makespan_speedup
                               : std::min(min_pipeline_speedup, c.makespan_speedup);
    min_overlap_efficiency = pipeline_runs.empty()
                                 ? c.overlap_efficiency
                                 : std::min(min_overlap_efficiency, c.overlap_efficiency);
    pipeline_verified = pipeline_verified && c.verified;
    pipeline_energy_lower =
        pipeline_energy_lower && c.pipelined_energy_j < c.sync_energy_j;
    pipeline_runs.push_back(c);
  }
  workloads::set_pipeline_tuning(saved_tuning);
  ok = pipeline_verified && pipeline_energy_lower && ok;

  greengpu::CampaignConfig pipeline_cfg;
  pipeline_cfg.workloads = workloads::pipeline_workload_names();
  pipeline_cfg.jobs = 1;
  std::printf("running pipeline campaign serially (--jobs 1)...\n");
  const CampaignRun p_serial = run_campaign_timed(pipeline_cfg);
  std::printf("  %zu runs in %.2f s (%.1f runs/s)\n", p_serial.runs, p_serial.seconds,
              p_serial.runs / p_serial.seconds);
  bool pipeline_jobs_identical = true;
  for (std::size_t i = 1; i < jobs_sweep.size(); ++i) {
    greengpu::CampaignConfig cfg = pipeline_cfg;
    cfg.jobs = jobs_sweep[i];
    const CampaignRun run = run_campaign_timed(cfg);
    pipeline_jobs_identical =
        pipeline_jobs_identical && run.csv == p_serial.csv && run.json == p_serial.json;
  }
  std::printf("[%s] pipeline campaign across jobs sweep: %s\n",
              pipeline_jobs_identical ? "OK" : "FAIL",
              pipeline_jobs_identical ? "identical" : "DIFFER");
  ok = pipeline_jobs_identical && ok;

  greengpu::CampaignConfig pipeline_batch_cfg = pipeline_cfg;
  pipeline_batch_cfg.engine = greengpu::CampaignEngine::kBatch;
  const CampaignRun p_batch = run_campaign_timed(pipeline_batch_cfg);
  const bool pipeline_engines_identical =
      p_batch.csv == p_serial.csv && p_batch.json == p_serial.json;
  std::printf("[%s] pipeline campaign batch-vs-scalar: %s\n",
              pipeline_engines_identical ? "OK" : "FAIL",
              pipeline_engines_identical ? "identical" : "DIFFER");
  ok = pipeline_engines_identical && ok;

  bool pipeline_resume_identical = false;
  {
    const std::filesystem::path resume_dir =
        std::filesystem::temp_directory_path() / "gg_bench_pipeline_resume";
    std::filesystem::remove_all(resume_dir);
    greengpu::CheckpointOptions ckpt;
    ckpt.dir = resume_dir.string();
    sim::CrashInjector crash(common::KillPoint::kMidCampaignCell, 1,
                             common::CrashMode::kThrow);
    greengpu::RecoverySupervisor supervisor(pipeline_cfg, ckpt);
    const CampaignRun resumed = to_run(supervisor.run(), 0.0);
    pipeline_resume_identical = crash.fired() && resumed.csv == p_serial.csv &&
                                resumed.json == p_serial.json;
    std::filesystem::remove_all(resume_dir);
  }
  std::printf("[%s] pipeline campaign after kill/resume: %s\n",
              pipeline_resume_identical ? "OK" : "FAIL",
              pipeline_resume_identical ? "identical" : "DIFFER");
  ok = pipeline_resume_identical && ok;

  // Checkpoint overhead: the same serial campaign with the crash-safe
  // journal alone (--checkpoint-every 0) and with periodic controller
  // snapshots every 10 and 100 iterations.  Checkpoints are pure
  // observation, so all three reports must stay byte-identical to the
  // plain run measured above.
  std::printf("measuring checkpoint overhead (journal + periodic snapshots)...\n");
  const std::filesystem::path ckpt_root =
      std::filesystem::temp_directory_path() / "gg_bench_checkpoint";
  std::filesystem::remove_all(ckpt_root);
  double ckpt_seconds[3] = {0.0, 0.0, 0.0};
  bool ckpt_identical = true;
  const std::size_t cadences[3] = {0, 10, 100};
  for (int i = 0; i < 3; ++i) {
    greengpu::CheckpointOptions ckpt;
    ckpt.dir = (ckpt_root / ("every-" + std::to_string(cadences[i]))).string();
    ckpt.every = cadences[i];
    const CampaignRun run = run_campaign_checkpointed_timed(serial_cfg, ckpt);
    ckpt_seconds[i] = run.seconds;
    ckpt_identical = ckpt_identical && run.csv == serial.csv && run.json == serial.json;
    std::printf("  --checkpoint-every %-3zu %.2f s (%+.1f%% vs plain serial)\n",
                cadences[i], run.seconds,
                (run.seconds / serial.seconds - 1.0) * 100.0);
  }
  std::filesystem::remove_all(ckpt_root);
  std::printf("[%s] checkpointed reports vs plain run: %s\n",
              ckpt_identical ? "OK" : "FAIL",
              ckpt_identical ? "identical" : "DIFFER");
  ok = ckpt_identical && ok;

  std::printf("timing sim::EventQueue hot paths...\n");
  const QueueTimings q = time_event_queue();
  std::printf("  schedule+fire:        %.1f ns/event\n", q.schedule_fire_ns);
  std::printf("  schedule+cancel+fire: %.1f ns/event\n", q.schedule_cancel_fire_ns);
  std::printf("  cancel churn:         %.1f ns/op (%llu compactions)\n", q.cancel_churn_ns,
              static_cast<unsigned long long>(q.compactions));
  std::printf("  periodic tick:        %.1f ns/event\n", q.periodic_tick_ns);
  std::printf("[%s] schedule_every vs self-rescheduling chain: %s\n",
              q.periodic_matches_chain ? "OK" : "FAIL",
              q.periodic_matches_chain ? "identical firings" : "DIFFER");
  ok = q.periodic_matches_chain && ok;

  std::printf("timing scaler step (fast vs reference)...\n");
  const ScalerTimings s = time_scaler_step();
  std::printf("  fast path:  %.1f ns/step\n", s.fast_ns);
  std::printf("  reference:  %.1f ns/step\n", s.reference_ns);
  std::printf("[%s] scaler fast-vs-reference: %.2fx speedup, decisions %s\n",
              s.decisions_match ? "OK" : "FAIL", s.speedup,
              s.decisions_match ? "identical" : "DIFFER");
  ok = s.decisions_match && ok;

  std::ofstream out(out_file);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 2;
  }
  JsonWriter w(out);
  w.begin_object();
  w.kv("host_cpus", static_cast<double>(host_cpus));
  w.kv("jobs", static_cast<double>(jobs));
  w.kv("single_core_host", single_core_host);
  w.key("campaign");
  w.begin_object();
  w.kv("runs", static_cast<double>(serial.runs));
  w.kv("serial_seconds", serial.seconds);
  w.kv("parallel_seconds", parallel.seconds);
  w.kv("serial_runs_per_sec", serial.runs / serial.seconds);
  w.kv("parallel_runs_per_sec", parallel.runs / parallel.seconds);
  w.kv("speedup_vs_jobs1", speedup);
  w.key("jobs_sweep");
  w.begin_array();
  for (std::size_t i = 0; i < sweep_runs.size(); ++i) {
    w.begin_object();
    w.kv("jobs", static_cast<double>(jobs_sweep[i]));
    w.kv("seconds", sweep_runs[i].seconds);
    w.kv("runs_per_sec", sweep_runs[i].runs / sweep_runs[i].seconds);
    w.end_object();
  }
  w.end_array();
  w.kv("identical_reports",
       sweep_identical && serial.csv == parallel.csv && serial.json == parallel.json);
  w.kv("identical_reports_with_faults",
       f_serial.csv == f_parallel.csv && f_serial.json == f_parallel.json);
  w.end_object();
  w.key("batch");
  w.begin_object();
  w.kv("runs", static_cast<double>(b_scalar.runs));
  w.kv("fault_replicates", static_cast<double>(kReplicates));
  w.kv("warmup_iterations", static_cast<double>(kWarmup));
  w.kv("scalar_seconds", b_scalar.seconds);
  w.kv("batch_seconds", b_batch.seconds);
  w.kv("scalar_runs_per_sec", b_scalar.runs / b_scalar.seconds);
  w.kv("batch_runs_per_sec", b_batch.runs / b_batch.seconds);
  w.kv("speedup_vs_scalar", batch_speedup);
  w.kv("identical_reports", b_scalar.csv == b_batch.csv && b_scalar.json == b_batch.json);
  w.kv("identical_reports_across_jobs", batch_jobs_identical);
  w.kv("model_only_host_bytes", static_cast<double>(model_host_bytes));
  w.kv("model_cells_unbacked", model_host_bytes == 0);
  w.end_object();
  w.key("sim");
  w.begin_object();
  w.kv("governor_ticks", static_cast<double>(spans.ticks));
  w.kv("governor_bodies", static_cast<double>(spans.bodies));
  w.kv("governor_ticks_per_body", spans.ticks_per_body());
  w.end_object();
  w.key("pipeline");
  w.begin_object();
  w.key("workloads");
  w.begin_array();
  for (const PipelineComparison& c : pipeline_runs) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("sync_seconds", c.sync_seconds);
    w.kv("pipelined_seconds", c.pipelined_seconds);
    w.kv("makespan_speedup", c.makespan_speedup);
    w.kv("sync_energy_j", c.sync_energy_j);
    w.kv("pipelined_energy_j", c.pipelined_energy_j);
    w.kv("overlap_efficiency", c.overlap_efficiency);
    w.kv("verified", c.verified);
    w.end_object();
  }
  w.end_array();
  w.kv("min_makespan_speedup", min_pipeline_speedup);
  w.kv("min_overlap_efficiency", min_overlap_efficiency);
  w.kv("all_verified", pipeline_verified);
  w.kv("pipelined_energy_lower", pipeline_energy_lower);
  w.kv("campaign_runs", static_cast<double>(p_serial.runs));
  w.kv("campaign_seconds", p_serial.seconds);
  w.kv("campaign_runs_per_sec", p_serial.runs / p_serial.seconds);
  w.kv("identical_reports_across_jobs", pipeline_jobs_identical);
  w.kv("identical_reports_across_engines", pipeline_engines_identical);
  w.kv("identical_reports_after_resume", pipeline_resume_identical);
  w.end_object();
  w.key("event_queue");
  w.begin_object();
  w.kv("schedule_fire_ns_per_event", q.schedule_fire_ns);
  w.kv("schedule_cancel_fire_ns_per_event", q.schedule_cancel_fire_ns);
  w.kv("cancel_churn_ns_per_op", q.cancel_churn_ns);
  w.kv("periodic_tick_ns_per_event", q.periodic_tick_ns);
  w.kv("periodic_matches_chain", q.periodic_matches_chain);
  w.kv("churn_compactions", static_cast<double>(q.compactions));
  w.kv("events_fired_checksum", static_cast<double>(q.events_fired));
  w.end_object();
  w.key("scaler");
  w.begin_object();
  w.kv("steps", static_cast<double>(s.steps));
  w.kv("fast_ns_per_step", s.fast_ns);
  w.kv("reference_ns_per_step", s.reference_ns);
  w.kv("speedup_fast_vs_reference", s.speedup);
  w.kv("decisions_identical", s.decisions_match);
  w.end_object();
  w.key("checkpoint");
  w.begin_object();
  w.kv("every_0_seconds", ckpt_seconds[0]);
  w.kv("every_10_seconds", ckpt_seconds[1]);
  w.kv("every_100_seconds", ckpt_seconds[2]);
  w.kv("overhead_every_0", ckpt_seconds[0] / serial.seconds - 1.0);
  w.kv("overhead_every_10", ckpt_seconds[1] / serial.seconds - 1.0);
  w.kv("overhead_every_100", ckpt_seconds[2] / serial.seconds - 1.0);
  w.kv("journaled_reports_identical", ckpt_identical);
  w.end_object();
  w.end_object();
  out << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return ok ? 0 : 1;
}
