// The two campaign workloads.
//
//   paper-campaign  Table II x the paper's four policies (36 cells) the way
//                   `greengpu_cli --campaign --checkpoint-dir` runs them:
//                   scalar engine, verification on, crash-safe journal with
//                   periodic controller snapshots.  Real kernel compute and
//                   scalar-reference verification dominate.
//   fault-sweep     The same suite under benign fault channels with many
//                   fault-seed replicates, a fault-free warm-up and the batch
//                   engine.  Model-only stepping and workload construction
//                   dominate; one verify donor per row is a minor cost.
//
// The untraced run repeats the whole campaign for the run's seconds and
// reports medians.  The traced run walks the planned cells through the
// public per-layer calls (make_workload, ExperimentEngine start / step /
// finish, the journal, the report writers) with a span around each, rebuilds
// the CampaignResult and checks its reports are byte-identical to the real
// engine's.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "bench.h"
#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/greengpu/batch_engine.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/workloads/registry.h"
#include "trace.h"

namespace ggbench {
namespace {

namespace fs = std::filesystem;
using gg::greengpu::BatchCampaignEngine;
using gg::greengpu::CampaignConfig;
using gg::greengpu::CampaignEngine;
using gg::greengpu::CampaignPlan;
using gg::greengpu::CampaignResult;
using gg::greengpu::ExperimentEngine;
using gg::greengpu::ExperimentResult;
using gg::greengpu::RunOptions;

// Thread budget: jobs x pool_workers stays within the 4-core host class the
// benchmark is sized for.  Both campaigns run the CLI's defaults: one cell
// (scalar) or one workload row (batch) at a time, with the kernel pool
// across the cores.  Row-parallel jobs would make a row's host time depend
// on which row shares the host with it, and that moves with the seed.
constexpr std::size_t kJobs = 1;
constexpr std::size_t kPoolWorkers = 4;
// Controller snapshot cadence of the checkpointed paper-campaign.
constexpr std::size_t kCheckpointEvery = 4;
// fault-sweep shape: replicates per policy and the fault-free warm-up they
// share.  24 replicates put the verify donors near a quarter of host time.
constexpr std::size_t kSweepReplicates = 24;
constexpr std::size_t kSweepWarmup = 2;
constexpr double kSweepFaultRate = 0.05;
// Set-ups measured per run; setup_s is their median.
constexpr int kSetupRepeats = 25;
// Fewest timed campaign repetitions per untraced run, whatever --seconds
// says (after one untimed warm-up campaign).
constexpr int kMinRepeats = 3;

/// The Table II suite in a seeded order.
std::vector<std::string> seeded_suite(std::uint64_t seed) {
  std::vector<std::string> names = gg::workloads::all_workload_names();
  gg::Rng rng(seed);
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.uniform_int(i)]);
  }
  return names;
}

struct Setup {
  CampaignConfig config;
  /// Journal + periodic snapshots, as `--checkpoint-dir` does.
  bool checkpointed{false};
};

Setup make_setup(const Args& args) {
  Setup s;
  CampaignConfig& c = s.config;
  c.options = gg::greengpu::campaign_default_options();
  c.jobs = kJobs;
  c.options.pool_workers = kPoolWorkers;
  if (args.workload == "paper-campaign") {
    // The seed orders the suite; cells run one at a time, so the order
    // changes the program's input, not the work's concurrency.
    c.workloads = seeded_suite(args.seed);
    c.engine = CampaignEngine::kScalar;
    s.checkpointed = true;
  } else {
    // The seed draws the fault schedules.  The suite keeps Table II order:
    // a row's host time depends on the allocator state the row before it
    // left, so reordering rows would move the timings with the seed.
    c.workloads = gg::workloads::all_workload_names();
    c.engine = CampaignEngine::kBatch;
    c.options.faults.seed = args.seed * 0x9E3779B97F4A7C15ULL + 17;
    c.options.faults.util_drop_rate = kSweepFaultRate;
    c.options.faults.util_stale_rate = kSweepFaultRate;
    c.options.faults.util_corrupt_rate = kSweepFaultRate;
    c.options.faults.clock_reject_rate = kSweepFaultRate;
    c.options.faults_active_from = kSweepWarmup;
    c.fault_replicates = kSweepReplicates;
  }
  return s;
}

bool is_greengpu(const std::string& policy) {
  return policy == "greengpu" || policy.rfind("greengpu#", 0) == 0;
}

/// Mean GreenGPU energy saving vs the baseline policy, percent.
double saving_pct(const CampaignResult& r) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t p = 0; p < r.policy_names.size(); ++p) {
    if (!is_greengpu(r.policy_names[p])) continue;
    sum += r.mean_saving(p);
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n);
}

/// Mean GreenGPU execution time as a percentage of the baseline's.
double time_ratio_pct(const CampaignResult& r) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t w = 0; w < r.workloads.size(); ++w) {
    for (std::size_t p = 0; p < r.policy_names.size(); ++p) {
      if (!is_greengpu(r.policy_names[p])) continue;
      sum += r.cell(w, p).time_delta;
      ++n;
    }
  }
  return n == 0 ? 0.0 : 100.0 + 100.0 * sum / static_cast<double>(n);
}

struct Rendered {
  std::string csv;
  std::string json;
  std::string markdown;
};

Rendered render(const CampaignResult& r) {
  std::ostringstream csv, json, md;
  gg::greengpu::write_campaign_csv(csv, r);
  gg::greengpu::write_campaign_json(json, r);
  gg::greengpu::write_campaign_markdown(md, r);
  return {csv.str(), json.str(), md.str()};
}

/// Bytes and files a checkpointed campaign left in its directory.
struct PersistUsage {
  double journal_bytes{0};
  double snapshot_bytes{0};
  double snapshot_files{0};
};

PersistUsage persist_usage(const std::string& dir) {
  PersistUsage u;
  if (!fs::exists(dir)) return u;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto bytes = static_cast<double>(entry.file_size());
    if (entry.path().filename() == "campaign.journal") {
      u.journal_bytes += bytes;
    } else if (entry.path().extension() == ".ggsn") {
      u.snapshot_bytes += bytes;
      u.snapshot_files += 1;
    }
  }
  return u;
}

/// One real campaign, exactly as a user runs it.
struct Pass {
  CampaignResult result;
  Rendered reports;
  double wall_s{0.0};
  /// Host seconds from each cell's start to its final result, by cell.
  std::vector<double> cell_latency_s;
  /// Host seconds from a workload row's first cell start to its last
  /// result, by row (plan order).
  std::vector<double> row_latency_s;
  /// The batch engine's own account of what it memoized.
  BatchCampaignEngine::Stats stats;
  PersistUsage persist;
};

Pass run_pass(const Setup& setup, const std::string& dir) {
  Pass pass;
  const CampaignConfig& config = setup.config;
  const CampaignPlan plan = gg::greengpu::plan_campaign(config);
  const std::size_t per_row = plan.policies.size();
  pass.cell_latency_s.assign(plan.total(), 0.0);
  pass.row_latency_s.assign(plan.workloads.size(), 0.0);
  const double t0 = now_s();
  if (config.engine == CampaignEngine::kScalar) {
    gg::greengpu::CheckpointOptions ckpt;
    if (setup.checkpointed) {
      ckpt.dir = dir;
      ckpt.every = kCheckpointEvery;
    }
    // jobs == 1: cells complete one after another in flat-index order, so
    // the gap between progress callbacks is each cell's latency (journal
    // append included).
    std::size_t i = 0;
    double last = t0;
    pass.result = gg::greengpu::run_campaign_checkpointed(
        config, ckpt, [&](const std::string&, const std::string&, std::size_t, std::size_t) {
          const double t = now_s();
          pass.cell_latency_s[i] = t - last;
          pass.row_latency_s[i / per_row] += t - last;
          last = t;
          ++i;
        });
  } else {
    CampaignResult& out = pass.result;
    out.workloads = plan.workloads;
    for (const auto& p : plan.policies) out.policy_names.push_back(p.name);
    out.cells.resize(plan.total());
    std::vector<double> started(plan.total(), 0.0);
    std::vector<double> done(plan.total(), 0.0);
    std::mutex mu;
    BatchCampaignEngine engine(plan, config.options, config.jobs);
    BatchCampaignEngine::Hooks hooks;
    hooks.customize = [&](std::size_t i, RunOptions&) {
      std::lock_guard<std::mutex> lock(mu);
      started[i] = now_s();
    };
    hooks.on_done = [&](std::size_t i, const ExperimentResult&) {
      std::lock_guard<std::mutex> lock(mu);
      done[i] = now_s();
    };
    engine.run(out.cells, hooks);
    gg::greengpu::finalize_campaign_savings(out);
    pass.stats = engine.stats();
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
      double first = started[w * per_row];
      double last = done[w * per_row];
      for (std::size_t i = w * per_row; i < (w + 1) * per_row; ++i) {
        pass.cell_latency_s[i] = done[i] - started[i];
        first = std::min(first, started[i]);
        last = std::max(last, done[i]);
      }
      pass.row_latency_s[w] = last - first;
    }
  }
  pass.reports = render(pass.result);
  pass.wall_s = now_s() - t0;
  pass.persist = persist_usage(dir);
  return pass;
}

/// Counters the traced walk collects from the program's own results.
struct WalkCounters {
  double events{0};
  double simulated_s{0};
  double dvfs_transitions{0};
  double scaler_decisions{0};
  double governor_decisions{0};
  double division_moves{0};
  double verify_runs{0};
  std::size_t full_runs{0};
  std::size_t model_runs{0};
  std::size_t forked_cells{0};
  std::size_t prefix_iterations_saved{0};
  bool twin_events_match{true};
};

struct Walk {
  CampaignResult result;
  Rendered reports;
  WalkCounters counters;
  double wall_s{0.0};
};

/// One live cell of the walk; the engine points into the workload, so the
/// workload is declared first and destroyed last.
struct WalkCell {
  std::size_t index{0};
  gg::workloads::WorkloadPtr workload;
  RunOptions options;
  std::unique_ptr<ExperimentEngine> engine;
  bool full_compute{false};
};

void step_to(Tracer& tracer, WalkCell& c, std::size_t until) {
  ScopedSpan span(tracer, c.full_compute ? "workloads.step_full" : "sim.step", c.index);
  while (c.engine->iteration() < until) c.engine->step_iteration();
}

/// Re-run a full-compute cell model-only (untimed by the campaign itself) so
/// its host time splits into simulation (the twin) and kernel compute (the
/// rest).
void run_twin(Tracer& tracer, const std::string& workload_name, const WalkCell& cell,
              const gg::greengpu::Policy& policy, WalkCounters& counters) {
  ScopedSpan twin(tracer, "twin", cell.index);
  RunOptions options = cell.options;
  options.model_only = true;
  options.checkpoint_every = 0;
  options.checkpoint_dir.clear();
  gg::workloads::WorkloadPtr workload;
  {
    ScopedSpan span(tracer, "twin.construct", cell.index);
    workload = gg::workloads::make_workload(workload_name);
  }
  ExperimentEngine engine(*workload, policy, options);
  {
    ScopedSpan span(tracer, "twin.setup", cell.index);
    engine.start();
  }
  {
    ScopedSpan span(tracer, "sim.step", cell.index);
    while (engine.iteration() < engine.total_iterations()) engine.step_iteration();
  }
  const auto fired = static_cast<double>(engine.platform().queue().fired_count());
  counters.events += fired;
  counters.twin_events_match =
      counters.twin_events_match &&
      fired == static_cast<double>(cell.engine->platform().queue().fired_count());
}

/// Walk every planned cell through the per-layer calls, mirroring the engine
/// the config selects: the scalar engine computes and verifies every cell;
/// the batch engine computes one verify donor per row, runs the rest
/// model-only with the donor's verification outcome, and forks fault
/// replicates from a shared warm-up prefix.
Walk walk(const Setup& setup, const std::string& dir, Tracer& tracer) {
  const CampaignConfig& config = setup.config;
  const CampaignPlan plan = gg::greengpu::plan_campaign(config);
  const RunOptions& base = config.options;
  const bool batch = config.engine == CampaignEngine::kBatch;
  const bool need_verify = base.verify && !base.model_only;
  const std::size_t per_row = plan.policies.size();
  const std::size_t stride = plan.replicate_stride == 0 ? 1 : plan.replicate_stride;
  const std::size_t warmup = base.faults_active_from;
  const bool forking =
      batch && stride > 1 && warmup > 0 && base.faults.any_faults() && !base.record_trace;

  Walk out;
  WalkCounters& n = out.counters;
  CampaignResult& result = out.result;
  result.workloads = plan.workloads;
  for (const auto& p : plan.policies) result.policy_names.push_back(p.name);
  result.cells.resize(plan.total());

  const double t0 = now_s();
  std::optional<gg::greengpu::CampaignJournal> journal;
  if (setup.checkpointed) {
    fs::create_directories(dir);
    journal.emplace(dir + "/campaign.journal",
                    gg::greengpu::CampaignJournal::fingerprint(plan, base), true);
  }
  for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
    ScopedSpan row(tracer, "campaign.row", w);
    std::vector<std::unique_ptr<WalkCell>> cells;
    for (std::size_t i = w * per_row; i < (w + 1) * per_row; ++i) {
      auto c = std::make_unique<WalkCell>();
      c->index = i;
      c->options = base;
      if (c->options.faults.any_faults()) {
        c->options.faults.seed = gg::greengpu::campaign_cell_seed(base.faults.seed, i);
      }
      if (setup.checkpointed) {
        c->options.checkpoint_every = kCheckpointEvery;
        c->options.checkpoint_dir = dir;
        c->options.checkpoint_tag = "cell-" + std::to_string(i);
      }
      c->full_compute = batch ? need_verify && cells.empty() : !base.model_only;
      if (batch) c->options.model_only = !c->full_compute;
      {
        ScopedSpan span(tracer, "workloads.construct", i);
        c->workload = gg::workloads::make_workload(plan.workloads[w]);
      }
      c->engine = std::make_unique<ExperimentEngine>(*c->workload, plan.policies[i % per_row],
                                                     c->options);
      cells.push_back(std::move(c));
    }

    // Start each replicate group; a forkable group simulates its warm-up
    // once and restores the rest from the snapshot.
    for (std::size_t k = 0; k < cells.size();) {
      const std::size_t group = k / stride;
      std::size_t end = k + 1;
      while (end < cells.size() && end / stride == group) ++end;
      {
        ScopedSpan span(tracer, "workloads.setup", cells[k]->index);
        cells[k]->engine->start();
      }
      const bool fork_group = forking && end - k > 1;
      std::optional<gg::common::SnapshotWriter> prefix;
      std::size_t fork_at = 0;
      if (fork_group) {
        fork_at = std::min(warmup, cells[k]->engine->total_iterations());
        step_to(tracer, *cells[k], fork_at);
        ScopedSpan span(tracer, "campaign.fork", cells[k]->index);
        prefix.emplace();
        cells[k]->engine->save_prefix(*prefix);
      }
      for (std::size_t m = k + 1; m < end; ++m) {
        {
          ScopedSpan span(tracer, "workloads.setup", cells[m]->index);
          cells[m]->engine->start();
        }
        if (fork_group) {
          ScopedSpan span(tracer, "campaign.fork", cells[m]->index);
          auto reader = gg::common::SnapshotReader::from_payload(prefix->payload(), "prefix");
          cells[m]->engine->restore_prefix(reader);
          ++n.forked_cells;
          n.prefix_iterations_saved += fork_at;
        }
      }
      k = end;
    }

    for (auto& c : cells) {
      step_to(tracer, *c, c->engine->total_iterations());
      if (c->full_compute) {
        run_twin(tracer, plan.workloads[w], *c, plan.policies[c->index % per_row], n);
      } else {
        n.events += static_cast<double>(c->engine->platform().queue().fired_count());
      }
    }

    bool memo_verified = false;
    bool memo_skipped = false;
    for (auto& c : cells) {
      ExperimentResult r;
      if (c->full_compute) {
        ScopedSpan span(tracer, "workloads.verify", c->index);
        r = c->engine->finish();
        memo_verified = r.verified;
        memo_skipped = r.verify_skipped;
        ++n.full_runs;
        if (base.verify) n.verify_runs += 1;
      } else {
        ScopedSpan span(tracer, "workloads.finish", c->index);
        r = c->engine->finish();
        ++n.model_runs;
        if (batch && !base.model_only) {
          r.verified = need_verify ? memo_verified : true;
          r.verify_skipped = need_verify ? memo_skipped : true;
        }
      }
      n.simulated_s += r.exec_time.get();
      n.dvfs_transitions += static_cast<double>(r.gpu_frequency_transitions);
      n.scaler_decisions += static_cast<double>(r.scaler_decision_count);
      n.governor_decisions += static_cast<double>(r.governor_decision_count);
      n.division_moves += static_cast<double>(r.division_moves);
      if (journal) {
        ScopedSpan span(tracer, "persist.journal", c->index);
        journal->append(c->index, r);
      }
      result.cells[c->index].result = std::move(r);
    }
  }
  {
    ScopedSpan span(tracer, "campaign.finalize");
    gg::greengpu::finalize_campaign_savings(result);
  }
  {
    ScopedSpan span(tracer, "report.render");
    out.reports = render(result);
  }
  out.wall_s = now_s() - t0;
  return out;
}

void traced_run(const Args& args, const Setup& setup, Report& report) {
  const std::string dir = args.work_dir + "/campaign";
  fs::remove_all(dir);
  const Pass pass = run_pass(setup, dir);
  fs::remove_all(dir);
  report.attempted += pass.result.cells.size();
  for (const auto& c : pass.result.cells) report.failed += c.result.verified ? 0 : 1;
  report.gate(pass.result.all_verified(), "every campaign cell verified");

  Tracer untraced(false);
  const Walk plain = walk(setup, dir + "-plain", untraced);
  fs::remove_all(dir + "-plain");
  Tracer tracer(true);
  const Walk traced = walk(setup, dir + "-traced", tracer);
  fs::remove_all(dir + "-traced");
  report.gate(traced.reports.csv == pass.reports.csv && traced.reports.json == pass.reports.json,
              "traced walk CSV/JSON byte-identical to the engine's reports");
  report.gate(plain.reports.csv == pass.reports.csv, "untraced walk CSV byte-identical");
  report.gate(traced.counters.twin_events_match,
              "model-only twins fire the same events as their full-compute cells");
  const WalkCounters& n = traced.counters;
  if (setup.config.engine == CampaignEngine::kBatch) {
    report.gate(n.full_runs == pass.stats.full_runs && n.model_runs == pass.stats.model_runs &&
                    n.forked_cells == pass.stats.forked_cells &&
                    n.prefix_iterations_saved == pass.stats.prefix_iterations_saved,
                "walk mirrors BatchCampaignEngine::stats()");
  }

  const std::string trace_path =
      args.trace_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".jsonl";
  tracer.write_jsonl(trace_path);
  std::printf("%s spans written to %s\n", args.workload.c_str(), trace_path.c_str());
  const double residual = print_self_times(args.workload, tracer, traced.wall_s);

  const double twin_s = tracer.total("twin");
  const double model_step_s = tracer.total("sim.step");
  const double twin_step_s = tracer.total_under("sim.step", "twin");
  const double compute_s = tracer.total("workloads.step_full") - twin_step_s;
  const double verify_s = tracer.total("workloads.verify");
  const double construct_s = tracer.total("workloads.construct");
  const double campaign_host_s = traced.wall_s - twin_s;
  const double overhead_s = traced.wall_s - plain.wall_s;
  std::printf("%s traced wall %.3f s, untraced walk %.3f s, tracing overhead %.3f s "
              "(%.2f%%); model-only twins %.3f s; engine pass %.3f s\n",
              args.workload.c_str(), traced.wall_s, plain.wall_s, overhead_s,
              100.0 * overhead_s / plain.wall_s, twin_s, pass.wall_s);
  const double verify_compute_pct = 100.0 * (verify_s + compute_s) / campaign_host_s;
  const double model_construct_pct =
      100.0 * (model_step_s - twin_step_s + construct_s) / campaign_host_s;
  std::printf("%s host split (campaign time %.3f s, twins excluded): verify+compute "
              "%.1f%%, model-only stepping+construction %.1f%%\n",
              args.workload.c_str(), campaign_host_s, verify_compute_pct,
              model_construct_pct);

  const auto ms = [](double s) { return 1e3 * s; };
  double cell_max = 0.0;
  for (double s : pass.cell_latency_s) cell_max = std::max(cell_max, s);
  report_layers(
      report,
      {{"workloads.construct_ms", ms(construct_s)},
       {"workloads.setup_ms", ms(tracer.total("workloads.setup"))},
       {"workloads.compute_ms", ms(compute_s)},
       {"workloads.verify_ms", ms(verify_s)},
       {"workloads.verify_runs", n.verify_runs},
       {"sim.step_ms", ms(model_step_s)},
       {"sim.events", n.events},
       {"sim.ns_per_event", n.events > 0 ? 1e9 * model_step_s / n.events : 0.0},
       {"sim.simulated_s", n.simulated_s},
       {"sim.dvfs_transitions", n.dvfs_transitions},
       {"greengpu.scaler_decisions", n.scaler_decisions},
       {"greengpu.governor_decisions", n.governor_decisions},
       {"greengpu.division_moves", n.division_moves},
       {"campaign.cell_ms_max", ms(cell_max)},
       {"campaign.slowest_row_ms",
        ms(*std::max_element(pass.row_latency_s.begin(), pass.row_latency_s.end()))},
       {"campaign.full_runs", static_cast<double>(n.full_runs)},
       {"campaign.model_runs", static_cast<double>(n.model_runs)},
       {"campaign.forked_cells", static_cast<double>(n.forked_cells)},
       {"campaign.prefix_iterations_saved", static_cast<double>(n.prefix_iterations_saved)},
       {"report.render_ms", ms(tracer.total("report.render"))},
       {"persist.journal_bytes", pass.persist.journal_bytes},
       {"persist.snapshot_bytes", pass.persist.snapshot_bytes},
       {"persist.snapshot_files", pass.persist.snapshot_files},
       {"host.verify_compute_pct", verify_compute_pct},
       {"host.model_construct_pct", model_construct_pct},
       {"trace.overhead_ms", ms(overhead_s)},
       {"trace.residual_ms", ms(residual)}});
}

}  // namespace

void run_campaign_workload(const Args& args, Report& report) {
  const Setup setup = make_setup(args);
  if (args.trace) {
    traced_run(args, setup, report);
    return;
  }

  // Set-up: resolve the plan and every workload name through the registry.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    const CampaignPlan plan = gg::greengpu::plan_campaign(setup.config);
    for (const auto& name : plan.workloads) (void)gg::workloads::make_workload(name);
    setups.push_back(now_s() - t0);
  }

  const std::string dir = args.work_dir + "/campaign";
  std::vector<double> rates;
  // A campaign user waits for the whole report, so a campaign's latency is
  // its wall time from start to rendered reports.
  std::vector<double> walls;
  std::optional<Pass> first;
  const double start = now_s();
  for (int rep = 0; rep <= kMinRepeats || now_s() - start < args.seconds; ++rep) {
    fs::remove_all(dir);
    Pass pass = run_pass(setup, dir);
    fs::remove_all(dir);
    const std::size_t cells = pass.result.cells.size();
    report.attempted += cells;
    for (const auto& c : pass.result.cells) report.failed += c.result.verified ? 0 : 1;
    // The first campaign warms the allocator and page cache; it is checked
    // but not timed.
    if (rep > 0) {
      rates.push_back(static_cast<double>(cells) / pass.wall_s);
      walls.push_back(pass.wall_s);
    }
    if (!first) {
      report.gate(pass.result.all_verified(), "every campaign cell verified");
      first = std::move(pass);
    } else {
      report.gate(pass.reports.csv == first->reports.csv &&
                      pass.reports.json == first->reports.json,
                  "repeated campaigns give byte-identical CSV/JSON (rep " +
                      std::to_string(rep) + ")");
    }
  }
  std::printf("%s %zu timed campaigns of %zu cells, cells_per_s per campaign:",
              args.workload.c_str(), rates.size(), first->result.cells.size());
  for (double r : rates) std::printf(" %.1f", r);
  std::printf("\n");
  report.metric("cells_per_s", median(rates), "1/s");
  report.metric("latency_p50_ms", 1e3 * median(walls), "ms");
  const double ratio = time_ratio_pct(first->result);
  report.metric("energy_saving_pct", saving_pct(first->result), "%");
  report.metric("time_ratio_pct", ratio, "%");
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  print_line(args.workload, "time_penalty_pct", ratio - 100.0, "%");
  print_line(args.workload, "failed_ratio",
             static_cast<double>(report.failed) / static_cast<double>(report.attempted), "");
}

}  // namespace ggbench
