// Differential test: a CPU governor whose quiescent ticks run in spans (one
// queue dispatch per run of ticks) against the same step() fired tick by
// tick from a schedule_every() timer that never advances, which stays here
// as the oracle.  Seeded scenarios mix idle, spinning and host-chunk CPU
// phases, level changes that reschedule a CPU completion, a foreign
// recurring timer and one-shots landing exactly on governor instants, and
// run_until() limits that fall inside spans.  Everything a tick leaves
// behind must come out bit-identical.
#include "src/greengpu/cpu_governor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/recovery.h"
#include "src/sim/crash.h"

namespace gg::greengpu {
namespace {

using sim::EventQueue;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct Scenario {
  std::uint64_t seed{1};
  CpuGovernorKind kind{CpuGovernorKind::kOndemand};
  RecordOptions record{};
};

/// Everything a run leaves behind, as bit patterns.
struct Outcome {
  std::vector<std::uint64_t> decisions;  // (time, util, level) per retained record
  std::uint64_t steps{0};
  std::uint64_t decision_count{0};
  std::uint64_t cpu_energy{0};
  std::uint64_t spin_energy{0};
  std::uint64_t util_integral{0};
  std::uint64_t busy_integral{0};
  std::uint64_t spin_integral{0};
  std::uint64_t now{0};
  std::uint64_t fired{0};
  /// (now, fired_count, pending_count) after every drive call, and
  /// (instant, id) for every foreign event fired.
  std::vector<std::uint64_t> trail;
  std::vector<std::uint8_t> queue_bytes;
  std::vector<std::uint8_t> governor_bytes;
  std::vector<std::uint8_t> cpu_bytes;
  // Not compared: how the two sides dispatched.
  std::uint64_t bodies{0};
  std::uint64_t rescheduling_level_changes{0};
};

/// Run one seeded scenario.  `spans` = the governor's own attach(), which
/// runs quiescent ticks in spans; otherwise the oracle: step() from a
/// recurring timer, once per dispatch.
Outcome run(const Scenario& sc, bool spans) {
  sim::Platform platform;
  EventQueue& q = platform.queue();
  sim::CpuDevice& cpu = platform.cpu();
  Rng rng(sc.seed);
  Outcome out;

  // Dyadic intervals make tick instants collide exactly with the foreign
  // timer; the default 0.1 s is the paper's.
  OndemandParams params;
  const double intervals[] = {0.125, 0.1, 0.0625};
  params.interval = Seconds{intervals[rng.uniform_int(3)]};
  const double foreign_period = 0.5 * static_cast<double>(1 + rng.uniform_int(3));
  cpu.set_level(rng.uniform_int(cpu.table().levels()));

  std::unique_ptr<CpuGovernor> gov = make_cpu_governor(sc.kind, platform, params);
  gov->set_record(sc.record);
  const Seconds first{0.0625 * static_cast<double>(1 + rng.uniform_int(4))};
  // The governor's tick instants, accumulated exactly as the timer does.
  auto next_tick_after = [&](Seconds t) {
    Seconds k = first;
    while (k <= t) k = k + params.interval;
    return k;
  };

  bool live = true;  // foreign sources stop feeding work at the end
  auto log = [&](std::uint64_t id) {
    out.trail.push_back(bits(q.now().get()));
    out.trail.push_back(id);
  };
  std::function<void()> host_chunk = [&] {
    sim::CpuWork w;
    w.units = 1.0 + static_cast<double>(rng.uniform_int(4));
    w.ops_per_unit = rng.uniform(2e8, 3e9);
    w.overhead_per_unit = Seconds{rng.uniform(0.0, 0.05)};
    w.active_cores = static_cast<int>(rng.uniform_int(3));  // 0 = all cores
    cpu.submit(w, [&] {
      log(10);
      if (live && rng.uniform() < 0.4) host_chunk();
    });
  };
  auto foreign_body = [&](std::uint64_t id) {
    log(id);
    if (!live) return;
    const double r = rng.uniform();
    if (r < 0.15) {
      cpu.set_spinning(!cpu.spinning());
    } else if (r < 0.3) {
      host_chunk();
    } else if (r < 0.38) {
      cpu.set_level(rng.uniform_int(cpu.table().levels()));
    }
  };
  auto one_shot = [&](Seconds when, std::uint64_t id) {
    q.schedule_at(when, [&, id] { foreign_body(id); });
  };

  auto attach = [&] {
    if (spans) {
      gov->attach_at(first);
    } else {
      q.schedule_every(first, params.interval, [&] {
        const bool busy = cpu.busy();
        const std::size_t before = cpu.level();
        gov->step(q.now());
        if (busy && cpu.level() != before) ++out.rescheduling_level_changes;
      });
    }
  };
  // The foreign timer registers before or after the governor, so ties at
  // shared instants go either way.
  const bool governor_first = rng.uniform() < 0.5;
  if (governor_first) attach();
  const Seconds period{foreign_period};
  sim::EventHandle foreign = q.schedule_every(period, period, [&] {
    foreign_body(1);
    // Exactly on a later governor instant.
    if (rng.uniform() < 0.3) {
      one_shot(next_tick_after(q.now() + Seconds{rng.uniform(0.0, 3.0)}), 2);
    }
  });
  if (!governor_first) attach();
  for (int i = 0; i < 30; ++i) {
    one_shot(Seconds{0.0625 * static_cast<double>(rng.uniform_int(1600))}, 3);
  }

  auto probe = [&] {
    out.trail.push_back(bits(q.now().get()));
    out.trail.push_back(q.fired_count());
    out.trail.push_back(q.pending_count());
  };
  for (int round = 0; round < 60; ++round) {
    const double pick = rng.uniform();
    if (pick < 0.45) {
      // Off-grid limit: lands inside a span.
      q.run_until(q.now() + Seconds{rng.uniform(0.0, 4.0)});
    } else if (pick < 0.7) {
      // Exactly on a governor instant: the inclusive boundary.
      q.run_until(next_tick_after(q.now() + Seconds{rng.uniform(0.0, 2.0)}));
    } else {
      // Step until a foreign event fired (the cudalite wait-loop shape).
      const std::size_t seen = out.trail.size();
      while (out.trail.size() == seen && q.step()) {
      }
    }
    probe();
  }

  // Wind down to a quiescent CPU so its state can be saved.
  live = false;
  foreign.cancel();
  cpu.set_spinning(false);
  while (cpu.busy() || cpu.queued() > 0) q.run_until(q.now() + Seconds{1.0});
  q.run_until(q.now() + Seconds{rng.uniform(0.0, 5.0)});
  probe();

  for (const GovernorDecision& d : gov->decisions_snapshot()) {
    out.decisions.push_back(bits(d.time.get()));
    out.decisions.push_back(bits(d.util));
    out.decisions.push_back(d.level);
  }
  out.steps = gov->steps();
  out.decision_count = gov->decision_count();
  out.cpu_energy = bits(cpu.energy().get());
  out.spin_energy = bits(cpu.spin_energy().get());
  const sim::CpuActivityCounters c = cpu.counters();
  out.util_integral = bits(c.util_integral);
  out.busy_integral = bits(c.busy_integral);
  out.spin_integral = bits(c.spin_integral);
  out.now = bits(q.now().get());
  out.fired = q.fired_count();
  out.bodies = q.timer_bodies_run();
  common::SnapshotWriter wq;
  q.save(wq);
  out.queue_bytes = wq.payload();
  common::SnapshotWriter wg;
  gov->save(wg);
  out.governor_bytes = wg.payload();
  common::SnapshotWriter wc;
  cpu.save(wc);
  out.cpu_bytes = wc.payload();
  gov->detach();
  return out;
}

void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.decision_count, b.decision_count);
  EXPECT_EQ(a.cpu_energy, b.cpu_energy);
  EXPECT_EQ(a.spin_energy, b.spin_energy);
  EXPECT_EQ(a.util_integral, b.util_integral);
  EXPECT_EQ(a.busy_integral, b.busy_integral);
  EXPECT_EQ(a.spin_integral, b.spin_integral);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.trail, b.trail);
  EXPECT_EQ(a.queue_bytes, b.queue_bytes);
  EXPECT_EQ(a.governor_bytes, b.governor_bytes);
  EXPECT_EQ(a.cpu_bytes, b.cpu_bytes);
}

const CpuGovernorKind kSpanKinds[] = {
    CpuGovernorKind::kOndemand,    CpuGovernorKind::kConservative,
    CpuGovernorKind::kPerformance, CpuGovernorKind::kPowersave,
    CpuGovernorKind::kWma};

const RecordOptions kRecordModes[] = {
    RecordOptions{RecordMode::kFull, 256},
    RecordOptions{RecordMode::kRing, 7},
    RecordOptions{RecordMode::kCounters, 0},
};

TEST(GovernorSpans, MatchPerTickDispatchBitForBit) {
  std::uint64_t span_bodies = 0;
  std::uint64_t oracle_bodies = 0;
  std::uint64_t rescheduled = 0;
  for (const CpuGovernorKind kind : kSpanKinds) {
    for (const RecordOptions& record : kRecordModes) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(std::string(to_string(kind)) +
                     " record=" + std::string(to_string(record.mode)) +
                     " seed=" + std::to_string(seed));
        const Scenario sc{seed, kind, record};
        const Outcome spans = run(sc, true);
        const Outcome oracle = run(sc, false);
        ASSERT_GT(oracle.steps, 500u);
        expect_identical(spans, oracle);
        EXPECT_LE(spans.bodies, oracle.bodies);
        span_bodies += spans.bodies;
        oracle_bodies += oracle.bodies;
        rescheduled += oracle.rescheduling_level_changes;
      }
    }
  }
  // The scenarios did exercise what they claim to.
  EXPECT_GT(rescheduled, 0u);
  EXPECT_LT(span_bodies * 3, oracle_bodies);
}

TEST(GovernorSpans, OneDispatchRunsAnIdleSpanUpToTheNextForeignEvent) {
  sim::Platform platform;
  EventQueue& q = platform.queue();
  OndemandGovernor gov(platform, OndemandParams{});
  gov.attach();
  bool fired = false;
  q.schedule_at(Seconds{5.05}, [&] { fired = true; });
  // Idle from the start: the level walks down for three ticks, then holds.
  // The first step() fires the tick at 0.1 s, which moves the level.
  ASSERT_TRUE(q.step());
  EXPECT_EQ(gov.steps(), 1u);
  ASSERT_TRUE(q.step());
  ASSERT_TRUE(q.step());
  EXPECT_EQ(gov.steps(), 3u);
  EXPECT_EQ(platform.cpu().level(), 3u);
  // The level now holds: one dispatch takes every tick before 5.05 s.
  const std::uint64_t bodies = q.timer_bodies_run();
  ASSERT_TRUE(q.step());
  EXPECT_EQ(q.timer_bodies_run(), bodies + 1);
  EXPECT_EQ(gov.steps(), 50u);
  EXPECT_EQ(q.fired_count(), 50u);
  EXPECT_FALSE(fired);
  ASSERT_TRUE(q.step());
  EXPECT_TRUE(fired);
  // With no foreign event left, step() fires a single tick.
  ASSERT_TRUE(q.step());
  EXPECT_EQ(gov.steps(), 51u);
  // run_until() bounds a span by its limit, inclusively.
  q.run_until(Seconds{7.0});
  EXPECT_EQ(gov.steps(), 70u);
  EXPECT_EQ(q.fired_count(), 71u);
  EXPECT_EQ(q.now(), Seconds{7.0});
  gov.detach();
}

/// A campaign of ondemand-governed cells killed at mid-campaign-cell and
/// resumed: periodic controller snapshots land between governor ticks, so
/// they fall inside spans; the reports must still be byte-identical.
TEST(GovernorSpans, KillAndResumeMidCampaignCellIsByteIdentical) {
  CampaignConfig cfg;
  cfg.workloads = {"pathfinder", "lud"};
  cfg.policies = {Policy::scaling_only(), Policy::green_gpu()};
  cfg.options.pool_workers = 2;
  auto report = [](const CampaignResult& r) {
    std::ostringstream out;
    write_campaign_csv(out, r);
    write_campaign_json(out, r);
    return out.str();
  };
  const std::string golden = report(run_campaign(cfg));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gg_GovernorSpans_KillAndResume";
  std::filesystem::remove_all(dir);
  CheckpointOptions ckpt;
  ckpt.dir = dir.string();
  ckpt.every = 3;
  sim::CrashInjector crash(common::KillPoint::kMidCampaignCell, 3,
                           common::CrashMode::kThrow);
  RecoverySupervisor supervisor(cfg, ckpt);
  const CampaignResult resumed = supervisor.run();
  EXPECT_TRUE(crash.fired());
  EXPECT_GE(supervisor.restarts(), 1);
  EXPECT_EQ(report(resumed), golden);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gg::greengpu
