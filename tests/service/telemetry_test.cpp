// Streaming-telemetry tests: TelemetryHub backpressure (ring overflow with
// exact DROPPED accounting, drop-oldest ordering after a partial drain,
// heartbeats, stall eviction, the subscriber-table bound), TelemetryFeed
// purity (the event stream is a pure function of the record sequence,
// breaker transitions included), and ServiceCore's WATCH plumbing — a live
// subscription and a `WATCH FROM <seq>` resume must both be byte-identical
// to the offline `events_window()` regeneration of the same journal.
#include "src/service/telemetry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/greengpu/telemetry.h"
#include "src/service/core.h"
#include "src/service/journal.h"

namespace gg::service {
namespace {

TelemetryConfig hub_config(std::size_t ring, std::size_t max_subs,
                           std::uint64_t heartbeat, std::uint64_t stall) {
  TelemetryConfig c;
  c.ring_capacity = ring;
  c.max_subscribers = max_subs;
  c.heartbeat_ticks = heartbeat;
  c.stall_budget_ticks = stall;
  return c;
}

/// Drain every pending frame (stops before a heartbeat would be due).
std::vector<std::string> drain(TelemetryHub& hub, std::uint64_t id) {
  std::vector<std::string> frames;
  while (auto frame = hub.next_frame(id)) frames.push_back(*frame);
  return frames;
}

TEST(TelemetryHub, DeliversLiveEventsInOrder) {
  TelemetryHub hub(hub_config(8, 4, 40, 400));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  hub.publish("alpha");
  hub.publish("beta");
  hub.publish("gamma");
  EXPECT_EQ(hub.published(), 3u);
  const auto frames = drain(hub, id);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "EVENT 1 alpha");
  EXPECT_EQ(frames[1], "EVENT 2 beta");
  EXPECT_EQ(frames[2], "EVENT 3 gamma");
  EXPECT_EQ(hub.next_frame(id), std::nullopt);
  EXPECT_EQ(hub.dropped_total(), 0u);
}

TEST(TelemetryHub, OverflowDropsOldestAndAccountsExactly) {
  TelemetryHub hub(hub_config(4, 4, 40, 400));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  // Built with += rather than "e" + std::to_string(i): GCC 12 at -O3 reports
  // a false-positive -Wrestrict inside the inlined operator+.
  for (int i = 1; i <= 10; ++i) hub.publish(std::string("e") += std::to_string(i));
  const auto frames = drain(hub, id);
  // The four newest survive; the six oldest are accounted, never silent.
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0], "DROPPED 6");
  EXPECT_EQ(frames[1], "EVENT 7 e7");
  EXPECT_EQ(frames[2], "EVENT 8 e8");
  EXPECT_EQ(frames[3], "EVENT 9 e9");
  EXPECT_EQ(frames[4], "EVENT 10 e10");
  // Delivered + dropped covers every published event exactly once.
  EXPECT_EQ((frames.size() - 1) + hub.dropped_total(), hub.published());
  EXPECT_EQ(hub.dropped_total(), 6u);
}

TEST(TelemetryHub, DropOldestStaysOrderedAfterPartialDrain) {
  // Regression: the ring must stay circular once the head has advanced —
  // a drain followed by refill + overflow must still drop the *oldest*.
  TelemetryHub hub(hub_config(4, 4, 40, 400));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  for (int i = 1; i <= 4; ++i) hub.publish("e" + std::to_string(i));
  EXPECT_EQ(hub.next_frame(id), "EVENT 1 e1");
  EXPECT_EQ(hub.next_frame(id), "EVENT 2 e2");
  hub.publish("e5");
  hub.publish("e6");  // ring full again: 3,4,5,6
  hub.publish("e7");  // overwrites 3 — the oldest undelivered
  const auto frames = drain(hub, id);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0], "DROPPED 1");
  EXPECT_EQ(frames[1], "EVENT 4 e4");
  EXPECT_EQ(frames[2], "EVENT 5 e5");
  EXPECT_EQ(frames[3], "EVENT 6 e6");
  EXPECT_EQ(frames[4], "EVENT 7 e7");
}

TEST(TelemetryHub, BacklogDrainsBeforeLiveRing) {
  TelemetryHub hub(hub_config(8, 4, 40, 400));
  hub.seed(3);  // three events published by a previous life
  const std::uint64_t id = hub.subscribe(2, {"old-two", "old-three"});
  ASSERT_NE(id, 0u);
  hub.publish("live-four");
  const auto frames = drain(hub, id);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "EVENT 2 old-two");
  EXPECT_EQ(frames[1], "EVENT 3 old-three");
  EXPECT_EQ(frames[2], "EVENT 4 live-four");
}

TEST(TelemetryHub, SeedRefusedWithLiveSubscribers) {
  TelemetryHub hub(hub_config(8, 4, 40, 400));
  hub.seed(5);
  EXPECT_EQ(hub.published(), 5u);
  const std::uint64_t id = hub.subscribe(6, {});
  ASSERT_NE(id, 0u);
  EXPECT_THROW(hub.seed(7), std::logic_error);
}

TEST(TelemetryHub, HeartbeatAfterIdleTicks) {
  TelemetryHub hub(hub_config(8, 4, /*heartbeat=*/3, 400));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  for (int t = 0; t < 2; ++t) {
    EXPECT_TRUE(hub.tick().empty());
    EXPECT_EQ(hub.next_frame(id), std::nullopt) << "tick " << t;
  }
  EXPECT_TRUE(hub.tick().empty());
  EXPECT_EQ(hub.next_frame(id), "HEARTBEAT last=0");
  // Delivering the heartbeat restarts the idle clock.
  EXPECT_EQ(hub.next_frame(id), std::nullopt);
  // An event delivery also restarts it; the heartbeat then reports the
  // newest published seq.
  hub.publish("ping-material");
  EXPECT_EQ(hub.next_frame(id), "EVENT 1 ping-material");
  for (int t = 0; t < 3; ++t) EXPECT_TRUE(hub.tick().empty());
  EXPECT_EQ(hub.next_frame(id), "HEARTBEAT last=1");
}

TEST(TelemetryHub, StallBudgetEvictsOnlyTheStalledSubscriber) {
  TelemetryHub hub(hub_config(8, 4, 40, /*stall=*/5));
  const std::uint64_t slow = hub.subscribe(1, {});
  const std::uint64_t healthy = hub.subscribe(1, {});
  ASSERT_NE(slow, 0u);
  ASSERT_NE(healthy, 0u);
  hub.publish("wedged-frame");
  for (int t = 0; t < 4; ++t) {
    hub.note_progress(slow, false);
    hub.note_progress(healthy, true);
    EXPECT_TRUE(hub.tick().empty()) << "tick " << t;
  }
  hub.note_progress(slow, false);
  const auto evicted = hub.tick();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], slow);
  EXPECT_EQ(hub.subscriber_count(), 1u);
  EXPECT_EQ(hub.evicted_total(), 1u);
  // The hub already forgot the evicted id; polling it is a harmless no-op.
  EXPECT_EQ(hub.next_frame(slow), std::nullopt);
}

TEST(TelemetryHub, ProgressResetsTheStallClock) {
  TelemetryHub hub(hub_config(8, 4, 40, /*stall=*/3));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  hub.publish("frame");
  for (int round = 0; round < 4; ++round) {
    hub.note_progress(id, false);
    EXPECT_TRUE(hub.tick().empty());
    hub.note_progress(id, false);
    EXPECT_TRUE(hub.tick().empty());
    hub.note_progress(id, true);  // one byte moved: the budget refills
    EXPECT_TRUE(hub.tick().empty());
  }
  EXPECT_EQ(hub.subscriber_count(), 1u);
  EXPECT_EQ(hub.evicted_total(), 0u);
}

TEST(TelemetryHub, SubscriberTableBound) {
  TelemetryHub hub(hub_config(8, /*max_subs=*/2, 40, 400));
  const std::uint64_t a = hub.subscribe(1, {});
  const std::uint64_t b = hub.subscribe(1, {});
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(hub.subscribe(1, {}), 0u) << "table full must refuse, not grow";
  hub.unsubscribe(a);
  EXPECT_NE(hub.subscribe(1, {}), 0u) << "a freed slot is reusable";
  EXPECT_EQ(hub.subscriber_count(), 2u);
}

TEST(TelemetryHub, DecisionRecorderRingWrapFeedsLiveSubscriber) {
  // The controller-side DecisionRecorder and the hub's per-subscriber ring
  // are independent bounds: a wrapped recorder still hands the hub its tail
  // in arrival order, and the recorder's lifetime total (what OutcomeRecord
  // journals as scaler=/moves=) is unaffected by the wrap.
  greengpu::DecisionRecorder<int> recorder(
      greengpu::RecordOptions{greengpu::RecordMode::kRing, 4});
  for (int i = 1; i <= 10; ++i) recorder.push(i);
  EXPECT_EQ(recorder.total(), 10u);
  ASSERT_EQ(recorder.retained(), 4u);

  TelemetryHub hub(hub_config(8, 4, 40, 400));
  const std::uint64_t id = hub.subscribe(1, {});
  ASSERT_NE(id, 0u);
  for (const int decision : recorder.snapshot()) {
    hub.publish("scaler decision=" + std::to_string(decision) +
                " total=" + std::to_string(recorder.total()));
  }
  const auto frames = drain(hub, id);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0], "EVENT 1 scaler decision=7 total=10");
  EXPECT_EQ(frames[1], "EVENT 2 scaler decision=8 total=10");
  EXPECT_EQ(frames[2], "EVENT 3 scaler decision=9 total=10");
  EXPECT_EQ(frames[3], "EVENT 4 scaler decision=10 total=10");
}

// -- TelemetryFeed: the stream is a pure function of the record sequence ----

ServiceRecord admit_record(std::uint64_t seq) {
  ServiceRecord r;
  r.kind = RecordKind::kAdmit;
  r.admit.seq = seq;
  r.admit.workload = "bfs";
  r.admit.policy = "best-performance";
  r.admit.seed = 0x5EEDULL + seq;
  return r;
}

ServiceRecord start_record(std::uint64_t seq, std::uint64_t device) {
  ServiceRecord r;
  r.kind = RecordKind::kStart;
  r.start.seq = seq;
  r.start.device = device;
  return r;
}

ServiceRecord outcome_record(std::uint64_t seq, std::uint64_t device, bool ok) {
  ServiceRecord r;
  r.kind = RecordKind::kOutcome;
  r.outcome.seq = seq;
  r.outcome.device = device;
  r.outcome.status = ok ? OutcomeStatus::kOk : OutcomeStatus::kFailed;
  return r;
}

TEST(TelemetryFeed, DerivesBreakerTransitionsFromTheRecordStream) {
  ServiceConfig config;
  config.devices = 2;
  config.breaker.failure_threshold = 2;
  config.breaker.probe_after = 2;

  std::vector<ServiceRecord> records;
  records.push_back(admit_record(1));
  records.push_back(start_record(1, 0));
  records.push_back(outcome_record(1, 0, false));  // failure 1 of 2
  records.push_back(start_record(2, 0));
  records.push_back(outcome_record(2, 0, false));  // opens device 0
  records.push_back(start_record(3, 1));
  records.push_back(outcome_record(3, 1, true));   // probe clock: 1 of 2
  records.push_back(start_record(4, 1));
  records.push_back(outcome_record(4, 1, true));   // probe clock: 2 of 2
  records.push_back(start_record(5, 0));           // the claim *is* the probe
  records.push_back(outcome_record(5, 0, true));   // probe succeeds

  const auto events = telemetry_events(config, records);
  // Eleven record renders plus three derived breaker events.
  ASSERT_EQ(events.size(), 14u);
  EXPECT_EQ(events[5],
            "breaker device=0 transition=opened state=open completions=2");
  EXPECT_EQ(events[11],
            "breaker device=0 transition=probing state=half-open completions=4");
  EXPECT_EQ(events[13],
            "breaker device=0 transition=closed state=closed completions=5");
  // Every non-breaker payload is the record's render() line verbatim, so an
  // EVENT payload for an outcome is byte-identical to its report line.
  EXPECT_EQ(events[0], render(records[0]));
  EXPECT_EQ(events[12], render(records[10]));

  // Purity: folding the same records again yields the identical stream.
  EXPECT_EQ(telemetry_events(config, records), events);
}

TEST(TelemetryFeed, FailedProbeEmitsReopened) {
  ServiceConfig config;
  config.devices = 2;
  config.breaker.failure_threshold = 1;
  config.breaker.probe_after = 1;

  std::vector<ServiceRecord> records;
  records.push_back(start_record(1, 0));
  records.push_back(outcome_record(1, 0, false));  // opens immediately
  records.push_back(start_record(2, 1));
  records.push_back(outcome_record(2, 1, true));   // probe due
  records.push_back(start_record(3, 0));           // probe claim
  records.push_back(outcome_record(3, 0, false));  // probe fails

  const auto events = telemetry_events(config, records);
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[2],
            "breaker device=0 transition=opened state=open completions=1");
  EXPECT_EQ(events[6],
            "breaker device=0 transition=probing state=half-open completions=2");
  EXPECT_EQ(events[8],
            "breaker device=0 transition=reopened state=open completions=3");
}

// -- ServiceCore: WATCH, resume cursors, and the offline twin ---------------

class TelemetryCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string stem =
        std::string("gg_telemetry_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    journal_ = (dir / (stem + ".journal")).string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  static ServiceConfig small_config() {
    ServiceConfig config;
    config.devices = 2;
    config.queue_capacity = 4;
    config.seed = 0x5EEDULL;
    return config;
  }

  static std::vector<std::string> drain_core(ServiceCore& core,
                                             std::uint64_t id) {
    std::vector<std::string> frames;
    while (auto frame = core.next_frame(id)) frames.push_back(*frame);
    return frames;
  }

  std::string journal_;
};

TEST_F(TelemetryCoreTest, LiveStreamMatchesOfflineRegeneration) {
  const ServiceConfig config = small_config();
  ServiceCore core(config, journal_, /*resume=*/false);

  std::string reply;
  const std::uint64_t id = core.watch("WATCH", reply);
  ASSERT_NE(id, 0u) << reply;
  EXPECT_EQ(reply, "200 watching from=1 last=0");

  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  EXPECT_EQ(core.handle_line("SUBMIT kmeans greengpu"), "202 accepted seq=2");
  while (core.step()) {
  }

  // admit, start, outcome for each of the two requests.
  EXPECT_EQ(core.telemetry().published(), 6u);
  EXPECT_EQ(core.journal_records(), 6u);
  const auto frames = drain_core(core, id);
  ASSERT_EQ(frames.size(), 6u);

  std::string live;
  for (const auto& frame : frames) live += frame + "\n";
  std::string offline;
  std::string error;
  ASSERT_TRUE(ServiceCore::events_window(config, journal_, 1, offline, error))
      << error;
  EXPECT_EQ(live, offline) << "a live tail and the offline regeneration must "
                              "be byte-identical";
}

TEST_F(TelemetryCoreTest, ResumeCursorReplaysByteIdentical) {
  const ServiceConfig config = small_config();
  ServiceCore core(config, journal_, /*resume=*/false);
  for (int i = 0; i < 3; ++i) {
    (void)core.handle_line("SUBMIT bfs best-performance");
  }
  while (core.step()) {
  }
  const std::uint64_t published = core.telemetry().published();
  ASSERT_EQ(published, 9u);

  // Resume from the middle: the backlog is regenerated from the journal.
  std::string reply;
  const std::uint64_t id = core.watch("WATCH FROM 4", reply);
  ASSERT_NE(id, 0u) << reply;
  EXPECT_EQ(reply, "200 watching from=4 last=9");
  const auto frames = drain_core(core, id);
  ASSERT_EQ(frames.size(), 6u);

  std::string resumed;
  for (const auto& frame : frames) resumed += frame + "\n";
  std::string offline;
  std::string error;
  ASSERT_TRUE(ServiceCore::events_window(config, journal_, 4, offline, error))
      << error;
  EXPECT_EQ(resumed, offline)
      << "WATCH FROM must replay exactly what an uninterrupted subscriber saw";

  // New live events splice gaplessly behind a drained resume stream.
  (void)core.handle_line("SUBMIT bfs best-performance");
  const auto tail = drain_core(core, id);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].rfind("EVENT 10 admit seq=4 ", 0), 0u) << tail[0];
}

TEST_F(TelemetryCoreTest, RefusesBadAndBeyondCursors) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  (void)core.handle_line("SUBMIT bfs best-performance");
  while (core.step()) {
  }
  ASSERT_EQ(core.telemetry().published(), 3u);

  std::string reply;
  EXPECT_EQ(core.watch("WATCH FROM 0", reply), 0u);
  EXPECT_EQ(reply, "400 bad cursor 0 (event seqs start at 1)");
  EXPECT_EQ(core.watch("WATCH FROM soon", reply), 0u);
  EXPECT_EQ(reply, "400 bad cursor soon");
  EXPECT_EQ(core.watch("WATCH FROM 1 2", reply), 0u);
  EXPECT_EQ(reply, "400 usage: WATCH [FROM <seq>]");
  EXPECT_EQ(core.watch("WATCH FROM 5", reply), 0u);
  EXPECT_EQ(reply, "400 cursor 5 beyond stream (last=3)");
  // from == published + 1 is the live-tail boundary: legal, empty backlog.
  EXPECT_NE(core.watch("WATCH FROM 4", reply), 0u);
  EXPECT_EQ(reply, "200 watching from=4 last=3");
  // On a request connection the verb is rejected, never streamed.
  EXPECT_EQ(core.handle_line("WATCH"),
            "400 watch requires a streaming connection");
}

TEST_F(TelemetryCoreTest, WatchersFullRefusedWith503) {
  ServiceConfig config = small_config();
  config.telemetry.max_subscribers = 2;
  ServiceCore core(config, journal_, /*resume=*/false);
  std::string reply;
  ASSERT_NE(core.watch("WATCH", reply), 0u);
  ASSERT_NE(core.watch("WATCH", reply), 0u);
  const std::uint64_t refused = core.watch("WATCH", reply);
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(reply, "503 watchers-full max=2");
}

TEST_F(TelemetryCoreTest, ResumedDaemonSeedsTheStreamPosition) {
  const ServiceConfig config = small_config();
  {
    ServiceCore core(config, journal_, /*resume=*/false);
    (void)core.handle_line("SUBMIT bfs best-performance");
    while (core.step()) {
    }
    ASSERT_EQ(core.telemetry().published(), 3u);
  }
  // A restarted daemon folds the journal through its feed, so event seqs
  // continue where the previous life stopped instead of restarting at 1.
  ServiceCore resumed(config, journal_, /*resume=*/true);
  EXPECT_EQ(resumed.telemetry().published(), 3u);
  EXPECT_EQ(resumed.journal_records(), 3u);
  std::string reply;
  const std::uint64_t id = resumed.watch("WATCH FROM 1", reply);
  ASSERT_NE(id, 0u) << reply;
  EXPECT_EQ(reply, "200 watching from=1 last=3");
  const auto frames = drain_core(resumed, id);
  ASSERT_EQ(frames.size(), 3u);
  std::string resumed_stream;
  for (const auto& frame : frames) resumed_stream += frame + "\n";
  std::string offline;
  std::string error;
  ASSERT_TRUE(ServiceCore::events_window(config, journal_, 1, offline, error))
      << error;
  EXPECT_EQ(resumed_stream, offline);
}

}  // namespace
}  // namespace gg::service
