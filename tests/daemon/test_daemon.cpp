// TelemetryDaemon tests: graceful drain accounting, WAL recovery
// bit-identity, batch-boundary independence, retire-through-the-WAL,
// degraded modes, backpressure shedding, and the watchdog.  The daemon is
// the only per-record scoring pipeline, so the serving contract is pinned
// here too: the non-finite score clamp, hot model swaps, chaos accounting,
// shard/producer independence, streaming-vs-batch feature parity, drain(),
// and drain-then-retire ordering.  The appender pipeline's settle points
// (strike reset, retire, stop), the tap's record order, and progress on a
// saturated pool close the file.

#include "daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "core/dataset_builder.hpp"
#include "core/failure_timeline.hpp"
#include "core/features.hpp"
#include "daemon_test_util.hpp"
#include "ml/downsample.hpp"
#include "ml/model_zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "robustness/fault_injector.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::daemon {
namespace {

using testing::StubModel;
using testing::TempDir;
using testing::make_stream;

DaemonConfig base_config(const std::string& wal_dir, obs::MetricsRegistry* registry) {
  DaemonConfig cfg;
  cfg.shards = 2;
  cfg.ring_capacity = 64;
  cfg.wal_dir = wal_dir;
  cfg.fsync = FsyncPolicy::kNever;  // durability is the crash test's job
  cfg.registry = registry;
  cfg.threshold = 0.7;
  return cfg;
}

TEST(TelemetryDaemon, GracefulDrainProcessesEveryAcceptedRecord) {
  TempDir dir("drain");
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  daemon.start();
  const auto stream = make_stream(6, 20);
  for (const auto& obs : stream)
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.ingested, stream.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.scored, stream.size());  // clean stream: everything scores
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.drives_tracked, 6u);
  EXPECT_GT(stats.segments_appended, 0u);
  EXPECT_GT(stats.wal_bytes, 0u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_FALSE(stats.wal_degraded);
  // Pushes after stop are rejected, not silently dropped.
  EXPECT_EQ(daemon.push(stream[0]), PushResult::kRejected);
  EXPECT_EQ(daemon.stats().rejected, 1u);
}

TEST(TelemetryDaemon, RecoveryRebuildsBitIdenticalState) {
  TempDir dir("recover");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(8, 30);
  std::uint64_t live_digest = 0;
  std::size_t live_drives = 0;
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.stop();
    live_digest = live.state_digest();
    live_drives = live.stats().drives_tracked;
  }
  ASSERT_NE(live_digest, 0u);

  // A fresh process over the same WAL directory must land on the exact
  // same per-drive state — and scoring must continue seamlessly after.
  TelemetryDaemon recovered(std::make_shared<StubModel>(),
                            base_config(dir.path(), &registry));
  recovered.start();
  const DaemonStats after = recovered.stats();
  EXPECT_EQ(after.recovery.records_replayed, stream.size());
  EXPECT_EQ(after.recovery.truncated_bytes, 0u);
  EXPECT_EQ(after.drives_tracked, live_drives);

  // Day 30 continues where the stream stopped; the sanitizer would
  // quarantine it as out-of-order if recovery had lost any day.
  auto next_day = make_stream(8, 31);
  std::size_t accepted = 0;
  for (const auto& obs : next_day) {
    if (obs.record.day != 30) continue;
    ASSERT_EQ(recovered.push(obs), PushResult::kAccepted);
    ++accepted;
  }
  EXPECT_EQ(accepted, 8u);
  recovered.stop();
  EXPECT_EQ(recovered.stats().quarantined, 0u);

  // And a recover-only pass (no new traffic) reproduces the live digest.
  TelemetryDaemon verify(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  // The previous daemon appended day 30 to the WAL; replay to just after
  // the original stream requires its own directory — so instead compare
  // against a third daemon that processed the same 31-day stream live.
  verify.start();
  verify.stop();
  TelemetryDaemon reference(std::make_shared<StubModel>(),
                            base_config("", &registry));
  reference.start();
  for (const auto& obs : make_stream(8, 31))
    ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
  reference.stop();
  EXPECT_EQ(verify.state_digest(), reference.state_digest());
}

TEST(TelemetryDaemon, ReplayIsIdempotent) {
  TempDir dir("idempotent");
  obs::MetricsRegistry registry;
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : make_stream(5, 12))
      ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.stop();
  }
  std::uint64_t first = 0;
  for (int round = 0; round < 2; ++round) {
    TelemetryDaemon recovered(std::make_shared<StubModel>(),
                              base_config(dir.path(), &registry));
    recovered.start();
    recovered.stop();
    if (round == 0) {
      first = recovered.state_digest();
    } else {
      EXPECT_EQ(recovered.state_digest(), first);
    }
  }
}

TEST(TelemetryDaemon, HealthIsIndependentOfBatchBoundaries) {
  // Quarantined and scored records of one drive share appender batches;
  // health must see them in record order however the stream is batched.
  // A dense fault rate puts several quarantines of a drive in every batch.
  robustness::FaultInjector injector(2019, robustness::FaultRates::uniform(0.3));
  const auto stream = injector.corrupt(make_stream(8, 60)).observations;
  const auto run = [&stream](std::size_t max_batch) {
    obs::MetricsRegistry registry;
    auto cfg = base_config("", &registry);
    cfg.shards = 1;
    cfg.ring_capacity = 1024;  // holds the whole stream
    cfg.max_batch = max_batch;
    // Hold the appender until the stream is queued, so batches come full.
    std::atomic<bool> release{false};
    cfg.appender_hook = [&release](std::uint32_t) {
      while (!release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
    daemon.start();
    std::size_t accepted = 0;
    for (const auto& obs : stream)
      if (daemon.push(obs) == PushResult::kAccepted) ++accepted;
    release.store(true, std::memory_order_release);
    daemon.stop();
    EXPECT_EQ(accepted, stream.size());
    EXPECT_GT(daemon.stats().quarantined, 0u);
    return daemon.state_digest();
  };
  EXPECT_EQ(run(256), run(1));
}

TEST(TelemetryDaemon, RetireTravelsThroughTheWal) {
  TempDir dir("retire");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(3, 10);
  {
    TelemetryDaemon live(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
    live.start();
    for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
    live.retire(trace::DriveModel::MlcA, 0);
    live.stop();
    EXPECT_EQ(live.stats().drives_tracked, 2u);
    const auto counts = live.stats().health_counts;
    EXPECT_EQ(counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
  }
  TelemetryDaemon recovered(std::make_shared<StubModel>(),
                            base_config(dir.path(), &registry));
  recovered.start();
  recovered.stop();
  const DaemonStats stats = recovered.stats();
  EXPECT_EQ(stats.recovery.retires_replayed, 1u);
  EXPECT_EQ(stats.drives_tracked, 2u);
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kSwapped)], 1u);
}

TEST(TelemetryDaemon, DegradedDaemonStillIngestsAndWalsEverything) {
  TempDir dir("degraded");
  obs::MetricsRegistry registry;
  const auto stream = make_stream(4, 6);
  {
    TelemetryDaemon degraded(nullptr, base_config(dir.path(), &registry));
    degraded.start();
    for (const auto& obs : stream)
      ASSERT_EQ(degraded.push(obs), PushResult::kAccepted);
    degraded.stop();
    const DaemonStats stats = degraded.stats();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.ingested, stream.size());
    EXPECT_EQ(stats.scored, 0u);  // no model, no scores
    EXPECT_GT(stats.segments_appended, 0u);
    // Feature state still advances so a later model starts warm.
    EXPECT_EQ(stats.drives_tracked, 4u);
  }
  // A later process with a working scorer replays the degraded WAL and
  // scores every record the degraded daemon could only persist.
  TelemetryDaemon scored(std::make_shared<StubModel>(),
                         base_config(dir.path(), &registry));
  scored.start();
  scored.stop();
  const DaemonStats stats = scored.stats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.recovery.records_replayed, stream.size());
  EXPECT_EQ(stats.scored, stream.size());
}

TEST(TelemetryDaemon, SetModelTogglesDegradedMode) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(nullptr, base_config("", &registry));
  EXPECT_TRUE(daemon.stats().degraded);
  daemon.set_model(std::make_shared<StubModel>());
  EXPECT_FALSE(daemon.stats().degraded);
  daemon.set_model(nullptr);
  EXPECT_TRUE(daemon.stats().degraded);
}

TEST(TelemetryDaemon, NoWalDirMeansWalDegradedButStillScoring) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  const auto stream = make_stream(2, 5);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(stats.wal_degraded);
  EXPECT_EQ(stats.segments_appended, 0u);
  EXPECT_EQ(stats.scored, stream.size());
}

TEST(TelemetryDaemon, UnwritableWalDirDegradesInsteadOfDying) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("/nonexistent_dir_for_ssdfail_daemon/x", &registry);
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(2, 4);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(stats.wal_degraded);
  EXPECT_GT(stats.wal_errors, 0u);
  EXPECT_EQ(stats.scored, stream.size());  // service continued
}

TEST(TelemetryDaemon, ShedPolicyCountsEveryDrop) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.ring_capacity = 2;
  cfg.backpressure = Backpressure::kShed;
  std::atomic<bool> release{false};
  cfg.appender_hook = [&](std::uint32_t) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(1, 100);
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (const auto& obs : stream) {
    const PushResult r = daemon.push(obs);
    if (r == PushResult::kAccepted) ++accepted;
    if (r == PushResult::kShed) ++shed;
  }
  release.store(true, std::memory_order_release);
  daemon.stop();
  const DaemonStats stats = daemon.stats();
  EXPECT_GT(shed, 0u);  // ring of 2 with a blocked appender must shed
  EXPECT_EQ(stats.ingested, accepted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.ingested + stats.shed, stream.size());
  // Every accepted record was still processed on drain.
  EXPECT_EQ(stats.scored + stats.quarantined + stats.duplicates_dropped, accepted);
}

TEST(TelemetryDaemon, WatchdogCountsAStalledAppender) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 1;  // leave a backlog in the ring while the hook wedges
  cfg.watchdog_interval = std::chrono::milliseconds(5);
  cfg.stall_timeout = std::chrono::milliseconds(40);
  std::atomic<bool> release{false};
  cfg.appender_hook = [&](std::uint32_t) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(2, 10);
  for (const auto& obs : stream) (void)daemon.push(obs);
  // The appender is wedged in the hook with a backlog; the watchdog must
  // notice within a few intervals.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.stats().watchdog_stalls == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(daemon.stats().watchdog_stalls, 1u);
  release.store(true, std::memory_order_release);
  daemon.stop();
}

// --- The serving contract -----------------------------------------------

/// Fitted forest shared by the serving-contract cases (the daemon compiles
/// it to the flat engine; the tests compare against the walker).
std::shared_ptr<const ml::Classifier> fitted_forest() {
  static const std::shared_ptr<const ml::Classifier> model = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 300;
    sim::FleetSimulator fleet(cfg);
    core::DatasetBuildOptions opts;
    opts.lookahead_days = 1;
    opts.negative_keep_prob = 0.05;
    const ml::Dataset data = core::build_dataset(fleet, opts);
    auto forest = ml::make_model(ml::ModelKind::kRandomForest);
    forest->fit(ml::downsample_negatives(data, 1.0, 3));
    return std::shared_ptr<const ml::Classifier>(std::move(forest));
  }();
  return model;
}

/// Scores everything as NaN: a broken model.
class NanModel final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    return std::vector<float>(x.rows(), std::numeric_limits<float>::quiet_NaN());
  }
  [[nodiscard]] std::string name() const override { return "nan_model"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<NanModel>();
  }
};

/// A clean day-ordered replay stream over a small simulated fleet, in the
/// day-then-drive order `serve` pushes.
std::vector<core::FleetObservation> replay_stream(std::uint32_t drives_per_model) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 77;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();
  std::map<std::int32_t, std::vector<core::FleetObservation>> by_day;
  for (const auto& drive : fleet.drives)
    for (const auto& rec : drive.records)
      by_day[rec.day].push_back({drive.model, drive.drive_index, drive.deploy_day, rec});
  std::vector<core::FleetObservation> stream;
  for (auto& [day, obs] : by_day) stream.insert(stream.end(), obs.begin(), obs.end());
  return stream;
}

using DriveDay = std::pair<std::uint64_t, std::int32_t>;

/// Collects every assessment's score by (uid, day); thread-safe.
struct ScoreSink {
  std::mutex mutex;
  std::map<DriveDay, float> scores;
  void attach(DaemonConfig& cfg) {
    cfg.on_assessment = [this](const DriveAssessment& a) {
      std::scoped_lock lock(mutex);
      scores[{a.uid, a.day}] = a.score;
    };
  }
};

struct Replay {
  std::map<DriveDay, float> scores;
  DaemonStats stats;
  std::uint64_t digest = 0;
};

/// Push `stream` through a WAL-less daemon with `producers` threads, each
/// owning the drives with uid % producers == p (so a drive's records keep
/// their order), then stop and collect scores, stats and state digest.
Replay replay(std::shared_ptr<const ml::Classifier> model,
              const std::vector<core::FleetObservation>& stream, std::size_t shards,
              std::size_t producers = 1, std::size_t dead_letter_capacity = 64) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = shards;
  cfg.block_timeout = std::chrono::seconds(30);  // wait for space, never shed
  cfg.dead_letter_capacity = dead_letter_capacity;
  ScoreSink sink;
  sink.attach(cfg);
  TelemetryDaemon daemon(std::move(model), cfg);
  daemon.start();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (const auto& obs : stream)
        if (obs.uid() % producers == p) (void)daemon.push(obs);
    });
  }
  for (auto& t : threads) t.join();
  daemon.stop();
  return {std::move(sink.scores), daemon.stats(), daemon.state_digest()};
}

TEST(TelemetryDaemon, NonFiniteScoresClampToConservativeAlert) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  std::mutex mutex;
  std::vector<DriveAssessment> seen;
  cfg.on_assessment = [&](const DriveAssessment& a) {
    std::scoped_lock lock(mutex);
    seen.push_back(a);
  };
  TelemetryDaemon daemon(std::make_shared<NanModel>(), cfg);
  daemon.start();
  const auto stream = make_stream(4, 6);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, stream.size());
  // A broken model fails loud: every score clamps to 1.0 and alerts.
  EXPECT_EQ(stats.alerts, stats.scored);
  EXPECT_EQ(stats.non_finite_scores, stats.scored);
  EXPECT_EQ(registry.counter("daemon_non_finite_scores_total").value(), stats.scored);
  ASSERT_EQ(seen.size(), stream.size());
  for (const DriveAssessment& a : seen) {
    EXPECT_EQ(a.score, 1.0f);
    EXPECT_TRUE(a.alert);
  }
  // Two straight alert-tier days page every drive.
  EXPECT_EQ(stats.health_counts[static_cast<std::size_t>(HealthState::kAlert)], 4u);
}

TEST(TelemetryDaemon, SetModelMidStreamKeepsFeatureState) {
  // Half the stream scores on a broken model, then the real one is
  // installed: feature state carries over, so post-swap scores equal a
  // daemon that ran the real model throughout.
  const auto stream = replay_stream(4);
  const std::size_t half = stream.size() / 2;
  const Replay reference = replay(fitted_forest(), stream, 3);

  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 3;
  ScoreSink sink;
  sink.attach(cfg);
  TelemetryDaemon daemon(std::make_shared<NanModel>(), cfg);
  daemon.start();
  for (std::size_t i = 0; i < half; ++i) (void)daemon.push(stream[i]);
  daemon.drain();
  {
    std::scoped_lock lock(sink.mutex);
    sink.scores.clear();
  }
  daemon.set_model(fitted_forest());
  for (std::size_t i = half; i < stream.size(); ++i) (void)daemon.push(stream[i]);
  daemon.stop();

  ASSERT_EQ(sink.scores.size(), stream.size() - half);
  for (const auto& [key, score] : sink.scores)
    EXPECT_EQ(score, reference.scores.at(key)) << "drive " << key.first << " day "
                                               << key.second;
  EXPECT_EQ(daemon.stats().non_finite_scores, half);
  EXPECT_EQ(daemon.stats().scored, stream.size());
}

TEST(TelemetryDaemon, CorruptedReplayAccountsForEveryRecord) {
  // A ~10%-corrupted replay: every record is scored, quarantined or dropped
  // as a duplicate, and every record the injector certifies clean scores
  // bit-identically to the uncorrupted run.
  const auto stream = replay_stream(12);
  ASSERT_GT(stream.size(), 1000u);
  const Replay clean = replay(fitted_forest(), stream, 4);

  robustness::FaultInjector injector(41, robustness::FaultRates::uniform(0.10));
  const auto corrupted = injector.corrupt(stream);
  ASSERT_GT(corrupted.total_injected(), 0u);
  const Replay dirty = replay(fitted_forest(), corrupted.observations, 4, 1,
                              /*dead_letter_capacity=*/1u << 20);

  const DaemonStats& stats = dirty.stats;
  EXPECT_EQ(stats.ingested, corrupted.observations.size());
  EXPECT_EQ(stats.scored + stats.quarantined + stats.duplicates_dropped, stats.ingested);
  EXPECT_GT(stats.quarantined, 0u);
  EXPECT_LE(stats.quarantined + stats.duplicates_dropped,
            corrupted.count(robustness::StreamLabel::kCorrupt));
  EXPECT_EQ(stats.non_finite_scores, 0u);
  EXPECT_EQ(dirty.scores.size(), stats.scored);

  std::size_t clean_records = 0;
  for (std::size_t i = 0; i < corrupted.observations.size(); ++i) {
    if (corrupted.label[i] != robustness::StreamLabel::kClean) continue;
    const core::FleetObservation& obs = corrupted.observations[i];
    const auto it = dirty.scores.find({obs.uid(), obs.record.day});
    ASSERT_NE(it, dirty.scores.end()) << "clean record at position " << i << " dropped";
    EXPECT_EQ(it->second, clean.scores.at({obs.uid(), obs.record.day}))
        << "clean record at position " << i << " diverged from the clean run";
    ++clean_records;
  }
  EXPECT_GT(clean_records, 100u);  // most drives get tainted upstream
}

TEST(TelemetryDaemon, ScoresAreIndependentOfShardCount) {
  const auto stream = replay_stream(6);
  const Replay one = replay(fitted_forest(), stream, 1);
  const Replay eight = replay(fitted_forest(), stream, 8);
  ASSERT_EQ(one.scores.size(), stream.size());
  EXPECT_EQ(one.scores, eight.scores);
  EXPECT_EQ(one.stats.alerts, eight.stats.alerts);
  EXPECT_EQ(one.digest, eight.digest);
}

TEST(TelemetryDaemon, ScoresAreIndependentOfProducerCount) {
  // Four threads each push a disjoint subset of drives into one sharded
  // daemon; every drive's scores must equal a single-producer replay.
  const auto stream = replay_stream(6);
  const Replay single = replay(fitted_forest(), stream, 8, 1);
  const Replay concurrent = replay(fitted_forest(), stream, 8, 4);
  ASSERT_EQ(single.scores.size(), stream.size());
  EXPECT_EQ(single.scores, concurrent.scores);
  EXPECT_EQ(single.stats.alerts, concurrent.stats.alerts);
  EXPECT_EQ(single.digest, concurrent.digest);
  EXPECT_EQ(concurrent.stats.scored, stream.size());
}

TEST(TelemetryDaemon, StreamingScoresMatchBatchFeatureExtractor) {
  // Streaming scores must equal what the batch feature extractor + the
  // (walker) model produce for the same records, bit for bit.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  const trace::DriveHistory drive = sim::FleetSimulator(cfg).simulate(5);
  std::vector<core::FleetObservation> stream;
  for (const auto& rec : drive.records)
    stream.push_back({drive.model, drive.drive_index, drive.deploy_day, rec});
  const Replay streamed = replay(fitted_forest(), stream, 1);
  ASSERT_EQ(streamed.scores.size(), drive.records.size());

  core::FeatureExtractor::State state;
  ml::Matrix row(1, core::FeatureExtractor::count());
  for (const auto& rec : drive.records) {
    core::FeatureExtractor::advance(state, rec);
    core::FeatureExtractor::extract(drive, rec, state, row.row(0));
    EXPECT_EQ(streamed.scores.at({drive.uid(), rec.day}),
              fitted_forest()->predict_proba(row)[0])
        << "day " << rec.day;
  }
}

obs::Labels kind_label(trace::ViolationKind kind) {
  return {{"kind", std::string(trace::violation_slug(kind))}};
}

TEST(TelemetryDaemon, TracksDrivesIndependently) {
  // Drives sharing an index across models are tracked apart; the same
  // drive on the next day reuses its state; retire forgets only that one.
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcA, 1, 0, {}};
  obs.record.reads = 10;
  obs.record.writes = 10;
  (void)daemon.push(obs);
  core::FleetObservation other = obs;
  other.drive_model = trace::DriveModel::MlcB;
  (void)daemon.push(other);
  daemon.drain();
  EXPECT_EQ(daemon.stats().drives_tracked, 2u);
  obs.record.day = 1;
  (void)daemon.push(obs);
  daemon.drain();
  EXPECT_EQ(daemon.stats().drives_tracked, 2u);
  daemon.retire(trace::DriveModel::MlcA, 1);
  daemon.drain();
  EXPECT_EQ(daemon.stats().drives_tracked, 1u);
  daemon.stop();
  EXPECT_EQ(daemon.stats().scored, 3u);
}

TEST(TelemetryDaemon, OutOfOrderQuarantine) {
  // A stale record is quarantined (not thrown on, not scored) as a
  // non-monotone day; in-order records after it still score.
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcB, 1, 0, {}};
  obs.record.day = 10;
  (void)daemon.push(obs);
  obs.record.day = 9;  // stale
  (void)daemon.push(obs);
  obs.record.day = 11;
  (void)daemon.push(obs);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 2u);  // day 10 + day 11
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(registry
                .counter("sanitizer_quarantined_total",
                         kind_label(trace::ViolationKind::kNonMonotoneDays))
                .value(),
            1u);
}

TEST(TelemetryDaemon, ExactDuplicateIsDroppedNotQuarantined) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcB, 1, 0, {}};
  obs.record.day = 10;
  obs.record.reads = 100;
  (void)daemon.push(obs);
  (void)daemon.push(obs);  // exact duplicate
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(registry.counter("sanitizer_duplicates_dropped_total").value(), 1u);
}

TEST(TelemetryDaemon, CounterRegressionIsRepairedAndScored) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), base_config("", &registry));
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcB, 1, 0, {}};
  obs.record.day = 10;
  obs.record.pe_cycles = 500;
  (void)daemon.push(obs);
  obs.record.day = 11;
  obs.record.pe_cycles = 3;  // controller reset: cumulative P/E regressed
  (void)daemon.push(obs);
  daemon.stop();

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.scored, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(registry
                .counter("sanitizer_repaired_total",
                         kind_label(trace::ViolationKind::kDecreasingPeCycles))
                .value(),
            1u);
}

TEST(TelemetryDaemon, AlertCounterIsMonotone) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.threshold = 0.0;  // everything alerts
  cfg.shards = 3;
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcD, 2, 0, {}};
  obs.record.reads = 10;
  std::uint64_t previous = 0;
  for (std::int32_t day = 0; day < 20; ++day) {
    obs.record.day = day;
    ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
    daemon.drain();
    const std::uint64_t now = daemon.stats().alerts;
    EXPECT_EQ(now, previous + 1);  // monotone, one per record at threshold 0
    previous = now;
  }
  daemon.stop();
  EXPECT_EQ(daemon.stats().scored, 20u);
  EXPECT_EQ(daemon.stats().alerts, 20u);
}

TEST(TelemetryDaemon, AlertFollowsThreshold) {
  const auto stream = make_stream(3, 8);
  for (const double threshold : {0.0, 1.01}) {
    obs::MetricsRegistry registry;
    auto cfg = base_config("", &registry);
    cfg.threshold = threshold;
    TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
    daemon.start();
    for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
    daemon.stop();
    const DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.scored, stream.size());
    // Threshold 0: everything alerts; above 1: nothing does.
    EXPECT_EQ(stats.alerts, threshold <= 0.0 ? stats.scored : 0u);
  }
}

TEST(TelemetryDaemon, RisingRiskBeforeFailure) {
  // Across many failed drives, the score on the failure day should on
  // average exceed the score 30 days earlier.
  sim::FleetConfig cfg;
  cfg.drives_per_model = 300;
  const sim::FleetSimulator fleet(cfg);
  std::vector<core::FleetObservation> stream;
  std::vector<std::pair<std::uint64_t, std::int32_t>> failed;  // uid, fail day
  for (std::size_t i = 0; i < fleet.drive_count() && failed.size() < 40; ++i) {
    const trace::DriveHistory drive = fleet.simulate(i);
    const core::DriveTimeline timeline = core::derive_timeline(drive);
    if (timeline.failures.empty()) continue;
    const std::int32_t fail_day = timeline.failures[0].fail_day;
    failed.emplace_back(drive.uid(), fail_day);
    for (const auto& rec : drive.records)
      if (rec.day <= fail_day)
        stream.push_back({drive.model, drive.drive_index, drive.deploy_day, rec});
  }
  const Replay run = replay(fitted_forest(), stream, 4);

  double risk_at_failure = 0.0;
  double risk_before = 0.0;
  int counted = 0;
  for (const auto& [uid, fail_day] : failed) {
    const auto at_fail = run.scores.find({uid, fail_day});
    // Latest scored day at least 30 days before the failure.
    auto before = run.scores.upper_bound({uid, fail_day - 30});
    if (at_fail == run.scores.end() || before == run.scores.begin()) continue;
    --before;
    if (before->first.first != uid) continue;
    risk_at_failure += at_fail->second;
    risk_before += before->second;
    ++counted;
  }
  ASSERT_GE(counted, 20);
  EXPECT_GT(risk_at_failure / counted, risk_before / counted + 0.1);
}

TEST(TelemetryDaemon, RetireThenReobserveRecreatesState) {
  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  std::vector<float> scores;  // one appender thread: no lock needed
  cfg.on_assessment = [&](const DriveAssessment& a) { scores.push_back(a.score); };
  TelemetryDaemon daemon(std::make_shared<StubModel>(), cfg);
  daemon.start();
  core::FleetObservation obs{trace::DriveModel::MlcA, 3, 0, {}};
  obs.record.reads = 50;
  obs.record.writes = 50;
  (void)daemon.push(obs);
  obs.record.day = 1;
  obs.record.errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 9;
  (void)daemon.push(obs);
  daemon.drain();
  daemon.retire(obs.drive_model, obs.drive_index);
  daemon.drain();
  EXPECT_EQ(daemon.stats().drives_tracked, 0u);

  // Re-observing after retirement builds FRESH state: day 0 is legal again
  // and scores like the first-ever observation, error history forgotten.
  obs.record.day = 0;
  obs.record.errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 0;
  (void)daemon.push(obs);
  daemon.stop();
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[2], scores[0]);
  EXPECT_EQ(daemon.stats().drives_tracked, 1u);
  EXPECT_EQ(daemon.stats().quarantined, 0u);
}

TEST(TelemetryDaemon, DrainReturnsWithoutAModel) {
  obs::MetricsRegistry registry;
  TelemetryDaemon daemon(nullptr, base_config("", &registry));
  daemon.start();
  const auto stream = make_stream(4, 10);
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.drain();  // must return although nothing is ever scored
  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.scored, 0u);
  EXPECT_EQ(stats.drives_tracked, 4u);
  // A stats()-based predicate keyed on `scored` would wait forever here.
  EXPECT_LT(stats.scored + stats.quarantined + stats.duplicates_dropped, stats.ingested);

  daemon.retire(trace::DriveModel::MlcA, 1);
  daemon.drain();  // queued retires count too
  EXPECT_EQ(daemon.stats().drives_tracked, 3u);
  daemon.stop();
  daemon.drain();  // not running: returns at once
}

TEST(TelemetryDaemon, DrainThenRetireMatchesQuiescedReplay) {
  // Drives end on different days and are retired after their last record.
  // Retiring only after drain() orders each retire behind the drive's
  // records, so a live 2-shard run must land on the state of a 1-shard
  // reference that processes every day fully before retiring inline.
  constexpr std::uint32_t kDrives = 8;
  const auto last_day = [](std::uint32_t d) {
    return static_cast<std::int32_t>(6 + 2 * d);
  };
  std::map<std::int32_t, std::vector<core::FleetObservation>> days;
  for (const auto& obs : make_stream(kDrives, 24))
    if (obs.record.day <= last_day(obs.drive_index)) days[obs.record.day].push_back(obs);
  const auto retire_ended = [&](TelemetryDaemon& daemon, std::int32_t day) {
    for (std::uint32_t d = 0; d < kDrives; ++d)
      if (last_day(d) == day) daemon.retire(trace::DriveModel::MlcA, d);
  };

  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.watchdog_interval = std::chrono::milliseconds(1);
  cfg.shards = 1;
  TelemetryDaemon reference(std::make_shared<StubModel>(), cfg);
  for (const auto& [day, batch] : days) {
    reference.start();
    for (const auto& obs : batch) ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
    reference.stop();
    retire_ended(reference, day);  // quiesced: applied inline
  }
  const std::uint64_t expected = reference.state_digest();
  const auto swapped = static_cast<std::size_t>(HealthState::kSwapped);
  ASSERT_EQ(reference.stats().health_counts[swapped], kDrives);

  cfg.shards = 2;
  for (int rep = 0; rep < 50; ++rep) {
    TelemetryDaemon live(std::make_shared<StubModel>(), cfg);
    live.start();
    for (const auto& [day, batch] : days) {
      for (const auto& obs : batch) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
      live.drain();
      retire_ended(live, day);
    }
    live.stop();
    ASSERT_EQ(live.state_digest(), expected) << "repetition " << rep;
  }
}

// --- The appender pipeline's settle points --------------------------------

/// Scores every row `score`.  A gated model blocks its first predict_proba
/// call until release(), so a test can act while that batch is being
/// scored — and, once scoring returns, is in flight on the appender.
class GateModel final : public ml::Classifier {
 public:
  explicit GateModel(float score, bool gated = true) : score_(score), released_(!gated) {}
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] std::vector<float> predict_proba(const ml::Matrix& x) const override {
    std::unique_lock lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return std::vector<float>(x.rows(), score_);
  }
  [[nodiscard]] std::string name() const override { return "gate"; }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<GateModel>(score_, /*gated=*/false);
  }
  void wait_entered() const {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    {
      std::scoped_lock lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  float score_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_;
};

/// Records the tap's callbacks in arrival order; thread-safe.
struct EventLog final : BatchObserver {
  std::mutex mutex;
  std::vector<std::string> events;
  std::vector<DriveDay> records;  ///< every record the tap saw, in order
  ml::Matrix features;            ///< every feature row, in order
  std::vector<float> scores;      ///< every assessment score, in order
  bool aligned = true;            ///< records, rows and assessments line up

  void on_batch(const ml::Matrix& batch, std::span<const trace::DailyRecord> recs,
                std::span<const DriveAssessment> assessments) override {
    std::scoped_lock lock(mutex);
    events.push_back("batch:" + std::to_string(recs.size()));
    aligned = aligned && batch.rows() == recs.size() && recs.size() == assessments.size();
    for (std::size_t i = 0; i < assessments.size(); ++i) {
      aligned = aligned && assessments[i].day == recs[i].day;
      records.emplace_back(assessments[i].uid, assessments[i].day);
      scores.push_back(assessments[i].score);
    }
    features.append_rows(batch);
  }
  void on_retired(std::span<const std::uint64_t> uids) override {
    std::scoped_lock lock(mutex);
    for (const std::uint64_t uid : uids) events.push_back("retire:" + std::to_string(uid));
  }
};

/// One-shard config whose first busy iteration waits for `hold` to clear,
/// so everything pushed before that arrives as one batch.
DaemonConfig held_config(obs::MetricsRegistry& registry, std::atomic<bool>& hold) {
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.block_timeout = std::chrono::seconds(30);
  cfg.appender_hook = [&hold](std::uint32_t) {
    while (hold.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  return cfg;
}

TEST(TelemetryDaemon, StrikeResetWaitsForInFlightBatch) {
  // Day 0 earns every drive an alert strike under the old model; the
  // promotion arrives while day 0 is in flight.  Settling day 0 first means
  // the reset clears those strikes, so day 1 starts a fresh streak and
  // nobody pages — exactly the quiesced order: day 0, reset, day 1.
  const auto stream = make_stream(4, 2);
  const std::span<const core::FleetObservation> day0(stream.data(), 4);
  const std::span<const core::FleetObservation> day1(stream.data() + 4, 4);
  constexpr float kAlertScore = 0.95f;  // >= HealthConfig::alert_threshold

  obs::MetricsRegistry registry;
  std::atomic<bool> hold{true};
  auto gate = std::make_shared<GateModel>(kAlertScore);
  TelemetryDaemon live(gate, held_config(registry, hold));
  live.start();
  for (const auto& obs : day0) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
  hold.store(false, std::memory_order_release);
  gate->wait_entered();
  live.set_model(std::make_shared<GateModel>(kAlertScore, /*gated=*/false));
  gate->release();
  live.drain();
  for (const auto& obs : day1) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
  live.stop();
  // Every drive had a streak to clear when the reset ran.
  EXPECT_EQ(registry.counter("daemon_strike_resets_total").value(), 4u);
  EXPECT_EQ(live.stats().health_counts[static_cast<std::size_t>(HealthState::kAlert)], 0u);

  obs::MetricsRegistry ref_registry;
  auto cfg = base_config("", &ref_registry);
  cfg.shards = 1;
  TelemetryDaemon reference(std::make_shared<GateModel>(kAlertScore, false), cfg);
  reference.start();
  for (const auto& obs : day0) ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
  reference.stop();
  reference.set_model(std::make_shared<GateModel>(kAlertScore, false));  // inline reset
  reference.start();
  for (const auto& obs : day1) ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
  reference.stop();
  EXPECT_EQ(live.state_digest(), reference.state_digest());
}

TEST(TelemetryDaemon, RetireSettlesInFlightBatchFirst) {
  // A retire queued while a batch is in flight runs after that batch's
  // health and tap: the swap is the drive's last event.
  const auto stream = make_stream(4, 1);
  obs::MetricsRegistry registry;
  std::atomic<bool> hold{true};
  EventLog log;
  auto cfg = held_config(registry, hold);
  cfg.batch_observer = &log;
  auto gate = std::make_shared<GateModel>(0.95f);
  TelemetryDaemon live(gate, cfg);
  live.start();
  for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
  hold.store(false, std::memory_order_release);
  gate->wait_entered();
  live.retire(trace::DriveModel::MlcA, 0);
  gate->release();
  live.drain();
  const std::vector<std::string> expected{"batch:4",
                                          "retire:" + std::to_string(stream[0].uid())};
  {
    std::scoped_lock lock(log.mutex);
    EXPECT_EQ(log.events, expected);
  }
  live.stop();

  obs::MetricsRegistry ref_registry;
  auto ref_cfg = base_config("", &ref_registry);
  ref_cfg.shards = 1;
  TelemetryDaemon reference(std::make_shared<GateModel>(0.95f, false), ref_cfg);
  reference.start();
  for (const auto& obs : stream) ASSERT_EQ(reference.push(obs), PushResult::kAccepted);
  reference.stop();
  reference.retire(trace::DriveModel::MlcA, 0);  // quiesced: inline
  EXPECT_EQ(live.state_digest(), reference.state_digest());
}

TEST(TelemetryDaemon, StopSettlesInFlightBatch) {
  // stop() begins while a batch is in flight; the appender settles it
  // before exiting, so every accepted record is scored and assessed.
  const auto stream = make_stream(5, 1);
  obs::MetricsRegistry registry;
  std::atomic<bool> hold{true};
  EventLog log;
  auto cfg = held_config(registry, hold);
  cfg.ring_capacity = 1024;
  cfg.backpressure = Backpressure::kShed;  // a probe must never block
  cfg.batch_observer = &log;
  std::atomic<std::size_t> assessed{0};
  cfg.on_assessment = [&assessed](const DriveAssessment&) { ++assessed; };
  auto gate = std::make_shared<GateModel>(0.2f);
  TelemetryDaemon live(gate, cfg);
  live.start();
  for (const auto& obs : stream) ASSERT_EQ(live.push(obs), PushResult::kAccepted);
  hold.store(false, std::memory_order_release);
  gate->wait_entered();
  std::thread stopper([&live] { live.stop(); });
  // Probe with a fresh drive's next day until a push is rejected, which
  // proves stop() has begun.  Accepted probes are scored like any record.
  core::FleetObservation probe = stream[0];
  probe.drive_index = 99;
  while (live.push(probe) != PushResult::kRejected) {
    ++probe.record.day;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  gate->release();
  stopper.join();

  const DaemonStats stats = live.stats();
  EXPECT_GE(stats.ingested, stream.size());
  EXPECT_EQ(stats.scored, stats.ingested);
  EXPECT_EQ(assessed.load(), stats.ingested);
  std::scoped_lock lock(log.mutex);
  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.events.front(), "batch:5");
  EXPECT_EQ(log.records.size(), stats.ingested);
}

TEST(TelemetryDaemon, ObserverSeesBatchesInRecordOrder) {
  // Small batches keep the pipeline full (one scoring on the pool, the
  // next being prepared); the tap must still see one shard's records in
  // arrival order, each row next to its own bit-identical score.
  const auto stream = replay_stream(2);
  obs::MetricsRegistry registry;
  EventLog log;
  auto cfg = base_config("", &registry);
  cfg.shards = 1;
  cfg.max_batch = 40;
  cfg.block_timeout = std::chrono::seconds(30);
  cfg.batch_observer = &log;
  TelemetryDaemon daemon(fitted_forest(), cfg);
  daemon.start();
  for (const auto& obs : stream) ASSERT_EQ(daemon.push(obs), PushResult::kAccepted);
  daemon.stop();

  std::vector<DriveDay> expected;
  expected.reserve(stream.size());
  for (const auto& obs : stream) expected.emplace_back(obs.uid(), obs.record.day);
  EXPECT_TRUE(log.aligned);
  EXPECT_EQ(log.records, expected);
  EXPECT_GT(log.events.size(), stream.size() / cfg.max_batch);
  const std::vector<float> walker = fitted_forest()->predict_proba(log.features);
  ASSERT_EQ(walker.size(), log.scores.size());
  for (std::size_t i = 0; i < walker.size(); ++i)
    ASSERT_EQ(log.scores[i], walker[i]) << "row " << i;
}

TEST(TelemetryDaemon, ScoringProgressesWhilePoolIsSaturated) {
  // Every pool worker is parked in an unrelated task (an online retrain,
  // say).  The appenders must score their own queued tasks and drain.
  const auto stream = replay_stream(2);
  const Replay reference = replay(fitted_forest(), stream, 2);

  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  std::atomic<unsigned> parked{0};
  std::atomic<bool> release{false};
  parallel::TaskGroup blockers(pool);
  for (unsigned w = 0; w < pool.size(); ++w)
    blockers.submit([&parked, &release] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  while (parked.load() < pool.size()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  obs::MetricsRegistry registry;
  auto cfg = base_config("", &registry);
  cfg.block_timeout = std::chrono::seconds(30);
  ScoreSink sink;
  sink.attach(cfg);
  TelemetryDaemon daemon(fitted_forest(), cfg);
  daemon.start();
  std::atomic<bool> drained{false};
  std::thread producer([&] {
    for (const auto& obs : stream) (void)daemon.push(obs);
    daemon.drain();
    drained.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!drained.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(drained.load()) << "drain() stalled behind a saturated pool";
  release.store(true);
  producer.join();
  blockers.wait();
  daemon.stop();
  EXPECT_EQ(daemon.stats().scored, stream.size());
  EXPECT_EQ(sink.scores, reference.scores);
}

}  // namespace
}  // namespace ssdfail::daemon
