// The three units of work — a retrain round, an ingest pass and an online
// cycle — and the oracles that check each one.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "ml/cross_validation.hpp"
#include "ml/downsample.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "store/sharded.hpp"

namespace perfbench {

namespace fs = std::filesystem;

RetrainRound retrain_round(const Fixture& fx, Verdict& verdict, Tracer& tracer,
                           std::optional<double> expect_auc) {
  RetrainRound round;
  ml::Dataset data;
  ml::Dataset test;
  std::vector<float> scores;
  ml::RandomForest forest(forest_params(fx.sizes, fx.seed));
  const auto t0 = Clock::now();
  {
    Span span(tracer, "harness.retrain_round");
    const store::ShardedFleetView view = [&] {
      Span s(tracer, "store.open");
      store::OpenOptions open;
      open.verify_crc = true;
      return store::ShardedFleetView::open(fx.store_dir, open);
    }();
    {
      Span s(tracer, "core.build_dataset");
      data = core::build_dataset(view, dataset_options(fx.seed));
    }
    ml::Dataset train;
    {
      // Hold out fold 0 of a drive-partitioned 5-fold split; the training
      // side is downsampled to 1:1 (Section 5.1).
      Span s(tracer, "ml.split");
      std::vector<std::size_t> train_rows;
      std::vector<std::size_t> test_rows;
      for (std::size_t i = 0; i < data.size(); ++i)
        (ml::group_fold(data.groups[i], fx.sizes.folds, fx.seed) == 0 ? test_rows
                                                                      : train_rows)
            .push_back(i);
      train = ml::downsample_negatives(data.subset(train_rows), 1.0, fx.seed ^ 0xd5ull);
      test = data.subset(test_rows);
    }
    {
      Span s(tracer, "ml.forest_fit");
      forest.fit(train);
    }
    ml::FlatForest flat;
    {
      Span s(tracer, "ml.flat_compile");
      flat = ml::FlatForest::compile(forest);
    }
    {
      Span s(tracer, "ml.holdout_score");
      scores = flat.predict_proba(test.x);
    }
    {
      Span s(tracer, "ml.auc");
      round.auc = ml::roc_auc(scores, test.y);
    }
    round.store_rows = view.total_records();
    round.dataset_rows = data.size();
  }
  round.seconds = seconds_since(t0);

  verdict.attempt();
  verdict.check(dataset_digest(data) == fx.reference_dataset_digest,
                "retrain: store dataset differs from the row-path build");
  verdict.check(bit_identical(scores, forest.predict_proba(test.x)),
                "retrain: flat scores differ from the walker on the hold-out fold");
  verdict.check(std::isfinite(round.auc) && test.positives() > 0,
                "retrain: hold-out AUC undefined");
  if (expect_auc)
    verdict.check(std::bit_cast<std::uint64_t>(round.auc) ==
                      std::bit_cast<std::uint64_t>(*expect_auc),
                  "retrain: AUC changed between rounds");
  return round;
}

namespace {

struct Completion {
  std::uint64_t uid = 0;
  std::int32_t day = 0;
  Clock::time_point at;
};

/// Sleep (not spin) until shortly before `due`, so the generator leaves
/// its core to the daemon; rows are timed from `due`, so waking late is
/// charged to the row, never hidden.
void wait_until(Clock::time_point due) {
  for (auto now = Clock::now(); now < due; now = Clock::now()) {
    if (due - now > std::chrono::microseconds(60))
      std::this_thread::sleep_for(due - now - std::chrono::microseconds(50));
    else
      std::this_thread::yield();
  }
}

double max_ring_depth() {
  double depth = 0.0;
  for (const obs::Sample& s : obs::MetricsRegistry::global().snapshot().samples)
    if (s.name == "daemon_ring_depth") depth = std::max(depth, s.value);
  return depth;
}

/// Push-to-scored latency per assessed row, from the row's due time.
/// Quarantined and duplicate rows produce no assessment and no sample.
std::vector<double> match_latencies(const Fixture& fx, std::vector<Completion>& done,
                                    Clock::time_point t0, double rate) {
  std::vector<std::tuple<std::uint64_t, std::int32_t, std::size_t>> keys;
  keys.reserve(fx.stream.size());
  for (std::size_t i = 0; i < fx.stream.size(); ++i)
    keys.emplace_back(fx.stream[i].uid(), fx.stream[i].record.day, i);
  std::sort(keys.begin(), keys.end());
  std::vector<double> latency_ms;
  latency_ms.reserve(done.size());
  for (const Completion& c : done) {
    const auto it = std::lower_bound(keys.begin(), keys.end(),
                                     std::make_tuple(c.uid, c.day, std::size_t{0}));
    if (it == keys.end() || std::get<0>(*it) != c.uid || std::get<1>(*it) != c.day) continue;
    const double due_s = static_cast<double>(std::get<2>(*it)) / rate;
    latency_ms.push_back(
        (std::chrono::duration<double>(c.at - t0).count() - due_s) * 1e3);
  }
  return latency_ms;
}

}  // namespace

IngestPass replay_stream(const Fixture& fx, const daemon::DaemonConfig& base,
                         Tracer& tracer, double rate, bool sample_pushes) {
  daemon::DaemonConfig cfg = base;
  if (!cfg.wal_dir.empty()) {
    fs::remove_all(cfg.wal_dir);
    fs::create_directories(cfg.wal_dir);
  }
  const std::size_t n = fx.stream.size();
  const bool open_loop = rate > 0.0;
  IngestPass pass;
  pass.offered = n;

  std::vector<Completion> done;
  std::atomic<std::size_t> n_done{0};
  if (open_loop) {
    done.resize(n);
    cfg.on_assessment = [&done, &n_done](const daemon::DriveAssessment& a) {
      const std::size_t k = n_done.fetch_add(1, std::memory_order_relaxed);
      if (k < done.size()) done[k] = {a.uid, a.day, Clock::now()};
    };
    pass.lateness_ms.reserve(n);
  }
  if (sample_pushes) pass.push_us.reserve(n);

  daemon::TelemetryDaemon daemon(fx.served, cfg);
  daemon.start();
  const auto drained = [&daemon] {
    const daemon::DaemonStats s = daemon.stats();
    return s.scored + s.quarantined + s.duplicates_dropped >= s.ingested;
  };
  std::size_t next_retire = 0;
  const auto t0 = Clock::now();
  {
    Span span(tracer, open_loop ? "daemon.ingest_open_loop" : "daemon.ingest_saturated");
    for (std::size_t i = 0; i < n; ++i) {
      if (open_loop) {
        const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                  static_cast<double>(i) * 1e9 / rate));
        wait_until(due);
        pass.lateness_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      }
      daemon::PushResult result;
      if (sample_pushes) {
        const auto p0 = Clock::now();
        result = daemon.push(fx.stream[i]);
        pass.push_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - p0).count());
        if (i % 4096 == 0) pass.ring_depth_max = std::max(pass.ring_depth_max, max_ring_depth());
      } else {
        result = daemon.push(fx.stream[i]);
      }
      if (result != daemon::PushResult::kAccepted) ++pass.lost;
      for (; next_retire < fx.retirements.size() &&
             fx.retirements[next_retire].after_row == i + 1 &&
             fx.retirements[next_retire].after_row < n;
           ++next_retire)
        daemon.retire(fx.retirements[next_retire].model,
                      fx.retirements[next_retire].drive_index);
    }
    while (!drained()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  pass.seconds = seconds_since(t0);
  // Swaps whose record sat too close to the end of the stream go in once
  // everything has been processed.
  for (; next_retire < fx.retirements.size(); ++next_retire)
    daemon.retire(fx.retirements[next_retire].model, fx.retirements[next_retire].drive_index);
  daemon.stop();
  pass.stats = daemon.stats();
  pass.state_digest = daemon.state_digest();
  if (open_loop) {
    done.resize(std::min(n_done.load(), done.size()));
    pass.latency_ms = match_latencies(fx, done, t0, rate);
  }
  return pass;
}

void check_ingest(const Fixture& fx, const IngestPass& pass,
                  std::optional<std::uint64_t> recovered_digest, Verdict& verdict) {
  const daemon::DaemonStats& s = pass.stats;
  verdict.check(s.scored + s.quarantined + s.duplicates_dropped + s.shed + s.rejected ==
                    pass.offered,
                "ingest: scored + quarantined + duplicates + shed + rejected != offered");
  verdict.check(s.wal_errors == 0 && !s.wal_degraded, "ingest: WAL degraded");
  if (recovered_digest)
    verdict.check(*recovered_digest == pass.state_digest,
                  "ingest: state recovered from the WAL differs from the live state");
  if (pass.lost > 0) return;  // lost rows count as failed; the totals differ
  const IngestReference& ref = fx.ingest_ref;
  verdict.check(s.alerts == ref.alerts, "ingest: alert count differs from the reference");
  verdict.check(s.scored == ref.scored && s.quarantined == ref.quarantined &&
                    s.duplicates_dropped == ref.duplicates,
                "ingest: scored/quarantined/duplicate counts differ from the reference");
}

namespace {

/// State digest of a fresh daemon that rebuilds itself from `cfg.wal_dir`.
std::uint64_t recover_digest(const Fixture& fx, daemon::DaemonConfig cfg) {
  cfg.on_assessment = nullptr;
  daemon::TelemetryDaemon recovered(fx.served, cfg);
  recovered.start();
  recovered.stop();
  return recovered.state_digest();
}

}  // namespace

IngestPass ingest_pass(const Fixture& fx, Verdict& verdict, Tracer& tracer, double rate,
                       bool sample_pushes, bool check_recovery) {
  const daemon::DaemonConfig cfg =
      daemon_config(fx.sizes, fx.sizes.daemon_shards, fx.dir + "/ingest_wal");
  IngestPass pass = replay_stream(fx, cfg, tracer, rate, sample_pushes);
  verdict.attempt(pass.offered);
  verdict.fail(pass.lost);
  std::optional<std::uint64_t> recovered;
  if (check_recovery) recovered = recover_digest(fx, cfg);
  check_ingest(fx, pass, recovered, verdict);
  // Known defect: per-drive health depends on how records fall into
  // appender batches (a quarantine strike is applied before the scored
  // records that precede it in the same batch), so the 2-shard state digest
  // can differ from the 1-shard reference.  Reported, not failed, until the
  // daemon orders health updates by record.
  pass.reference_digest_match = pass.state_digest == fx.ingest_ref.state_digest;
  if (!pass.reference_digest_match && pass.lost == 0)
    std::fprintf(stderr,
                 "ssdbench: known defect: ingest state digest %016llx differs from the "
                 "1-shard reference %016llx\n",
                 static_cast<unsigned long long>(pass.state_digest),
                 static_cast<unsigned long long>(fx.ingest_ref.state_digest));
  return pass;
}

Cycle run_cycle(const Fixture& fx, Tracer& tracer) {
  fs::remove_all(fx.cycle_store_dir);  // restore the empty base store (untimed)
  Cycle cycle;
  const auto t0 = Clock::now();
  {
    Span span(tracer, "harness.online_cycle");
    {
      Span s(tracer, "daemon.compact");
      daemon::CompactorOptions opts;
      opts.keep_wal = true;
      opts.store.chunk_drives = fx.sizes.chunk_drives;
      cycle.compaction = daemon::compact_sealed_wals(fx.wal_dir, fx.cycle_store_dir, opts);
    }
    Span s(tracer, "online.retrain");
    const auto result =
        online::Retrainer(retrainer_config(fx.cycle_store_dir, fx.seed)).retrain(fx.last_day);
    if (result) {
      cycle.model = result->model != nullptr;
      cycle.retrain_rows = result->rows;
      cycle.retrain_positives = result->positives;
    }
  }
  cycle.seconds = seconds_since(t0);
  return cycle;
}

void check_cycle(const CycleReference& ref, const Cycle& cycle, Verdict& verdict) {
  const daemon::CompactionResult& a = cycle.compaction;
  const daemon::CompactionResult& b = ref.compaction;
  verdict.check(a.wal_files == b.wal_files && a.wal_bytes_in == b.wal_bytes_in &&
                    a.records == b.records && a.retires == b.retires &&
                    a.out_of_order_dropped == b.out_of_order_dropped &&
                    a.drives == b.drives && a.shards_written == 1 &&
                    a.shard_bytes_out == b.shard_bytes_out,
                "online_cycle: compaction result differs from the setup reference");
  verdict.check(cycle.model && cycle.retrain_positives > 0,
                "online_cycle: retrain returned no model trained on positives");
  verdict.check(cycle.retrain_rows == ref.retrain_rows &&
                    cycle.retrain_positives == ref.retrain_positives,
                "online_cycle: retrain rows/positives differ from the setup reference");
}

Cycle online_cycle(const Fixture& fx, Verdict& verdict, Tracer& tracer) {
  Cycle cycle = run_cycle(fx, tracer);
  verdict.attempt();
  check_cycle(fx.cycle_ref, cycle, verdict);
  return cycle;
}

}  // namespace perfbench
