// The traced run: per-layer metrics from spans around public calls, a
// single-thread stage replay of the ingest stream, and tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "daemon/ingest_ring.hpp"
#include "daemon/wal.hpp"
#include "ml/gradient_boosting.hpp"
#include "obs/metrics.hpp"
#include "robustness/record_sanitizer.hpp"
#include "store/sharded.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

double counter(const char* name) {
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::Sample* s = snap.find(name);
  return s != nullptr ? s->value : 0.0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Thread-pool activity over a region: task and steal counts from the
/// registry, and process CPU time over the wall time of every core.
class PoolWindow {
 public:
  PoolWindow()
      : tasks_(counter("threadpool_tasks_total")),
        steals_(counter("threadpool_steals_total")),
        cpu_(cpu_seconds()),
        t0_(Clock::now()) {}
  void report(Metrics& m, const std::string& prefix) const {
    const double cores = std::max(1u, std::thread::hardware_concurrency());
    m.push_back({prefix + "tasks", counter("threadpool_tasks_total") - tasks_, "count"});
    m.push_back({prefix + "steals", counter("threadpool_steals_total") - steals_, "count"});
    m.push_back({prefix + "busy_frac", (cpu_seconds() - cpu_) / (seconds_since(t0_) * cores),
                 "ratio"});
  }

 private:
  double tasks_, steals_, cpu_;
  Clock::time_point t0_;
};

/// Time `body` over the whole stream in a span and return ns per row.
template <typename Body>
double ns_per_row(Tracer& tracer, const char* span, std::size_t rows, Body&& body) {
  Span s(tracer, span);
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0) * 1e9 / static_cast<double>(std::max<std::size_t>(rows, 1));
}

/// Push the ingest stream through each stage class in turn on one thread:
/// ring -> WAL -> sanitizer -> feature cursors -> flat and walker scoring
/// -> health.  Each stage is timed on its own, over every row.
void stage_replay(const Fixture& fx, Verdict& verdict, Tracer& tracer, Metrics& m) {
  const std::vector<core::FleetObservation>& stream = fx.stream;
  const std::size_t n = stream.size();
  const std::size_t batch = fx.sizes.max_batch;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  std::vector<core::FleetObservation> ringed;
  ringed.reserve(n);
  m.push_back({"daemon.ring_ns_per_row", ns_per_row(tracer, "daemon.ring", n, [&] {
                 daemon::IngestRing ring(fx.sizes.ring_capacity);
                 for (std::size_t i = 0; i < n;) {
                   for (std::size_t k = 0; k < batch && i < n; ++k, ++i)
                     (void)ring.try_push(stream[i]);
                   ring.pop_into(ringed, batch);
                 }
               }),
               "ns/row"});
  verdict.check(ringed.size() == n, "stage replay: ring lost rows");

  const std::string wal_path = fx.dir + "/stage.swal";
  std::uint64_t wal_bytes = 0;
  m.push_back({"daemon.wal_append_ns_per_row", ns_per_row(tracer, "daemon.wal_append", n, [&] {
                 daemon::WalWriter wal(wal_path, 0, daemon::FsyncPolicy::kNever);
                 for (std::size_t i = 0; i < n; i += batch)
                   wal.append(std::span(ringed).subspan(i, std::min(batch, n - i)));
                 wal_bytes = wal.bytes_written();
               }),
               "ns/row"});
  fs::remove(wal_path);
  verdict.check(wal_bytes >= n * daemon::kWalRecordSize, "stage replay: WAL short");

  struct Clean {
    const core::FleetObservation* obs;
    trace::DailyRecord record;
    bool suspect;
  };
  std::vector<Clean> clean;
  clean.reserve(n);
  robustness::SanitizerSnapshot sanitized;
  m.push_back({"robustness.sanitize_ns_per_row",
               ns_per_row(tracer, "robustness.sanitize", n, [&] {
                 robustness::RecordSanitizer sanitizer({64, &registry});
                 for (const core::FleetObservation& o : ringed) {
                   const robustness::SanitizeResult r =
                       sanitizer.sanitize(o.uid(), o.deploy_day, o.record);
                   if (r.action == robustness::SanitizeAction::kClean ||
                       r.action == robustness::SanitizeAction::kRepaired)
                     clean.push_back(
                         {&o, r.record, r.action == robustness::SanitizeAction::kRepaired});
                 }
                 sanitized = sanitizer.snapshot();
               }),
               "ns/row"});
  m.push_back({"robustness.quarantined", static_cast<double>(sanitized.records_quarantined),
               "count"});
  m.push_back({"robustness.repaired", static_cast<double>(sanitized.records_repaired),
               "count"});
  verdict.check(sanitized.records_quarantined == fx.ingest_ref.quarantined &&
                    sanitized.duplicates_dropped == fx.ingest_ref.duplicates,
                "stage replay: sanitizer counts differ from the daemon reference");

  std::vector<ml::Matrix> batches;
  const std::size_t cols = core::FeatureExtractor::count();
  m.push_back({"core.features_ns_per_row",
               ns_per_row(tracer, "core.features", clean.size(), [&] {
                 std::unordered_map<std::uint64_t, core::DriveFeatureCursor> cursors;
                 std::vector<float> row(cols);
                 for (std::size_t i = 0; i < clean.size(); ++i) {
                   const core::FleetObservation& o = *clean[i].obs;
                   auto [it, inserted] = cursors.try_emplace(o.uid(), o.drive_model, o.deploy_day);
                   it->second.advance_and_extract(clean[i].record, row);
                   if (i % batch == 0) batches.emplace_back();
                   batches.back().push_row(row);
                 }
               }),
               "ns/row"});

  const ml::FlatForest& engine = fx.served->engine();
  std::vector<std::vector<float>> flat(batches.size());
  const double flat_ns = ns_per_row(tracer, "ml.flat_score", clean.size(), [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      flat[b].resize(batches[b].rows());
      engine.predict_into(batches[b], 0, batches[b].rows(), flat[b].data());
    }
  });
  std::vector<std::vector<float>> walker(batches.size());
  parallel::ThreadPool one_thread(1);
  const double walker_ns = ns_per_row(tracer, "ml.walker_score", clean.size(), [&] {
    for (std::size_t b = 0; b < batches.size(); ++b)
      walker[b] = fx.served_forest->predict_proba(batches[b], one_thread);
  });
  m.push_back({"ml.flat_score_ns_per_row", flat_ns, "ns/row"});
  m.push_back({"ml.walker_score_ns_per_row", walker_ns, "ns/row"});
  m.push_back({"ml.flat_speedup_x", walker_ns / flat_ns, "x"});
  verdict.check(std::equal(flat.begin(), flat.end(), walker.begin(), walker.end(),
                           [](const auto& a, const auto& b) { return bit_identical(a, b); }),
                "stage replay: flat scores differ from the walker");

  m.push_back({"daemon.health_ns_per_row",
               ns_per_row(tracer, "daemon.health", clean.size(), [&] {
                 daemon::HealthTracker health(daemon::HealthConfig{}, &registry);
                 for (std::size_t i = 0; i < clean.size(); ++i)
                   (void)health.observe(clean[i].obs->uid(), flat[i / batch][i % batch],
                                        clean[i].suspect, clean[i].record.dead);
               }),
               "ns/row"});
}

}  // namespace

Metrics traced_run(const Fixture& fx, Verdict& verdict, Tracer& tracer, double rate) {
  Metrics m;
  Tracer off(false);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  int round = 0;
  m.push_back({"sim.simulate_s", fx.simulate_s, "s"});
  m.push_back({"store.setup_write_s", fx.store_write_s, "s"});

  // retrain: warm up, then untraced and traced rounds of the same work.
  constexpr int kRounds = 3;
  const double auc = retrain_round(fx, verdict, off, std::nullopt).auc;
  std::vector<double> plain, traced;
  for (int r = 0; r < kRounds; ++r) plain.push_back(retrain_round(fx, verdict, off, auc).seconds);
  RetrainRound last;
  {
    const PoolWindow pool;
    for (int r = 0; r < kRounds; ++r) {
      tracer.set_round(++round);
      last = retrain_round(fx, verdict, tracer, auc);
      traced.push_back(last.seconds);
    }
    pool.report(m, "parallel.");
  }
  untraced_s += median(plain);
  traced_s += median(traced);
  const auto span_median = [&tracer](const char* name) { return median(tracer.durations(name)); };
  m.push_back({"store.open_s", span_median("store.open"), "s"});
  {
    const store::ShardedFleetView view = store::ShardedFleetView::open(fx.store_dir);
    const double before = counter("store_chunks_read_total");
    {
      Span s(tracer, "store.decode");
      for (std::size_t sh = 0; sh < view.shard_count(); ++sh)
        for (std::size_t c = 0; c < view.shard(sh).chunk_count(); ++c)
          (void)view.shard(sh).chunk(c);
    }
    m.push_back({"store.decode_s", span_median("store.decode"), "s"});
    m.push_back({"store.chunks_read", counter("store_chunks_read_total") - before, "count"});
  }
  const double build_s = span_median("core.build_dataset");
  m.push_back({"core.build_dataset_s", build_s, "s"});
  m.push_back({"core.drive_days_per_s", static_cast<double>(last.store_rows) / build_s,
               "rows/s"});
  m.push_back({"core.rows_emitted", static_cast<double>(last.dataset_rows), "count"});
  m.push_back({"ml.forest_fit_s", span_median("ml.forest_fit"), "s"});
  m.push_back({"ml.flat_compile_s", span_median("ml.flat_compile"), "s"});
  m.push_back({"ml.holdout_score_s", span_median("ml.holdout_score"), "s"});

  // ingest: an untraced and a traced saturated pass (the traced one times
  // every push), one open-loop pass for generator lateness, then the
  // single-thread stage replay.
  untraced_s += ingest_pass(fx, verdict, off, 0.0, false, true).seconds;
  tracer.set_round(++round);
  const IngestPass sat = ingest_pass(fx, verdict, tracer, 0.0, true, false);
  traced_s += sat.seconds;
  const double offered = static_cast<double>(sat.offered);
  m.push_back({"daemon.push_p50_us", quantile(sat.push_us, 0.50), "us"});
  m.push_back({"daemon.push_p99_us", quantile(sat.push_us, 0.99), "us"});
  m.push_back({"daemon.ring_depth_max", sat.ring_depth_max, "count"});
  m.push_back({"daemon.watchdog_stalls", static_cast<double>(sat.stats.watchdog_stalls),
               "count"});
  m.push_back({"daemon.wal_bytes_per_row", static_cast<double>(sat.stats.wal_bytes) / offered,
               "B/row"});
  m.push_back({"daemon.segments_per_krow",
               static_cast<double>(sat.stats.segments_appended) * 1e3 / offered, "count/krow"});
  m.push_back({"daemon.reference_digest_match", sat.reference_digest_match ? 1.0 : 0.0, "bool"});
  tracer.set_round(++round);
  const IngestPass open = ingest_pass(fx, verdict, tracer, rate, false, false);
  m.push_back({"gen.lateness_p99_ms", quantile(open.lateness_ms, 0.99), "ms"});
  m.push_back({"daemon.latency_p50_ms", quantile(open.latency_ms, 0.50), "ms"});
  m.push_back({"daemon.latency_p90_ms", quantile(open.latency_ms, 0.90), "ms"});
  m.push_back({"daemon.latency_p99_ms", quantile(open.latency_ms, 0.99), "ms"});
  tracer.set_round(++round);
  stage_replay(fx, verdict, tracer, m);

  // online_cycle: untraced and traced cycles, then its layers one by one.
  untraced_s += online_cycle(fx, verdict, off).seconds;
  tracer.set_round(++round);
  {
    const PoolWindow pool;
    traced_s += online_cycle(fx, verdict, tracer).seconds;
    pool.report(m, "parallel.cycle_");
  }
  m.push_back({"daemon.compact_s", span_median("daemon.compact"), "s"});
  {
    std::uint64_t records = 0;
    {
      Span s(tracer, "daemon.wal_replay");
      for (const std::string& path : daemon::list_sealed_wals(fx.wal_dir))
        records += daemon::replay_wal(path, [](const daemon::WalSegment&) {}).records_replayed;
    }
    m.push_back({"daemon.wal_replay_rows_per_s",
                 static_cast<double>(records) / span_median("daemon.wal_replay"), "rows/s"});
  }
  const store::ShardedFleetView view = store::ShardedFleetView::open(fx.cycle_store_dir);
  {
    const trace::FleetTrace compacted = store::materialize(view);
    const std::string dir = fx.dir + "/rewrite";
    {
      Span s(tracer, "store.write");
      store::ShardedWriteOptions opts;
      opts.store.version = store::kColumnarVersionV3;
      opts.store.chunk_drives = fx.sizes.chunk_drives;
      store::write_sharded(dir, compacted, opts);
    }
    fs::remove_all(dir);
    m.push_back({"store.write_s", span_median("store.write"), "s"});
  }
  {
    const online::Retrainer retrainer(retrainer_config(fx.cycle_store_dir, fx.seed));
    std::size_t chunks = 0;
    for (std::size_t sh = 0; sh < view.shard_count(); ++sh) chunks += view.shard(sh).chunk_count();
    const double pruned_before = counter("store_chunks_pruned_total");
    ml::Dataset data;
    {
      Span s(tracer, "online.build_training_set");
      data = retrainer.build_training_set(view, fx.last_day);
    }
    // build_training_set makes two passes (negatives, then positives).
    m.push_back({"online.build_training_set_s", span_median("online.build_training_set"), "s"});
    m.push_back({"store.chunks_pruned_frac",
                 (counter("store_chunks_pruned_total") - pruned_before) /
                     static_cast<double>(2 * std::max<std::size_t>(chunks, 1)),
                 "ratio"});
    {
      Span s(tracer, "ml.boosting_fit");
      ml::GradientBoosting(retrainer.config().model).fit(data);
    }
    m.push_back({"ml.boosting_fit_s", span_median("ml.boosting_fit"), "s"});
  }

  std::map<std::string, double> self = tracer.self_time_by_layer();
  for (const char* layer :
       {"sim", "store", "core", "ml", "robustness", "daemon", "online", "harness"})
    m.push_back({std::string(layer) + ".self_s", self[layer], "s"});
  m.push_back({"trace.spans", static_cast<double>(tracer.spans().size()), "count"});
  m.push_back({"trace.overhead_s", traced_s - untraced_s, "s"});
  m.push_back({"trace.overhead_frac", (traced_s - untraced_s) / untraced_s, "ratio"});
  return m;
}

}  // namespace perfbench
