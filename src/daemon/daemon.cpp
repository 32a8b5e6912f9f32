#include "daemon/daemon.hpp"

#include <atomic>
#include <cmath>
#include <utility>

#include "ml/flat_forest.hpp"
#include "ml/matrix.hpp"
#include "ml/model_zoo.hpp"
#include "stats/rng.hpp"

namespace ssdfail::daemon {
namespace {

/// Instance label so concurrent daemons (tests, benches) sharing a
/// registry never clobber each other's gauges.
std::string next_daemon_label() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-independent digest of one feature cursor (summed by the caller).
std::uint64_t cursor_digest(std::uint64_t uid, const core::DriveFeatureCursor& cursor) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv_mix(h, uid);
  h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(cursor.last_day())));
  h = fnv_mix(h, cursor.days_observed());
  const core::FeatureExtractor::State& st = cursor.state();
  h = fnv_mix(h, st.cum.reads);
  h = fnv_mix(h, st.cum.writes);
  h = fnv_mix(h, st.cum.erases);
  for (std::uint64_t e : st.cum.errors) h = fnv_mix(h, e);
  h = fnv_mix(h, st.cum_bad_blocks);
  h = fnv_mix(h, (static_cast<std::uint64_t>(st.prev_bad_blocks) << 32) |
                     st.new_bad_blocks_today);
  return h;
}

}  // namespace

TelemetryDaemon::Shard::Shard(const DaemonConfig& config,
                              obs::MetricsRegistry& registry, std::uint32_t idx)
    : index(idx),
      ring(config.ring_capacity),
      sanitizer(robustness::SanitizerConfig{config.dead_letter_capacity, &registry}),
      health(config.health, &registry),
      feature_row(core::FeatureExtractor::count()) {}

TelemetryDaemon::TelemetryDaemon(std::shared_ptr<const ml::Classifier> model,
                                 DaemonConfig config)
    : config_(std::move(config)),
      registry_(config_.registry != nullptr ? config_.registry
                                            : &obs::MetricsRegistry::global()) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (model != nullptr) model_ = ml::make_serving_model(std::move(model));

  const std::string instance = next_daemon_label();
  obs::MetricsRegistry& reg = *registry_;
  shed_metric_ = &reg.counter("daemon_records_shed_total", {},
                              "Records dropped by ring backpressure");
  scored_metric_ = &reg.counter("daemon_records_scored_total", {},
                                "Records that reached the model");
  alerts_metric_ = &reg.counter("daemon_alerts_total", {},
                                "Scores at or above the alert threshold");
  non_finite_metric_ =
      &reg.counter("daemon_non_finite_scores_total", {},
                   "NaN/inf model scores clamped to 1.0 (conservative alert)");
  segments_metric_ = &reg.counter("daemon_wal_segments_appended_total", {},
                                  "WAL segments appended across shards");
  wal_bytes_metric_ = &reg.counter("daemon_wal_appended_bytes_total", {},
                                   "WAL bytes appended across shards");
  wal_errors_metric_ = &reg.counter("daemon_wal_errors_total", {},
                                    "WAL open/append/fsync failures");
  stalls_metric_ = &reg.counter("daemon_watchdog_stalls_total", {},
                                "Appender stall episodes detected by the watchdog");
  strike_resets_metric_ =
      &reg.counter("daemon_strike_resets_total", {},
                   "Per-drive strike streaks cleared by model promotion");
  recovered_segments_metric_ = &reg.counter("daemon_recovery_segments_total", {},
                                            "WAL segments replayed at startup");
  recovered_records_metric_ = &reg.counter("daemon_recovery_records_total", {},
                                           "Records replayed from the WAL at startup");
  degraded_metric_ = &reg.gauge("daemon_degraded", {{"daemon", instance}},
                                "1 while serving without a model");
  wal_degraded_metric_ = &reg.gauge("daemon_wal_degraded", {{"daemon", instance}},
                                    "1 while serving without a usable WAL");
  degraded_metric_->set(model_ == nullptr ? 1.0 : 0.0);

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(config_, reg, static_cast<std::uint32_t>(s)));
    Shard& shard = *shards_.back();
    shard.ingested_metric =
        &reg.counter("daemon_records_ingested_total",
                     {{"shard", std::to_string(s)}}, "Records accepted into a ring");
    shard.depth_metric = &reg.gauge(
        "daemon_ring_depth", {{"daemon", instance}, {"shard", std::to_string(s)}},
        "Approximate records waiting in a shard ring");
  }
}

TelemetryDaemon::~TelemetryDaemon() { stop(); }

std::size_t TelemetryDaemon::shard_index(std::uint64_t uid) const noexcept {
  // Hash, then modulo, so one drive's whole stream stays on one shard (the
  // sanitizer/cursor day-order invariant).  Hashing rather than taking the
  // raw uid modulo also spreads the model tag held in the uid's high bits.
  return static_cast<std::size_t>(stats::hash_keys({uid}) % shards_.size());
}

std::shared_ptr<const ml::Classifier> TelemetryDaemon::current_model() const {
  std::scoped_lock lock(model_mutex_);
  return model_;
}

void TelemetryDaemon::set_model(std::shared_ptr<const ml::Classifier> model) {
  std::shared_ptr<const ml::Classifier> serving =
      model != nullptr ? ml::make_serving_model(std::move(model)) : nullptr;
  const bool promoted = serving != nullptr;
  {
    std::scoped_lock lock(model_mutex_);
    model_ = std::move(serving);
  }
  degraded_metric_->set(current_model() == nullptr ? 1.0 : 0.0);
  if (!promoted) return;
  // Strikes accumulated under the old model's score scale must not carry
  // into post-promotion escalation.  Each shard's appender applies the
  // reset at its next iteration; when quiesced, apply inline (the same
  // single-threaded access retire() uses).
  const bool live = running_.load() && !stopping_.load();
  for (auto& shard : shards_) {
    if (live) {
      shard->strike_reset_pending.store(true, std::memory_order_release);
    } else {
      shard->strike_reset_pending.store(false, std::memory_order_relaxed);
      strike_resets_metric_->inc(shard->health.reset_strikes());
    }
  }
}

void TelemetryDaemon::apply_pending_strike_reset(Shard& shard) {
  if (shard.strike_reset_pending.exchange(false, std::memory_order_acq_rel))
    strike_resets_metric_->inc(shard.health.reset_strikes());
}

void TelemetryDaemon::mark_wal_degraded(Shard& shard) {
  shard.wal.reset();
  wal_errors_.fetch_add(1, std::memory_order_relaxed);
  wal_errors_metric_->inc();
  wal_degraded_.store(true, std::memory_order_relaxed);
  wal_degraded_metric_->set(1.0);
}

void TelemetryDaemon::recover_shard(Shard& shard) {
  const std::string path = wal_path(config_.wal_dir, shard.index);
  // The live batch path, settled at once: recovery has nothing to overlap.
  const auto on_segment = [&](const WalSegment& segment) {
    if (segment.type == SegmentType::kRecords) {
      BatchSlot& slot = shard.slots[0];
      prepare_batch(shard, slot, segment.records);
      score_batch(slot);
      finish_batch(shard, slot);
    } else {
      process_retires(shard, segment.retired_uids);
    }
  };
  // Sealed (rotated, not yet compacted) files carry the log's oldest
  // entries; replay them in seq order before the active file so recovery
  // sees the exact append order.
  WalReplayStats stats;
  std::uint64_t last_seq = 0;
  for (const std::string& sealed : list_sealed_wals(config_.wal_dir, shard.index)) {
    WalReplayStats s = replay_wal(sealed, on_segment);
    stats.merge(s);
    last_seq = std::max(last_seq, s.last_seq);
  }
  stats.merge(replay_wal(path, on_segment));
  recovery_.merge(stats);
  recovered_segments_metric_->inc(stats.segments_replayed);
  recovered_records_metric_->inc(stats.records_replayed);
  try {
    shard.wal = std::make_unique<WalWriter>(path, shard.index, config_.fsync,
                                            std::max(last_seq, stats.last_seq) + 1);
  } catch (const std::exception&) {
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::maybe_rotate_wal(Shard& shard) {
  if (config_.wal_rotate_bytes == 0 || shard.wal == nullptr) return;
  if (shard.wal->bytes_written() < config_.wal_rotate_bytes) return;
  if (shard.wal->segments_written() == 0) return;  // nothing to seal
  try {
    const std::uint64_t next_seq = shard.wal->next_seq();
    shard.wal->seal(
        sealed_wal_path(config_.wal_dir, shard.index, next_seq - 1));
    shard.wal = std::make_unique<WalWriter>(wal_path(config_.wal_dir, shard.index),
                                            shard.index, config_.fsync, next_seq);
  } catch (const std::exception&) {
    // A failed seal/reopen must not lose durability silently.
    shard.wal.reset();
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  if (config_.wal_dir.empty()) {
    wal_degraded_.store(true, std::memory_order_relaxed);
    wal_degraded_metric_->set(1.0);
  } else {
    recovering_.store(true, std::memory_order_relaxed);
    for (auto& shard : shards_) recover_shard(*shard);
    recovering_.store(false, std::memory_order_relaxed);
  }
  for (auto& shard : shards_)
    shard->appender = std::thread(&TelemetryDaemon::appender_main, this,
                                  std::ref(*shard));
  watchdog_ = std::thread(&TelemetryDaemon::watchdog_main, this);
}

void TelemetryDaemon::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  for (auto& shard : shards_) wake(*shard);
  for (auto& shard : shards_)
    if (shard->appender.joinable()) shard->appender.join();
  if (watchdog_.joinable()) watchdog_.join();
  // A reset requested after an appender's final iteration lands here.
  for (auto& shard : shards_) apply_pending_strike_reset(*shard);
  for (auto& shard : shards_) {
    if (shard->wal == nullptr) continue;
    try {
      shard->wal->sync();
    } catch (const std::exception&) {
      mark_wal_degraded(*shard);
    }
  }
  running_.store(false);
}

PushResult TelemetryDaemon::push(const core::FleetObservation& obs) {
  if (!running_.load(std::memory_order_relaxed) ||
      stopping_.load(std::memory_order_relaxed)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return PushResult::kRejected;
  }
  Shard& shard = *shards_[shard_index(obs.uid())];
  const PushResult result =
      shard.ring.push(obs, config_.backpressure, config_.block_timeout);
  if (result == PushResult::kAccepted) {
    ingested_.fetch_add(1, std::memory_order_relaxed);
    shard.ingested_metric->inc();
    wake(shard);
  } else {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_metric_->inc();
  }
  return result;
}

void TelemetryDaemon::retire(trace::DriveModel drive_model, std::uint32_t drive_index) {
  const std::uint64_t uid =
      (static_cast<std::uint64_t>(drive_model) << 32) | drive_index;
  Shard& shard = *shards_[shard_index(uid)];
  if (!running_.load() || stopping_.load()) {
    // Quiesced: apply inline (and WAL it if a writer is open) so tests can
    // exercise retire without threads.
    std::vector<std::uint64_t> uids{uid};
    wal_append(shard, {}, uids);
    process_retires(shard, uids);
    return;
  }
  {
    std::scoped_lock lock(shard.retire_mutex);
    retires_queued_.fetch_add(1, std::memory_order_relaxed);
    shard.pending_retires.push_back(uid);
  }
  wake(shard);
}

void TelemetryDaemon::drain() {
  for (int spins = 0; running_.load(); ++spins) {
    // Acquire pairs with the appenders' release: once the count is met,
    // the caller sees every processed record's effects.
    std::uint64_t done = 0;
    for (const auto& shard : shards_)
      done += shard->processed.load(std::memory_order_acquire);
    if (done >= ingested_.load(std::memory_order_relaxed) +
                    retires_queued_.load(std::memory_order_relaxed))
      return;
    if (spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void TelemetryDaemon::wal_append(Shard& shard,
                                 std::span<const core::FleetObservation> batch,
                                 std::span<const std::uint64_t> retires) {
  if (shard.wal == nullptr) return;
  try {
    const std::uint64_t before = shard.wal->bytes_written();
    if (!batch.empty()) {
      shard.wal->append(batch);
      segments_.fetch_add(1, std::memory_order_relaxed);
      segments_metric_->inc();
    }
    if (!retires.empty()) {
      shard.wal->append_retires(retires);
      segments_.fetch_add(1, std::memory_order_relaxed);
      segments_metric_->inc();
    }
    const std::uint64_t delta = shard.wal->bytes_written() - before;
    wal_bytes_.fetch_add(delta, std::memory_order_relaxed);
    wal_bytes_metric_->inc(delta);
    maybe_rotate_wal(shard);
  } catch (const std::exception&) {
    // Durability lost, service continues: WAL-degraded mode.
    mark_wal_degraded(shard);
  }
}

void TelemetryDaemon::prepare_batch(Shard& shard, BatchSlot& slot,
                                    std::span<const core::FleetObservation> batch) {
  slot.model = current_model();
  slot.observer =
      recovering_.load(std::memory_order_relaxed) ? nullptr : config_.batch_observer;
  slot.records = batch.size();
  slot.prepared.clear();
  slot.rows.clear();
  slot.scores.clear();
  slot.clean_records.clear();
  slot.assessments.clear();

  // Every record the sanitizer keeps or quarantines, in arrival order.
  // Health is observed in this order after scoring, so a drive's health
  // never depends on how its records fell into appender batches.
  for (const core::FleetObservation& obs : batch) {
    const std::uint64_t uid = obs.uid();
    const robustness::SanitizeResult clean =
        shard.sanitizer.sanitize(uid, obs.deploy_day, obs.record);
    switch (clean.action) {
      case robustness::SanitizeAction::kQuarantined:
        quarantined_.fetch_add(1, std::memory_order_relaxed);
        slot.prepared.push_back({uid, obs.record.day, /*quarantined=*/true, false, false});
        continue;
      case robustness::SanitizeAction::kDuplicateDropped:
        duplicates_.fetch_add(1, std::memory_order_relaxed);
        continue;
      case robustness::SanitizeAction::kClean:
      case robustness::SanitizeAction::kRepaired:
        break;
    }
    auto [it, inserted] =
        shard.cursors.try_emplace(uid, obs.drive_model, obs.deploy_day);
    // Sanitizer guarantees strictly increasing days per uid, so this
    // cannot throw.
    it->second.advance_and_extract(clean.record, shard.feature_row);
    slot.rows.push_row(shard.feature_row);
    slot.prepared.push_back({uid, clean.record.day, /*quarantined=*/false,
                             clean.action == robustness::SanitizeAction::kRepaired,
                             clean.record.dead});
    if (slot.observer != nullptr) slot.clean_records.push_back(clean.record);
  }
}

void TelemetryDaemon::score_batch(BatchSlot& slot) {
  if (slot.model == nullptr || slot.rows.rows() == 0) return;
  // Scores are per-row, so splitting the batch across pool tasks leaves
  // every score bit-identical to scoring it whole.
  if (const auto* flat = dynamic_cast<const ml::FlatForestClassifier*>(slot.model.get())) {
    slot.scores.resize(slot.rows.rows());
    flat->engine().submit_predict(slot.rows, slot.scores.data(), slot.scoring);
  } else {
    slot.scores = slot.model->predict_proba(slot.rows);
  }
}

void TelemetryDaemon::finish_batch(Shard& shard, BatchSlot& slot) {
  slot.scoring.wait();
  const bool scored = slot.model != nullptr;
  std::uint64_t alerts = 0;
  std::uint64_t non_finite = 0;
  std::size_t scored_row = 0;
  for (const BatchSlot::Prepared& p : slot.prepared) {
    if (p.quarantined) {
      // Irreparable telemetry is itself a symptom: a ramp-tier strike,
      // but never a swap (a corrupt record's dead flag is not trusted).
      shard.health.observe(p.uid, 0.0, /*suspect=*/true, /*dead=*/false);
      continue;
    }
    DriveAssessment assessment;
    assessment.uid = p.uid;
    assessment.day = p.day;
    assessment.scored = scored;
    if (assessment.scored) {
      assessment.score = slot.scores[scored_row];
      // A broken model must fail loud: conservative max risk, counted.
      if (!std::isfinite(assessment.score)) {
        assessment.score = 1.0f;
        ++non_finite;
      }
    }
    ++scored_row;
    assessment.alert = assessment.scored && assessment.score >= config_.threshold;
    if (assessment.alert) ++alerts;
    assessment.dead = p.dead;
    assessment.health =
        shard.health.observe(p.uid, assessment.score, p.suspect, p.dead);
    if (config_.on_assessment) config_.on_assessment(assessment);
    if (slot.observer != nullptr) slot.assessments.push_back(assessment);
  }
  slot.model.reset();  // a superseded model is not pinned by an idle slot
  publish_state(shard);
  const std::size_t rows = slot.rows.rows();
  if (rows == 0) return;
  if (slot.observer != nullptr)
    slot.observer->on_batch(slot.rows, slot.clean_records, slot.assessments);
  if (scored) {
    scored_.fetch_add(rows, std::memory_order_relaxed);
    scored_metric_->inc(rows);
    alerts_.fetch_add(alerts, std::memory_order_relaxed);
    alerts_metric_->inc(alerts);
    if (non_finite > 0) {
      non_finite_.fetch_add(non_finite, std::memory_order_relaxed);
      non_finite_metric_->inc(non_finite);
    }
  }
}

void TelemetryDaemon::settle(Shard& shard) {
  BatchSlot* const slot = std::exchange(shard.in_flight, nullptr);
  if (slot == nullptr) return;
  finish_batch(shard, *slot);
  publish_processed(shard, slot->records);
}

void TelemetryDaemon::publish_state(Shard& shard) {
  shard.drives_tracked.store(shard.cursors.size(), std::memory_order_relaxed);
  const auto counts = shard.health.counts();
  for (std::size_t s = 0; s < kNumHealthStates; ++s)
    shard.health_counts[s].store(counts[s], std::memory_order_relaxed);
}

void TelemetryDaemon::publish_processed(Shard& shard, std::size_t n) {
  // Single writer: a plain store, no read-modify-write on the hot path.
  // Release pairs with drain()'s acquire.
  shard.processed.store(shard.processed.load(std::memory_order_relaxed) + n,
                        std::memory_order_release);
}

void TelemetryDaemon::process_retires(Shard& shard,
                                      std::span<const std::uint64_t> uids) {
  if (uids.empty()) return;
  for (const std::uint64_t uid : uids) {
    shard.cursors.erase(uid);
    shard.sanitizer.forget(uid);
    shard.health.retire(uid);
  }
  publish_state(shard);
  if (config_.batch_observer != nullptr && !recovering_.load(std::memory_order_relaxed))
    config_.batch_observer->on_retired(uids);
}

void TelemetryDaemon::appender_main(Shard& shard) {
  std::vector<core::FleetObservation> batch;
  std::vector<std::uint64_t> retires;
  batch.reserve(config_.max_batch);
  for (;;) {
    batch.clear();
    retires.clear();
    // Read before the pop: every record pushed before stop() began is then
    // in this pop or an earlier one, so an empty pop means none is left.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    shard.ring.pop_into(batch, config_.max_batch);
    {
      std::scoped_lock lock(shard.retire_mutex);
      retires.swap(shard.pending_retires);
    }
    // Promotion strike reset, applied by the thread that owns the tracker
    // so HealthTracker needs no locking, and only after the in-flight
    // batch (popped before the promotion) has observed its scores.
    if (shard.strike_reset_pending.load(std::memory_order_acquire)) {
      settle(shard);
      apply_pending_strike_reset(shard);
    }
    if (batch.empty() && retires.empty()) {
      settle(shard);  // nothing stays in flight while idle or on exit
      if (stopping) break;
      park(shard);
      continue;
    }
    if (config_.appender_hook) config_.appender_hook(shard.index);
    wal_append(shard, batch, retires);
    if (!batch.empty()) {
      // Overlap: this batch scores on the pool while the previous one
      // settles here and the next one is popped, WAL'd and prepared.
      BatchSlot& slot = shard.slots[shard.in_flight == &shard.slots[0] ? 1 : 0];
      prepare_batch(shard, slot, batch);
      score_batch(slot);
      settle(shard);
      shard.in_flight = &slot;
    }
    if (!retires.empty()) {
      // A retire follows every record popped before it, health included.
      settle(shard);
      process_retires(shard, retires);
      publish_processed(shard, retires.size());
    }
    shard.heartbeat.fetch_add(1, std::memory_order_relaxed);
  }
}

void TelemetryDaemon::park(Shard& shard) {
  std::unique_lock lock(shard.park_mutex);
  shard.parked.store(true, std::memory_order_seq_cst);
  // Re-check after publishing `parked`: a producer that pushed before the
  // store saw parked == false and sent no notification.  Anything missed
  // anyway costs at most one poll_interval, the bounded wait below.
  bool idle = shard.ring.empty_approx() && !stopping_.load(std::memory_order_seq_cst);
  if (idle) {
    std::scoped_lock retire_lock(shard.retire_mutex);
    idle = shard.pending_retires.empty();
  }
  if (idle)
    shard.park_cv.wait_for(lock, config_.poll_interval, [&shard] { return shard.woken; });
  shard.woken = false;
  shard.parked.store(false, std::memory_order_relaxed);
}

void TelemetryDaemon::wake(Shard& shard) {
  if (!shard.parked.load(std::memory_order_seq_cst)) return;
  // Under the mutex, so the flag lands either before the appender's
  // re-check (which then skips the wait) or while it waits.
  {
    std::scoped_lock lock(shard.park_mutex);
    shard.woken = true;
  }
  shard.park_cv.notify_one();
}

void TelemetryDaemon::watchdog_main() {
  struct Seen {
    std::uint64_t beat = 0;
    std::chrono::steady_clock::time_point changed;
    bool flagged = false;
  };
  std::vector<Seen> seen(shards_.size());
  const auto start = std::chrono::steady_clock::now();
  for (auto& s : seen) s.changed = start;

  while (!stopping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(config_.watchdog_interval);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::size_t depth = shard.ring.size_approx();
      shard.depth_metric->set(static_cast<double>(depth));
      const std::uint64_t beat = shard.heartbeat.load(std::memory_order_relaxed);
      if (beat != seen[i].beat) {
        seen[i] = {beat, now, false};
        continue;
      }
      // One stall episode per freeze: flag once, clear when the beat moves.
      if (depth > 0 && !seen[i].flagged && now - seen[i].changed > config_.stall_timeout) {
        seen[i].flagged = true;
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
        stalls_metric_->inc();
      }
    }
  }
  for (auto& shard : shards_) shard->depth_metric->set(0.0);
}

DaemonStats TelemetryDaemon::stats() const {
  DaemonStats out;
  out.ingested = ingested_.load();
  out.shed = shed_.load();
  out.rejected = rejected_.load();
  out.scored = scored_.load();
  out.alerts = alerts_.load();
  out.non_finite_scores = non_finite_.load();
  out.quarantined = quarantined_.load();
  out.duplicates_dropped = duplicates_.load();
  out.segments_appended = segments_.load();
  out.wal_bytes = wal_bytes_.load();
  out.wal_errors = wal_errors_.load();
  out.watchdog_stalls = watchdog_stalls_.load();
  out.recovery = recovery_;
  out.degraded = current_model() == nullptr;
  out.wal_degraded = wal_degraded_.load();
  for (const auto& shard : shards_) {
    out.drives_tracked += shard->drives_tracked.load(std::memory_order_relaxed);
    for (std::size_t s = 0; s < kNumHealthStates; ++s)
      out.health_counts[s] += shard->health_counts[s].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t TelemetryDaemon::state_digest() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& [uid, cursor] : shard->cursors)
      total += cursor_digest(uid, cursor);
    total += shard->health.digest();
  }
  return total;
}

}  // namespace ssdfail::daemon
