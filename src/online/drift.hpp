#pragma once

// Streaming distribution-drift detection for the online-learning loop
// (ROADMAP "Online learning, drift detection, champion/challenger").
//
// The paper trains once on a frozen trace; a production fleet drifts under
// the model (firmware updates, new drive batches, aging mix — Han et al.,
// PAPERS.md, show preprocessing/label shift dominates predictor accuracy
// over time).  This module watches the INPUT side of the model:
//
//   - Per-feature marginal sketches: fixed-bin histograms over the 19
//     SSDF2 zone columns (store::ZoneColumn — the 8 record fields, the 10
//     error-type counters, and the swap-day column).  Counters span many
//     orders of magnitude, so bins are log2-spaced (bin 0 holds <= 0, bin
//     k holds [2^(k-1), 2^k)); days use the same spacing, which is fine —
//     drift statistics only need a fixed, order-preserving partition
//     agreed between reference and window.
//   - Two binned two-sample statistics per column, computed reference vs
//     current window: PSI (population stability index, the standard
//     scorecard-monitoring statistic; > 0.25 is conventionally "major
//     shift") and the binned KS distance (max CDF gap, in [0, 1]).
//   - Score-calibration drift: the ModelArena reports each matured label
//     window's mean predicted probability vs observed swap rate; the gap
//     is exported as online_calibration_gap (see arena.hpp).
//
// The detector is fed from the daemon's BatchObserver tap (sanitized
// records only — quarantined rows never reach it) and compared against a
// DriftReference captured from the TRAINING data (sketch_fleet over the
// shards the champion was fitted on, or adopt() of a live window at
// promotion time).  Everything is exported as online_* metric families
// with configurable alert thresholds.
//
// Thread safety: observe() may be called concurrently from every appender
// thread (striped per-thread accumulation is overkill here — a mutex-
// guarded add into 20 small arrays is ~ns against a scoring batch);
// evaluate()/snapshot() take the same mutex.

#include <array>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "store/columnar.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::store {
class ShardedFleetView;
}

namespace ssdfail::online {

/// Number of log2-spaced bins per column sketch.  2^30 days / counter
/// units is beyond anything the fleet produces, so the top bin is a true
/// tail bucket.
inline constexpr std::size_t kDriftBins = 32;

/// Fixed-bin marginal histogram of one column.  Plain data: merging and
/// serializing (CLI drift reports) stay trivial.
struct MarginalSketch {
  std::array<std::uint64_t, kDriftBins> bins{};
  std::uint64_t n = 0;

  /// log2 binning: <= 0 -> bin 0, else 1 + floor(log2(v)), capped.
  [[nodiscard]] static std::size_t bin_of(std::int64_t v) noexcept;

  void add(std::int64_t v) noexcept {
    ++bins[bin_of(v)];
    ++n;
  }
  void merge(const MarginalSketch& other) noexcept;
};

/// One sketch per zone column (store::ZoneColumn order).
struct FeatureSketches {
  std::array<MarginalSketch, store::kNumZoneColumns> columns{};
  std::uint64_t rows = 0;  ///< records folded (swap-day adds don't count)

  /// Fold one sanitized daily record (fills every column except kSwapDay).
  void add_record(const trace::DailyRecord& rec) noexcept;
  /// Fold one swap/death day into the kSwapDay sketch.
  void add_swap_day(std::int32_t day) noexcept;
  void merge(const FeatureSketches& other) noexcept;
};

/// Human-readable zone-column name ("reads", "err_uncorrectable", ...).
[[nodiscard]] std::string zone_column_name(store::ZoneColumn column);

/// True for the clock columns, kDay and kSwapDay.  Two windows of a live
/// stream always cover different day ranges, so these drift by
/// construction: reports show them but never judge them.
[[nodiscard]] constexpr bool is_clock_column(store::ZoneColumn column) noexcept {
  return column == store::ZoneColumn::kDay || column == store::ZoneColumn::kSwapDay;
}

/// Sketch a whole columnar file / sharded store — the offline side
/// (training-time reference capture, and the CLI `drift` report).
[[nodiscard]] FeatureSketches sketch_fleet(const store::ColumnarFleetView& view);
[[nodiscard]] FeatureSketches sketch_fleet(const store::ShardedFleetView& view);

/// Binned two-sample statistics for one column.
struct DriftStat {
  double psi = 0.0;  ///< population stability index (>= 0)
  double ks = 0.0;   ///< max binned CDF gap, in [0, 1]
};

/// PSI + KS between a reference and a current sketch.  Empty sketches
/// compare as zero drift (nothing to judge).
[[nodiscard]] DriftStat compare_sketches(const MarginalSketch& ref,
                                         const MarginalSketch& cur) noexcept;

struct DriftConfig {
  /// Alert when any column's PSI reaches this (0.25 is the conventional
  /// "major population shift" threshold).
  double psi_alert = 0.25;
  /// Alert when any column's binned KS distance reaches this.
  double ks_alert = 0.35;
  /// Judge only once the current window holds at least this many records
  /// (tiny windows make PSI scream on noise).
  std::uint64_t min_window_rows = 512;
};

/// Full per-column comparison of reference vs current window.  The
/// aggregates (max_psi/max_ks/alert) cover FEATURE columns only: the clock
/// columns kDay and kSwapDay drift by construction on any live stream, so
/// they appear in `columns` for reporting but never fire the alert.
struct DriftReport {
  std::array<DriftStat, store::kNumZoneColumns> columns{};
  std::uint64_t reference_rows = 0;
  std::uint64_t window_rows = 0;
  double max_psi = 0.0;
  double max_ks = 0.0;
  std::size_t worst_column = 0;  ///< argmax PSI over feature columns
  bool alert = false;            ///< thresholds crossed with enough rows
};

/// A column's status in a drift report: "clock" for a clock column;
/// "DRIFT" for a feature column past either threshold with enough window
/// rows to judge; else "ok".  `report.alert` is set exactly when some
/// column's status is "DRIFT".
[[nodiscard]] std::string_view column_status(const DriftReport& report,
                                             store::ZoneColumn column,
                                             const DriftConfig& config) noexcept;

/// Streaming drift detector: reference sketches vs an accumulating
/// current window, with online_* metric export.
class DriftDetector {
 public:
  /// `registry` null disables metric export (offline CLI reports).
  DriftDetector(DriftConfig config, obs::MetricsRegistry* registry);

  /// Install the training-time reference distribution.
  void set_reference(FeatureSketches reference);
  [[nodiscard]] bool has_reference() const;

  /// Fold one sanitized record (appender threads).
  void observe(const trace::DailyRecord& rec);
  /// Fold one swap/death day (appender threads).
  void observe_swap_day(std::int32_t day);

  /// Compare the current window against the reference, export metrics,
  /// and bump online_drift_alerts_total on a newly-firing alert.  Does
  /// NOT clear the window (callers decide the cadence; see reset_window).
  [[nodiscard]] DriftReport evaluate();

  /// Start a fresh window (after retraining/promotion adopted the shift).
  void reset_window();

  /// The current window becomes the new reference (promotion adopted the
  /// drifted distribution) and the window restarts.
  void adopt_window_as_reference();

  [[nodiscard]] FeatureSketches window_snapshot() const;
  [[nodiscard]] std::uint64_t window_rows() const;

 private:
  DriftConfig config_;
  mutable std::mutex mutex_;
  std::optional<FeatureSketches> reference_;
  FeatureSketches window_;
  bool alerting_ = false;  ///< edge-triggering for the alerts counter

  obs::Counter* alerts_total_ = nullptr;
  obs::Gauge* alert_gauge_ = nullptr;
  obs::Gauge* window_rows_gauge_ = nullptr;
  obs::Gauge* max_psi_gauge_ = nullptr;
  obs::Gauge* max_ks_gauge_ = nullptr;
  std::array<obs::Gauge*, store::kNumZoneColumns> psi_gauges_{};
  std::array<obs::Gauge*, store::kNumZoneColumns> ks_gauges_{};
};

/// Offline shard-vs-shard comparison (the CLI `drift` subcommand): every
/// column's PSI/KS between two fleets, no thresholds applied unless given.
[[nodiscard]] DriftReport compare_fleets(const FeatureSketches& reference,
                                         const FeatureSketches& current,
                                         const DriftConfig& config = {});

}  // namespace ssdfail::online
