#pragma once

// Streaming construction of prediction datasets from a simulated fleet —
// the paper's Section 5.1 labeling and sampling protocol (feeds every
// prediction experiment: Tables 6-8, Figs 12-16).
//
// One pass over the fleet per dataset: every labeled-positive drive-day is
// kept; negative drive-days are kept with a fixed probability (test-side
// subsampling).  Uniform negative subsampling leaves TPR/FPR — and hence
// the ROC curve — unbiased; it only adds variance (Section 5.1 discussion,
// validated in tests/core/test_eval_subsampling.cpp).
//
// Post-failure limbo days (after a derived failure, before re-entry) are
// excluded: the drive is not in production there.

#include <optional>

#include "core/features.hpp"
#include "ml/dataset.hpp"
#include "sim/fleet_simulator.hpp"

namespace ssdfail::store {
class ColumnarFleetView;
class ShardedFleetView;
}

namespace ssdfail::core {

struct DatasetBuildOptions {
  /// Predict events within the next N days (N >= 1).
  ///
  /// Boundary convention (unified across all label kinds): a drive-day at
  /// day d is positive iff the labeled event occurs on or before day d+N —
  /// an INCLUSIVE upper bound, matching the paper's "fails within the next
  /// N days".  For failure labels the failure day itself also counts
  /// (days_to_failure in [0, N]; the drive's final record precedes the
  /// failure).  For error/bad-block labels only strictly-future
  /// occurrences count (days_to_event in [1, N]), since today's error
  /// count is itself a feature.  Pinned by
  /// tests/core/test_dataset_builder.cpp LookaheadBoundaryIsInclusive.
  int lookahead_days = 1;

  /// Probability of keeping each negative drive-day (deterministic in
  /// (seed, drive, day)).
  double negative_keep_prob = 0.02;

  /// Probability of keeping each positive drive-day.  1.0 (default) for
  /// failure labels, where positives are precious; error-occurrence labels
  /// (Table 8) have abundant positives and subsample both classes —
  /// uniform per-class subsampling leaves TPR and FPR unbiased.
  double positive_keep_prob = 1.0;

  std::uint64_t seed = 101;

  /// Restrict to one drive model (Table 7 / Fig 13), or all when empty.
  std::optional<trace::DriveModel> model_filter;

  /// Restrict to the models of one device class (the cross-class transfer
  /// experiments), or all when empty.  Composes with model_filter by
  /// intersection.  Maps to store::ScanPredicate::device_class zone-map
  /// pushdown on columnar builds, so mixed-fleet stores skip whole chunks
  /// of foreign-class drives without decoding them.
  std::optional<trace::DeviceClass> class_filter;

  /// Restrict rows by drive age at prediction time (Figs 15/16).
  enum class AgeFilter { kAll, kYoungOnly, kOldOnly };
  AgeFilter age_filter = AgeFilter::kAll;

  /// When set, label = "error of this type occurs within the next N days"
  /// instead of failure (Table 8).
  std::optional<trace::ErrorType> error_label;

  /// When true, label = "new bad blocks develop within the next N days"
  /// (Table 8's "Bad block" row).  Mutually exclusive with error_label.
  bool bad_block_label = false;

  /// When true, append the RollingWindow trailing-week features to every
  /// row (extension for large-N prediction; see bench_ext_rolling).
  bool rolling_features = false;

  /// Restrict to prediction rows with day in [min_day, max_day] (either
  /// bound optional).  Cumulative feature state still advances over every
  /// record — only row EMISSION is windowed — so a windowed build yields
  /// exactly the matching subset of the unwindowed build's rows (same
  /// floats, same order).  The online Retrainer uses this to train on
  /// label-matured windows only (day <= now - lookahead).  Maps to
  /// store::ScanPredicate::{min_day,max_day} pushdown on columnar builds.
  std::optional<std::int32_t> min_day;
  std::optional<std::int32_t> max_day;
};

/// Build a dataset by streaming the fleet (parallel, deterministic).
[[nodiscard]] ml::Dataset build_dataset(const sim::FleetSimulator& fleet,
                                        const DatasetBuildOptions& options);

/// Build from an in-memory fleet (tests/examples).
[[nodiscard]] ml::Dataset build_dataset(const trace::FleetTrace& fleet,
                                        const DatasetBuildOptions& options);

/// Build chunk-parallel from a columnar view (store/columnar.hpp) without
/// ever materializing the fleet: each worker scans chunks through its own
/// recycled decode scratch (v3; ColumnarFleetView::scan_chunk) and gathers
/// only drives with swaps into a scratch history.  Bit-identical to the
/// row-path builds — same rows, same order, same floats (pinned by
/// tests/core/test_dataset_builder.cpp ColumnarBuildMatchesRowBuild).
[[nodiscard]] ml::Dataset build_dataset(const store::ColumnarFleetView& fleet,
                                        const DatasetBuildOptions& options);

/// Build over a sharded store (store/sharded.hpp): one chunk-parallel
/// build over every shard's chunks, merged in manifest order.
/// Bit-identical to a single-file build of the concatenated fleet —
/// per-row decisions are keyed by (seed, uid, day), never by file
/// position.
[[nodiscard]] ml::Dataset build_dataset(const store::ShardedFleetView& fleet,
                                        const DatasetBuildOptions& options);

/// Fold one drive into a dataset under the given options (exposed for
/// incremental/online use by examples).
void append_drive(ml::Dataset& out, const trace::DriveHistory& drive,
                  const DatasetBuildOptions& options);

/// Cached feature matrix for lookahead sweeps (Fig 12's N = 1..30 AUC
/// curve).
///
/// Only the LABEL depends on the lookahead N; the cumulative
/// feature-extraction pass, the operational/age filters, and the per-row
/// keep draw do not.  The cache therefore walks the fleet ONCE, storing in
/// columnar arrays each candidate row's feature vector, group uid, days-to-
/// event, and its uniform keep draw u in [0,1); materialize(N) then
/// relabels and refilters those rows without touching the fleet again.
///
/// materialize(N) is bit-identical to build_dataset() with
/// options.lookahead_days = N — same rows, same order, same floats —
/// because the keep decision (u < keep_prob) replays the exact per-row RNG
/// draw build_dataset would make (pinned by
/// tests/core/test_dataset_builder.cpp SweepCacheMatchesIndependentBuilds).
/// A row is cached iff it would survive the keep filter for at least one
/// N in [1, max_lookahead], so memory stays proportional to the largest
/// materialized dataset, not to the raw fleet.
class SweepDatasetCache {
 public:
  /// Build the cache by streaming the fleet (parallel, deterministic).
  /// `base.lookahead_days` is ignored — N is chosen per materialize call.
  SweepDatasetCache(const sim::FleetSimulator& fleet, const DatasetBuildOptions& base,
                    int max_lookahead);
  /// Build from an in-memory fleet (tests/examples).
  SweepDatasetCache(const trace::FleetTrace& fleet, const DatasetBuildOptions& base,
                    int max_lookahead);

  /// Dataset for one lookahead window, 1 <= lookahead_days <= max_lookahead().
  [[nodiscard]] ml::Dataset materialize(int lookahead_days) const;

  [[nodiscard]] int max_lookahead() const noexcept { return max_lookahead_; }
  /// Candidate rows held (>= rows of any materialized dataset).
  [[nodiscard]] std::size_t cached_rows() const noexcept { return x_.rows(); }

 private:
  DatasetBuildOptions base_;
  int max_lookahead_ = 1;
  ml::Matrix x_;                        ///< candidate feature rows
  std::vector<std::int32_t> dtf_;       ///< days to labeled event (inclusive bound)
  std::vector<double> keep_u_;          ///< the row's uniform keep draw
  std::vector<std::uint64_t> groups_;   ///< drive uid per row
  std::vector<std::string> feature_names_;
};

}  // namespace ssdfail::core
