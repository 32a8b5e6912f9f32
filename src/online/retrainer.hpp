#pragma once

// Incremental retraining from the compacted telemetry store (the model-
// production side of the online loop).
//
// The Retrainer never touches the live ingest path: it reads the v3
// sharded store that daemon::compact_sealed_wals produces, builds a fresh
// training set with core::build_dataset, and fits a GradientBoosting on
// the existing ThreadPool.  Delayed labels are respected by construction —
// only rows whose label horizon has fully elapsed (day <= now - lookahead)
// are eligible, so a "failure within N days" label can never be
// contradicted by telemetry that has not arrived yet.
//
// One scan builds the Section 5.1 row set (every positive, a hash-keyed
// fraction of negatives); rows come out negatives first, then positives.
//
// Determinism: given (store manifest, config), the result is bit-identical
// regardless of ThreadPool size — shard scans are manifest-ordered, row
// draws are hash-keyed, and GradientBoosting's parallel reductions merge
// order-independently (pinned by tests/online/test_retrainer.cpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/dataset_builder.hpp"
#include "ml/gradient_boosting.hpp"

namespace ssdfail::store {
class ShardedFleetView;
}

namespace ssdfail::online {

struct RetrainerConfig {
  /// Sharded v3 store directory (daemon::compact_sealed_wals output).
  std::string store_dir;
  /// Label horizon N: train "fails within N days", use only rows with
  /// day <= now - N.
  int lookahead_days = 7;
  /// Background negative-row subsampling (every positive is kept).
  double negative_keep_prob = 0.05;
  /// Row-keep RNG seed (the draws are keyed by (seed, uid, day)).
  std::uint64_t seed = 101;
  /// Rows below this abort the retrain (a model fitted on a handful of
  /// rows is worse than keeping the champion).
  std::size_t min_rows = 64;
  /// Positives below this abort the retrain.
  std::size_t min_positives = 4;
  /// Challenger hyperparameters (seed included — full determinism).
  ml::GradientBoosting::Params model{};
};

struct RetrainResult {
  std::shared_ptr<const ml::Classifier> model;  ///< fitted GradientBoosting
  std::size_t rows = 0;
  std::size_t positives = 0;
  std::int32_t window_end = 0;    ///< last eligible day (now - lookahead)
  std::size_t shards = 0;         ///< shards in the scanned manifest
};

class Retrainer {
 public:
  explicit Retrainer(RetrainerConfig config) : config_(std::move(config)) {}

  /// Build the label-matured training set ending at now_day - lookahead
  /// and fit a fresh challenger.  Returns nullopt when the store cannot be
  /// opened (nothing compacted yet) or the window is below the row/positive
  /// minimums.  Never throws on a missing store.
  [[nodiscard]] std::optional<RetrainResult> retrain(std::int32_t now_day) const;

  /// The dataset-assembly half of retrain(), exposed for tests and
  /// perfbench: one build over an already-open view, negatives then positives.
  [[nodiscard]] ml::Dataset build_training_set(const store::ShardedFleetView& view,
                                               std::int32_t now_day) const;

  [[nodiscard]] const RetrainerConfig& config() const noexcept { return config_; }

 private:
  RetrainerConfig config_;
};

}  // namespace ssdfail::online
