#pragma once

// Gradient-boosted decision trees on the logistic loss — an EXTENSION
// beyond the paper's six models (Section 6 surveys ML failure predictors;
// boosting is the modern default for tabular telemetry).  Compared in
// bench_ext_boosting against the paper's random forest.
//
// Standard formulation: F_0 = prior log-odds; each round fits a small
// regression tree to the negative gradient (residual y - p) and updates
// leaf values with a single Newton step, damped by the learning rate.

#include <cstdint>

#include "ml/classifier.hpp"

namespace ssdfail::ml {

class GradientBoosting final : public Classifier {
 public:
  struct Params {
    std::size_t n_rounds = 150;
    std::size_t max_depth = 4;
    std::size_t min_samples_leaf = 8;
    double learning_rate = 0.15;
    /// Row subsampling per round (stochastic gradient boosting).
    double subsample = 0.7;
    std::uint64_t seed = 1;
  };

  GradientBoosting() = default;
  explicit GradientBoosting(Params params) : params_(params) {}

  void fit(const Dataset& train) override;
  [[nodiscard]] std::vector<float> predict_proba(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "gradient_boosting"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<GradientBoosting>(params_);
  }

  [[nodiscard]] std::size_t rounds_fitted() const noexcept { return trees_.size(); }

  /// Total squared-gradient gain attributed to each feature, normalized.
  [[nodiscard]] std::vector<double> feature_importance() const;

 private:
  friend struct ModelSerializer;     // binary save/load (ml/serialize.hpp)
  friend struct FlatForestCompiler;  // compiled engine (ml/flat_forest.hpp)

  struct Node {
    std::int32_t feature = -1;   // -1: leaf
    float threshold = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;          // leaf output (log-odds increment)
  };
  struct Tree {
    std::vector<Node> nodes;
    [[nodiscard]] double predict(std::span<const float> row) const;
  };

  /// Per-fit split-search buffers: every feature's rows presorted once
  /// per fit, filtered to each round's subsample (gradient_boosting.cpp).
  struct SplitBuffers;

  /// Recursively build one regression tree on (gradient, hessian) targets
  /// over the round's rows idx[begin, end).  Each feature's list holds the
  /// same rows in (value, row) order in the same [begin, end) slice, so
  /// the exact best-split sweep is one linear pass per feature with no
  /// sort; a split stably partitions every list into left then right, so
  /// both children's slices stay sorted.
  std::int32_t build_node(const std::vector<double>& grad,
                          const std::vector<double>& hess, SplitBuffers& buf,
                          std::size_t begin, std::size_t end, std::size_t depth,
                          Tree& tree);

  Params params_{};
  double prior_ = 0.0;  // F_0: log-odds of the base rate
  std::vector<Tree> trees_;
  std::vector<double> importance_;
  std::size_t n_features_ = 0;
};

}  // namespace ssdfail::ml
