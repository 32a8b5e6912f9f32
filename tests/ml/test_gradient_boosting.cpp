#include "ml/gradient_boosting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

Dataset make_xor_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 3);
  d.y.resize(n);
  d.groups.resize(n);
  d.feature_names = {"x0", "x1", "noise"};
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.normal();
    const double x1 = rng.normal();
    d.x(r, 0) = static_cast<float>(x0);
    d.x(r, 1) = static_cast<float>(x1);
    d.x(r, 2) = static_cast<float>(rng.normal());
    d.y[r] = ((x0 > 0.0) != (x1 > 0.0)) ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

Dataset make_linear_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 2);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.normal();
    d.x(r, 0) = static_cast<float>(x0);
    d.x(r, 1) = static_cast<float>(rng.normal());
    d.y[r] = x0 + 0.4 * rng.normal() > 0.0 ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

// ---- Pinned model bytes ---------------------------------------------------
//
// FNV-1a digests of the ml::save_model bytes (every split feature,
// threshold and leaf value, the importances, and the compiled-engine
// manifest) for seeded fits that hit the split search's edge cases: heavy
// ties, a constant column, min_samples_leaf at n = 2*leaf and 2*leaf + 1,
// subsample 1.0 and 0.7 (including the too-small-subsample fallback to all
// rows), and a node size that takes the feature-parallel scan.  A changed
// split anywhere changes the digest; a pool size must never change it.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t model_digest(const GradientBoosting& model) {
  std::ostringstream out(std::ios::binary);
  save_model(out, model);
  return fnv1a(out.str());
}

/// Seeded binary task.  `levels` > 0 quantises every column to that many
/// values (ties everywhere); `constant_col` pins column 1 to one value.
/// The label depends on columns 0 and 2 plus noise.
Dataset make_pinned_task(std::size_t n, std::size_t cols, std::size_t levels,
                         bool constant_col, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, cols);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    double signal = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      double v = rng.normal();
      if (levels > 0)
        v = std::floor(rng.uniform() * static_cast<double>(levels)) - 1.0;
      if (constant_col && c == 1) v = 2.5;
      d.x(r, c) = static_cast<float>(v);
      if (c == 0 || c == 2) signal += v;
    }
    d.y[r] = signal + rng.normal() > 1.0 ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

struct PinnedCase {
  const char* name;
  std::size_t n;
  std::size_t cols;
  std::size_t levels;
  bool constant_col;
  std::size_t min_samples_leaf;
  double subsample;
  std::size_t rounds;
  std::uint64_t digest;
};

// Captured from the sort-per-node search (SortPerNodeReference below);
// the presorted search must reproduce them exactly.
constexpr PinnedCase kPinnedCases[] = {
    {"ties_sub07", 800, 6, 4, false, 8, 0.7, 20, 0x73768b0cc35c9967ull},
    {"ties_sub10", 800, 6, 4, false, 8, 1.0, 20, 0x851e562cdd9f5623ull},
    {"constant_col", 600, 5, 0, true, 8, 0.7, 20, 0x6da6d60487ca3e74ull},
    {"leaf_edge_2l_sub10", 16, 3, 0, false, 8, 1.0, 10, 0x89a4ebed3596cd59ull},
    {"leaf_edge_2l1_sub10", 17, 3, 0, false, 8, 1.0, 10, 0x86a27cd6a7984ac9ull},
    {"leaf_edge_2l_sub07", 16, 3, 0, false, 8, 0.7, 10, 0x54234d0a1295fe03ull},
    {"leaf_edge_2l1_sub07", 17, 3, 4, false, 8, 0.7, 10, 0xc60d3fd1a778de82ull},
    {"parallel_scan", 8000, 16, 0, true, 8, 0.7, 6, 0x03158818250b4586ull},
};

std::uint64_t fit_pinned_case(const PinnedCase& c) {
  const Dataset train = make_pinned_task(c.n, c.cols, c.levels, c.constant_col,
                                         0x5eed0000u + c.n + c.cols);
  GradientBoosting::Params p;
  p.n_rounds = c.rounds;
  p.min_samples_leaf = c.min_samples_leaf;
  p.subsample = c.subsample;
  p.seed = 17;
  GradientBoosting model(p);
  model.fit(train);
  return model_digest(model);
}

// NOTE: this test must run FIRST in this binary: it sizes the shared pool
// to 8 workers before its one-time construction, so the feature-parallel
// split scan runs even on a single-core host.
TEST(GradientBoosting, PinnedModelBytesOnEightWorkerPool) {
  parallel::set_default_thread_count(8);
  ASSERT_EQ(parallel::ThreadPool::global().size(), 8u);
  for (const PinnedCase& c : kPinnedCases)
    EXPECT_EQ(fit_pinned_case(c), c.digest) << c.name;
  parallel::set_default_thread_count(0);
}

TEST(GradientBoosting, PinnedModelBytesOnOneWorkerPool) {
  // Inside a 1-worker pool task every nested parallel loop runs serially.
  parallel::ThreadPool serial(1);
  parallel::TaskGroup group(serial);
  for (const PinnedCase& c : kPinnedCases) {
    std::uint64_t digest = 0;
    group.submit([&] { digest = fit_pinned_case(c); });
    group.wait();
    EXPECT_EQ(digest, c.digest) << c.name;
  }
}

// ---- Property: presorted search == sort-per-node search ------------------
//
// The split search GradientBoosting used before its presorted lists,
// copied here (serial) as the oracle: at every node, gather (value, row)
// pairs, std::sort them, sweep for the best gain.  The model must match it
// bit for bit on random datasets.

class SortPerNodeReference {
 public:
  SortPerNodeReference(const Dataset& train, const GradientBoosting::Params& params)
      : params_(params) {
    const std::size_t n = train.size();
    n_features_ = train.x.cols();
    importance_.assign(n_features_, 0.0);
    const double pos = static_cast<double>(train.positives());
    const double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
    prior_ = std::log(base / (1.0 - base));

    std::vector<double> score(n, prior_);
    std::vector<double> grad(n);
    std::vector<double> hess(n);
    stats::Rng rng(params_.seed);
    for (std::size_t round = 0; round < params_.n_rounds; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const double p = sigmoid(score[i]);
        grad[i] = static_cast<double>(train.y[i]) - p;
        hess[i] = std::max(p * (1.0 - p), 1e-12);
      }
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < n; ++i)
        if (params_.subsample >= 1.0 || rng.bernoulli(params_.subsample))
          idx.push_back(i);
      if (idx.size() < 2 * params_.min_samples_leaf) {
        idx.resize(n);
        std::iota(idx.begin(), idx.end(), std::size_t{0});
      }
      Tree tree;
      build_node(train, grad, hess, idx, 0, idx.size(), 0, tree);
      for (std::size_t i = 0; i < n; ++i)
        score[i] += params_.learning_rate * tree.predict(train.x.row(i));
      trees_.push_back(std::move(tree));
    }
  }

  [[nodiscard]] std::vector<float> predict_proba(const Matrix& x) const {
    std::vector<float> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      double score = prior_;
      for (const Tree& tree : trees_)
        score += params_.learning_rate * tree.predict(x.row(r));
      out[r] = static_cast<float>(sigmoid(score));
    }
    return out;
  }

  [[nodiscard]] std::vector<double> feature_importance() const {
    std::vector<double> normalized = importance_;
    const double total = std::accumulate(normalized.begin(), normalized.end(), 0.0);
    if (total > 0.0)
      for (double& v : normalized) v /= total;
    return normalized;
  }

 private:
  struct Node {
    std::int32_t feature = -1;
    float threshold = 0.0f;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
  };
  struct Tree {
    std::vector<Node> nodes;
    [[nodiscard]] double predict(std::span<const float> row) const {
      std::int32_t cur = 0;
      while (nodes[cur].feature != -1) {
        const Node& node = nodes[cur];
        cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                            : node.right;
      }
      return nodes[cur].value;
    }
  };

  static double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

  std::int32_t build_node(const Dataset& train, const std::vector<double>& grad,
                          const std::vector<double>& hess, std::vector<std::size_t>& idx,
                          std::size_t begin, std::size_t end, std::size_t depth,
                          Tree& tree) {
    constexpr double kLambda = 1.0;
    const std::size_t n = end - begin;
    double grad_sum = 0.0;
    double hess_sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      grad_sum += grad[idx[i]];
      hess_sum += hess[idx[i]];
    }
    const auto make_leaf = [&] {
      Node leaf;
      leaf.value = grad_sum / (hess_sum + kLambda);
      tree.nodes.push_back(leaf);
      return static_cast<std::int32_t>(tree.nodes.size() - 1);
    };
    if (depth >= params_.max_depth || n < 2 * params_.min_samples_leaf) return make_leaf();

    const double parent_score = grad_sum * grad_sum / (hess_sum + kLambda);
    double best_gain = 1e-10;
    std::size_t best_feature = 0;
    float best_threshold = 0.0f;
    std::vector<std::pair<float, std::size_t>> vals;
    for (std::size_t f = 0; f < n_features_; ++f) {
      vals.clear();
      for (std::size_t i = begin; i < end; ++i) vals.emplace_back(train.x(idx[i], f), idx[i]);
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;
      double gl = 0.0;
      double hl = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        gl += grad[vals[i].second];
        hl += hess[vals[i].second];
        if (vals[i].first == vals[i + 1].first) continue;
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) continue;
        const double gr = grad_sum - gl;
        const double hr = hess_sum - hl;
        const double gain =
            gl * gl / (hl + kLambda) + gr * gr / (hr + kLambda) - parent_score;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5f * (vals[i].first + vals[i + 1].first);
        }
      }
    }
    if (best_gain <= 1e-9) return make_leaf();

    const auto mid_it = std::partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return train.x(row, best_feature) <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) return make_leaf();
    importance_[best_feature] += best_gain;

    const auto node_id = static_cast<std::int32_t>(tree.nodes.size());
    tree.nodes.emplace_back();
    tree.nodes[node_id].feature = static_cast<std::int32_t>(best_feature);
    tree.nodes[node_id].threshold = best_threshold;
    const std::int32_t left = build_node(train, grad, hess, idx, begin, mid, depth + 1, tree);
    const std::int32_t right = build_node(train, grad, hess, idx, mid, end, depth + 1, tree);
    tree.nodes[node_id].left = left;
    tree.nodes[node_id].right = right;
    return node_id;
  }

  GradientBoosting::Params params_;
  double prior_ = 0.0;
  std::size_t n_features_ = 0;
  std::vector<Tree> trees_;
  std::vector<double> importance_;
};

/// Random dataset for the property test: each column is continuous,
/// quantised to a few levels (some of them -0.0 and +0.0, which compare
/// equal), or constant; labels follow a random subset of columns.
Dataset make_random_task(stats::Rng& rng, std::size_t n, std::size_t cols) {
  std::vector<int> kind(cols);
  for (int& k : kind) k = static_cast<int>(rng.uniform_index(4));  // 0 cont, 1-2 levels, 3 const
  std::vector<double> weight(cols);
  for (double& w : weight) w = rng.bernoulli(0.5) ? rng.normal() : 0.0;
  Dataset d;
  d.x = Matrix(n, cols);
  d.y.resize(n);
  d.groups.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    double signal = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      float v = 0.0f;
      switch (kind[c]) {
        case 0: v = static_cast<float>(rng.normal()); break;
        case 1: v = static_cast<float>(rng.uniform_index(3)) - 1.0f; break;
        case 2: {
          constexpr float kLevels[] = {-0.0f, 0.0f, 0.5f, 3.0f};
          v = kLevels[rng.uniform_index(4)];
          break;
        }
        default: v = -1.25f; break;
      }
      d.x(r, c) = v;
      signal += weight[c] * v;
    }
    d.y[r] = signal + rng.normal() > 0.5 ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

void expect_matches_reference(const Dataset& train, const GradientBoosting::Params& p,
                              const std::string& label) {
  GradientBoosting model(p);
  model.fit(train);
  const SortPerNodeReference reference(train, p);
  EXPECT_EQ(model.predict_proba(train.x), reference.predict_proba(train.x)) << label;
  EXPECT_EQ(model.feature_importance(), reference.feature_importance()) << label;
}

TEST(GradientBoosting, PresortedSearchMatchesSortPerNodeReference) {
  stats::Rng rng(20261019);
  constexpr double kSubsamples[] = {1.0, 0.7, 0.3};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(400);
    const std::size_t cols = 1 + rng.uniform_index(8);
    const Dataset train = make_random_task(rng, n, cols);
    GradientBoosting::Params p;
    p.n_rounds = 1 + rng.uniform_index(12);
    p.max_depth = 1 + rng.uniform_index(6);
    p.min_samples_leaf = rng.uniform_index(12);
    p.subsample = kSubsamples[rng.uniform_index(3)];
    p.seed = rng.next_u64();
    // At leaf 0 a subsample can come out empty, which the reference cannot
    // sweep (EmptySubsampleGrowsALeaf covers it).
    if (p.subsample < 1.0) p.min_samples_leaf = std::max<std::size_t>(p.min_samples_leaf, 1);
    expect_matches_reference(train, p, "trial " + std::to_string(trial));
  }
}

TEST(GradientBoosting, PresortedSearchMatchesReferenceOnParallelScanNodes) {
  // Big enough that the root and depth-1 nodes take the feature-parallel
  // scan on any pool with more than one worker.
  stats::Rng rng(77);
  const Dataset train = make_random_task(rng, 6000, 12);
  GradientBoosting::Params p;
  p.n_rounds = 6;
  expect_matches_reference(train, p, "parallel");
}

TEST(GradientBoosting, EmptySubsampleGrowsALeaf) {
  // At min_samples_leaf 0 a round's subsample may hold no rows; that round
  // grows a single zero-valued leaf and the scores stay at the prior.
  const Dataset train = make_linear_task(3, 13);
  GradientBoosting::Params p;
  p.n_rounds = 4;
  p.min_samples_leaf = 0;
  p.subsample = 1e-12;
  GradientBoosting model(p);
  model.fit(train);
  EXPECT_EQ(model.rounds_fitted(), 4u);
  const auto scores = model.predict_proba(train.x);
  for (float s : scores) EXPECT_EQ(s, scores[0]);
}

TEST(GradientBoosting, SolvesXor) {
  const Dataset train = make_xor_task(2000, 1);
  const Dataset test = make_xor_task(600, 2);
  GradientBoosting model;
  model.fit(train);
  EXPECT_GT(roc_auc(model.predict_proba(test.x), test.y), 0.97);
}

TEST(GradientBoosting, SolvesLinearTask) {
  const Dataset train = make_linear_task(1500, 3);
  const Dataset test = make_linear_task(600, 4);
  GradientBoosting model;
  model.fit(train);
  EXPECT_GT(roc_auc(model.predict_proba(test.x), test.y), 0.90);
}

TEST(GradientBoosting, MoreRoundsHelpUpToConvergence) {
  // Depth-2 trees: a handful of rounds cannot tile XOR's four quadrants,
  // a hundred can.
  const Dataset train = make_xor_task(1500, 5);
  const Dataset test = make_xor_task(600, 6);
  auto auc_with = [&](std::size_t rounds) {
    GradientBoosting::Params p;
    p.n_rounds = rounds;
    p.max_depth = 2;
    p.learning_rate = 0.05;
    GradientBoosting model(p);
    model.fit(train);
    return roc_auc(model.predict_proba(test.x), test.y);
  };
  EXPECT_GT(auc_with(100), auc_with(2) + 0.05);
}

TEST(GradientBoosting, DeterministicForFixedSeed) {
  const Dataset train = make_xor_task(800, 7);
  const Dataset test = make_xor_task(200, 8);
  GradientBoosting a;
  GradientBoosting b;
  a.fit(train);
  b.fit(train);
  const auto sa = a.predict_proba(test.x);
  const auto sb = b.predict_proba(test.x);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST(GradientBoosting, ScoresAreProbabilities) {
  const Dataset train = make_linear_task(500, 9);
  GradientBoosting model;
  model.fit(train);
  for (float s : model.predict_proba(train.x)) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST(GradientBoosting, PredictBeforeFitThrows) {
  GradientBoosting model;
  Matrix x(1, 3);
  EXPECT_THROW((void)model.predict_proba(x), std::logic_error);
}

TEST(GradientBoosting, CloneCarriesParams) {
  GradientBoosting::Params p;
  p.n_rounds = 17;
  GradientBoosting model(p);
  auto copy = model.clone();
  const Dataset train = make_linear_task(300, 10);
  copy->fit(train);
  EXPECT_EQ(static_cast<GradientBoosting*>(copy.get())->rounds_fitted(), 17u);
}

TEST(GradientBoosting, ImportanceConcentratesOnSignal) {
  const Dataset train = make_xor_task(3000, 11);
  GradientBoosting model;
  model.fit(train);
  const auto imp = model.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_NEAR(std::accumulate(imp.begin(), imp.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.9);
}

TEST(GradientBoosting, PriorMatchesBaseRateWithZeroRounds) {
  GradientBoosting::Params p;
  p.n_rounds = 0;
  GradientBoosting model(p);
  Dataset d = make_linear_task(1000, 12);
  model.fit(d);
  EXPECT_EQ(model.rounds_fitted(), 0u);
  Matrix x(1, 2);
  // With no trees the score is the prior log-odds: p ~ base rate.
  double base = 0.0;
  for (float y : d.y) base += y;
  base /= static_cast<double>(d.y.size());
  EXPECT_THROW((void)model.predict_proba(x), std::logic_error);
}

}  // namespace
}  // namespace ssdfail::ml
