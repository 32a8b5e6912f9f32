#include "ml/gradient_boosting.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

/// Newton leaf value with L2 damping: sum(grad) / (sum(hess) + lambda).
double leaf_value(double grad_sum, double hess_sum) noexcept {
  constexpr double kLambda = 1.0;
  return grad_sum / (hess_sum + kLambda);
}

/// Minimum rows*features at a node before the split scan and the list
/// partition fan out across the pool (same rationale as decision_tree.cpp).
/// Measured on a 4,878 x 38 fit (50 rounds, 4 vCPUs): 2^14 was fastest;
/// 2^11..2^16 sat within the run-to-run spread, and 2^17 and up, where
/// even the root scans serially, took about twice as long.
constexpr std::size_t kMinParallelSplitWork = 1u << 14;

/// body(f) for every feature: across the pool when the pass covers at
/// least kMinParallelSplitWork (rows, feature) entries, else inline.
template <typename Body>
void for_each_feature(std::size_t n_features, std::size_t rows, const Body& body) {
  if (rows * n_features >= kMinParallelSplitWork) {
    parallel::parallel_for(n_features, body);
  } else {
    for (std::size_t f = 0; f < n_features; ++f) body(f);
  }
}

/// One entry of a feature's presorted list: x(row, f) and its row.
struct SortedEntry {
  float value;
  std::uint32_t row;
};

/// By value, ties by row: std::pair's order on (value, row), under which
/// a presorted list filtered to any row subset is that subset's sort.
bool entry_less(const SortedEntry& a, const SortedEntry& b) noexcept {
  return a.value < b.value || (!(b.value < a.value) && a.row < b.row);
}

}  // namespace

struct GradientBoosting::SplitBuffers {
  /// Rows in this round's lists (the subsample size) plus one spare slot,
  /// which the round's branchless filter may write past its last entry.
  std::size_t pitch = 0;
  /// Feature f's n fitted rows sorted by (value, row) at [f * n, (f + 1) * n);
  /// built once per fit.
  std::vector<SortedEntry> presorted;
  /// This round's lists, feature f starting at f * pitch.  A node
  /// at depth d reads lists[d & 1] and partitions its children's slices
  /// into lists[(d + 1) & 1] at the same offsets; sibling slices are
  /// disjoint, so the two buffers never hold a live slice twice.
  std::array<std::vector<SortedEntry>, 2> lists;
  /// This round's rows in the order grad/hess sums add them; each split
  /// std::partitions its slice in place.
  std::vector<std::size_t> idx;
  std::vector<std::uint8_t> in_round;   ///< per row: in this round's subsample
  std::vector<std::uint8_t> goes_left;  ///< per row: left of the current split
};

double GradientBoosting::Tree::predict(std::span<const float> row) const {
  std::int32_t cur = 0;
  while (nodes[cur].feature != -1) {
    const Node& node = nodes[cur];
    cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                        : node.right;
  }
  return nodes[cur].value;
}

std::int32_t GradientBoosting::build_node(const std::vector<double>& grad,
                                          const std::vector<double>& hess,
                                          SplitBuffers& buf, std::size_t begin,
                                          std::size_t end, std::size_t depth,
                                          Tree& tree) {
  std::vector<std::size_t>& idx = buf.idx;
  const std::size_t n = end - begin;
  double grad_sum = 0.0;
  double hess_sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    grad_sum += grad[idx[i]];
    hess_sum += hess[idx[i]];
  }

  const auto make_leaf = [&] {
    Node leaf;
    leaf.value = leaf_value(grad_sum, hess_sum);
    tree.nodes.push_back(leaf);
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  };
  // A node of fewer than two rows has no split (and an empty one, from an
  // empty subsample at min_samples_leaf 0, has no rows to sweep).
  if (depth >= params_.max_depth || n < 2 * params_.min_samples_leaf || n < 2)
    return make_leaf();

  // Best split by gain = GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l).
  constexpr double kLambda = 1.0;
  const double parent_score = grad_sum * grad_sum / (hess_sum + kLambda);
  struct Best {
    double gain = 1e-10;
    std::size_t feature = 0;
    float threshold = 0.0f;
  } best;

  // Candidate features scan in parallel at big nodes; partials merge in
  // feature order with a strictly-greater comparison, reproducing the
  // serial first-wins loop bit-for-bit (same pattern as decision_tree).
  const SortedEntry* const lists = buf.lists[depth & 1].data();
  const auto slice = [&](auto* base, std::size_t f) {
    return base + f * buf.pitch + begin;
  };
  const auto scan_feature = [&](Best& acc, std::size_t f) {
    const SortedEntry* const vals = slice(lists, f);
    if (vals[0].value == vals[n - 1].value) return;

    double gl = 0.0;
    double hl = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      gl += grad[vals[i].row];
      hl += hess[vals[i].row];
      if (vals[i].value == vals[i + 1].value) continue;
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) continue;
      const double gr = grad_sum - gl;
      const double hr = hess_sum - hl;
      const double gain = gl * gl / (hl + kLambda) + gr * gr / (hr + kLambda) -
                          parent_score;
      if (gain > acc.gain) {
        acc.gain = gain;
        acc.feature = f;
        acc.threshold = 0.5f * (vals[i].value + vals[i + 1].value);
      }
    }
  };

  if (n * n_features_ >= kMinParallelSplitWork) {
    best = parallel::parallel_reduce(n_features_, [] { return Best{}; }, scan_feature,
                                     [](Best& dst, const Best& src) {
                                       if (src.gain > dst.gain) dst = src;
                                     });
  } else {
    for (std::size_t f = 0; f < n_features_; ++f) scan_feature(best, f);
  }
  if (best.gain <= 1e-9) return make_leaf();

  // Flag every row's side once: the winning list's values are exactly
  // x(row, best.feature), so this is the split predicate itself.
  const SortedEntry* const winner = slice(lists, best.feature);
  for (std::size_t i = 0; i < n; ++i)
    buf.goes_left[winner[i].row] = winner[i].value <= best.threshold ? 1 : 0;
  const auto mid_it = std::partition(
      idx.begin() + static_cast<std::ptrdiff_t>(begin),
      idx.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t row) { return buf.goes_left[row] != 0; });
  const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == begin || mid == end) return make_leaf();

  importance_[best.feature] += best.gain;

  // Children at max_depth are leaves that read only idx; otherwise carry
  // every list into the next buffer, left rows then right rows, each in
  // their sorted order.
  if (depth + 1 < params_.max_depth) {
    SortedEntry* const next = buf.lists[(depth + 1) & 1].data();
    const std::size_t n_left = mid - begin;
    for_each_feature(n_features_, n, [&](std::size_t f) {
      const SortedEntry* const src = slice(lists, f);
      SortedEntry* const dst = slice(next, f);
      std::size_t l = 0;
      std::size_t r = n_left;
      for (std::size_t i = 0; i < n; ++i) {
        const SortedEntry e = src[i];
        const std::size_t left = buf.goes_left[e.row];
        dst[left != 0 ? l : r] = e;
        l += left;
        r += 1 - left;
      }
    });
  }

  const auto node_id = static_cast<std::int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes[node_id].feature = static_cast<std::int32_t>(best.feature);
  tree.nodes[node_id].threshold = best.threshold;
  const std::int32_t left = build_node(grad, hess, buf, begin, mid, depth + 1, tree);
  const std::int32_t right = build_node(grad, hess, buf, mid, end, depth + 1, tree);
  tree.nodes[node_id].left = left;
  tree.nodes[node_id].right = right;
  return node_id;
}

void GradientBoosting::fit(const Dataset& train) {
  static const obs::SiteId kFitSite = obs::intern_site("boosting.fit");
  obs::Span fit_span(kFitSite);
  train.validate();
  const std::size_t n = train.size();
  if (n == 0) throw std::invalid_argument("GradientBoosting: empty train set");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("GradientBoosting: more rows than 32-bit row ids");
  n_features_ = train.x.cols();
  importance_.assign(n_features_, 0.0);
  trees_.clear();

  const double pos = static_cast<double>(train.positives());
  const double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  prior_ = std::log(base / (1.0 - base));

  std::vector<double> score(n, prior_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  stats::Rng rng(params_.seed);

  // Sort every feature's rows once; each round filters these lists to its
  // subsample, keeping their order.
  SplitBuffers buf;
  buf.presorted.resize(n_features_ * n);
  buf.lists[0].resize(n_features_ * (n + 1));
  buf.lists[1].resize(n_features_ * (n + 1));
  buf.idx.reserve(n);
  buf.in_round.resize(n);
  buf.goes_left.resize(n);
  for_each_feature(n_features_, n, [&](std::size_t f) {
    SortedEntry* const list = buf.presorted.data() + f * n;
    for (std::size_t r = 0; r < n; ++r)
      list[r] = SortedEntry{train.x(r, f), static_cast<std::uint32_t>(r)};
    std::sort(list, list + n, entry_less);
  });

  static obs::Counter& rounds_counter = obs::MetricsRegistry::global().counter(
      "boosting_rounds_total", {}, "boosting rounds (trees) fitted");
  for (std::size_t round = 0; round < params_.n_rounds; ++round) {
    static const obs::SiteId kRoundSite = obs::intern_site("boosting.round");
    obs::Span round_span(kRoundSite);
    rounds_counter.inc();
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(score[i]);
      grad[i] = static_cast<double>(train.y[i]) - p;  // negative gradient
      hess[i] = std::max(p * (1.0 - p), 1e-12);
    }

    // Stochastic row subsample for this round.
    std::vector<std::size_t>& idx = buf.idx;
    idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const bool take = params_.subsample >= 1.0 || rng.bernoulli(params_.subsample);
      buf.in_round[i] = take ? 1 : 0;
      if (take) idx.push_back(i);
    }
    if (idx.size() < 2 * params_.min_samples_leaf) {
      idx.resize(n);
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      std::fill(buf.in_round.begin(), buf.in_round.end(), std::uint8_t{1});
    }
    buf.pitch = idx.size() + 1;
    for_each_feature(n_features_, n, [&](std::size_t f) {
      const SortedEntry* const all = buf.presorted.data() + f * n;
      SortedEntry* const kept = buf.lists[0].data() + f * buf.pitch;
      std::size_t k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        kept[k] = all[i];
        k += buf.in_round[all[i].row];
      }
    });

    Tree tree;
    build_node(grad, hess, buf, 0, idx.size(), 0, tree);
    // Update scores with the damped tree output (ALL rows, not just the
    // subsample — the tree generalizes its Newton steps).  Per-row and
    // order-independent, so the parallel update is bit-identical.
    parallel::parallel_for(n, [&](std::size_t i) {
      score[i] += params_.learning_rate * tree.predict(train.x.row(i));
    });
    trees_.push_back(std::move(tree));
  }
}

std::vector<float> GradientBoosting::predict_proba(const Matrix& x) const {
  if (trees_.empty()) throw std::logic_error("GradientBoosting: predict before fit");
  std::vector<float> out(x.rows());
  parallel::parallel_for(x.rows(), [&](std::size_t r) {
    double score = prior_;
    const auto row = x.row(r);
    for (const Tree& tree : trees_) score += params_.learning_rate * tree.predict(row);
    out[r] = static_cast<float>(sigmoid(score));
  });
  return out;
}

std::vector<double> GradientBoosting::feature_importance() const {
  if (trees_.empty()) throw std::logic_error("GradientBoosting: importance before fit");
  std::vector<double> normalized = importance_;
  const double total = std::accumulate(normalized.begin(), normalized.end(), 0.0);
  if (total > 0.0)
    for (double& v : normalized) v /= total;
  return normalized;
}

}  // namespace ssdfail::ml
