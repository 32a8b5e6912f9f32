#include "online/retrainer.hpp"

#include <exception>
#include <utility>
#include <vector>

#include "store/sharded.hpp"

namespace ssdfail::online {

ml::Dataset Retrainer::build_training_set(const store::ShardedFleetView& view,
                                          std::int32_t now_day) const {
  core::DatasetBuildOptions options;
  options.lookahead_days = config_.lookahead_days;
  options.negative_keep_prob = config_.negative_keep_prob;
  options.positive_keep_prob = 1.0;
  options.seed = config_.seed;
  options.max_day = now_day - config_.lookahead_days;
  const ml::Dataset rows = core::build_dataset(view, options);

  // Negatives first, then positives, each in scan order.
  std::vector<std::size_t> order;
  order.reserve(rows.size());
  for (const float label : {0.0f, 1.0f})
    for (std::size_t r = 0; r < rows.size(); ++r)
      if (rows.y[r] == label) order.push_back(r);
  return rows.subset(order);
}

std::optional<RetrainResult> Retrainer::retrain(std::int32_t now_day) const {
  store::ShardedFleetView view;
  try {
    view = store::ShardedFleetView::open(config_.store_dir);
  } catch (const std::exception&) {
    return std::nullopt;  // nothing compacted yet
  }

  ml::Dataset train = build_training_set(view, now_day);
  if (train.size() < config_.min_rows || train.positives() < config_.min_positives)
    return std::nullopt;

  auto model = std::make_shared<ml::GradientBoosting>(config_.model);
  model->fit(train);

  RetrainResult result;
  result.model = std::move(model);
  result.rows = train.size();
  result.positives = train.positives();
  result.window_end = now_day - config_.lookahead_days;
  result.shards = view.shard_count();
  return result;
}

}  // namespace ssdfail::online
