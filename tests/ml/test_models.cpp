#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "ml/threshold_baseline.hpp"
#include "stats/rng.hpp"

namespace ssdfail::ml {
namespace {

/// Noisy linearly-separable-ish task: y depends on x0 + 0.5*x1 with noise,
/// plus two distractor features.
Dataset make_linear_task(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  Dataset d;
  d.x = Matrix(n, 4);
  d.y.resize(n);
  d.groups.resize(n);
  d.feature_names = {"signal0", "signal1", "noise0", "noise1"};
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.normal();
    const double x1 = rng.normal();
    d.x(r, 0) = static_cast<float>(x0);
    d.x(r, 1) = static_cast<float>(x1);
    d.x(r, 2) = static_cast<float>(rng.normal());
    d.x(r, 3) = static_cast<float>(rng.normal());
    const double logit = 2.0 * x0 + 1.0 * x1 + 0.5 * rng.normal();
    d.y[r] = logit > 0.0 ? 1.0f : 0.0f;
    d.groups[r] = r;
  }
  return d;
}

class ModelZooTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelZooTest, LearnsLinearTask) {
  const Dataset train = make_linear_task(1500, 11);
  const Dataset test = make_linear_task(800, 22);
  auto model = make_model(GetParam());
  model->fit(train);
  const auto scores = model->predict_proba(test.x);
  const double auc = roc_auc(scores, test.y);
  EXPECT_GT(auc, 0.85) << model->name();
}

TEST_P(ModelZooTest, ScoresAreProbabilities) {
  const Dataset train = make_linear_task(500, 33);
  auto model = make_model(GetParam());
  model->fit(train);
  const auto scores = model->predict_proba(train.x);
  ASSERT_EQ(scores.size(), train.size());
  for (float s : scores) {
    EXPECT_GE(s, 0.0f);
    EXPECT_LE(s, 1.0f);
  }
}

TEST_P(ModelZooTest, DeterministicAcrossRefits) {
  const Dataset train = make_linear_task(400, 44);
  const Dataset test = make_linear_task(100, 55);
  auto a = make_model(GetParam());
  auto b = make_model(GetParam());
  a->fit(train);
  b->fit(train);
  const auto sa = a->predict_proba(test.x);
  const auto sb = b->predict_proba(test.x);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST_P(ModelZooTest, PredictBeforeFitThrows) {
  auto model = make_model(GetParam());
  Matrix x(1, 4);
  EXPECT_THROW((void)model->predict_proba(x), std::logic_error);
}

TEST_P(ModelZooTest, CloneIsUnfittedWithSameConfig) {
  const Dataset train = make_linear_task(300, 66);
  auto model = make_model(GetParam());
  model->fit(train);
  auto fresh = model->clone();
  EXPECT_EQ(fresh->name(), model->name());
  Matrix x(1, 4);
  EXPECT_THROW((void)fresh->predict_proba(x), std::logic_error);
  // And the clone trains identically.
  fresh->fit(train);
  const auto sa = model->predict_proba(train.x);
  const auto sb = fresh->predict_proba(train.x);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST_P(ModelZooTest, RefitForgetsOldData) {
  // Train on task A, then refit on inverted labels: predictions must flip.
  Dataset train = make_linear_task(800, 77);
  auto model = make_model(GetParam());
  model->fit(train);
  const Dataset test = make_linear_task(400, 88);
  const double auc_before = roc_auc(model->predict_proba(test.x), test.y);
  for (float& y : train.y) y = 1.0f - y;
  model->fit(train);
  const double auc_after = roc_auc(model->predict_proba(test.x), test.y);
  EXPECT_GT(auc_before, 0.8) << model->name();
  EXPECT_LT(auc_after, 0.3) << model->name();
}

TEST_P(ModelZooTest, EmptyTrainThrows) {
  auto model = make_model(GetParam());
  Dataset empty;
  EXPECT_THROW(model->fit(empty), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::Values(ModelKind::kLogisticRegression, ModelKind::kKnn, ModelKind::kSvm,
                      ModelKind::kNeuralNetwork, ModelKind::kDecisionTree,
                      ModelKind::kRandomForest, ModelKind::kThresholdBaseline),
    [](const auto& param_info) {
      std::string n = model_display_name(param_info.param);
      std::erase_if(n, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
      return n;
    });

TEST(ModelZoo, PaperModelsAreTheSixOfTable6) {
  EXPECT_EQ(paper_models().size(), 6u);
  EXPECT_EQ(paper_models().back(), ModelKind::kRandomForest);
}

TEST(ModelZoo, GridsAreNonEmpty) {
  for (ModelKind kind : paper_models()) EXPECT_FALSE(model_grid(kind).empty());
}

TEST(ThresholdBaselineBehavior, PicksTheInformativeFeature) {
  const Dataset train = make_linear_task(2000, 99);
  ThresholdBaseline model;
  model.fit(train);
  EXPECT_EQ(model.chosen_feature(), 0u);  // x0 carries the strongest signal
}

}  // namespace
}  // namespace ssdfail::ml
