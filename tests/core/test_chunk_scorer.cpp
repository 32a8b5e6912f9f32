// Columnar chunk scoring: the column-direct feature path and the compiled
// engine must reproduce the record-at-a-time gather path bit for bit, at
// any chunk size and any pool width — and the compiled engine must score
// every chunk record exactly as the pointer-walking forest does.

#include "core/chunk_scorer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/dataset_builder.hpp"
#include "core/features.hpp"
#include "ml/random_forest.hpp"
#include "sim/fleet_simulator.hpp"
#include "trace/binary_io.hpp"

namespace ssdfail::core {
namespace {

const trace::FleetTrace& test_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 5;
    cfg.seed = 7;
    cfg.keep_ground_truth = false;
    return sim::FleetSimulator(cfg).generate_all();
  }();
  return fleet;
}

const ml::RandomForest& test_forest() {
  static const ml::RandomForest forest = [] {
    DatasetBuildOptions opts;
    opts.lookahead_days = 7;
    opts.negative_keep_prob = 0.1;
    opts.seed = 3;
    const ml::Dataset data = build_dataset(test_fleet(), opts);
    ml::RandomForest::Params params;
    params.n_trees = 10;
    ml::RandomForest f(params);
    f.fit(data);
    return f;
  }();
  return forest;
}

store::ColumnarFleetView columnar_view(std::uint32_t chunk_drives) {
  std::ostringstream out(std::ios::binary);
  trace::write_binary_v3(out, test_fleet(), chunk_drives);
  const std::string bytes = out.str();
  return store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
}

TEST(ChunkScorer, MatchesRecordGatherPathAtAnyChunkSize) {
  const ml::FlatForest engine = ml::FlatForest::compile(test_forest());
  for (const std::uint32_t chunk_drives : {1u, 4u, 256u}) {
    const auto view = columnar_view(chunk_drives);
    const FleetScores scores = predict_chunk(engine, view);
    ASSERT_EQ(scores.size(), view.total_records()) << "chunk_drives " << chunk_drives;

    // Reference: gather every record back into a DailyRecord, run the
    // record-overload feature path, score one row at a time.
    std::vector<float> row(FeatureExtractor::count());
    std::size_t cursor = 0;
    for (std::size_t c = 0; c < view.chunk_count(); ++c) {
      const store::ChunkView& chunk = view.chunk(c);
      for (const store::DriveRef& ref : chunk.drives) {
        trace::DriveHistory header;
        header.model = ref.model;
        header.deploy_day = ref.deploy_day;
        FeatureExtractor::State state;
        for (std::size_t i = 0; i < ref.row_count; ++i) {
          const trace::DailyRecord rec = chunk.record(ref.row_begin + i);
          FeatureExtractor::advance(state, rec);
          FeatureExtractor::extract(header, rec, state, row);
          ASSERT_EQ(scores.uid[cursor], ref.uid());
          ASSERT_EQ(scores.day[cursor], rec.day);
          ASSERT_EQ(scores.score[cursor], engine.predict_row(row))
              << "record " << cursor << " chunk_drives " << chunk_drives;
          ++cursor;
        }
      }
    }
    EXPECT_EQ(cursor, scores.size());
  }
}

TEST(ChunkScorer, ColumnDirectFeaturesMatchRecordFeatures) {
  const auto view = columnar_view(4);
  std::vector<float> via_record(FeatureExtractor::count());
  std::vector<float> via_column(FeatureExtractor::count());
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const store::ChunkView& chunk = view.chunk(c);
    for (const store::DriveRef& ref : chunk.drives) {
      trace::DriveHistory header;
      header.model = ref.model;
      header.deploy_day = ref.deploy_day;
      FeatureExtractor::State record_state;
      FeatureExtractor::State column_state;
      for (std::size_t i = 0; i < ref.row_count; ++i) {
        const std::size_t row = ref.row_begin + i;
        const trace::DailyRecord rec = chunk.record(row);
        FeatureExtractor::advance(record_state, rec);
        FeatureExtractor::extract(header, rec, record_state, via_record);
        FeatureExtractor::advance(column_state, chunk, row);
        FeatureExtractor::extract(ref.deploy_day, chunk, row, column_state, via_column);
        for (std::size_t f = 0; f < via_record.size(); ++f)
          ASSERT_EQ(via_record[f], via_column[f])
              << "feature " << FeatureExtractor::names()[f];
      }
    }
  }
}

TEST(ChunkScorer, PoolWidthDoesNotMoveScores) {
  const ml::FlatForest engine = ml::FlatForest::compile(test_forest());
  const auto view = columnar_view(1);  // many chunks: real parallel split
  parallel::ThreadPool pool1(1);
  parallel::ThreadPool pool4(4);
  const FleetScores a = predict_chunk(engine, view, pool1);
  const FleetScores b = predict_chunk(engine, view, pool4);
  EXPECT_EQ(a.uid, b.uid);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.score, b.score);
}

TEST(ChunkScorer, FlatChunkScoresBitIdenticalToWalker) {
  // The serving engine (a FlatForestClassifier compiled from the forest)
  // against the pointer walk it was compiled from, over every record of a
  // stored fleet: the same features, scored both ways, bit for bit.
  const auto forest = std::make_shared<const ml::RandomForest>(test_forest());
  const ml::FlatForestClassifier flat(forest);
  const auto view = columnar_view(4);
  const FleetScores scores = predict_chunk(flat.engine(), view);

  ml::Matrix rows;
  std::vector<float> row(FeatureExtractor::count());
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const store::ChunkView& chunk = view.chunk(c);
    for (const store::DriveRef& ref : chunk.drives) {
      FeatureExtractor::State state;
      for (std::size_t i = 0; i < ref.row_count; ++i) {
        FeatureExtractor::advance(state, chunk, ref.row_begin + i);
        FeatureExtractor::extract(ref.deploy_day, chunk, ref.row_begin + i, state, row);
        rows.push_row(row);
      }
    }
  }
  const std::vector<float> walker = forest->predict_proba(rows);
  ASSERT_EQ(walker.size(), scores.size());
  EXPECT_EQ(scores.score, walker);
  EXPECT_EQ(flat.predict_proba(rows), walker);
}

}  // namespace
}  // namespace ssdfail::core
