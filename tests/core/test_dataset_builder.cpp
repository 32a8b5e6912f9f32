#include "core/dataset_builder.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>

#include "core/failure_timeline.hpp"
#include "store/columnar.hpp"
#include "trace/binary_io.hpp"
#include "trace/v2_fixture.hpp"

namespace ssdfail::core {
namespace {

using trace::DailyRecord;
using trace::DriveHistory;
using trace::FleetTrace;

DriveHistory make_failing_drive(std::uint32_t index, std::int32_t fail_day,
                                std::int32_t swap_day, std::int32_t horizon) {
  DriveHistory d;
  d.model = trace::DriveModel::MlcB;
  d.drive_index = index;
  d.deploy_day = 0;
  for (std::int32_t day = 0; day <= fail_day; ++day) {
    DailyRecord r;
    r.day = day;
    r.reads = 100;
    r.writes = 100;
    d.records.push_back(r);
  }
  d.swaps.push_back({swap_day});
  for (std::int32_t day = swap_day + 60; day < horizon; ++day) {
    DailyRecord r;
    r.day = day;
    r.reads = 100;
    r.writes = 100;
    d.records.push_back(r);
  }
  return d;
}

DriveHistory make_healthy_drive(std::uint32_t index, std::int32_t days) {
  DriveHistory d;
  d.model = trace::DriveModel::MlcA;
  d.drive_index = index;
  d.deploy_day = 0;
  for (std::int32_t day = 0; day < days; ++day) {
    DailyRecord r;
    r.day = day;
    r.reads = 100;
    r.writes = 100;
    d.records.push_back(r);
  }
  return d;
}

TEST(DatasetBuilder, PositiveLabelsMatchLookahead) {
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 50, 55, 0));
  DatasetBuildOptions opts;
  opts.lookahead_days = 3;
  opts.negative_keep_prob = 1.0;  // keep everything
  const ml::Dataset data = build_dataset(fleet, opts);
  // Days 0..50 are operational; positives are days 47..50 (dtf <= 3).
  EXPECT_EQ(data.size(), 51u);
  EXPECT_EQ(data.positives(), 4u);
  const std::size_t age_col = FeatureExtractor::age_index();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool should_be_positive = data.x(i, age_col) >= 47.0f;
    EXPECT_EQ(data.y[i] > 0.5f, should_be_positive) << "row " << i;
  }
}

TEST(DatasetBuilder, LookaheadBoundaryIsInclusive) {
  // Boundary regression for the unified lookahead convention: positive iff
  // the event occurs on or before day d+N.  Failure labels: dtf in [0, N]
  // (the failure day itself counts).  Error labels: dtf in [1, N] (today's
  // error is a feature, not a label).  Both share the inclusive d+N edge.
  constexpr int kLookahead = 5;
  constexpr std::int32_t kFailDay = 50;

  FleetTrace fail_fleet;
  fail_fleet.drives.push_back(make_failing_drive(1, kFailDay, 55, 0));
  DatasetBuildOptions opts;
  opts.lookahead_days = kLookahead;
  opts.negative_keep_prob = 1.0;
  const ml::Dataset fail_data = build_dataset(fail_fleet, opts);
  const std::size_t age_col = FeatureExtractor::age_index();
  for (std::size_t i = 0; i < fail_data.size(); ++i) {
    const auto day = static_cast<std::int32_t>(fail_data.x(i, age_col));
    const bool expect_positive = day >= kFailDay - kLookahead;  // 45..50
    EXPECT_EQ(fail_data.y[i] > 0.5f, expect_positive)
        << "failure label at day " << day << " (dtf " << kFailDay - day << ")";
  }

  constexpr std::int32_t kErrorDay = 30;
  DriveHistory erroring = make_healthy_drive(2, 60);
  erroring.records[kErrorDay].errors[static_cast<std::size_t>(
      trace::ErrorType::kUncorrectable)] = 1;
  FleetTrace error_fleet;
  error_fleet.drives.push_back(erroring);
  opts.error_label = trace::ErrorType::kUncorrectable;
  const ml::Dataset error_data = build_dataset(error_fleet, opts);
  for (std::size_t i = 0; i < error_data.size(); ++i) {
    const auto day = static_cast<std::int32_t>(error_data.x(i, age_col));
    const bool expect_positive =
        day >= kErrorDay - kLookahead && day < kErrorDay;  // 25..29, not 30
    EXPECT_EQ(error_data.y[i] > 0.5f, expect_positive)
        << "error label at day " << day << " (dte " << kErrorDay - day << ")";
  }
}

TEST(DatasetBuilder, PostFailureLimboExcluded) {
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 50, 55, 200));  // re-enters at 115
  DatasetBuildOptions opts;
  opts.lookahead_days = 1;
  opts.negative_keep_prob = 1.0;
  const ml::Dataset data = build_dataset(fleet, opts);
  // 51 pre-failure days + (200-115) post-re-entry days; nothing in between.
  EXPECT_EQ(data.size(), 51u + 85u);
}

TEST(DatasetBuilder, NegativeSubsamplingKeepsAllPositives) {
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 20; ++i)
    fleet.drives.push_back(make_failing_drive(i, 100, 104, 0));
  DatasetBuildOptions opts;
  opts.lookahead_days = 2;
  opts.negative_keep_prob = 0.05;
  const ml::Dataset data = build_dataset(fleet, opts);
  EXPECT_EQ(data.positives(), 60u);  // 3 per drive (days 98..100, dtf <= 2)
  EXPECT_LT(data.size(), 20u * 101u / 4);
  EXPECT_GT(data.size(), 60u);
}

TEST(DatasetBuilder, DeterministicAcrossRuns) {
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 10; ++i)
    fleet.drives.push_back(make_healthy_drive(i, 300));
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.1;
  const ml::Dataset a = build_dataset(fleet, opts);
  const ml::Dataset b = build_dataset(fleet, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.groups[i], b.groups[i]);
}

TEST(DatasetBuilder, SeedChangesNegativeSample) {
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 10; ++i)
    fleet.drives.push_back(make_healthy_drive(i, 300));
  DatasetBuildOptions a_opts;
  a_opts.negative_keep_prob = 0.1;
  a_opts.seed = 1;
  DatasetBuildOptions b_opts = a_opts;
  b_opts.seed = 2;
  const ml::Dataset a = build_dataset(fleet, a_opts);
  const ml::Dataset b = build_dataset(fleet, b_opts);
  EXPECT_NE(a.size(), b.size());  // different sample (overwhelmingly likely)
}

TEST(DatasetBuilder, ModelFilter) {
  FleetTrace fleet;
  fleet.drives.push_back(make_healthy_drive(1, 100));            // MLC-A
  fleet.drives.push_back(make_failing_drive(2, 50, 52, 0));      // MLC-B
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 1.0;
  opts.model_filter = trace::DriveModel::MlcB;
  const ml::Dataset data = build_dataset(fleet, opts);
  EXPECT_EQ(data.size(), 51u);
  for (std::uint64_t g : data.groups)
    EXPECT_EQ(g >> 32, static_cast<std::uint64_t>(trace::DriveModel::MlcB));
}

TEST(DatasetBuilder, AgeFilterSplitsAt90Days) {
  FleetTrace fleet;
  fleet.drives.push_back(make_healthy_drive(1, 200));
  DatasetBuildOptions young;
  young.negative_keep_prob = 1.0;
  young.age_filter = DatasetBuildOptions::AgeFilter::kYoungOnly;
  DatasetBuildOptions old = young;
  old.age_filter = DatasetBuildOptions::AgeFilter::kOldOnly;
  const ml::Dataset dy = build_dataset(fleet, young);
  const ml::Dataset dold = build_dataset(fleet, old);
  EXPECT_EQ(dy.size(), 91u);   // ages 0..90 inclusive
  EXPECT_EQ(dold.size(), 109u);
  EXPECT_EQ(dy.size() + dold.size(), 200u);
}

TEST(DatasetBuilder, ErrorLabelIsStrictlyFuture) {
  DriveHistory d = make_healthy_drive(1, 10);
  d.records[5].errors[static_cast<std::size_t>(trace::ErrorType::kUncorrectable)] = 7;
  FleetTrace fleet;
  fleet.drives.push_back(d);
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 1.0;
  opts.lookahead_days = 2;
  opts.error_label = trace::ErrorType::kUncorrectable;
  const ml::Dataset data = build_dataset(fleet, opts);
  ASSERT_EQ(data.size(), 10u);
  // Days 3 and 4 see the UE within the next 2 days; day 5 itself does not
  // (its own error is a feature, not a label).
  const std::size_t age_col = FeatureExtractor::age_index();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float age = data.x(i, age_col);
    const bool expect_positive = age == 3.0f || age == 4.0f;
    EXPECT_EQ(data.y[i] > 0.5f, expect_positive) << "age " << age;
  }
}

TEST(DatasetBuilder, BadLookaheadThrows) {
  FleetTrace fleet;
  fleet.drives.push_back(make_healthy_drive(1, 10));
  DatasetBuildOptions opts;
  opts.lookahead_days = 0;
  EXPECT_THROW((void)build_dataset(fleet, opts), std::invalid_argument);
}

TEST(DatasetBuilder, StreamingMatchesInMemory) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 50;
  sim::FleetSimulator fsim(cfg);
  const trace::FleetTrace fleet = fsim.generate_all();
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.2;
  const ml::Dataset streamed = build_dataset(fsim, opts);
  const ml::Dataset in_memory = build_dataset(fleet, opts);
  ASSERT_EQ(streamed.size(), in_memory.size());
  EXPECT_EQ(streamed.positives(), in_memory.positives());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed.groups[i], in_memory.groups[i]);
    ASSERT_EQ(streamed.y[i], in_memory.y[i]);
  }
}

TEST(DatasetBuilder, AppendDriveIncrementalMatchesBatch) {
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 60, 65, 200));
  fleet.drives.push_back(make_healthy_drive(2, 150));
  fleet.drives.push_back(make_failing_drive(3, 20, 22, 0));
  DatasetBuildOptions opts;
  opts.lookahead_days = 4;
  opts.negative_keep_prob = 0.3;
  ml::Dataset incremental;
  for (const DriveHistory& drive : fleet.drives)
    append_drive(incremental, drive, opts);
  const ml::Dataset batch = build_dataset(fleet, opts);
  ASSERT_EQ(incremental.size(), batch.size());
  EXPECT_EQ(incremental.y, batch.y);
  EXPECT_EQ(incremental.groups, batch.groups);
  EXPECT_EQ(incremental.feature_names, batch.feature_names);
  for (std::size_t r = 0; r < batch.x.rows(); ++r)
    for (std::size_t c = 0; c < batch.x.cols(); ++c)
      ASSERT_EQ(incremental.x(r, c), batch.x(r, c)) << "row " << r << " col " << c;
}

TEST(DatasetBuilder, ModelAgeAndErrorFiltersCompose) {
  // One drive per model, each with a UE on day 100; restrict to MLC-B,
  // old-only, error label.  Every row must satisfy all three at once.
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 3; ++i) {
    DriveHistory d = make_healthy_drive(i, 200);
    d.model = trace::kAllModels[i];
    d.records[100].errors[static_cast<std::size_t>(
        trace::ErrorType::kUncorrectable)] = 1;
    fleet.drives.push_back(std::move(d));
  }
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 1.0;
  opts.lookahead_days = 3;
  opts.model_filter = trace::DriveModel::MlcB;
  opts.age_filter = DatasetBuildOptions::AgeFilter::kOldOnly;
  opts.error_label = trace::ErrorType::kUncorrectable;
  const ml::Dataset data = build_dataset(fleet, opts);
  EXPECT_EQ(data.size(), 109u);  // ages 91..199 of the one MLC-B drive
  const std::size_t age_col = FeatureExtractor::age_index();
  std::size_t positives = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.groups[i] >> 32,
              static_cast<std::uint64_t>(trace::DriveModel::MlcB));
    EXPECT_GT(data.x(i, age_col), 90.0f);
    if (data.y[i] > 0.5f) ++positives;
  }
  EXPECT_EQ(positives, 3u);  // days 97..99 (dte in [1,3]); day 100 is a feature
}

TEST(DatasetBuilder, PositiveSubsamplingIsDeterministicPerDriveDay) {
  // positive_keep_prob < 1 (the Table 8 protocol): the keep decision is
  // a pure function of (seed, drive, day), so repeated builds agree and
  // reordering the fleet's drives selects the SAME drive-days.
  const auto erroring_drive = [](std::uint32_t index) {
    DriveHistory d = make_healthy_drive(index, 120);
    for (std::int32_t day = 10; day < 120; day += 7)
      d.records[static_cast<std::size_t>(day)].errors[static_cast<std::size_t>(
          trace::ErrorType::kUncorrectable)] = 1;
    return d;
  };
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 6; ++i) fleet.drives.push_back(erroring_drive(i));
  FleetTrace reversed;
  for (auto it = fleet.drives.rbegin(); it != fleet.drives.rend(); ++it)
    reversed.drives.push_back(*it);

  DatasetBuildOptions opts;
  opts.lookahead_days = 3;
  opts.error_label = trace::ErrorType::kUncorrectable;
  opts.negative_keep_prob = 0.2;
  opts.positive_keep_prob = 0.5;

  const ml::Dataset a = build_dataset(fleet, opts);
  const ml::Dataset b = build_dataset(fleet, opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_LT(a.positives(), 6u * 47u);  // subsampling actually dropped positives
  EXPECT_GT(a.positives(), 0u);

  const auto row_keys = [](const ml::Dataset& d) {
    const std::size_t age_col = FeatureExtractor::age_index();
    std::set<std::tuple<std::uint64_t, float, float>> keys;
    for (std::size_t i = 0; i < d.size(); ++i)
      keys.insert({d.groups[i], d.x(i, age_col), d.y[i]});
    return keys;
  };
  EXPECT_EQ(row_keys(a), row_keys(build_dataset(reversed, opts)));

  DatasetBuildOptions reseeded = opts;
  reseeded.seed = opts.seed + 1;
  EXPECT_NE(row_keys(a), row_keys(build_dataset(fleet, reseeded)));
}

TEST(DatasetBuilder, EmptyAndRecordlessFleetsBuildValidEmptyDatasets) {
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 1.0;

  const ml::Dataset from_empty = build_dataset(FleetTrace{}, opts);
  EXPECT_EQ(from_empty.size(), 0u);
  EXPECT_FALSE(from_empty.feature_names.empty());  // schema survives no data

  std::ostringstream encoded(std::ios::binary);
  trace::write_binary_v3(encoded, FleetTrace{});
  const std::string bytes = encoded.str();
  const ml::Dataset from_empty_columnar = build_dataset(
      store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()}), opts);
  EXPECT_EQ(from_empty_columnar.size(), 0u);
  EXPECT_EQ(from_empty_columnar.feature_names, from_empty.feature_names);

  FleetTrace recordless;
  DriveHistory bare;
  bare.model = trace::DriveModel::MlcA;
  bare.drive_index = 9;
  recordless.drives.push_back(bare);
  const ml::Dataset from_recordless = build_dataset(recordless, opts);
  EXPECT_EQ(from_recordless.size(), 0u);
  EXPECT_EQ(from_recordless.feature_names, from_empty.feature_names);

  // Filters that exclude every drive reduce to the same empty-but-valid shape.
  FleetTrace populated;
  populated.drives.push_back(make_healthy_drive(1, 50));  // MLC-A
  DatasetBuildOptions filtered = opts;
  filtered.model_filter = trace::DriveModel::MlcD;
  EXPECT_EQ(build_dataset(populated, filtered).size(), 0u);
}

TEST(DatasetBuilder, AllLimboDrivesContributeOnlyPreFailureRows) {
  // A drive that fails immediately and never re-enters: everything after
  // the swap is limbo, so only the single pre-failure day survives.
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 0, 2, 0));
  DatasetBuildOptions opts;
  opts.lookahead_days = 1;
  opts.negative_keep_prob = 1.0;
  const ml::Dataset data = build_dataset(fleet, opts);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data.positives(), 1u);  // day 0 is within 1 day of the failure
}

// The sweep cache's whole contract is bit-identity with independent
// builds (docs in dataset_builder.hpp): same rows, same order, same
// floats, for EVERY lookahead in range.
void expect_bit_identical(const ml::Dataset& cached, const ml::Dataset& direct,
                          int lookahead) {
  ASSERT_EQ(cached.size(), direct.size()) << "N=" << lookahead;
  EXPECT_EQ(cached.y, direct.y) << "N=" << lookahead;
  EXPECT_EQ(cached.groups, direct.groups) << "N=" << lookahead;
  EXPECT_EQ(cached.feature_names, direct.feature_names);
  ASSERT_EQ(cached.x.cols(), direct.x.cols());
  for (std::size_t r = 0; r < cached.x.rows(); ++r)
    for (std::size_t c = 0; c < cached.x.cols(); ++c)
      ASSERT_EQ(cached.x(r, c), direct.x(r, c))
          << "N=" << lookahead << " row " << r << " col " << c;
}

TEST(SweepDatasetCache, MatchesIndependentBuilds) {
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 50, 55, 200));
  fleet.drives.push_back(make_failing_drive(2, 120, 130, 200));
  fleet.drives.push_back(make_healthy_drive(3, 200));
  fleet.drives.push_back(make_healthy_drive(4, 200));
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.3;
  opts.seed = 9;

  constexpr int kMax = 10;
  const SweepDatasetCache cache(fleet, opts, kMax);
  EXPECT_EQ(cache.max_lookahead(), kMax);
  for (int n = 1; n <= kMax; ++n) {
    opts.lookahead_days = n;
    const ml::Dataset direct = build_dataset(fleet, opts);
    const ml::Dataset cached = cache.materialize(n);
    expect_bit_identical(cached, direct, n);
    EXPECT_GE(cache.cached_rows(), cached.size());
  }
}

TEST(SweepDatasetCache, MatchesIndependentBuildsWithRollingFeatures) {
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 80, 85, 150));
  fleet.drives.push_back(make_healthy_drive(2, 150));
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.5;
  opts.rolling_features = true;
  const SweepDatasetCache cache(fleet, opts, 5);
  for (int n = 1; n <= 5; ++n) {
    opts.lookahead_days = n;
    expect_bit_identical(cache.materialize(n), build_dataset(fleet, opts), n);
  }
}

TEST(SweepDatasetCache, StreamingCtorMatchesInMemoryCtor) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 40;
  sim::FleetSimulator fsim(cfg);
  const trace::FleetTrace fleet = fsim.generate_all();
  DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.1;
  const SweepDatasetCache streamed(fsim, opts, 7);   // parallel fleet visit
  const SweepDatasetCache in_memory(fleet, opts, 7); // serial walk
  ASSERT_EQ(streamed.cached_rows(), in_memory.cached_rows());
  for (int n : {1, 4, 7})
    expect_bit_identical(streamed.materialize(n), in_memory.materialize(n), n);
}

TEST(DatasetBuilder, ColumnarBuildMatchesRowBuild) {
  // The columnar overload promises BIT-identity with the row path (see
  // dataset_builder.hpp): same rows, same order, same floats, at every
  // chunk geometry from one-drive-per-chunk to everything-in-one-chunk.
  FleetTrace fleet;
  fleet.drives.push_back(make_failing_drive(1, 60, 65, 200));
  fleet.drives.push_back(make_healthy_drive(2, 150));
  fleet.drives.push_back(make_failing_drive(3, 20, 22, 0));
  fleet.drives.push_back(make_healthy_drive(4, 90));
  fleet.drives.push_back(make_healthy_drive(5, 10));
  DatasetBuildOptions opts;
  opts.lookahead_days = 4;
  opts.negative_keep_prob = 0.25;
  const ml::Dataset row = build_dataset(fleet, opts);
  for (const std::uint32_t chunk_drives : {1u, 2u, 5u, 64u}) {
    std::ostringstream out(std::ios::binary);
    trace::write_binary_v3(out, fleet, chunk_drives);
    const std::string bytes = out.str();
    const auto view =
        store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
    expect_bit_identical(build_dataset(view, opts), row,
                         static_cast<int>(chunk_drives));
  }
}

TEST(DatasetBuilder, ColumnarBuildHonorsEveryOption) {
  // Same bit-identity contract, but with the full option surface engaged:
  // filters, error label, subsampled positives, rolling features.
  FleetTrace fleet;
  for (std::uint32_t i = 0; i < 4; ++i) {
    DriveHistory d = make_healthy_drive(i, 160);
    d.model = trace::kAllModels[i % trace::kNumModels];
    d.records[80].errors[static_cast<std::size_t>(
        trace::ErrorType::kUncorrectable)] = 2;
    fleet.drives.push_back(std::move(d));
  }
  DatasetBuildOptions opts;
  opts.lookahead_days = 5;
  opts.negative_keep_prob = 0.4;
  opts.positive_keep_prob = 0.6;
  opts.error_label = trace::ErrorType::kUncorrectable;
  opts.model_filter = trace::DriveModel::MlcA;
  opts.age_filter = DatasetBuildOptions::AgeFilter::kOldOnly;
  opts.rolling_features = true;
  std::ostringstream out(std::ios::binary);
  trace::write_binary_v3(out, fleet, 2);
  const std::string bytes = out.str();
  const auto view =
      store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
  expect_bit_identical(build_dataset(view, opts), build_dataset(fleet, opts), 2);
}

TEST(DatasetBuilder, V2FixtureBuildMatchesRowBuild) {
  // The v2 reader's zero-copy build, pinned without a v2 writer: the
  // committed fixture builds bit-identically to the row path over the
  // fleet it encodes, through every open path.
  const FleetTrace fleet = trace::testing::sweep_fleet();
  DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 1.0;
  const ml::Dataset row = build_dataset(fleet, opts);
  ASSERT_EQ(row.size(), 65u);
  EXPECT_EQ(row.positives(), 23u);
  store::OpenOptions heap;
  heap.allow_mmap = false;
  for (const store::ColumnarFleetView& view :
       {store::ColumnarFleetView::open(trace::testing::v2_fixture_path()),
        store::ColumnarFleetView::open(trace::testing::v2_fixture_path(), heap),
        store::ColumnarFleetView::from_buffer(trace::testing::v2_fixture_bytes())}) {
    ASSERT_EQ(view.version(), store::kColumnarVersion);
    expect_bit_identical(build_dataset(view, opts), row, opts.lookahead_days);
  }
}

TEST(SweepDatasetCache, RejectsOutOfRangeLookahead) {
  FleetTrace fleet;
  fleet.drives.push_back(make_healthy_drive(1, 30));
  DatasetBuildOptions opts;
  EXPECT_THROW((void)SweepDatasetCache(fleet, opts, 0), std::invalid_argument);
  const SweepDatasetCache cache(fleet, opts, 5);
  EXPECT_THROW((void)cache.materialize(0), std::invalid_argument);
  EXPECT_THROW((void)cache.materialize(6), std::invalid_argument);
}

}  // namespace
}  // namespace ssdfail::core
