// Golden end-to-end regression suite.
//
// One pinned ~20-drive fleet flows through the whole pipeline — simulate,
// serialize (v1 row and v3 columnar), build datasets by both paths, train
// and cross-validate the paper's random forest — and every stage's output
// is asserted against committed golden values: dataset row count, label
// counts, per-column checksums, and per-fold AUCs.
//
// Purpose: any refactor that changes pipeline OUTPUT (not just speed)
// fails here with a precise diff of what moved.  The columnar dataset
// build is required to be BIT-identical to the row path, so both paths
// are checked against the same goldens and against each other.
//
// If an intentional behavior change moves the numbers, regenerate with
//   ./test_golden_pipeline --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintGoldenValues*'   (one command line)
// and paste the emitted block over the constants below, explaining the
// change in the commit message.
//
// Tolerances: counts and checksums are exact (integer timeline logic and
// one fixed float->double accumulation order); AUCs allow 1e-9 for libm
// differences across toolchains.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/prediction.hpp"
#include "core/transfer.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/columnar.hpp"
#include "trace/binary_io.hpp"

namespace ssdfail {
namespace {

constexpr std::uint32_t kDrivesPerModel = 7;  // 21 drives across 3 models
constexpr std::uint64_t kFleetSeed = 424242;

trace::FleetTrace golden_fleet() {
  sim::FleetConfig cfg;
  cfg.drives_per_model = kDrivesPerModel;
  cfg.seed = kFleetSeed;
  cfg.keep_ground_truth = false;
  return sim::FleetSimulator(cfg).generate_all();
}

core::DatasetBuildOptions golden_options() {
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.05;
  opts.seed = 101;
  return opts;
}

/// Options for the cross-validated forest: a ~20-drive fleet has too few
/// FAILING drives for drive-partitioned 5-fold CV (folds would be
/// single-class), so the AUC goldens use the Table 8 error-occurrence
/// label, which puts positives on most drives.
core::DatasetBuildOptions auc_options() {
  core::DatasetBuildOptions opts = golden_options();
  opts.error_label = trace::ErrorType::kUncorrectable;
  return opts;
}

/// Per-feature column checksum: double accumulation in row order — fixed
/// order, so it is exact across platforms that promote float->double
/// identically (all of them).
std::vector<double> column_sums(const ml::Dataset& data) {
  std::vector<double> sums(data.x.cols(), 0.0);
  for (std::size_t r = 0; r < data.x.rows(); ++r) {
    const auto row = data.x.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) sums[c] += row[c];
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Committed golden values (regenerate via DISABLED_PrintGoldenValues).
// ---------------------------------------------------------------------------
constexpr std::size_t kGoldenFleetRecords = 30951;
constexpr std::size_t kGoldenFleetSwaps = 1;
constexpr std::size_t kGoldenRows = 1586;
constexpr std::size_t kGoldenPositives = 8;
const std::vector<double> kGoldenColumnSums = {
    319994264566,
    171075219200,
    334833418,
    169472773,
    1,
    1898,
    0,
    0,
    0,
    0,
    0,
    19440,
    2,
    39,
    243691308379848,
    131273644911216,
    257823070876,
    121014671139,
    2565,
    3519031,
    0,
    0,
    192,
    0,
    0,
    8099461,
    3071,
    37717,
    396061,
    1350037,
    0,
    0.73876769817798049,
    0,  // reallocated_sectors — zero on an all-MLC fleet
    0,  // seek_errors
    0,  // cum_seek_errors
    0,  // media_wear
    0,  // throttle_events
    0,  // cum_throttle_events
};
const std::vector<double> kGoldenFoldAucs = {
    0.76437462951985768,
    0.708546112804878,
    0.83500418060200665,
    0.90887989203778674,
    0.35262096774193546,
};
// Heterogeneous-fleet goldens: the same pinned seed extended over every
// device class (kMixedDrivesPerModel drives each).  Per-class fold AUCs
// pin the class_filter build path end to end; the 3x3 transfer matrix
// pins core/transfer.hpp.  Degenerate CV folds (no positives on one side)
// are skipped, so the per-class vectors may hold fewer than 5 entries.
constexpr std::size_t kGoldenMixedFleetRecords = 207818;
constexpr std::size_t kGoldenMixedFleetSwaps = 14;
const std::vector<std::vector<double>> kGoldenPerClassFoldAucs = {
    // mlc-ssd: 8661 rows, 2300 positives
    {0.81929557410117471, 0.93594224634273437, 0.9106770799632472,
     0.83840503262610866, 0.91730381474164446},
    // hdd: 2333 rows, 64 positives
    {0.86208001138952162, 0.80560919943820219},
    // nvme-ssd: 1767 rows, 74 positives
    {0.68417440878378377, 0.59380804953560373, 0.50047138047138051,
     0.85456885456885456},
};
const std::vector<std::vector<double>> kGoldenTransferAucs = {
    {0.88268355329101233, 0.80823470158650212, 0.74944885361552027},
    {0.52754311341848925, 0.71834130781499206, 0.54163910934744264},
    {0.90341357398031308, 0.86884076219256279, 0.66253306878306883},
};
// ---------------------------------------------------------------------------

ml::Dataset row_dataset() { return core::build_dataset(golden_fleet(), golden_options()); }

ml::Dataset columnar_dataset(std::uint32_t chunk_drives) {
  std::ostringstream out(std::ios::binary);
  trace::write_binary_v3(out, golden_fleet(), chunk_drives);
  const std::string bytes = out.str();
  const auto view =
      store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
  return core::build_dataset(view, golden_options());
}

core::EvalProtocol golden_protocol() {
  core::EvalProtocol protocol;
  protocol.seed = 5;
  return protocol;
}

ml::Dataset auc_dataset() { return core::build_dataset(golden_fleet(), auc_options()); }

/// Drives per model for the heterogeneous goldens.  Larger than the MLC
/// golden fleet because the per-class AUC and transfer pins need every
/// class to carry error-label positives on BOTH drive-partitioned halves
/// (HDD uncorrectables are rare enough that a 7-drive cohort can draw
/// zero).
constexpr std::uint32_t kMixedDrivesPerModel = 32;

/// The golden seed extended over every device class (models = all five
/// presets; a drive's rng stream never depends on fleet composition, so
/// each model's cohort is a superset of what any smaller fleet draws).
trace::FleetTrace golden_mixed_fleet() {
  sim::FleetConfig cfg;
  cfg.drives_per_model = kMixedDrivesPerModel;
  cfg.seed = kFleetSeed;
  cfg.keep_ground_truth = false;
  return sim::FleetSimulator(cfg.mixed()).generate_all();
}

/// One class's slice of the mixed fleet under the AUC (error-label) build.
ml::Dataset class_dataset(const trace::FleetTrace& mixed, trace::DeviceClass c) {
  core::DatasetBuildOptions opts = auc_options();
  opts.class_filter = c;
  return core::build_dataset(mixed, opts);
}

core::TransferOptions golden_transfer_options() {
  core::TransferOptions opts;
  opts.build = auc_options();
  opts.protocol = golden_protocol();
  return opts;
}

std::vector<double> fold_aucs(const ml::Dataset& data) {
  ml::RandomForest::Params params;
  params.n_trees = 25;  // keeps the suite fast; still well past AUC noise floor
  params.seed = 1;
  const ml::RandomForest forest(params);
  return core::evaluate_auc(forest, data, golden_protocol()).fold_aucs;
}

TEST(GoldenPipeline, FleetShapeMatchesGolden) {
  const trace::FleetTrace fleet = golden_fleet();
  ASSERT_EQ(fleet.drives.size(), std::size_t{3} * kDrivesPerModel);
  EXPECT_EQ(fleet.total_records(), kGoldenFleetRecords);
  EXPECT_EQ(fleet.total_swaps(), kGoldenFleetSwaps);
}

TEST(GoldenPipeline, RowPathDatasetMatchesGolden) {
  const ml::Dataset data = row_dataset();
  EXPECT_EQ(data.size(), kGoldenRows);
  EXPECT_EQ(data.positives(), kGoldenPositives);
  const std::vector<double> sums = column_sums(data);
  ASSERT_EQ(sums.size(), kGoldenColumnSums.size());
  for (std::size_t c = 0; c < sums.size(); ++c)
    EXPECT_EQ(sums[c], kGoldenColumnSums[c]) << "feature " << data.feature_names[c];
}

TEST(GoldenPipeline, ColumnarPathIsBitIdenticalToRowPath) {
  const ml::Dataset row = row_dataset();
  for (const std::uint32_t chunk_drives : {1u, 4u, 256u}) {
    const ml::Dataset col = columnar_dataset(chunk_drives);
    ASSERT_EQ(col.size(), row.size()) << "chunk_drives " << chunk_drives;
    ASSERT_EQ(col.x.cols(), row.x.cols());
    EXPECT_EQ(col.y, row.y);
    EXPECT_EQ(col.groups, row.groups);
    EXPECT_EQ(col.feature_names, row.feature_names);
    for (std::size_t r = 0; r < row.x.rows(); ++r) {
      const auto a = row.x.row(r);
      const auto b = col.x.row(r);
      for (std::size_t c = 0; c < a.size(); ++c)
        ASSERT_EQ(a[c], b[c]) << "row " << r << " col " << c << " chunk_drives "
                              << chunk_drives;  // exact float equality
    }
  }
}

TEST(GoldenPipeline, V1RoundTripPreservesTheDataset) {
  const trace::FleetTrace fleet = golden_fleet();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  trace::write_binary(buffer, fleet);
  const ml::Dataset via_v1 =
      core::build_dataset(trace::read_binary(buffer), golden_options());
  const ml::Dataset direct = row_dataset();
  ASSERT_EQ(via_v1.size(), direct.size());
  EXPECT_EQ(via_v1.y, direct.y);
  EXPECT_EQ(via_v1.groups, direct.groups);
}

TEST(GoldenPipeline, ForestFoldAucsMatchGolden) {
  const std::vector<double> aucs = fold_aucs(auc_dataset());
  ASSERT_EQ(aucs.size(), kGoldenFoldAucs.size());
  for (std::size_t f = 0; f < aucs.size(); ++f)
    EXPECT_NEAR(aucs[f], kGoldenFoldAucs[f], 1e-9) << "fold " << f;
}

TEST(GoldenPipeline, ForestFoldAucsIdenticalViaColumnarPath) {
  std::ostringstream out(std::ios::binary);
  trace::write_binary_v3(out, golden_fleet(), 4);
  const std::string bytes = out.str();
  const auto view =
      store::ColumnarFleetView::from_buffer({bytes.begin(), bytes.end()});
  const ml::Dataset via_columnar = core::build_dataset(view, auc_options());
  EXPECT_EQ(fold_aucs(auc_dataset()), fold_aucs(via_columnar));
}

TEST(GoldenPipeline, FlatEngineScoresBitIdenticalToWalker) {
  const ml::Dataset data = auc_dataset();
  ml::RandomForest::Params params;
  params.n_trees = 25;
  params.seed = 1;
  ml::RandomForest forest(params);
  forest.fit(data);
  const ml::FlatForest engine = ml::FlatForest::compile(forest);
  const std::vector<float> walker = forest.predict_proba(data.x);
  const std::vector<float> flat = engine.predict_proba(data.x);
  ASSERT_EQ(flat.size(), walker.size());
  for (std::size_t r = 0; r < walker.size(); ++r)
    ASSERT_EQ(flat[r], walker[r]) << "drive-day row " << r;  // exact, not NEAR
}

TEST(GoldenPipeline, FlatEngineFoldAucsMatchGolden) {
  // The full CV protocol (clone, per-fold fit, AUC) run through the
  // compiled engine must land on the SAME goldens as the walker: flat
  // inference is a representation change, not a model change.
  const ml::Dataset data = auc_dataset();
  ml::RandomForest::Params params;
  params.n_trees = 25;
  params.seed = 1;
  const ml::FlatForestClassifier flat_model(
      std::unique_ptr<ml::Classifier>(std::make_unique<ml::RandomForest>(params)));
  const std::vector<double> aucs =
      core::evaluate_auc(flat_model, data, golden_protocol()).fold_aucs;
  ASSERT_EQ(aucs.size(), kGoldenFoldAucs.size());
  for (std::size_t f = 0; f < aucs.size(); ++f)
    EXPECT_NEAR(aucs[f], kGoldenFoldAucs[f], 1e-9) << "fold " << f;
  EXPECT_EQ(aucs, fold_aucs(data));  // and bit-identical to the walker CV
}

TEST(GoldenPipeline, MixedFleetShapeMatchesGolden) {
  const trace::FleetTrace mixed = golden_mixed_fleet();
  ASSERT_EQ(mixed.drives.size(), std::size_t{trace::kNumModels} * kMixedDrivesPerModel);
  EXPECT_EQ(mixed.total_records(), kGoldenMixedFleetRecords);
  EXPECT_EQ(mixed.total_swaps(), kGoldenMixedFleetSwaps);
}

TEST(GoldenPipeline, MlcDrivesAreBitIdenticalInTheMixedFleet) {
  // Composition independence: adding HDD/NVMe cohorts (and growing the
  // fleet) must not perturb a single byte of the original MLC drives —
  // rng streams are keyed by (seed, model, drive_index), never by fleet
  // layout.  Layout is model-major, so MLC model m's drive i sits at
  // m * kDrivesPerModel + i in the small fleet and m * kMixedDrivesPerModel
  // + i in the mixed one.
  const trace::FleetTrace mlc = golden_fleet();
  const trace::FleetTrace mixed = golden_mixed_fleet();
  for (std::size_t m = 0; m < trace::kNumMlcModels; ++m) {
    for (std::size_t i = 0; i < kDrivesPerModel; ++i) {
      const auto& a = mlc.drives[m * kDrivesPerModel + i];
      const auto& b = mixed.drives[m * kMixedDrivesPerModel + i];
      ASSERT_EQ(a.model, b.model);
      ASSERT_EQ(a.drive_index, b.drive_index);
      ASSERT_EQ(a.records.size(), b.records.size()) << "model " << m << " drive " << i;
      for (std::size_t r = 0; r < a.records.size(); ++r)
        ASSERT_EQ(a.records[r], b.records[r])
            << "model " << m << " drive " << i << " record " << r;
      ASSERT_EQ(a.swaps.size(), b.swaps.size());
    }
  }
}

TEST(GoldenPipeline, PerClassFoldAucsMatchGolden) {
  const trace::FleetTrace mixed = golden_mixed_fleet();
  ASSERT_EQ(kGoldenPerClassFoldAucs.size(), trace::kNumDeviceClasses);
  for (trace::DeviceClass c : trace::kAllDeviceClasses) {
    const auto ci = static_cast<std::size_t>(c);
    const std::vector<double> aucs = fold_aucs(class_dataset(mixed, c));
    ASSERT_EQ(aucs.size(), kGoldenPerClassFoldAucs[ci].size())
        << trace::device_class_name(c);
    for (std::size_t f = 0; f < aucs.size(); ++f)
      EXPECT_NEAR(aucs[f], kGoldenPerClassFoldAucs[ci][f], 1e-9)
          << trace::device_class_name(c) << " fold " << f;
  }
}

TEST(GoldenPipeline, TransferMatrixMatchesGolden) {
  const core::TransferMatrix matrix =
      core::cross_class_transfer(golden_mixed_fleet(), golden_transfer_options());
  ASSERT_EQ(kGoldenTransferAucs.size(), trace::kNumDeviceClasses);
  for (std::size_t t = 0; t < trace::kNumDeviceClasses; ++t) {
    ASSERT_EQ(kGoldenTransferAucs[t].size(), trace::kNumDeviceClasses);
    for (std::size_t e = 0; e < trace::kNumDeviceClasses; ++e)
      EXPECT_NEAR(matrix.auc[t][e], kGoldenTransferAucs[t][e], 1e-9)
          << "train " << t << " test " << e;
  }
}

/// Regeneration helper, never run by default (see file header).
TEST(GoldenPipeline, DISABLED_PrintGoldenValues) {
  const trace::FleetTrace fleet = golden_fleet();
  const ml::Dataset data = row_dataset();
  const std::vector<double> sums = column_sums(data);
  const std::vector<double> aucs = fold_aucs(auc_dataset());
  std::printf("constexpr std::size_t kGoldenFleetRecords = %zu;\n", fleet.total_records());
  std::printf("constexpr std::size_t kGoldenFleetSwaps = %zu;\n", fleet.total_swaps());
  std::printf("constexpr std::size_t kGoldenRows = %zu;\n", data.size());
  std::printf("constexpr std::size_t kGoldenPositives = %zu;\n", data.positives());
  std::printf("const std::vector<double> kGoldenColumnSums = {\n");
  for (const double s : sums) std::printf("    %.17g,\n", s);
  std::printf("};\n");
  std::printf("const std::vector<double> kGoldenFoldAucs = {\n");
  for (const double a : aucs) std::printf("    %.17g,\n", a);
  std::printf("};\n");

  const trace::FleetTrace mixed = golden_mixed_fleet();
  std::printf("constexpr std::size_t kGoldenMixedFleetRecords = %zu;\n",
              mixed.total_records());
  std::printf("constexpr std::size_t kGoldenMixedFleetSwaps = %zu;\n",
              mixed.total_swaps());
  std::printf("const std::vector<std::vector<double>> kGoldenPerClassFoldAucs = {\n");
  for (trace::DeviceClass c : trace::kAllDeviceClasses) {
    const ml::Dataset class_data = class_dataset(mixed, c);
    std::printf("    // %s: %zu rows, %zu positives\n",
                std::string(trace::device_class_name(c)).c_str(), class_data.size(),
                class_data.positives());
    std::printf("    {");
    for (const double a : fold_aucs(class_data)) std::printf("%.17g, ", a);
    std::printf("},\n");
  }
  std::printf("};\n");
  const core::TransferMatrix matrix =
      core::cross_class_transfer(mixed, golden_transfer_options());
  std::printf("const std::vector<std::vector<double>> kGoldenTransferAucs = {\n");
  for (std::size_t t = 0; t < trace::kNumDeviceClasses; ++t) {
    std::printf("    {");
    for (std::size_t e = 0; e < trace::kNumDeviceClasses; ++e)
      std::printf("%.17g, ", matrix.auc[t][e]);
    std::printf("},\n");
  }
  std::printf("};\n");
}

}  // namespace
}  // namespace ssdfail
