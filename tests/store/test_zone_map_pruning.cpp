// Zone-map predicate-pushdown correctness (the v3 tentpole property): a
// pruned scan must return row sets IDENTICAL to the unpruned scan — the
// zone map may only skip chunks that provably contain no matching row.
//
// Covers: dataset builds with model filters across the row path, v3, and
// the committed v2 fixture (bit-identical floats), the conservative
// may_match contract checked exhaustively against decoded chunk contents
// over seeded fleets, the edge shapes (all-swap-free fleets, single-chunk
// stores, filters matching nothing), and the zone maps the v2 reader
// synthesizes from the fixture's drive index.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <vector>

#include "core/dataset_builder.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/columnar.hpp"
#include "store/sharded.hpp"
#include "trace/v2_fixture.hpp"

namespace ssdfail::store {
namespace {

trace::FleetTrace simulated_fleet(std::uint32_t drives_per_model = 12,
                                  std::uint64_t seed = 1234) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = seed;
  return sim::FleetSimulator(cfg).generate_all();
}

/// The committed v2 fixture (nothing writes v2 any more).
ColumnarFleetView v2_fixture_view() {
  return ColumnarFleetView::open(trace::testing::v2_fixture_path());
}

ColumnarFleetView encode_view(const trace::FleetTrace& fleet, std::uint32_t chunk_drives) {
  std::ostringstream out(std::ios::binary);
  write_columnar(out, fleet, {chunk_drives});
  const std::string s = out.str();
  return ColumnarFleetView::from_buffer({s.begin(), s.end()});
}

void expect_datasets_identical(const ml::Dataset& a, const ml::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.x.cols(), b.x.cols());
  ASSERT_EQ(a.x.data(), b.x.data());  // bit-identical floats
  ASSERT_EQ(a.y, b.y);
  ASSERT_EQ(a.groups, b.groups);
  ASSERT_EQ(a.feature_names, b.feature_names);
}

/// The v2 leg of a "both versions" build test: nothing writes v2, so the
/// committed fixture must build exactly what the row path builds from the
/// fleet it encodes.
void expect_v2_fixture_builds_like_row_path(const core::DatasetBuildOptions& opts) {
  expect_datasets_identical(core::build_dataset(trace::testing::sweep_fleet(), opts),
                            core::build_dataset(v2_fixture_view(), opts));
}

/// Ground truth for may_match: does any row of the chunk satisfy the
/// predicate?  (Decodes the chunk — the point is that the zone map must
/// never disagree in the pruning direction.)
bool chunk_has_match(const ChunkView& chunk, const ScanPredicate& pred) {
  for (const DriveRef& ref : chunk.drives) {
    if (pred.model && *pred.model != ref.model) continue;
    for (std::size_t i = 0; i < ref.row_count; ++i) {
      const std::int32_t day = chunk.day[ref.row_begin + i];
      if (pred.min_day && day < *pred.min_day) continue;
      if (pred.max_day && day > *pred.max_day) continue;
      return true;
    }
  }
  return false;
}

TEST(ZoneMapPruning, ModelFilteredBuildsMatchRowPathBothVersions) {
  const trace::FleetTrace fleet = simulated_fleet();
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.2;
  for (const trace::DriveModel model : trace::kAllModels) {
    opts.model_filter = model;
    const ml::Dataset expected = core::build_dataset(fleet, opts);
    for (const std::uint32_t chunk_drives : {3u, 1000000u}) {  // multi / single chunk
      const ColumnarFleetView view = encode_view(fleet, chunk_drives);
      expect_datasets_identical(expected, core::build_dataset(view, opts));
    }
    expect_v2_fixture_builds_like_row_path(opts);
  }
}

TEST(ZoneMapPruning, UnfilteredBuildsMatchRowPathBothVersions) {
  const trace::FleetTrace fleet = simulated_fleet(8);
  core::DatasetBuildOptions opts;
  opts.negative_keep_prob = 0.3;
  const ml::Dataset expected = core::build_dataset(fleet, opts);
  expect_datasets_identical(expected, core::build_dataset(encode_view(fleet, 5), opts));
  expect_v2_fixture_builds_like_row_path(opts);
}

TEST(ZoneMapPruning, FilterMatchingNothingYieldsEmptyDatasetIdentically) {
  // A fleet of only MlcA drives, filtered for MlcD: every chunk prunes.
  trace::FleetTrace fleet = simulated_fleet(9);
  std::erase_if(fleet.drives, [](const trace::DriveHistory& d) {
    return d.model != trace::DriveModel::MlcA;
  });
  core::DatasetBuildOptions opts;
  opts.model_filter = trace::DriveModel::MlcD;
  const ml::Dataset expected = core::build_dataset(fleet, opts);
  EXPECT_EQ(expected.size(), 0u);
  expect_datasets_identical(expected, core::build_dataset(encode_view(fleet, 4), opts));
}

TEST(ZoneMapPruning, AllSwapFreeFleetBuildsIdentically) {
  trace::FleetTrace fleet = simulated_fleet(10, 77);
  for (trace::DriveHistory& d : fleet.drives) d.swaps.clear();
  core::DatasetBuildOptions opts;
  opts.model_filter = trace::DriveModel::MlcB;
  opts.negative_keep_prob = 0.25;
  const ml::Dataset expected = core::build_dataset(fleet, opts);
  const ColumnarFleetView view = encode_view(fleet, 4);
  EXPECT_EQ(view.total_swaps(), 0u);
  expect_datasets_identical(expected, core::build_dataset(view, opts));
}

TEST(ZoneMapPruning, MayMatchIsConservativeOverSeededFleets) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const trace::FleetTrace fleet = simulated_fleet(6, seed);
    const ColumnarFleetView view = encode_view(fleet, 4);

    std::vector<ScanPredicate> predicates;
    predicates.push_back({});  // match-all
    for (const trace::DriveModel model : trace::kAllModels) {
      ScanPredicate p;
      p.model = model;
      predicates.push_back(p);
    }
    for (const std::int32_t lo : {-5, 0, 50, 400, 5000}) {
      ScanPredicate p;
      p.min_day = lo;
      p.max_day = lo + 100;
      predicates.push_back(p);
    }

    for (const ScanPredicate& pred : predicates) {
      for (std::size_t c = 0; c < view.chunk_count(); ++c) {
        if (chunk_has_match(view.chunk(c), pred)) {
          EXPECT_TRUE(view.zone_map(c).may_match(pred))
              << "seed " << seed << " chunk " << c << " pruned a matching chunk";
        }
      }
    }
  }
}

TEST(ZoneMapPruning, DayRangePredicatesPruneDisjointChunksInV3) {
  const trace::FleetTrace fleet = simulated_fleet(6);
  const ColumnarFleetView view = encode_view(fleet, 4);
  ASSERT_GT(view.chunk_count(), 0u);
  ScanPredicate far_future;
  far_future.min_day = 1 << 28;  // beyond any simulated day
  for (std::size_t c = 0; c < view.chunk_count(); ++c)
    EXPECT_FALSE(view.zone_map(c).may_match(far_future));
  // v2 zone maps lack day stats: the same predicate must NOT prune (it
  // cannot prove emptiness), only stay conservative.
  const ColumnarFleetView v2 = v2_fixture_view();
  ASSERT_GT(v2.chunk_count(), 0u);
  for (std::size_t c = 0; c < v2.chunk_count(); ++c)
    EXPECT_TRUE(v2.zone_map(c).may_match(far_future));
}

TEST(ZoneMapPruning, DayWindowBuildsMatchRowPathBothVersions) {
  // The Retrainer's scan shape: prediction rows restricted to a
  // label-matured day range.  Pruned columnar builds must stay
  // bit-identical to the row path.
  const trace::FleetTrace fleet = simulated_fleet(14, 99);
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.5;
  struct Window {
    std::optional<std::int32_t> min_day, max_day;
  };
  const Window windows[] = {
      {200, std::nullopt},
      {std::nullopt, 300},
      {50, 450},
      {1 << 28, std::nullopt},  // matches nothing
  };
  for (const Window& w : windows) {
    opts.min_day = w.min_day;
    opts.max_day = w.max_day;
    const ml::Dataset expected = core::build_dataset(fleet, opts);
    for (const std::uint32_t chunk_drives : {3u, 1000000u}) {
      const ColumnarFleetView view = encode_view(fleet, chunk_drives);
      expect_datasets_identical(expected, core::build_dataset(view, opts));
    }
    expect_v2_fixture_builds_like_row_path(opts);
  }
}

TEST(ZoneMapPruning, DayWindowedBuildIsSubsetOfUnwindowedBuild) {
  // Windowed rows must be the unwindowed build's matching rows, same
  // floats — the property the Retrainer's maturation window relies on.
  const trace::FleetTrace fleet = simulated_fleet(10, 5);
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 1.0;  // keep everything so row sets are dense
  const ml::Dataset full = core::build_dataset(fleet, opts);
  opts.min_day = 120;
  opts.max_day = 480;
  const ml::Dataset windowed = core::build_dataset(fleet, opts);
  ASSERT_GT(windowed.size(), 0u);
  ASSERT_LT(windowed.size(), full.size());
  // Every windowed row appears in the full build, in order.
  std::size_t j = 0;
  for (std::size_t i = 0; i < windowed.x.rows(); ++i) {
    while (j < full.x.rows() &&
           !(full.groups[j] == windowed.groups[i] &&
             std::equal(full.x.row(j).begin(), full.x.row(j).end(),
                        windowed.x.row(i).begin(), windowed.x.row(i).end()) &&
             full.y[j] == windowed.y[i]))
      ++j;
    ASSERT_LT(j, full.x.rows()) << "windowed row " << i << " not found in full build";
    ++j;
  }
}

TEST(ZoneMapPruning, V2FixtureZoneMapsAreSynthesizedFromTheDriveIndex) {
  // v2 footers carry no zone maps: the reader synthesizes the model mask
  // and the record and swap counts, and marks the column stats invalid.
  const trace::FleetTrace fleet = trace::testing::sweep_fleet();
  const ColumnarFleetView view = v2_fixture_view();
  const std::size_t per_chunk = trace::testing::kV2FixtureChunkDrives;
  ASSERT_EQ(view.chunk_count(), (fleet.drives.size() + per_chunk - 1) / per_chunk);
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    std::uint32_t mask = 0;
    std::uint64_t records = 0;
    std::uint64_t swaps = 0;
    for (std::size_t d = c * per_chunk; d < std::min((c + 1) * per_chunk, fleet.drives.size());
         ++d) {
      mask |= 1u << static_cast<std::uint32_t>(fleet.drives[d].model);
      records += fleet.drives[d].records.size();
      swaps += fleet.drives[d].swaps.size();
    }
    const ChunkZoneMap& zone = view.zone_map(c);
    EXPECT_FALSE(zone.stats_valid) << "chunk " << c;
    EXPECT_EQ(zone.model_mask, mask) << "chunk " << c;
    EXPECT_EQ(zone.n_records, records) << "chunk " << c;
    EXPECT_EQ(zone.n_swaps, swaps) << "chunk " << c;
    // Model predicates prune by the synthesized mask.
    for (const trace::DriveModel model : trace::kAllModels) {
      ScanPredicate pred;
      pred.model = model;
      EXPECT_EQ(zone.may_match(pred),
                (mask & (1u << static_cast<std::uint32_t>(model))) != 0)
          << "chunk " << c << " model " << trace::model_name(model);
    }
  }
}

// --- Heterogeneous device classes through the store (the PR 10 property):
// a mixed-class fleet must round-trip bit-identically through v3 and the
// sharded layout, and device-class predicates must prune chunks without
// ever changing the produced row set. ---

trace::FleetTrace mixed_fleet(std::uint32_t drives_per_model = 8,
                              std::uint64_t seed = 4242) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = seed;
  cfg = cfg.mixed();
  return sim::FleetSimulator(cfg).generate_all();
}

TEST(ZoneMapPruning, MixedClassFleetRoundTripsThroughV3AndShardedStore) {
  const trace::FleetTrace fleet = mixed_fleet();
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.2;
  for (const std::optional<trace::DeviceClass> cls :
       {std::optional<trace::DeviceClass>{},
        std::optional<trace::DeviceClass>{trace::DeviceClass::kMlcSsd},
        std::optional<trace::DeviceClass>{trace::DeviceClass::kHdd},
        std::optional<trace::DeviceClass>{trace::DeviceClass::kNvmeSsd}}) {
    opts.class_filter = cls;
    const ml::Dataset expected = core::build_dataset(fleet, opts);
    ASSERT_GT(expected.size(), 0u);
    // Single-file v3, multi-chunk and single-chunk.
    for (const std::uint32_t chunk_drives : {3u, 1000000u})
      expect_datasets_identical(
          expected,
          core::build_dataset(encode_view(fleet, chunk_drives),
                              opts));
    // Sharded v3 store: write to disk, reopen, build.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("ssdfail_zonemap_mixed_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    ShardedWriteOptions wopts;
    wopts.store.chunk_drives = 4;
    wopts.drives_per_shard = 10;
    write_sharded(dir.string(), fleet, wopts);
    const ShardedFleetView sharded = ShardedFleetView::open(dir.string());
    EXPECT_GT(sharded.shard_count(), 1u);
    expect_datasets_identical(expected, core::build_dataset(sharded, opts));
    std::filesystem::remove_all(dir);
  }
}

TEST(ZoneMapPruning, DeviceClassPredicatePrunesExactlyLikeAnUnprunedScan) {
  // The class mask may only skip chunks containing no drive of the class;
  // chunk_has_match (a full decode) is the ground truth.  Chunks are small
  // so single-class runs of the model-major fleet produce genuinely
  // prunable chunks for every class.
  const trace::FleetTrace fleet = mixed_fleet(6, 7);
  const ColumnarFleetView view = encode_view(fleet, 4);
  for (const trace::DeviceClass cls : trace::kAllDeviceClasses) {
    ScanPredicate pred;
    pred.device_class = cls;
    std::size_t pruned = 0;
    for (std::size_t c = 0; c < view.chunk_count(); ++c) {
      const bool has = [&] {
        for (const DriveRef& ref : view.chunk(c).drives)
          if (trace::device_class(ref.model) == cls && ref.row_count > 0) return true;
        return false;
      }();
      if (!view.zone_map(c).may_match(pred)) {
        ++pruned;
        EXPECT_FALSE(has) << "pruned a chunk holding class "
                          << trace::device_class_name(cls);
      }
    }
    EXPECT_GT(pruned, 0u) << "class " << trace::device_class_name(cls)
                          << " never pruned a chunk";
  }
  // model ∩ device_class of a DIFFERENT class is unsatisfiable: every
  // chunk must prune.
  ScanPredicate clash;
  clash.model = trace::DriveModel::Hdd;
  clash.device_class = trace::DeviceClass::kNvmeSsd;
  for (std::size_t c = 0; c < view.chunk_count(); ++c)
    EXPECT_FALSE(view.zone_map(c).may_match(clash));
}

TEST(ZoneMapPruning, V3ZoneStatsMatchDecodedColumns) {
  const trace::FleetTrace fleet = simulated_fleet(5);
  const ColumnarFleetView view = encode_view(fleet, 3);
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const ChunkZoneMap& zone = view.zone_map(c);
    ASSERT_TRUE(zone.stats_valid);
    const ChunkView& chunk = view.chunk(c);
    if (chunk.day.empty()) continue;
    std::int32_t lo = chunk.day.front(), hi = chunk.day.front();
    for (const std::int32_t d : chunk.day) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    EXPECT_EQ(zone.stats(ZoneColumn::kDay).min, lo);
    EXPECT_EQ(zone.stats(ZoneColumn::kDay).max, hi);
  }
}

}  // namespace
}  // namespace ssdfail::store
