// Retrainer tests against a real on-disk v3 sharded store: the training set
// must be exactly the negatives-then-positives reference build, byte for
// byte; its bytes and the retrained model's bytes are pinned at every chunk
// layout and pool size; retraining must be bit-identical at every thread
// count; and the row/positive minimums must guard the gate.

#include "online/retrainer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset_builder.hpp"
#include "daemon/daemon_test_util.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/sharded.hpp"
#include "trace/drive_history.hpp"

namespace ssdfail::online {
namespace {

using daemon::testing::TempDir;

/// Deterministic hand-built fleet: 24 drives over 300 days; every third
/// drive fails (swap on its last day), with error/bad-block symptoms so a
/// fitted model has something to learn.
trace::FleetTrace make_fleet() {
  trace::FleetTrace fleet;
  for (std::uint32_t i = 0; i < 24; ++i) {
    trace::DriveHistory drive;
    drive.model = trace::DriveModel::MlcA;
    drive.drive_index = i;
    drive.deploy_day = 0;
    const bool fails = i % 3 == 0;
    const std::int32_t last_day = fails ? 150 + static_cast<std::int32_t>(i) : 299;
    for (std::int32_t day = 0; day <= last_day; ++day) {
      trace::DailyRecord rec;
      rec.day = day;
      rec.reads = 100 + (i * 7 + static_cast<std::uint32_t>(day)) % 50;
      rec.writes = 40 + static_cast<std::uint32_t>(day % 30) + i;
      rec.erases = 3;
      rec.pe_cycles = static_cast<std::uint32_t>(day);
      rec.bad_blocks = static_cast<std::uint32_t>(day) / (fails ? 20u : 50u);
      rec.factory_bad_blocks = 4;
      rec.errors[0] = (i + static_cast<std::uint32_t>(day)) % 4 == 0 ? 1 : 0;
      rec.errors[2] = fails && day > 100 ? 2 : 0;
      drive.records.push_back(rec);
    }
    if (fails) drive.swaps.push_back({last_day});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

/// A seeded simulated fleet spanning every model of every device class,
/// over the full six-year window.
const trace::FleetTrace& mixed_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 8;
    cfg.seed = 1717;
    return sim::FleetSimulator(cfg.mixed()).generate_all();
  }();
  return fleet;
}

/// Write the fixture fleet as a multi-shard store and open it.
store::ShardedFleetView open_fixture(const TempDir& dir) {
  store::ShardedWriteOptions options;
  options.drives_per_shard = 7;  // 24 drives -> 4 shards
  store::write_sharded(dir.path(), make_fleet(), options);
  return store::ShardedFleetView::open(dir.path());
}

RetrainerConfig fixture_config(const std::string& store_dir) {
  RetrainerConfig cfg;
  cfg.store_dir = store_dir;
  cfg.lookahead_days = 7;
  cfg.negative_keep_prob = 0.3;
  cfg.seed = 99;
  cfg.min_rows = 64;
  cfg.min_positives = 4;
  cfg.model.n_rounds = 10;
  cfg.model.max_depth = 3;
  return cfg;
}

RetrainerConfig mixed_config(const std::string& store_dir) {
  RetrainerConfig cfg = fixture_config(store_dir);
  cfg.negative_keep_prob = 0.05;
  cfg.seed = 4711;
  cfg.model.seed = 23;
  return cfg;
}

/// One fleet written at several chunk layouts, with the config it is
/// retrained under.
struct FleetCase {
  const char* name;
  trace::FleetTrace fleet;
  RetrainerConfig (*config)(const std::string&);
  std::uint32_t drives_per_shard;
};

FleetCase fixture_case() { return {"fixture", make_fleet(), fixture_config, 7}; }
FleetCase mixed_case() { return {"mixed", mixed_fleet(), mixed_config, 16}; }

std::vector<FleetCase> fleet_cases() { return {fixture_case(), mixed_case()}; }

constexpr std::uint32_t kChunkSizes[] = {1, 7, 64};

store::ShardedFleetView write_and_open(const TempDir& dir, const FleetCase& fc,
                                       std::uint32_t chunk_drives) {
  store::ShardedWriteOptions options;
  options.store.chunk_drives = chunk_drives;
  options.drives_per_shard = fc.drives_per_shard;
  store::write_sharded(dir.path(), fc.fleet, options);
  return store::ShardedFleetView::open(dir.path());
}

void expect_datasets_identical(const ml::Dataset& a, const ml::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.x.cols(), b.x.cols());
  ASSERT_EQ(a.x.data(), b.x.data());  // bit-identical floats, same order
  ASSERT_EQ(a.y, b.y);
  ASSERT_EQ(a.groups, b.groups);
  ASSERT_EQ(a.feature_names, b.feature_names);
}

/// The Section 5.1 training set in the Retrainer's row order, built
/// without it: every subsampled negative, then every positive, each group
/// in scan order.
ml::Dataset reference_training_set(const store::ShardedFleetView& view,
                                   const RetrainerConfig& cfg, std::int32_t now_day) {
  core::DatasetBuildOptions opts;
  opts.lookahead_days = cfg.lookahead_days;
  opts.seed = cfg.seed;
  opts.max_day = now_day - cfg.lookahead_days;
  opts.negative_keep_prob = cfg.negative_keep_prob;
  opts.positive_keep_prob = 0.0;
  ml::Dataset out = core::build_dataset(view, opts);
  opts.negative_keep_prob = 0.0;
  opts.positive_keep_prob = 1.0;
  const ml::Dataset pos = core::build_dataset(view, opts);
  out.x.append_rows(pos.x);
  out.y.insert(out.y.end(), pos.y.begin(), pos.y.end());
  out.groups.insert(out.groups.end(), pos.groups.begin(), pos.groups.end());
  return out;
}

// ---- Pinned bytes ---------------------------------------------------------
//
// FNV-1a digests of the ordered training-set bytes (shape, features,
// labels, groups, names) and of the ml::save_model bytes of the retrained
// challenger.  The row order feeds GradientBoosting's subsampling and split
// tie-breaks, so a reordered training set changes the model even when the
// row multiset is the same; a chunk layout or pool size must change
// neither digest.

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_values(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a({reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T)}, h);
}

std::uint64_t dataset_digest(const ml::Dataset& d) {
  const std::vector<std::uint64_t> shape = {d.x.rows(), d.x.cols()};
  std::uint64_t h = fnv1a_values(shape, 0xcbf29ce484222325ull);
  h = fnv1a_values(d.x.data(), h);
  h = fnv1a_values(d.y, h);
  h = fnv1a_values(d.groups, h);
  for (const std::string& name : d.feature_names) h = fnv1a({name.c_str(), name.size() + 1}, h);
  return h;
}

std::uint64_t model_digest(const ml::Classifier& model) {
  std::ostringstream out(std::ios::binary);
  ml::save_model(out, dynamic_cast<const ml::GradientBoosting&>(model));
  return fnv1a(out.str());
}

struct Pin {
  std::int32_t now_day;
  std::uint64_t dataset;
  std::uint64_t model;  ///< 0: the retrain must decline (below the minimums)
};

// now_day 0 leaves no label-matured day: zero rows at full width.
constexpr Pin kFixturePins[] = {
    {0, 0x38dec8b11520533bull, 0x0ull},
    {165, 0x672088abb37769dbull, 0x08799aa6a1881abbull},
    {290, 0xaf760ab6f3ba5a17ull, 0x02d1439494efb690ull},
};
constexpr Pin kMixedPins[] = {
    {0, 0x38dec8b11520533bull, 0x0ull},
    {900, 0xef08ed746e297c94ull, 0x5c66cd67d0b85ba8ull},
    {2000, 0xb38dd42f8684669full, 0x219137f258fcb828ull},
};

/// Digests of one (dataset, model) pair, model 0 when retrain declines.
struct Digests {
  std::uint64_t dataset = 0;
  std::uint64_t model = 0;
};

Digests digests_of(const Retrainer& retrainer, const store::ShardedFleetView& view,
                   std::int32_t now_day) {
  Digests d;
  d.dataset = dataset_digest(retrainer.build_training_set(view, now_day));
  if (const std::optional<RetrainResult> result = retrainer.retrain(now_day))
    d.model = model_digest(*result->model);
  return d;
}

void expect_pinned_bytes(const FleetCase& fc, std::span<const Pin> pins) {
  parallel::ThreadPool serial(1);
  for (const std::uint32_t chunk_drives : kChunkSizes) {
    TempDir dir("retrainer_pinned");
    const store::ShardedFleetView view = write_and_open(dir, fc, chunk_drives);
    const Retrainer retrainer(fc.config(dir.path()));
    for (const Pin& pin : pins) {
      SCOPED_TRACE("chunk_drives " + std::to_string(chunk_drives) + " now " +
                   std::to_string(pin.now_day));
      // N workers: the shared pool, whatever this host sizes it to.
      const Digests parallel_digests = digests_of(retrainer, view, pin.now_day);
      // 1 worker: the whole build and fit run as a task of a 1-worker
      // pool, so every nested parallel loop runs sequentially.
      Digests serial_digests;
      parallel::TaskGroup group(serial);
      group.submit([&] { serial_digests = digests_of(retrainer, view, pin.now_day); });
      group.wait();

      EXPECT_EQ(parallel_digests.dataset, pin.dataset);
      EXPECT_EQ(parallel_digests.model, pin.model);
      EXPECT_EQ(serial_digests.dataset, pin.dataset);
      EXPECT_EQ(serial_digests.model, pin.model);
    }
  }
}

TEST(Retrainer, PinnedFixtureBytesAtEveryChunkLayoutAndPoolSize) {
  expect_pinned_bytes(fixture_case(), kFixturePins);
}

TEST(Retrainer, PinnedMixedFleetBytesAtEveryChunkLayoutAndPoolSize) {
  expect_pinned_bytes(mixed_case(), kMixedPins);
}

TEST(Retrainer, BuildIsTheNegativesThenPositivesReference) {
  for (const FleetCase& fc : fleet_cases()) {
    for (const std::uint32_t chunk_drives : kChunkSizes) {
      TempDir dir("retrainer_reference");
      const store::ShardedFleetView view = write_and_open(dir, fc, chunk_drives);
      const RetrainerConfig cfg = fc.config(dir.path());
      const Retrainer retrainer(cfg);
      for (const std::int32_t now_day : {0, 165, 290, 900, 2000}) {
        SCOPED_TRACE(std::string(fc.name) + " chunk_drives " + std::to_string(chunk_drives) +
                     " now " + std::to_string(now_day));
        const ml::Dataset built = retrainer.build_training_set(view, now_day);
        expect_datasets_identical(built, reference_training_set(view, cfg, now_day));
      }
    }
  }
  // The fixture's swaps (days 150..171) put positives in the mature
  // window, so the comparison above covers both row groups.
  TempDir dir("retrainer_reference_fixture");
  const store::ShardedFleetView view = open_fixture(dir);
  const ml::Dataset built = Retrainer(fixture_config(dir.path())).build_training_set(view, 290);
  EXPECT_GT(built.positives(), 0u);
  EXPECT_LT(built.positives(), built.size());
}

TEST(Retrainer, EmptyWindowYieldsZeroRowsAtFullWidth) {
  TempDir dir("retrainer_empty");
  const store::ShardedFleetView view = open_fixture(dir);
  const Retrainer retrainer(fixture_config(dir.path()));
  // now = 0: the label horizon ends at day -7, before any telemetry.
  const ml::Dataset empty = retrainer.build_training_set(view, 0);
  const ml::Dataset full = retrainer.build_training_set(view, 290);
  EXPECT_EQ(empty.size(), 0u);
  ASSERT_GT(full.features(), 0u);
  EXPECT_EQ(empty.features(), full.features());
  EXPECT_EQ(empty.feature_names, full.feature_names);
  EXPECT_FALSE(retrainer.retrain(0).has_value());
}

TEST(Retrainer, NoRowLeaksPastTheLabelHorizon) {
  TempDir dir("retrainer_horizon");
  const store::ShardedFleetView view = open_fixture(dir);
  Retrainer retrainer(fixture_config(dir.path()));
  // now = 160: only drive histories up to day 153 are label-complete.
  const ml::Dataset train = retrainer.build_training_set(view, 160);
  // The day feature is emitted as a raw column; instead of fishing for it,
  // rebuild with max_day one smaller and check monotonicity of row counts.
  const std::size_t full = retrainer.build_training_set(view, 400).size();
  EXPECT_LT(train.size(), full);
}

TEST(Retrainer, RetrainIsBitIdenticalAcrossThreadCounts) {
  TempDir dir("retrainer_threads");
  const store::ShardedFleetView view = open_fixture(dir);
  const Retrainer retrainer(fixture_config(dir.path()));
  const std::int32_t now_day = 290;
  const ml::Dataset probe = retrainer.build_training_set(view, now_day);

  // Parallel path: whatever the shared pool is sized to on this host.
  const auto parallel_result = retrainer.retrain(now_day);
  ASSERT_TRUE(parallel_result.has_value());
  const std::vector<float> parallel_scores =
      parallel_result->model->predict_proba(probe.x);

  // Serial path: the whole retrain runs as a task of a 1-worker pool, so
  // every nested parallel loop degrades to sequential execution.
  parallel::ThreadPool serial(1);
  std::optional<RetrainResult> serial_result;
  parallel::TaskGroup group(serial);
  group.submit([&] { serial_result = retrainer.retrain(now_day); });
  group.wait();
  ASSERT_TRUE(serial_result.has_value());

  EXPECT_EQ(serial_result->rows, parallel_result->rows);
  EXPECT_EQ(serial_result->positives, parallel_result->positives);
  EXPECT_EQ(serial_result->model->predict_proba(probe.x), parallel_scores)
      << "retrained model must be bit-identical at every thread count";
}

TEST(Retrainer, MissingStoreReturnsNullopt) {
  Retrainer retrainer(fixture_config("/nonexistent/ssdfail-store"));
  EXPECT_FALSE(retrainer.retrain(290).has_value());
}

TEST(Retrainer, BelowMinimumsReturnsNullopt) {
  TempDir dir("retrainer_minimums");
  (void)open_fixture(dir);

  RetrainerConfig cfg = fixture_config(dir.path());
  cfg.min_rows = 1u << 20;
  EXPECT_FALSE(Retrainer(cfg).retrain(290).has_value());

  cfg = fixture_config(dir.path());
  cfg.min_positives = 1u << 20;
  EXPECT_FALSE(Retrainer(cfg).retrain(290).has_value());
}

TEST(Retrainer, RetrainReportsWindowAndShards) {
  TempDir dir("retrainer_result");
  const store::ShardedFleetView view = open_fixture(dir);
  const RetrainerConfig cfg = fixture_config(dir.path());
  // now = 170: the mature window ends at day 163, past most fixture swaps,
  // so the positives minimum is met.
  const auto result = Retrainer(cfg).retrain(170);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(result->model, nullptr);
  EXPECT_GE(result->positives, cfg.min_positives);
  EXPECT_EQ(result->window_end, 163);
  EXPECT_EQ(result->shards, view.shard_count());
  // The fitted challenger is a usable classifier over the training schema.
  const ml::Dataset probe = Retrainer(cfg).build_training_set(view, 170);
  EXPECT_EQ(result->model->predict_proba(probe.x).size(), probe.size());
  EXPECT_EQ(result->rows, probe.size());
}

}  // namespace
}  // namespace ssdfail::online
