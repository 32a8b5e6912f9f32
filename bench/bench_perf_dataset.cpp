// Dataset-build throughput: columnar (SSDF2 v3, compressed) vs row (v1).
//
// Both pipelines are measured end-to-end from serialized bytes on disk to
// a finished ml::Dataset:
//
//   columnar:  ColumnarFleetView::open (mmap)
//                -> chunk-parallel build_dataset (each worker decodes its
//                   chunks' column frames into a recycled scan scratch)
//   row v1:    read_binary (materialize the whole FleetTrace on the heap)
//                -> sequential build_dataset
//
// Fairness: the v1 row path performs ZERO integrity checking, so the
// headline columnar bench opens with verify_crc=false to compare equal
// work.  The cost of full CRC verification is pinned separately, twice:
// BM_DatasetBuildColumnarV3Verified (end-to-end with verification, the
// recommended production configuration) and BM_StageOpenColumnar/1 (the
// verify-only delta).
//
// Arg on the columnar bench = chunk_drives, sweeping around the store
// default (store::kDefaultChunkDrives = 256).  The end-to-end benches are
// registered FIRST (registration order is run order) so their RssAnon
// counters are not polluted by heap high-water marks left by the stage
// benches that materialize the whole fleet.
//
// Reported counters (JSON digest):
//   drive_days/s          ingest throughput (records consumed per second)
//   rows                  dataset rows produced per iteration
//   transient_heap_bytes  analytic working-set bound for fleet bytes:
//                         whole-fleet materialization (row) vs one
//                         gather scratch per chunk worker (columnar)
//   rss_anon_peak_bytes   max RssAnon observed after a build (Linux);
//                         file-backed mmap pages are excluded, which is
//                         exactly the columnar store's memory story
//   bytes_per_row         on-disk file bytes / total drive-day records —
//                         the storage-density axis of the v3-vs-row gate
//   scan_gb/s             on-disk bytes consumed per second of build time
//   store_* counters      CRC/chunk/mmap telemetry via RegistryDelta
//
// CI runs the v3/row pair and fails if v3 bytes_per_row exceeds 0.6x the
// row file's or if the v3 build rate drops below 1.5x the row path (the
// dataset-bench-gate job in .github/workflows/ci.yml).
//
// Correctness is asserted in-harness: every configuration's dataset must
// produce the same column-sum digest (SkipWithError otherwise), so a
// speedup can never come from silently building a different dataset.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "bench_metrics.hpp"
#include "core/dataset_builder.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/columnar.hpp"
#include "trace/binary_io.hpp"

namespace {

using namespace ssdfail;

constexpr std::uint32_t kDrivesPerModel = 120;
constexpr std::uint64_t kFleetSeed = 8086;

core::DatasetBuildOptions build_options() {
  core::DatasetBuildOptions opts;
  opts.lookahead_days = 7;
  opts.negative_keep_prob = 0.05;
  return opts;
}

/// The fixture files' directory: one per process, so concurrent runs never
/// share files, and removed with everything in it at normal exit (static
/// destruction after main returns).
struct FixtureDir {
  std::filesystem::path path = std::filesystem::temp_directory_path() /
                               ("ssdfail_bench_dataset_" + std::to_string(::getpid()));
  FixtureDir() { std::filesystem::create_directories(path); }
  ~FixtureDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  FixtureDir(const FixtureDir&) = delete;
  FixtureDir& operator=(const FixtureDir&) = delete;
};

/// One-time fixture: simulate the fleet, serialize both formats to temp
/// files, and capture the shape numbers the analytic counters need.  The
/// FleetTrace itself is dropped before any measurement loop runs.
struct Files {
  std::string v1_path;
  std::string dir;  // one v3 file per chunk size
  std::uint64_t total_records = 0;
  std::uint64_t max_drive_records = 0;
  std::size_t n_drives = 0;
};

const Files& files() {
  static const FixtureDir fixture_dir;
  static const Files f = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = kDrivesPerModel;
    cfg.seed = kFleetSeed;
    cfg.keep_ground_truth = false;
    const trace::FleetTrace fleet = sim::FleetSimulator(cfg).generate_all();

    Files out;
    const std::filesystem::path& dir = fixture_dir.path;
    out.v1_path = (dir / "fleet_v1.bin").string();
    out.dir = dir.string();
    {
      std::ofstream v1(out.v1_path, std::ios::binary | std::ios::trunc);
      trace::write_binary(v1, fleet);
    }
    for (const std::uint32_t chunk : {16u, 64u, store::kDefaultChunkDrives, 1024u}) {
      std::ofstream v3(dir / ("fleet_v3_" + std::to_string(chunk) + ".bin"),
                       std::ios::binary | std::ios::trunc);
      trace::write_binary_v3(v3, fleet, chunk);
    }
    out.total_records = fleet.total_records();
    out.n_drives = fleet.drives.size();
    for (const auto& d : fleet.drives)
      out.max_drive_records = std::max<std::uint64_t>(out.max_drive_records,
                                                      d.records.size());
    return out;
  }();
  return f;
}

std::string v3_path(std::uint32_t chunk) {
  return files().dir + "/fleet_v3_" + std::to_string(chunk) + ".bin";
}

/// Column-sum digest in fixed row order: bit-identical builds agree
/// exactly, so this is the cross-configuration correctness oracle.
std::vector<double> digest(const ml::Dataset& data) {
  std::vector<double> sums(data.x.cols() + 2, 0.0);
  sums[0] = static_cast<double>(data.size());
  sums[1] = static_cast<double>(data.positives());
  for (std::size_t r = 0; r < data.x.rows(); ++r)
    for (std::size_t c = 0; c < data.x.cols(); ++c)
      sums[2 + c] += data.x(r, c);
  return sums;
}

/// The digest every configuration must reproduce.  Seeded by the first
/// bench to finish a build (columnar, by registration order); every later
/// configuration — including the row path — is checked against it.
std::vector<double>& reference_digest() {
  static std::vector<double> ref;
  return ref;
}

bool check_digest(benchmark::State& state, const ml::Dataset& data) {
  const std::vector<double> d = digest(data);
  if (reference_digest().empty()) {
    reference_digest() = d;
    return true;
  }
  if (d != reference_digest()) {
    state.SkipWithError("dataset digest mismatch: this configuration built "
                        "different data than the reference build");
    return false;
  }
  return true;
}

/// RssAnon from /proc/self/status in bytes (0 where unsupported).
/// Anonymous RSS deliberately excludes file-backed mmap pages — the
/// columnar store's fleet bytes live there, the row path's do not.
std::uint64_t rss_anon_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "RssAnon:") {
      std::uint64_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
#endif
  return 0;
}

void export_common(benchmark::State& state, std::uint64_t records,
                   std::uint64_t transient_heap_bytes, std::uint64_t rss_peak,
                   std::size_t rows) {
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["drive_days/s"] =
      benchmark::Counter(static_cast<double>(records), benchmark::Counter::kIsRate);
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows));
  state.counters["transient_heap_bytes"] =
      benchmark::Counter(static_cast<double>(transient_heap_bytes));
  state.counters["rss_anon_peak_bytes"] =
      benchmark::Counter(static_cast<double>(rss_peak));
}

/// Storage-density and scan-rate counters for a bench that consumes one
/// on-disk file per iteration: bytes_per_row is the file's footprint per
/// drive-day record, scan_gb/s the on-disk bytes digested per second of
/// end-to-end build time.  These are the two axes the dataset-bench-gate
/// CI job compares across v3 / row builds.
void export_storage(benchmark::State& state, const std::string& path) {
  const auto file_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  state.counters["bytes_per_row"] = benchmark::Counter(
      file_bytes / static_cast<double>(files().total_records));
  state.counters["scan_gb/s"] = benchmark::Counter(
      file_bytes * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

// --- End-to-end: bytes on disk -> finished dataset. -----------------------

void run_columnar_build(benchmark::State& state, const std::string& path,
                        bool verify_crc) {
  const core::DatasetBuildOptions opts = build_options();
  std::uint64_t records = 0;
  std::uint64_t rss_peak = 0;
  std::size_t rows = 0;
  const bench::RegistryDelta obs_delta;
  for (auto _ : state) {
    store::OpenOptions open_opts;
    open_opts.verify_crc = verify_crc;
    const auto view = store::ColumnarFleetView::open(path, open_opts);
    const ml::Dataset data = core::build_dataset(view, opts);
    benchmark::DoNotOptimize(data.y.data());
    rss_peak = std::max(rss_peak, rss_anon_bytes());
    records += view.total_records();
    rows = data.size();
    if (!check_digest(state, data)) return;
  }
  // Fleet bytes never hit the heap as row structs: the per-worker
  // transient is one drive's gather scratch (sizeof(DailyRecord) is the
  // dominant term).
  const std::uint64_t transient =
      files().max_drive_records * sizeof(trace::DailyRecord);
  export_common(state, records, transient, rss_peak, rows);
  export_storage(state, path);
  obs_delta.export_into(state, "store_");
}

/// Headline: integrity checking off to match the v1 row path, which has
/// none (see the file header for where the verified cost is pinned).  The
/// digest check pins the decode path bit-identical to the row path.
void BM_DatasetBuildColumnarV3(benchmark::State& state) {
  run_columnar_build(state, v3_path(static_cast<std::uint32_t>(state.range(0))),
                     /*verify_crc=*/false);
}
BENCHMARK(BM_DatasetBuildColumnarV3)
    ->Arg(16)
    ->Arg(64)
    ->Arg(store::kDefaultChunkDrives)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// Production configuration: every chunk CRC + the footer CRC verified at
/// open, before any column is trusted.
void BM_DatasetBuildColumnarV3Verified(benchmark::State& state) {
  run_columnar_build(state, v3_path(store::kDefaultChunkDrives),
                     /*verify_crc=*/true);
}
BENCHMARK(BM_DatasetBuildColumnarV3Verified)->Unit(benchmark::kMillisecond);

void BM_DatasetBuildRowV1(benchmark::State& state) {
  const core::DatasetBuildOptions opts = build_options();
  std::uint64_t records = 0;
  std::uint64_t rss_peak = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    std::ifstream in(files().v1_path, std::ios::binary);
    const trace::FleetTrace fleet = trace::read_binary(in);
    const ml::Dataset data = core::build_dataset(fleet, opts);
    benchmark::DoNotOptimize(data.y.data());
    rss_peak = std::max(rss_peak, rss_anon_bytes());
    records += fleet.total_records();
    rows = data.size();
    if (!check_digest(state, data)) return;
  }
  // The row path materializes every record on the heap before building.
  const std::uint64_t transient =
      files().total_records * sizeof(trace::DailyRecord);
  export_common(state, records, transient, rss_peak, rows);
  export_storage(state, files().v1_path);
}
BENCHMARK(BM_DatasetBuildRowV1)->Unit(benchmark::kMillisecond);

// --- Stage decomposition: where the end-to-end time goes. -----------------
// Registered after the end-to-end benches: BM_StageReadRowV1 and
// BM_StageBuildFromMaterialized hold a whole materialized fleet, which
// would inflate every later bench's RssAnon reading.

void BM_StageOpenColumnar(benchmark::State& state) {
  const std::string path = v3_path(store::kDefaultChunkDrives);
  const bool verify = state.range(0) != 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    store::OpenOptions o;
    o.verify_crc = verify;
    const auto view = store::ColumnarFleetView::open(path, o);
    benchmark::DoNotOptimize(view.total_records());
    records += view.total_records();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StageOpenColumnar)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_StageReadRowV1(benchmark::State& state) {
  std::uint64_t records = 0;
  for (auto _ : state) {
    std::ifstream in(files().v1_path, std::ios::binary);
    const trace::FleetTrace fleet = trace::read_binary(in);
    benchmark::DoNotOptimize(fleet.drives.data());
    records += fleet.total_records();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StageReadRowV1)->Unit(benchmark::kMillisecond);

void BM_StageBuildFromMaterialized(benchmark::State& state) {
  std::ifstream in(files().v1_path, std::ios::binary);
  const trace::FleetTrace fleet = trace::read_binary(in);
  const core::DatasetBuildOptions opts = build_options();
  std::uint64_t records = 0;
  for (auto _ : state) {
    const ml::Dataset data = core::build_dataset(fleet, opts);
    benchmark::DoNotOptimize(data.y.data());
    records += fleet.total_records();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StageBuildFromMaterialized)->Unit(benchmark::kMillisecond);

void BM_StageBuildFromOpenView(benchmark::State& state) {
  const auto view = store::ColumnarFleetView::open(v3_path(store::kDefaultChunkDrives));
  const core::DatasetBuildOptions opts = build_options();
  std::uint64_t records = 0;
  for (auto _ : state) {
    const ml::Dataset data = core::build_dataset(view, opts);
    benchmark::DoNotOptimize(data.y.data());
    records += view.total_records();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_StageBuildFromOpenView)->Unit(benchmark::kMillisecond);

}  // namespace

SSDFAIL_BENCH_MAIN();
