#include "store/columnar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/fleet_simulator.hpp"
#include "store/crc32.hpp"
#include "trace/v2_fixture.hpp"

namespace ssdfail::store {
namespace {

trace::FleetTrace simulated_fleet(std::uint32_t drives_per_model = 12) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 77;
  return sim::FleetSimulator(cfg).generate_all();
}

/// A tiny hand-built fleet hitting the edge shapes: empty record lists,
/// swaps, all models, non-zero deploy days.
trace::FleetTrace tiny_fleet() {
  trace::FleetTrace fleet;
  for (std::uint32_t d = 0; d < 7; ++d) {
    trace::DriveHistory drive;
    drive.model = trace::kAllModels[d % trace::kNumModels];
    drive.drive_index = 100 + d;
    drive.deploy_day = static_cast<std::int32_t>(d);
    for (std::uint32_t day = 0; day < d * 3; ++day) {
      trace::DailyRecord r;
      r.day = drive.deploy_day + static_cast<std::int32_t>(day);
      r.reads = d * 1000 + day;
      r.writes = day * 7;
      r.erases = day % 5;
      r.pe_cycles = day * 2;
      r.bad_blocks = day / 4;
      r.factory_bad_blocks = static_cast<std::uint16_t>(d);
      r.read_only = day % 3 == 0;
      r.dead = day + 1 == d * 3 && d % 2 == 0;
      for (std::size_t e = 0; e < trace::kNumErrorTypes; ++e)
        r.errors[e] = static_cast<std::uint32_t>(day * 10 + e);
      drive.records.push_back(r);
    }
    if (d % 2 == 1) drive.swaps.push_back({drive.deploy_day + 2});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

std::vector<char> encode(const trace::FleetTrace& fleet, std::uint32_t chunk_drives) {
  std::ostringstream out(std::ios::binary);
  write_columnar(out, fleet, {chunk_drives});
  const std::string s = out.str();
  return {s.begin(), s.end()};
}

void expect_fleets_equal(const trace::FleetTrace& a, const trace::FleetTrace& b) {
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t d = 0; d < a.drives.size(); ++d) {
    const trace::DriveHistory& x = a.drives[d];
    const trace::DriveHistory& y = b.drives[d];
    ASSERT_EQ(x.uid(), y.uid());
    ASSERT_EQ(x.deploy_day, y.deploy_day);
    ASSERT_EQ(x.records.size(), y.records.size());
    for (std::size_t r = 0; r < x.records.size(); ++r)
      ASSERT_EQ(x.records[r], y.records[r]) << "drive " << d << " record " << r;
    ASSERT_EQ(x.swaps.size(), y.swaps.size());
    for (std::size_t s = 0; s < x.swaps.size(); ++s)
      ASSERT_EQ(x.swaps[s].day, y.swaps[s].day);
    EXPECT_FALSE(y.truth.has_value());  // ground truth never serialized
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "ssdf2_" + name + ".bin";
}

TEST(ColumnarStore, RoundTripsSimulatedFleet) {
  const trace::FleetTrace fleet = simulated_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 5));
  EXPECT_EQ(view.drive_count(), fleet.drives.size());
  EXPECT_EQ(view.total_records(), fleet.total_records());
  EXPECT_EQ(view.total_swaps(), fleet.total_swaps());
  expect_fleets_equal(fleet, materialize(view));
}

TEST(ColumnarStore, RoundTripsTinyFleetAtEveryChunkSize) {
  const trace::FleetTrace fleet = tiny_fleet();
  for (std::uint32_t chunk_drives : {1u, 2u, 3u, 7u, 64u}) {
    const auto view = ColumnarFleetView::from_buffer(encode(fleet, chunk_drives));
    expect_fleets_equal(fleet, materialize(view));
    EXPECT_EQ(view.chunk_drives(), chunk_drives);
    EXPECT_EQ(view.chunk_count(),
              (fleet.drives.size() + chunk_drives - 1) / chunk_drives);
  }
}

TEST(ColumnarStore, EmptyFleetRoundTrips) {
  const auto view = ColumnarFleetView::from_buffer(encode(trace::FleetTrace{}, 8));
  EXPECT_EQ(view.chunk_count(), 0u);
  EXPECT_EQ(view.drive_count(), 0u);
  EXPECT_EQ(view.total_records(), 0u);
  EXPECT_TRUE(materialize(view).drives.empty());
}

TEST(ColumnarStore, WriterTreatsZeroChunkDrivesAsOne) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 0));
  EXPECT_EQ(view.chunk_count(), fleet.drives.size());
  expect_fleets_equal(fleet, materialize(view));
}

TEST(ColumnarStore, DriveRefsMatchSourceOrderAndUids) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 3));
  std::size_t d = 0;
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const ChunkView& chunk = view.chunk(c);
    std::size_t expect_row = 0;
    for (const DriveRef& ref : chunk.drives) {
      EXPECT_EQ(ref.uid(), fleet.drives[d].uid());
      EXPECT_EQ(ref.row_begin, expect_row);
      EXPECT_EQ(ref.row_count, fleet.drives[d].records.size());
      expect_row += ref.row_count;
      ++d;
    }
    EXPECT_EQ(chunk.day.size(), expect_row);
  }
  EXPECT_EQ(d, fleet.drives.size());
}

TEST(ColumnarStore, GatherDriveReusesScratchVectors) {
  const trace::FleetTrace fleet = tiny_fleet();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 64));
  const ChunkView& chunk = view.chunk(0);
  trace::DriveHistory scratch;
  scratch.truth.emplace();  // must be cleared by gather
  for (std::size_t d = 0; d < fleet.drives.size(); ++d) {
    chunk.gather_drive(chunk.drives[d], scratch);
    EXPECT_FALSE(scratch.truth.has_value());
    ASSERT_EQ(scratch.records.size(), fleet.drives[d].records.size());
    for (std::size_t r = 0; r < scratch.records.size(); ++r)
      EXPECT_EQ(scratch.records[r], fleet.drives[d].records[r]);
  }
}

TEST(ColumnarStore, OpenIsMmapBackedAndMatchesHeapOpen) {
  const trace::FleetTrace fleet = simulated_fleet(6);
  const std::string path = temp_path("mmap_vs_heap");
  write_columnar_file(path, fleet.drives, {4});

  const auto mapped = ColumnarFleetView::open(path);
  OpenOptions no_mmap;
  no_mmap.allow_mmap = false;
  const auto heap = ColumnarFleetView::open(path, no_mmap);

#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.mmap_backed());
#endif
  EXPECT_FALSE(heap.mmap_backed());
  expect_fleets_equal(materialize(mapped), materialize(heap));
  expect_fleets_equal(fleet, materialize(mapped));
  std::remove(path.c_str());
}

TEST(ColumnarStore, ViewCopiesShareBackingAndOutliveTheOriginal) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<ColumnarFleetView> copies;
  {
    const auto view = ColumnarFleetView::from_buffer(encode(fleet, 2));
    copies.push_back(view);
    copies.push_back(view);
  }
  expect_fleets_equal(fleet, materialize(copies[0]));
  EXPECT_EQ(copies[1].chunk(0).day.data(), copies[0].chunk(0).day.data());
}

TEST(ColumnarStore, OpenMissingFileThrows) {
  EXPECT_THROW((void)ColumnarFleetView::open(temp_path("does_not_exist_xyz")),
               std::runtime_error);
}

TEST(ColumnarStore, DetectsCorruptionInEveryRegion) {
  const trace::FleetTrace fleet = tiny_fleet();
  const std::vector<char> good = encode(fleet, 3);
  // One probe byte in each structural region: header, chunk drive index,
  // column data, footer directory, trailer.
  const std::size_t probes[] = {5, 30, good.size() / 2, good.size() - 40,
                                good.size() - 4};
  for (const std::size_t pos : probes) {
    std::vector<char> bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(bad)),
                 std::runtime_error)
        << "flip at byte " << pos << " was not detected";
  }
}

TEST(ColumnarStore, CrcFailureIncrementsCounter) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<char> bad = encode(fleet, 64);
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 1);
  auto& counter = obs::MetricsRegistry::global().counter("store_crc_failures_total");
  const std::uint64_t before = counter.value();
  EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(bad)),
               std::runtime_error);
  EXPECT_GT(counter.value(), before);
}

TEST(ColumnarStore, VerifyCrcOffSkipsColumnChecks) {
  const trace::FleetTrace fleet = tiny_fleet();
  std::vector<char> good = encode(fleet, 64);
  // Flip one column byte far from the structural metadata: with CRC
  // verification off the open succeeds and the corruption is silent —
  // exactly the trade the OpenOptions comment documents.
  std::vector<char> bad = good;
  const std::size_t pos = good.size() / 2;
  bad[pos] = static_cast<char>(bad[pos] ^ 1);
  OpenOptions trusting;
  trusting.verify_crc = false;
  const auto view = ColumnarFleetView::from_buffer(std::move(bad), trusting);
  EXPECT_EQ(view.drive_count(), fleet.drives.size());
}

TEST(ColumnarStore, EveryTruncationThrows) {
  const trace::FleetTrace fleet = tiny_fleet();
  const std::vector<char> good = encode(fleet, 3);
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<char> prefix(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)ColumnarFleetView::from_buffer(std::move(prefix)),
                 std::runtime_error)
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST(ColumnarStore, ChunksReadCounterAdvances) {
  // One count per chunk parsed.  v3 chunks are parsed when first decoded,
  // not at open; v2 columns (the committed fixture) are parsed at open.
  const trace::FleetTrace fleet = tiny_fleet();
  auto& counter = obs::MetricsRegistry::global().counter("store_chunks_read_total");
  std::uint64_t before = counter.value();
  const auto view = ColumnarFleetView::from_buffer(encode(fleet, 2));
  EXPECT_EQ(counter.value(), before);
  for (std::size_t c = 0; c < view.chunk_count(); ++c) (void)view.chunk(c);
  EXPECT_EQ(counter.value() - before, view.chunk_count());

  before = counter.value();
  const auto v2 = ColumnarFleetView::from_buffer(trace::testing::v2_fixture_bytes());
  EXPECT_EQ(counter.value() - before, v2.chunk_count());
}

/// Every record and swap of a chunk, gathered row by row.
std::vector<trace::DailyRecord> rows_of(const ChunkView& chunk) {
  std::vector<trace::DailyRecord> rows;
  for (std::size_t r = 0; r < chunk.day.size(); ++r) rows.push_back(chunk.record(r));
  return rows;
}

/// The records and swap days of drives [first, first + count) of `fleet`,
/// in storage order: what one chunk of that many drives must hold.
std::vector<trace::DailyRecord> source_rows(const trace::FleetTrace& fleet, std::size_t first,
                                            std::size_t count) {
  std::vector<trace::DailyRecord> rows;
  for (std::size_t d = first; d < std::min(first + count, fleet.drives.size()); ++d)
    rows.insert(rows.end(), fleet.drives[d].records.begin(), fleet.drives[d].records.end());
  return rows;
}

std::vector<std::int32_t> source_swaps(const trace::FleetTrace& fleet, std::size_t first,
                                       std::size_t count) {
  std::vector<std::int32_t> swaps;
  for (std::size_t d = first; d < std::min(first + count, fleet.drives.size()); ++d)
    for (const trace::SwapEvent& s : fleet.drives[d].swaps) swaps.push_back(s.day);
  return swaps;
}

TEST(ColumnarStore, ScanChunkMatchesCachedChunkAndRecyclesScratch) {
  const trace::FleetTrace fleet = simulated_fleet();
  auto& decodes = obs::MetricsRegistry::global().counter("store_chunks_read_total");
  ChunkScratch scratch;  // one target for every chunk of every view below
  // 64 drives per chunk decode to several MiB (a mapped buffer); 5 to a
  // small heap block.
  for (const std::uint32_t chunk_drives : {64u, 5u}) {
    const auto view = ColumnarFleetView::from_buffer(encode(fleet, chunk_drives));
    for (std::size_t c = 0; c < view.chunk_count(); ++c) {
      const std::size_t first = c * chunk_drives;
      const std::uint64_t before = decodes.value();
      const ChunkView& scanned = view.scan_chunk(c, scratch);
      EXPECT_EQ(decodes.value() - before, 1u);
      const std::vector<trace::DailyRecord> rows = rows_of(scanned);
      const std::vector<std::int32_t> swaps(scanned.swap_days.begin(),
                                            scanned.swap_days.end());
      EXPECT_EQ(scanned.drives.size(),
                std::min<std::size_t>(chunk_drives, fleet.drives.size() - first));
      EXPECT_EQ(rows, source_rows(fleet, first, chunk_drives)) << "chunk " << c;
      EXPECT_EQ(swaps, source_swaps(fleet, first, chunk_drives)) << "chunk " << c;

      // Once chunk() has cached a chunk, scans reuse the cache.
      const ChunkView& cached = view.chunk(c);
      EXPECT_EQ(rows, rows_of(cached)) << "chunk " << c;
      const std::uint64_t cached_decodes = decodes.value();
      EXPECT_EQ(&view.scan_chunk(c, scratch), &cached);
      EXPECT_EQ(decodes.value(), cached_decodes);
    }
  }
}

// --- The v2 reader, pinned by the committed fixture (no v2 writer). ---

/// File offset of the fixture's first column (chunk 0's day column): the
/// 16-byte file header, the 24-byte chunk header, then one 48-byte drive
/// index entry per drive (already 8-aligned).
constexpr std::size_t kV2FirstColumnAt = 16 + 24 + 3 * 48;

/// The fixture through every open path: mmap, heap, in-memory buffer.
std::vector<ColumnarFleetView> v2_fixture_views(const OpenOptions& base = {}) {
  OpenOptions heap = base;
  heap.allow_mmap = false;
  return {ColumnarFleetView::open(trace::testing::v2_fixture_path(), base),
          ColumnarFleetView::open(trace::testing::v2_fixture_path(), heap),
          ColumnarFleetView::from_buffer(trace::testing::v2_fixture_bytes(), base)};
}

/// Every column span of every chunk, as (first byte, byte length).
std::vector<std::span<const char>> column_bytes(const ColumnarFleetView& view) {
  std::vector<std::span<const char>> out;
  const auto add = [&](auto column) {
    out.emplace_back(reinterpret_cast<const char*>(column.data()), column.size_bytes());
  };
  for (std::size_t c = 0; c < view.chunk_count(); ++c) {
    const ChunkView& k = view.chunk(c);
    add(k.day);
    add(k.reads);
    add(k.writes);
    add(k.erases);
    add(k.pe_cycles);
    add(k.bad_blocks);
    add(k.factory_bad_blocks);
    add(k.flags);
    for (const auto& e : k.errors) add(e);
    add(k.reallocated_sectors);
    add(k.seek_errors);
    add(k.media_wear);
    add(k.throttle_events);
    add(k.swap_days);
  }
  return out;
}

TEST(ColumnarStore, V2FixtureColumnsAreZeroCopyViewsOfTheFile) {
  const std::vector<char> file = trace::testing::v2_fixture_bytes();
  const std::vector<ColumnarFleetView> views = v2_fixture_views();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(views[0].mmap_backed());
#endif
  EXPECT_FALSE(views[1].mmap_backed());
  for (const ColumnarFleetView& view : views) {
    EXPECT_EQ(view.version(), kColumnarVersion);
    ASSERT_EQ(view.chunk_count(), 2u);
    // Every span lies inside one file-sized image, 8-aligned, and reads
    // the file's own bytes at its offset: the columns are the backing
    // bytes, not a decoded copy.
    const char* base = reinterpret_cast<const char*>(view.chunk(0).day.data()) -
                       kV2FirstColumnAt;
    for (const std::span<const char> col : column_bytes(view)) {
      if (col.empty()) continue;
      const std::ptrdiff_t at = col.data() - base;
      ASSERT_GE(at, static_cast<std::ptrdiff_t>(kV2FirstColumnAt));
      ASSERT_LE(static_cast<std::size_t>(at) + col.size(), file.size());
      EXPECT_EQ(at % 8, 0);
      EXPECT_TRUE(std::equal(col.begin(), col.end(), file.begin() + at));
    }
  }
  // The in-memory image is adopted, not copied.
  std::vector<char> bytes = trace::testing::v2_fixture_bytes();
  const char* data = bytes.data();
  const auto adopted = ColumnarFleetView::from_buffer(std::move(bytes));
  EXPECT_EQ(reinterpret_cast<const char*>(adopted.chunk(0).day.data()),
            data + kV2FirstColumnAt);
}

TEST(ColumnarStore, V2FixtureFlippedColumnByteReadsAsDataWithoutCrc) {
  // v2 columns are raw: with chunk CRCs off, a flipped column byte is not
  // detected; it is read back as a different value.  With CRCs on (the
  // default) the same image is rejected.
  const std::vector<char> good = trace::testing::v2_fixture_bytes();
  std::vector<char> bad = good;
  bad[kV2FirstColumnAt] = static_cast<char>(bad[kV2FirstColumnAt] ^ 1);
  EXPECT_THROW((void)ColumnarFleetView::from_buffer(bad), std::runtime_error);

  OpenOptions trusting;
  trusting.verify_crc = false;
  const auto intact = ColumnarFleetView::from_buffer(good, trusting);
  const auto flipped = ColumnarFleetView::from_buffer(bad, trusting);
  ASSERT_FALSE(flipped.chunk(0).day.empty());
  EXPECT_EQ(flipped.chunk(0).day[0], intact.chunk(0).day[0] ^ 1);
  const trace::FleetTrace a = materialize(intact);
  const trace::FleetTrace b = materialize(flipped);
  std::size_t differing = 0;
  for (std::size_t d = 0; d < a.drives.size(); ++d)
    for (std::size_t r = 0; r < a.drives[d].records.size(); ++r)
      differing += a.drives[d].records[r] == b.drives[d].records[r] ? 0 : 1;
  EXPECT_EQ(differing, 1u);
}

TEST(ColumnarStore, V2FixtureScanChunkReturnsTheMappedView) {
  // v2 columns point into the file: scanning never decodes, and returns
  // the same view chunk() does, whatever the scratch.
  auto& decodes = obs::MetricsRegistry::global().counter("store_chunks_read_total");
  ChunkScratch scratch;
  for (const ColumnarFleetView& view : v2_fixture_views()) {
    const std::uint64_t before = decodes.value();
    for (std::size_t c = 0; c < view.chunk_count(); ++c)
      EXPECT_EQ(&view.scan_chunk(c, scratch), &view.chunk(c)) << "chunk " << c;
    EXPECT_EQ(decodes.value(), before);
  }
}

// ---- Pinned bytes ---------------------------------------------------------
//
// FNV-1a digests of the v3 file bytes, captured from the serial writer that
// encoded every chunk on the calling thread.  Chunks are now encoded on the
// pool and appended in chunk order, so the bytes must not depend on the
// pool size, on which worker encoded which chunk, or on the order chunks
// finished in.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t written_digest(std::span<const trace::DriveHistory> drives,
                             std::uint32_t chunk_drives, parallel::ThreadPool& pool) {
  std::ostringstream out(std::ios::binary);
  write_columnar(out, drives, {chunk_drives}, pool);
  return fnv1a(out.str());
}

/// 40 drives of every model over the full six-year window.
const trace::FleetTrace& long_mixed_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 8;
    cfg.seed = 1717;
    return sim::FleetSimulator(cfg.mixed()).generate_all();
  }();
  return fleet;
}

/// 300 drives of every model over 400 days: several chunks even at 256.
const trace::FleetTrace& wide_mixed_fleet() {
  static const trace::FleetTrace fleet = [] {
    sim::FleetConfig cfg;
    cfg.drives_per_model = 60;
    cfg.window_days = 400;
    cfg.seed = 4242;
    return sim::FleetSimulator(cfg.mixed()).generate_all();
  }();
  return fleet;
}

struct BytePin {
  std::uint32_t chunk_drives;
  std::uint64_t digest;
};

constexpr BytePin kLongMixedPins[] = {
    {1, 0x57677237deb8fb39ull},
    {7, 0xc1a67f087d12d2bcull},
    {64, 0x5a7edf5fc938edc5ull},
    {256, 0xfa78b6b9895b3726ull},
};
constexpr BytePin kWideMixedPins[] = {
    {1, 0x7ccaaec2f703abb9ull},
    {7, 0x5582c0ae3a12ba14ull},
    {64, 0x6ca5c542d7924591ull},
    {256, 0xd7920335c7e5b140ull},
};

void expect_pinned_at_every_pool_size(const trace::FleetTrace& fleet,
                                      std::span<const BytePin> pins) {
  parallel::ThreadPool serial(1);
  parallel::ThreadPool pair(2);
  for (const BytePin& pin : pins) {
    SCOPED_TRACE("chunk_drives " + std::to_string(pin.chunk_drives));
    EXPECT_EQ(written_digest(fleet.drives, pin.chunk_drives, serial), pin.digest);
    EXPECT_EQ(written_digest(fleet.drives, pin.chunk_drives, pair), pin.digest);
    // N workers: the shared pool, whatever this host sizes it to.
    EXPECT_EQ(written_digest(fleet.drives, pin.chunk_drives, parallel::ThreadPool::global()),
              pin.digest);
  }
}

TEST(ColumnarStore, PinnedLongMixedFleetBytesAtEveryChunkAndPoolSize) {
  expect_pinned_at_every_pool_size(long_mixed_fleet(), kLongMixedPins);
}

TEST(ColumnarStore, PinnedWideMixedFleetBytesAtEveryChunkAndPoolSize) {
  expect_pinned_at_every_pool_size(wide_mixed_fleet(), kWideMixedPins);
}

TEST(ColumnarStore, PinnedBytesForAnEmptyFleetAndASingleChunk) {
  // No chunks: header, empty directory, footer, trailer.
  constexpr BytePin kEmpty[] = {{8, 0x4c2289cd0df71550ull}};
  expect_pinned_at_every_pool_size(trace::FleetTrace{}, kEmpty);
  // Seven drives in one chunk: nothing to hand to a second worker.
  constexpr BytePin kOneChunk[] = {{64, 0x14eabc948457734eull}};
  expect_pinned_at_every_pool_size(tiny_fleet(), kOneChunk);
}

TEST(ColumnarStore, FewerChunksThanWorkersKeepsPinnedBytes) {
  // 300 drives at 128 per chunk: three chunks for four workers.
  parallel::ThreadPool pool(4);
  EXPECT_EQ(written_digest(wide_mixed_fleet().drives, 128, pool), 0x9c7619e77fdb8000ull);
}

TEST(ColumnarStore, WriteStartedInsidePoolTaskRunsInlineWithPinnedBytes) {
  // A write from a pool task defaults to that pool and, being on one of
  // its workers, encodes inline on the calling thread.
  parallel::ThreadPool pool(2);
  for (const BytePin& pin : kWideMixedPins) {
    std::uint64_t digest = 0;
    parallel::TaskGroup group(pool);
    group.submit([&] {
      std::ostringstream out(std::ios::binary);
      write_columnar(out, wide_mixed_fleet(), {pin.chunk_drives});
      digest = fnv1a(out.str());
    });
    group.wait();
    EXPECT_EQ(digest, pin.digest) << "chunk_drives " << pin.chunk_drives;
  }
}

TEST(AnonymousMemory, HeapAndMappedBlocksAreWritableAndMove) {
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{100}, 3 * AnonymousMemory::kMinMappedBytes + 5}) {
    AnonymousMemory block(bytes);
    ASSERT_EQ(block.size(), bytes);
    EXPECT_EQ(block.data() == nullptr, bytes == 0);
    for (std::size_t i = 0; i < bytes; ++i) block.data()[i] = static_cast<std::byte>(i * 7);
    std::byte* const data = block.data();
    AnonymousMemory moved(std::move(block));
    EXPECT_EQ(moved.data(), data);
    EXPECT_EQ(block.data(), nullptr);  // NOLINT(bugprone-use-after-move): pinned state
    AnonymousMemory assigned;
    assigned = std::move(moved);
    ASSERT_EQ(assigned.size(), bytes);
    for (std::size_t i = 0; i < bytes; ++i)
      ASSERT_EQ(assigned.data()[i], static_cast<std::byte>(i * 7)) << "byte " << i;
  }
}

TEST(Crc32, MatchesKnownVectorAndChains) {
  // The standard IEEE test vector: crc32("123456789") == 0xCBF43926.
  const char data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(0, {data, sizeof(data)}), 0xCBF43926u);
  // zlib-style chaining: crc(a ++ b) == crc(crc(a), b).
  EXPECT_EQ(crc32(crc32(0, {data, 4}), {data + 4, sizeof(data) - 4}),
            crc32(0, {data, sizeof(data)}));
}

/// Bitwise reference CRC-32 (reflected 0xEDB88320), one bit per step: no
/// tables, nothing shared with the sliced implementation under test.
std::uint32_t reference_crc32(std::uint32_t crc, const char* p, std::size_t n) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= static_cast<std::uint8_t>(p[i]);
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthOffsetAndSplit) {
  // Every length 0..300 at every start offset 0..15 walks the alignment
  // prologue, the 16-byte step, the single 8-byte step and the byte tail
  // in every combination; every split point checks that chaining through
  // any of those boundaries matches one pass.
  constexpr std::size_t kMaxLen = 300;
  constexpr std::size_t kOffsets = 16;
  std::vector<char> buffer(kMaxLen + kOffsets);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (char& b : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<char>(state >> 56);
  }
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const char* p = buffer.data() + offset;
      const std::uint32_t expected = reference_crc32(0, p, len);
      ASSERT_EQ(crc32(0, {p, len}), expected) << "offset " << offset << " len " << len;
      for (std::size_t split = 0; split <= len; ++split)
        ASSERT_EQ(crc32(crc32(0, {p, split}), {p + split, len - split}), expected)
            << "offset " << offset << " len " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace ssdfail::store
