// Property/fuzz suite for the binary trace formats (v1 row, v2 columnar,
// v3 compressed columnar).  v1 and v3 images come from the writers; v2 is
// read-only, so its image is the committed fixture (trace/v2_fixture.hpp).
//
// Three guarantees, exercised byte by byte (this binary also runs under
// the CI AddressSanitizer job, which is what turns "no crash" into a real
// memory-safety check):
//
//   1. Round-trip: random fleets of every shape serialize and parse back
//      field-for-field exact, in both written formats; the v2 fixture
//      parses back to the fleet it encodes.
//   2. Truncation: EVERY prefix of a valid file raises a clean
//      std::runtime_error — never a crash, hang, or silent short fleet.
//   3. Corruption: for v2 and v3, EVERY single-bit flip raises
//      std::runtime_error (CRC32 detects all single-bit errors; structural
//      fields are covered by the footer CRC, alignment, frame reserved-zero
//      words, and range checks).  v1 carries no
//      redundancy, so a flipped payload byte CAN parse as different data;
//      the guarantee there is weaker and explicit: parse or clean throw,
//      never undefined behavior.
//   4. Decoders without the CRC net: v3 images opened with chunk CRC
//      verification off, truncated and bit-flipped, reach the column
//      decoders.  Both decode targets — the cached chunk(c) and the
//      recycled scratch of scan_chunk (the dataset build's path) — must
//      agree: a clean throw from both, or identical columns from both.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stats/rng.hpp"
#include "store/columnar.hpp"
#include "store/crc32.hpp"
#include "trace/binary_io.hpp"
#include "trace/v2_fixture.hpp"

namespace ssdfail::trace {
namespace {

using testing::random_fleet;
using testing::sweep_fleet;

void expect_exact(const FleetTrace& a, const FleetTrace& b) {
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t d = 0; d < a.drives.size(); ++d) {
    ASSERT_EQ(a.drives[d].uid(), b.drives[d].uid());
    ASSERT_EQ(a.drives[d].deploy_day, b.drives[d].deploy_day);
    ASSERT_EQ(a.drives[d].records.size(), b.drives[d].records.size());
    for (std::size_t r = 0; r < a.drives[d].records.size(); ++r)
      ASSERT_EQ(a.drives[d].records[r], b.drives[d].records[r]);
    ASSERT_EQ(a.drives[d].swaps.size(), b.drives[d].swaps.size());
    for (std::size_t s = 0; s < a.drives[d].swaps.size(); ++s)
      ASSERT_EQ(a.drives[d].swaps[s].day, b.drives[d].swaps[s].day);
  }
}

enum class Version { kV1, kV2, kV3 };

const char* version_name(Version v) {
  switch (v) {
    case Version::kV1: return "v1";
    case Version::kV2: return "v2";
    default: return "v3";
  }
}

/// `fleet` as a v1 or v3 image.  Nothing writes v2: its image is the
/// committed fixture, which is only ever sweep_fleet() (sweep_image).
std::string encode(const FleetTrace& fleet, Version version) {
  std::ostringstream out(std::ios::binary);
  if (version == Version::kV1) {
    write_binary(out, fleet);
  } else {
    write_binary_v3(out, fleet, 3);  // small chunks: exercise multi-chunk layout
  }
  return out.str();
}

/// sweep_fleet() as an image of `version`.
std::string sweep_image(Version version) {
  if (version != Version::kV2) return encode(sweep_fleet(), version);
  const std::vector<char> bytes = testing::v2_fixture_bytes();
  return {bytes.begin(), bytes.end()};
}

FleetTrace decode(const std::string& bytes) {
  std::istringstream in(bytes);
  return read_binary(in);
}

TEST(BinaryIoFuzz, RandomFleetsRoundTripAllVersions) {
  stats::Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    const FleetTrace fleet = random_fleet(rng);
    expect_exact(fleet, decode(encode(fleet, Version::kV1)));
    expect_exact(fleet, decode(encode(fleet, Version::kV3)));
  }
}

TEST(BinaryIoFuzz, V2FixtureDecodesToSweepFleet) {
  // The committed v2 image decodes field for field to the fleet it was
  // written from, through read_binary and through the columnar view over
  // every backing: mmap, heap, and an in-memory buffer.
  const FleetTrace fleet = sweep_fleet();
  const std::string image = sweep_image(Version::kV2);
  ASSERT_EQ(image.size(), 6160u);
  {
    std::istringstream in(image);
    EXPECT_EQ(peek_binary_version(in), kColumnarFormatVersion);
  }
  expect_exact(fleet, decode(image));

  store::OpenOptions heap;
  heap.allow_mmap = false;
  for (const store::ColumnarFleetView& view :
       {store::ColumnarFleetView::open(testing::v2_fixture_path()),
        store::ColumnarFleetView::open(testing::v2_fixture_path(), heap),
        store::ColumnarFleetView::from_buffer({image.begin(), image.end()})}) {
    EXPECT_EQ(view.version(), store::kColumnarVersion);
    EXPECT_EQ(view.chunk_drives(), testing::kV2FixtureChunkDrives);
    EXPECT_EQ(view.chunk_count(), 2u);
    EXPECT_EQ(view.drive_count(), 6u);
    EXPECT_EQ(view.total_records(), 67u);
    EXPECT_EQ(view.total_swaps(), 10u);
    expect_exact(fleet, store::materialize(view));
  }
}

TEST(BinaryIoFuzz, ColumnarEncodingIsDeterministic) {
  stats::Rng rng(7);
  const FleetTrace fleet = random_fleet(rng);
  EXPECT_EQ(encode(fleet, Version::kV3), encode(fleet, Version::kV3));
}

TEST(BinaryIoFuzz, WritingV2Throws) {
  // v3 is the only columnar format written: every other version is
  // rejected before a byte reaches the stream, by the store writer and by
  // convert_binary.
  const FleetTrace fleet = sweep_fleet();
  for (const std::uint32_t version : {0u, 1u, 2u, 4u}) {
    std::ostringstream out(std::ios::binary);
    store::ColumnarWriteOptions options;
    options.version = version;
    EXPECT_THROW(store::write_columnar(out, fleet, options), std::runtime_error)
        << "version " << version;
    EXPECT_TRUE(out.str().empty()) << "version " << version;
  }
  std::istringstream in(encode(fleet, Version::kV1));
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(convert_binary(in, out, kColumnarFormatVersion), std::runtime_error);
  EXPECT_TRUE(out.str().empty());
}

TEST(BinaryIoFuzz, EveryTruncationThrowsCleanly) {
  for (const Version version : {Version::kV1, Version::kV2, Version::kV3}) {
    const std::string full = sweep_image(version);
    for (std::size_t len = 0; len < full.size(); ++len) {
      EXPECT_THROW((void)decode(full.substr(0, len)), std::runtime_error)
          << version_name(version) << " prefix of " << len
          << " bytes was accepted (file is " << full.size() << " bytes)";
    }
  }
}

TEST(BinaryIoFuzz, EveryColumnarBitFlipIsDetected) {
  for (const Version version : {Version::kV2, Version::kV3}) {
    const std::string good = sweep_image(version);
    std::string bad = good;
    for (std::size_t byte = 0; byte < good.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        bad[byte] = static_cast<char>(good[byte] ^ (1 << bit));
        EXPECT_THROW((void)decode(bad), std::runtime_error)
            << version_name(version) << " bit " << bit << " of byte " << byte
            << " flipped silently";
      }
      bad[byte] = good[byte];
    }
  }
}

template <typename T>
std::vector<T> copy_of(std::span<const T> column) {
  return {column.begin(), column.end()};
}

/// Every column of a chunk, copied out of whichever buffer backs it.
struct ChunkColumns {
  std::size_t drives = 0;
  std::vector<std::int32_t> day;
  std::vector<std::uint32_t> reads, writes, erases, pe_cycles, bad_blocks;
  std::vector<std::uint16_t> factory_bad_blocks;
  std::vector<std::uint8_t> flags;
  std::vector<std::vector<std::uint32_t>> errors;
  std::vector<std::uint32_t> reallocated_sectors, seek_errors, media_wear, throttle_events;
  std::vector<std::int32_t> swap_days;

  explicit ChunkColumns(const store::ChunkView& v)
      : drives(v.drives.size()),
        day(copy_of(v.day)),
        reads(copy_of(v.reads)),
        writes(copy_of(v.writes)),
        erases(copy_of(v.erases)),
        pe_cycles(copy_of(v.pe_cycles)),
        bad_blocks(copy_of(v.bad_blocks)),
        factory_bad_blocks(copy_of(v.factory_bad_blocks)),
        flags(copy_of(v.flags)),
        reallocated_sectors(copy_of(v.reallocated_sectors)),
        seek_errors(copy_of(v.seek_errors)),
        media_wear(copy_of(v.media_wear)),
        throttle_events(copy_of(v.throttle_events)),
        swap_days(copy_of(v.swap_days)) {
    for (const auto& e : v.errors) errors.push_back(copy_of(e));
  }
  bool operator==(const ChunkColumns&) const = default;
};

enum class Outcome { kRejectedAtOpen, kRejectedAtDecode, kAccepted };

/// Open `image` with chunk CRCs off and decode every chunk through the
/// scan scratch first (so it really decodes), then through the cache.
Outcome decode_both_targets(const std::string& image, store::ChunkScratch& scratch,
                            const std::string& what) {
  std::optional<store::ColumnarFleetView> view;
  try {
    store::OpenOptions options;
    options.verify_crc = false;
    view = store::ColumnarFleetView::from_buffer(std::vector<char>(image.begin(), image.end()),
                                                 options);
  } catch (const std::runtime_error&) {
    return Outcome::kRejectedAtOpen;
  }
  Outcome outcome = Outcome::kAccepted;
  for (std::size_t c = 0; c < view->chunk_count(); ++c) {
    std::optional<ChunkColumns> scanned;
    std::optional<ChunkColumns> cached;
    try {
      scanned.emplace(view->scan_chunk(c, scratch));
    } catch (const std::runtime_error&) {
    }
    try {
      cached.emplace(view->chunk(c));
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(scanned.has_value(), cached.has_value())
        << what << " chunk " << c << ": only one decode target rejected it";
    if (scanned && cached) {
      EXPECT_TRUE(*scanned == *cached) << what << " chunk " << c << ": targets disagree";
    } else {
      outcome = Outcome::kRejectedAtDecode;
    }
  }
  return outcome;
}

/// Columns shaped like real telemetry, so v3 frames use every codec
/// (delta for cumulative counters, bitpack for small daily counters, RLE
/// for flags) and span several 128-value blocks per frame.
FleetTrace shaped_fleet(stats::Rng& rng, std::size_t drives, std::size_t records) {
  FleetTrace fleet;
  for (std::size_t d = 0; d < drives; ++d) {
    DriveHistory drive;
    drive.model = kAllModels[d % kNumModels];
    drive.drive_index = static_cast<std::uint32_t>(d);
    DailyRecord rec;
    for (std::size_t r = 0; r < records; ++r) {
      rec.day = static_cast<std::int32_t>(r);
      rec.reads = rng.next_u32() % 5000;
      rec.writes = rng.next_u32() % 3000;
      rec.erases = rng.next_u32() % 40;
      rec.pe_cycles += rng.next_u32() % 3;
      rec.bad_blocks += rng.uniform() < 0.05 ? 1 : 0;
      rec.factory_bad_blocks = 17;
      rec.dead = r + 1 == records && d % 2 == 0;
      rec.errors[r % kNumErrorTypes] = rng.next_u32() % 4;
      rec.media_wear = static_cast<std::uint32_t>(r / 10);
      drive.records.push_back(rec);
    }
    drive.swaps.push_back({static_cast<std::int32_t>(records)});
    fleet.drives.push_back(std::move(drive));
  }
  return fleet;
}

/// Truncate `good` to every length, then flip bits — every bit of every
/// byte, or (sampled) one seeded bit per byte — with chunk CRCs off, and
/// hold both decode targets to one outcome.  The flips that reach and fail
/// a decoder must exist, or the sweep never tested one.
void sweep_unverified(const std::string& good, bool every_bit) {
  store::ChunkScratch scratch;  // recycled across every chunk and image
  ASSERT_EQ(decode_both_targets(good, scratch, "intact"), Outcome::kAccepted);

  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_NE(decode_both_targets(good.substr(0, len), scratch,
                                  "prefix " + std::to_string(len)),
              Outcome::kAccepted)
        << "prefix of " << len << " bytes was accepted";

  stats::Rng rng(5);
  std::size_t rejected_by_decoder = 0;
  std::string bad = good;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      if (!every_bit && static_cast<std::uint64_t>(bit) != rng.uniform_index(8)) continue;
      bad[byte] = static_cast<char>(good[byte] ^ (1 << bit));
      if (decode_both_targets(bad, scratch,
                              "bit " + std::to_string(bit) + " of byte " +
                                  std::to_string(byte)) == Outcome::kRejectedAtDecode)
        ++rejected_by_decoder;
      if (::testing::Test::HasFailure()) return;
    }
    bad[byte] = good[byte];
  }
  EXPECT_GT(rejected_by_decoder, 0u);
}

TEST(BinaryIoFuzz, UnverifiedV3DecodesAgreeOrRejectOnBothTargets) {
  sweep_unverified(encode(sweep_fleet(), Version::kV3), /*every_bit=*/true);
  stats::Rng rng(31);
  sweep_unverified(encode(shaped_fleet(rng, 4, 300), Version::kV3), /*every_bit=*/false);
}

TEST(BinaryIoFuzz, EmptyFleetIsAFooterValidStoreInBothColumnarVersions) {
  // The `convert` path of an empty input fleet must still emit a
  // footer-valid store: zero chunks, zero totals, CRC-checked footer,
  // trailer — 72 bytes exactly (DATA_FORMAT.md §SSDF2 envelope).  With no
  // chunks there is no directory, so the empty v2 store is the same
  // envelope with version word 2 and its footer CRC (which covers the
  // header) recomputed; the v2 reader must accept it.
  const FleetTrace empty;
  const std::string v1_image = encode(empty, Version::kV1);
  std::istringstream in(v1_image);
  std::ostringstream out(std::ios::binary);
  convert_binary(in, out, kColumnarV3FormatVersion);
  const std::string v3_image = out.str();
  ASSERT_EQ(v3_image.size(), 72u);

  std::string v2_image = v3_image;
  constexpr std::size_t kFooterCrcAt = 16 + 4 * 8;  // header, four u64 totals
  const std::uint32_t v2 = kColumnarFormatVersion;
  std::memcpy(v2_image.data() + 4, &v2, sizeof(v2));
  const std::uint32_t crc =
      store::crc32(store::crc32(0, {v2_image.data(), 16}),
                   {v2_image.data() + 16, kFooterCrcAt - 16});
  std::memcpy(v2_image.data() + kFooterCrcAt, &crc, sizeof(crc));

  for (const auto& [version, image] :
       {std::pair{kColumnarFormatVersion, v2_image},
        std::pair{kColumnarV3FormatVersion, v3_image}}) {
    {
      std::istringstream peek_in(image);
      EXPECT_EQ(peek_binary_version(peek_in), version);
    }
    EXPECT_TRUE(decode(image).drives.empty());
    auto view = store::ColumnarFleetView::from_buffer(
        std::vector<char>(image.begin(), image.end()));
    EXPECT_EQ(view.version(), version);
    EXPECT_EQ(view.chunk_count(), 0u);
    EXPECT_EQ(view.drive_count(), 0u);
  }
}

TEST(BinaryIoFuzz, V1BitFlipsNeverCrash) {
  // v1 has no checksum, so a payload flip may legitimately parse as
  // different data; the contract is memory safety and clean errors, not
  // detection.  Under ASan this sweep is a real out-of-bounds hunt.
  const FleetTrace fleet = sweep_fleet();
  const std::string good = encode(fleet, Version::kV1);
  std::string bad = good;
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bad[byte] = static_cast<char>(good[byte] ^ (1 << bit));
      try {
        (void)decode(bad);
        ++parsed;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
    bad[byte] = good[byte];
  }
  // Structural flips (magic, version, counts) must be among the rejected.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(parsed + rejected, good.size() * 8);
}

TEST(BinaryIoFuzz, ImplausibleCountsThrowInsteadOfAllocating) {
  // Hand-build v1 headers claiming absurd counts: the reader must throw
  // (cap check or truncation) without first reserving gigabytes.
  const auto make_header = [](std::uint64_t n_drives) {
    std::string s("SSDF", 4);
    const std::uint32_t version = 1;
    s.append(reinterpret_cast<const char*>(&version), 4);
    s.append(reinterpret_cast<const char*>(&n_drives), 8);
    return s;
  };
  EXPECT_THROW((void)decode(make_header(~0ull)), std::runtime_error);

  std::string huge_records = make_header(1);
  const std::uint8_t model = 0;
  const std::uint32_t index = 7;
  const std::int32_t deploy = 0;
  const std::uint64_t n_records = (1ull << 32) - 1;  // passes the cap, then EOF
  huge_records.append(reinterpret_cast<const char*>(&model), 1);
  huge_records.append(reinterpret_cast<const char*>(&index), 4);
  huge_records.append(reinterpret_cast<const char*>(&deploy), 4);
  huge_records.append(reinterpret_cast<const char*>(&n_records), 8);
  EXPECT_THROW((void)decode(huge_records), std::runtime_error);
}

}  // namespace
}  // namespace ssdfail::trace
