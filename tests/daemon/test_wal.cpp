// WAL framing tests: round-trip fidelity, torn-tail truncation, CRC
// rejection, duplicate-seq dedup, and writer resume semantics — the
// recovery contract of daemon/wal.hpp, piece by piece.

#include "daemon/wal.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <vector>

#include "daemon_test_util.hpp"

namespace ssdfail::daemon {
namespace {

using testing::TempDir;
using testing::make_stream;

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Collect every replayed segment.
std::vector<WalSegment> collect(const std::string& path, WalReplayStats* stats = nullptr) {
  std::vector<WalSegment> segments;
  const WalReplayStats s =
      replay_wal(path, [&](const WalSegment& seg) { segments.push_back(seg); });
  if (stats != nullptr) *stats = s;
  return segments;
}

TEST(Wal, RoundTripsRecordsAndRetires) {
  TempDir dir("roundtrip");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(3, 4);  // 12 records
  {
    WalWriter writer(path, 0, FsyncPolicy::kEverySegment);
    writer.append(std::span<const core::FleetObservation>(stream).subspan(0, 7));
    writer.append(std::span<const core::FleetObservation>(stream).subspan(7));
    const std::vector<std::uint64_t> uids{stream[0].uid(), stream[1].uid()};
    writer.append_retires(uids);
    EXPECT_EQ(writer.segments_written(), 3u);
  }
  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_TRUE(stats.header_valid);
  EXPECT_EQ(stats.records_replayed, 12u);
  EXPECT_EQ(stats.retires_replayed, 2u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(segments[0].seq, 1u);
  EXPECT_EQ(segments[1].seq, 2u);
  EXPECT_EQ(segments[2].seq, 3u);
  ASSERT_EQ(segments[0].records.size(), 7u);
  ASSERT_EQ(segments[1].records.size(), 5u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(segments[0].records[i].record, stream[i].record);
    EXPECT_EQ(segments[0].records[i].uid(), stream[i].uid());
    EXPECT_EQ(segments[0].records[i].deploy_day, stream[i].deploy_day);
  }
  ASSERT_EQ(segments[2].retired_uids.size(), 2u);
  EXPECT_EQ(segments[2].retired_uids[0], stream[0].uid());
}

TEST(Wal, RecordPayloadPreservesEveryField) {
  core::FleetObservation obs;
  obs.drive_model = trace::DriveModel::MlcB;
  obs.drive_index = 0xDEADBEEF;
  obs.deploy_day = -17;
  obs.record.day = 123456;
  obs.record.reads = 0xFFFFFFFF;
  obs.record.writes = 7;
  obs.record.erases = 9;
  obs.record.pe_cycles = 100000;
  obs.record.bad_blocks = 321;
  obs.record.factory_bad_blocks = 0xBEEF;
  obs.record.read_only = true;
  obs.record.dead = true;
  for (std::size_t e = 0; e < trace::kNumErrorTypes; ++e)
    obs.record.errors[e] = static_cast<std::uint32_t>(1000 + e);

  std::vector<char> payload;
  append_record_payload(payload, obs);
  ASSERT_EQ(payload.size(), kWalRecordSize);
  const core::FleetObservation back = parse_record_payload(payload.data());
  EXPECT_EQ(back.drive_model, obs.drive_model);
  EXPECT_EQ(back.drive_index, obs.drive_index);
  EXPECT_EQ(back.deploy_day, obs.deploy_day);
  EXPECT_EQ(back.record, obs.record);
}

/// The WAL byte layout written out one byte at a time, independently of
/// the writer's in-place framing: little-endian pushes and a bitwise CRC.
struct ReferenceFramer {
  std::vector<char> bytes;

  void u8(std::uint32_t v) { bytes.push_back(static_cast<char>(v & 0xFF)); }
  void u16(std::uint32_t v) {
    for (int i = 0; i < 2; ++i) u8(v >> (8 * i));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(v >> (8 * i));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint32_t>(v >> (8 * i)));
  }

  static std::uint32_t crc(std::uint32_t c, const char* p, std::size_t n) {
    c ^= 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= static_cast<std::uint8_t>(p[i]);
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
  }

  void segment(std::uint64_t seq, SegmentType type, std::uint32_t count,
               const std::vector<char>& payload) {
    const std::size_t at = bytes.size();
    u32(kSegmentMarker);
    u64(seq);
    u32(static_cast<std::uint32_t>(type));
    u32(count);
    u32(static_cast<std::uint32_t>(payload.size()));
    std::uint32_t c = crc(0, bytes.data() + at + 4, 20);
    c = crc(c, payload.data(), payload.size());
    u32(c);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }

  static std::vector<char> records(std::span<const core::FleetObservation> batch) {
    ReferenceFramer out;
    for (const core::FleetObservation& obs : batch) {
      out.u8(static_cast<std::uint32_t>(obs.drive_model));
      out.u8((obs.record.read_only ? 1u : 0u) | (obs.record.dead ? 2u : 0u));
      out.u16(obs.record.factory_bad_blocks);
      out.u32(obs.drive_index);
      out.u32(static_cast<std::uint32_t>(obs.deploy_day));
      out.u32(static_cast<std::uint32_t>(obs.record.day));
      out.u32(obs.record.reads);
      out.u32(obs.record.writes);
      out.u32(obs.record.erases);
      out.u32(obs.record.pe_cycles);
      out.u32(obs.record.bad_blocks);
      for (const std::uint32_t e : obs.record.errors) out.u32(e);
      for (const trace::RecordCounterField& f : trace::kExtCounterFields)
        out.u32(obs.record.*f.field);
    }
    return out.bytes;
  }
};

/// A seeded batch with every payload field (flags, negative days, the
/// extension counters) drawn at random.
std::vector<core::FleetObservation> seeded_batch(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 32);
  };
  std::vector<core::FleetObservation> batch(n);
  for (core::FleetObservation& obs : batch) {
    obs.drive_model = static_cast<trace::DriveModel>(next() % trace::kNumModels);
    obs.drive_index = next();
    obs.deploy_day = static_cast<std::int32_t>(next());
    obs.record.day = static_cast<std::int32_t>(next());
    obs.record.reads = next();
    obs.record.writes = next();
    obs.record.erases = next();
    obs.record.pe_cycles = next();
    obs.record.bad_blocks = next();
    obs.record.factory_bad_blocks = static_cast<std::uint16_t>(next());
    obs.record.read_only = (next() & 1) != 0;
    obs.record.dead = (next() & 1) != 0;
    for (auto& e : obs.record.errors) e = next();
    for (const trace::RecordCounterField& f : trace::kExtCounterFields)
      obs.record.*f.field = next();
  }
  return batch;
}

TEST(Wal, FramedImageIsByteIdenticalToReferenceEncoder) {
  TempDir dir("framing");
  const std::string path = wal_path(dir.path(), 3);
  const auto big = seeded_batch(256, 14);
  const auto small = seeded_batch(37, 15);  // reuses the grown frame buffer
  const std::vector<std::uint64_t> uids{big[0].uid(), 0xFFFFFFFFFFFFFFFFull, 42};
  {
    WalWriter writer(path, 3, FsyncPolicy::kNever);
    writer.append(big);
    writer.append_retires(uids);
    writer.append(small);
    writer.append(std::span<const core::FleetObservation>(big).subspan(0, 1));
  }
  ReferenceFramer expected;
  expected.u32(kWalMagic);
  expected.u32(kWalVersion);
  expected.u32(3);
  expected.u32(0);
  expected.segment(1, SegmentType::kRecords, 256, ReferenceFramer::records(big));
  ReferenceFramer retires;
  for (const std::uint64_t uid : uids) retires.u64(uid);
  expected.segment(2, SegmentType::kRetires, 3, retires.bytes);
  expected.segment(3, SegmentType::kRecords, 37, ReferenceFramer::records(small));
  expected.segment(4, SegmentType::kRecords, 1,
                   ReferenceFramer::records(std::span(big).subspan(0, 1)));
  EXPECT_EQ(read_bytes(path), expected.bytes);

  // The shared codec agrees with the framing, record by record.
  std::vector<char> payload;
  for (const core::FleetObservation& obs : small) append_record_payload(payload, obs);
  EXPECT_EQ(payload, ReferenceFramer::records(small));
}

TEST(Wal, TornTailIsTruncatedNotFatal) {
  TempDir dir("torn");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(2, 4);
  {
    WalWriter writer(path, 0, FsyncPolicy::kNever);
    for (std::size_t at = 0; at < stream.size(); at += 2)
      writer.append(std::span<const core::FleetObservation>(stream).subspan(at, 2));
  }
  std::vector<char> image = read_bytes(path);
  // Cut mid-way through the last segment: a crash between write() and the
  // data reaching disk.
  image.resize(image.size() - kWalRecordSize - 3);
  write_bytes(path, image);

  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  EXPECT_EQ(segments.size(), 3u);  // 4 appended, last one torn
  EXPECT_EQ(stats.records_replayed, 6u);
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.last_seq, 3u);
}

TEST(Wal, CorruptPayloadIsRejectedByCrc) {
  TempDir dir("crc");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(2, 3);
  {
    WalWriter writer(path, 0, FsyncPolicy::kNever);
    writer.append(std::span<const core::FleetObservation>(stream).subspan(0, 4));
    writer.append(std::span<const core::FleetObservation>(stream).subspan(4, 2));
  }
  std::vector<char> image = read_bytes(path);
  // Flip one payload byte inside the FIRST segment: replay must stop at
  // the corrupt frame and discard everything after it (a mid-log CRC
  // mismatch means the boundary itself cannot be trusted).
  image[kWalFileHeaderSize + kWalSegmentHeaderSize + 5] ^= 0x40;
  write_bytes(path, image);

  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  EXPECT_EQ(segments.size(), 0u);
  EXPECT_EQ(stats.records_replayed, 0u);
  EXPECT_TRUE(stats.header_valid);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST(Wal, DuplicateSeqIsSkippedOnReplay) {
  TempDir dir("dup");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(2, 2);
  std::size_t first_segment_offset = 0;
  std::size_t first_segment_size = 0;
  {
    WalWriter writer(path, 0, FsyncPolicy::kNever);
    first_segment_offset = writer.bytes_written();
    writer.append(std::span<const core::FleetObservation>(stream).subspan(0, 2));
    first_segment_size = writer.bytes_written() - first_segment_offset;
    writer.append(std::span<const core::FleetObservation>(stream).subspan(2, 2));
  }
  std::vector<char> image = read_bytes(path);
  // Redeliver segment 1 verbatim at the end of the log (producer retry
  // after an unacknowledged append).
  const std::vector<char> dup(image.begin() + static_cast<std::ptrdiff_t>(first_segment_offset),
                              image.begin() + static_cast<std::ptrdiff_t>(first_segment_offset +
                                                                          first_segment_size));
  image.insert(image.end(), dup.begin(), dup.end());
  write_bytes(path, image);

  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  EXPECT_EQ(segments.size(), 2u);
  EXPECT_EQ(stats.duplicates_skipped, 1u);
  EXPECT_EQ(stats.records_replayed, 4u);
  EXPECT_EQ(stats.truncated_bytes, 0u);  // the duplicate is valid, just stale
}

TEST(Wal, WriterResumeTruncatesTornTailAndContinuesSeq) {
  TempDir dir("resume");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(2, 3);
  {
    WalWriter writer(path, 0, FsyncPolicy::kNever);
    writer.append(std::span<const core::FleetObservation>(stream).subspan(0, 2));
    writer.append(std::span<const core::FleetObservation>(stream).subspan(2, 2));
  }
  {
    // Simulate a torn tail, then reopen: the writer must truncate back to
    // the durable boundary and continue the seq chain.
    std::vector<char> image = read_bytes(path);
    const std::size_t durable = image.size();
    image.push_back('\x7F');  // garbage half-frame
    image.push_back('\x00');
    write_bytes(path, image);
    WalWriter writer(path, 0, FsyncPolicy::kEverySegment);
    EXPECT_EQ(writer.next_seq(), 3u);
    EXPECT_EQ(writer.bytes_written(), durable);
    writer.append(std::span<const core::FleetObservation>(stream).subspan(4, 2));
  }
  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[2].seq, 3u);
  EXPECT_EQ(stats.records_replayed, 6u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST(Wal, AlienFileIsResetNotTrusted) {
  TempDir dir("alien");
  const std::string path = wal_path(dir.path(), 0);
  write_bytes(path, {'n', 'o', 't', ' ', 'a', ' ', 'w', 'a', 'l', '!', '!', '!',
                     '!', '!', '!', '!', '!', '!'});
  const auto stream = make_stream(1, 1);
  {
    WalWriter writer(path, 0, FsyncPolicy::kEverySegment);
    EXPECT_EQ(writer.next_seq(), 1u);
    writer.append(stream);
  }
  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_TRUE(stats.header_valid);
  EXPECT_EQ(stats.records_replayed, 1u);
}

TEST(Wal, MissingFileReplaysAsEmpty) {
  TempDir dir("missing");
  WalReplayStats stats;
  const auto segments = collect(wal_path(dir.path(), 7), &stats);
  EXPECT_TRUE(segments.empty());
  EXPECT_FALSE(stats.header_valid);
  EXPECT_EQ(stats.durable_bytes, 0u);
}

TEST(Wal, OversizedLengthFieldStopsReplayInsteadOfReading) {
  TempDir dir("hugelen");
  const std::string path = wal_path(dir.path(), 0);
  const auto stream = make_stream(1, 2);
  {
    WalWriter writer(path, 0, FsyncPolicy::kNever);
    writer.append(std::span<const core::FleetObservation>(stream).subspan(0, 1));
  }
  std::vector<char> image = read_bytes(path);
  // Blast the len field (offset +20 in the segment header) to 0xFFFFFFFF.
  for (std::size_t i = 0; i < 4; ++i)
    image[kWalFileHeaderSize + 20 + i] = static_cast<char>(0xFF);
  write_bytes(path, image);
  WalReplayStats stats;
  const auto segments = collect(path, &stats);
  EXPECT_TRUE(segments.empty());
  EXPECT_GT(stats.truncated_bytes, 0u);
}

}  // namespace
}  // namespace ssdfail::daemon
