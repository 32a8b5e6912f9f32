// Sharded SSDF2 layout (store/sharded.hpp): manifest round-trip and
// corruption rejection, multi-shard write/open/materialize equivalence,
// and manifest/shard cross-checks.

#include "store/sharded.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <iterator>
#include <string>
#include <string_view>

#include "sim/fleet_simulator.hpp"
#include "trace/v2_fixture.hpp"

namespace ssdfail::store {
namespace {

trace::FleetTrace simulated_fleet(std::uint32_t drives_per_model = 10) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = drives_per_model;
  cfg.seed = 99;
  return sim::FleetSimulator(cfg).generate_all();
}

void expect_fleets_equal(const trace::FleetTrace& a, const trace::FleetTrace& b) {
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t d = 0; d < a.drives.size(); ++d) {
    ASSERT_EQ(a.drives[d].uid(), b.drives[d].uid());
    ASSERT_EQ(a.drives[d].records.size(), b.drives[d].records.size());
    for (std::size_t r = 0; r < a.drives[d].records.size(); ++r)
      ASSERT_EQ(a.drives[d].records[r], b.drives[d].records[r]);
    ASSERT_EQ(a.drives[d].swaps.size(), b.drives[d].swaps.size());
  }
}

/// Unique per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("ssdfail_sharded_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(ShardManifest, RoundTrips) {
  ShardManifest m;
  m.shards.push_back({"shard-000000.ssdf2", 1234, 10, 2000, 3});
  m.shards.push_back({"shard-000001.ssdf2", 999, 7, 1500, 0});
  const ShardManifest back = decode_manifest(encode_manifest(m));
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.shards[0].file, "shard-000000.ssdf2");
  EXPECT_EQ(back.shards[0].bytes, 1234u);
  EXPECT_EQ(back.shards[1].n_records, 1500u);
}

TEST(ShardManifest, EmptyManifestRoundTrips) {
  const ShardManifest back = decode_manifest(encode_manifest({}));
  EXPECT_TRUE(back.shards.empty());
}

TEST(ShardManifest, EveryBitFlipIsDetected) {
  ShardManifest m;
  m.shards.push_back({"shard-000000.ssdf2", 64, 1, 10, 0});
  const std::string image = encode_manifest(m);
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = image;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_THROW((void)decode_manifest(corrupt), std::runtime_error)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ShardManifest, EveryTruncationThrows) {
  ShardManifest m;
  m.shards.push_back({"shard-000000.ssdf2", 64, 1, 10, 0});
  const std::string image = encode_manifest(m);
  for (std::size_t len = 0; len < image.size(); ++len)
    EXPECT_THROW((void)decode_manifest(image.substr(0, len)), std::runtime_error)
        << "length " << len;
}

TEST(ShardManifest, RejectsPathTraversalNames) {
  ShardManifest m;
  m.shards.push_back({"../evil.ssdf2", 1, 1, 1, 0});
  EXPECT_THROW((void)encode_manifest(m), std::runtime_error);
}

TEST(ShardedStore, WriteOpenMaterializeRoundTrips) {
  const trace::FleetTrace fleet = simulated_fleet();
  TempDir dir("roundtrip");
  ShardedWriteOptions opts;
  opts.drives_per_shard = 7;  // forces several shards
  opts.store.chunk_drives = 3;
  write_sharded(dir.str(), fleet, opts);

  const ShardedFleetView view = ShardedFleetView::open(dir.str());
  EXPECT_GT(view.shard_count(), 1u);
  EXPECT_EQ(view.drive_count(), fleet.drives.size());
  expect_fleets_equal(fleet, materialize(view));
}

TEST(ShardedStore, SingleShardAndV2ShardsWork) {
  const trace::FleetTrace fleet = simulated_fleet(4);
  {
    TempDir dir("single");
    ShardedWriteOptions opts;
    opts.drives_per_shard = 100000;
    write_sharded(dir.str(), fleet, opts);
    const ShardedFleetView view = ShardedFleetView::open(dir.str());
    EXPECT_EQ(view.shard_count(), 1u);
    EXPECT_EQ(view.shard(0).version(), kColumnarVersionV3);
    expect_fleets_equal(fleet, materialize(view));
  }
  // Nothing writes v2 shards any more, but a store may still hold them: a
  // manifest naming the committed v2 fixture ahead of a written v3 shard
  // opens, and materializes both in manifest order.
  TempDir dir("v2");
  write_sharded(dir.str(), fleet, {});
  ShardManifest manifest = read_manifest(dir.str());
  ASSERT_EQ(manifest.shards.size(), 1u);
  std::filesystem::copy_file(trace::testing::v2_fixture_path(),
                             std::filesystem::path(dir.str()) / "legacy-v2.ssdf2");
  manifest.shards.insert(manifest.shards.begin(),
                         ShardInfo{"legacy-v2.ssdf2", 6160, 6, 67, 10});
  write_manifest(dir.str(), manifest);

  const ShardedFleetView view = ShardedFleetView::open(dir.str());
  ASSERT_EQ(view.shard_count(), 2u);
  EXPECT_EQ(view.shard(0).version(), kColumnarVersion);
  EXPECT_EQ(view.shard(1).version(), kColumnarVersionV3);
  trace::FleetTrace expected = trace::testing::sweep_fleet();
  expected.drives.insert(expected.drives.end(), fleet.drives.begin(), fleet.drives.end());
  expect_fleets_equal(expected, materialize(view));
}

TEST(ShardedStore, EmptyFleetYieldsEmptyManifest) {
  TempDir dir("empty");
  write_sharded(dir.str(), trace::FleetTrace{}, {});
  const ShardedFleetView view = ShardedFleetView::open(dir.str());
  EXPECT_EQ(view.shard_count(), 0u);
  EXPECT_EQ(view.drive_count(), 0u);
  EXPECT_TRUE(materialize(view).drives.empty());
}

TEST(ShardedStore, OpenRejectsShardSizeMismatch) {
  const trace::FleetTrace fleet = simulated_fleet(4);
  TempDir dir("sizemismatch");
  write_sharded(dir.str(), fleet, {});
  ShardManifest m = read_manifest(dir.str());
  ASSERT_FALSE(m.shards.empty());
  m.shards[0].bytes += 1;
  write_manifest(dir.str(), m);
  EXPECT_THROW((void)ShardedFleetView::open(dir.str()), std::runtime_error);
}

TEST(ShardedStore, OpenRejectsMissingShard) {
  const trace::FleetTrace fleet = simulated_fleet(4);
  TempDir dir("missing");
  write_sharded(dir.str(), fleet, {});
  const ShardManifest m = read_manifest(dir.str());
  ASSERT_FALSE(m.shards.empty());
  std::filesystem::remove(std::filesystem::path(dir.str()) / m.shards[0].file);
  EXPECT_THROW((void)ShardedFleetView::open(dir.str()), std::runtime_error);
}

TEST(ShardedStore, OpenRejectsTotalsMismatch) {
  const trace::FleetTrace fleet = simulated_fleet(4);
  TempDir dir("totals");
  write_sharded(dir.str(), fleet, {});
  ShardManifest m = read_manifest(dir.str());
  ASSERT_FALSE(m.shards.empty());
  m.shards[0].n_records += 1;
  write_manifest(dir.str(), m);
  EXPECT_THROW((void)ShardedFleetView::open(dir.str()), std::runtime_error);
}

// FNV-1a digests of every shard file's bytes, then the manifest's, in
// manifest order, captured from the writer that copied each shard's drives
// into a temporary fleet and encoded its chunks serially.  Shards are now
// encoded straight from their range of the fleet, on the pool.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t store_digest(const std::string& dir) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const ShardInfo& shard : read_manifest(dir).shards)
    h = fnv1a(file_bytes(std::filesystem::path(dir) / shard.file), h);
  return fnv1a(file_bytes(std::filesystem::path(dir) / kManifestName), h);
}

TEST(ShardedStore, PinnedShardAndManifestBytesAtEveryShardSize) {
  sim::FleetConfig cfg;
  cfg.drives_per_model = 12;
  cfg.window_days = 900;
  cfg.seed = 1818;
  const trace::FleetTrace fleet = sim::FleetSimulator(cfg.mixed()).generate_all();
  struct Pin {
    std::uint32_t drives_per_shard;
    std::uint64_t digest;
  };
  constexpr Pin kPins[] = {
      {1, 0x89dd4bc4fa6a76a9ull},
      {7, 0x9970af0222cda624ull},
      {256, 0x38ceda1a10de00f1ull},
  };
  for (const Pin& pin : kPins) {
    TempDir dir("pinned_" + std::to_string(pin.drives_per_shard));
    ShardedWriteOptions opts;
    opts.drives_per_shard = pin.drives_per_shard;
    opts.store.chunk_drives = 5;
    write_sharded(dir.str(), fleet, opts);
    EXPECT_EQ(store_digest(dir.str()), pin.digest)
        << "drives_per_shard " << pin.drives_per_shard;
  }
}

}  // namespace
}  // namespace ssdfail::store
