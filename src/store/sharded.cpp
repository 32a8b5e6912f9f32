#include "store/sharded.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <utility>

#include "store/crc32.hpp"

namespace ssdfail::store {
namespace {

constexpr char kManifestMagic[4] = {'S', 'S', 'D', 'M'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("shard manifest: " + what);
}

template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T get(const std::string& bytes, std::size_t& pos) {
  if (sizeof(T) > bytes.size() - pos) fail("truncated manifest");
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

/// Shard names never carry directory components — the manifest must not be
/// able to point a reader outside its own directory.
bool valid_shard_name(const std::string& name) {
  if (name.empty() || name.size() > 255) return false;
  return name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos && name != "." && name != "..";
}

}  // namespace

std::string encode_manifest(const ShardManifest& manifest) {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  put<std::uint32_t>(out, kManifestVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(manifest.shards.size()));
  for (const ShardInfo& s : manifest.shards) {
    if (!valid_shard_name(s.file)) fail("invalid shard name " + s.file);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(s.file.size()));
    out.append(s.file);
    put<std::uint64_t>(out, s.bytes);
    put<std::uint64_t>(out, s.n_drives);
    put<std::uint64_t>(out, s.n_records);
    put<std::uint64_t>(out, s.n_swaps);
  }
  put<std::uint32_t>(out, crc32(0, out));
  put<std::uint32_t>(out, 0);
  return out;
}

ShardManifest decode_manifest(const std::string& bytes) {
  if (bytes.size() < 12 + 8) fail("truncated manifest");
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0)
    fail("bad magic");
  std::size_t pos = sizeof(kManifestMagic);
  const auto version = get<std::uint32_t>(bytes, pos);
  if (version != kManifestVersion)
    fail("unsupported manifest version " + std::to_string(version));
  const auto n_shards = get<std::uint32_t>(bytes, pos);
  if (static_cast<std::uint64_t>(n_shards) * 36 > bytes.size())
    fail("implausible shard count");

  ShardManifest manifest;
  manifest.shards.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    ShardInfo s;
    const auto name_len = get<std::uint32_t>(bytes, pos);
    if (name_len > bytes.size() - pos) fail("truncated manifest");
    s.file.assign(bytes.data() + pos, name_len);
    pos += name_len;
    if (!valid_shard_name(s.file)) fail("invalid shard name " + s.file);
    s.bytes = get<std::uint64_t>(bytes, pos);
    s.n_drives = get<std::uint64_t>(bytes, pos);
    s.n_records = get<std::uint64_t>(bytes, pos);
    s.n_swaps = get<std::uint64_t>(bytes, pos);
    manifest.shards.push_back(std::move(s));
  }
  const std::size_t crc_pos = pos;
  const auto stored_crc = get<std::uint32_t>(bytes, pos);
  if (get<std::uint32_t>(bytes, pos) != 0) fail("nonzero reserved field");
  if (pos != bytes.size()) fail("trailing bytes after manifest");
  if (crc32(0, std::span<const char>(bytes.data(), crc_pos)) != stored_crc)
    fail("manifest CRC mismatch");
  return manifest;
}

void write_manifest(const std::string& dir, const ShardManifest& manifest) {
  const std::string image = encode_manifest(manifest);
  const std::filesystem::path final_path = std::filesystem::path(dir) / kManifestName;
  const std::filesystem::path tmp_path = final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot write " + tmp_path.string());
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.flush();
    if (!out) fail("write failed for " + tmp_path.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) fail("cannot rename manifest into place: " + ec.message());
}

ShardManifest read_manifest(const std::string& dir) {
  const std::filesystem::path path = std::filesystem::path(dir) / kManifestName;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("cannot open " + path.string());
  const std::streamoff size = in.tellg();
  in.seekg(0);
  std::string bytes(static_cast<std::size_t>(std::max<std::streamoff>(size, 0)), '\0');
  if (!bytes.empty() &&
      !in.read(bytes.data(), static_cast<std::streamsize>(bytes.size())))
    fail("cannot read " + path.string());
  return decode_manifest(bytes);
}

void write_sharded(const std::string& dir, const trace::FleetTrace& fleet,
                   const ShardedWriteOptions& options) {
  std::filesystem::create_directories(dir);
  const std::uint32_t per_shard = std::max<std::uint32_t>(1, options.drives_per_shard);

  ShardManifest manifest;
  std::size_t shard_index = 0;
  const std::span<const trace::DriveHistory> drives = fleet.drives;
  for (std::size_t first = 0; first < drives.size(); first += per_shard) {
    // Each shard encodes straight from its range of the fleet.
    const std::span<const trace::DriveHistory> part =
        drives.subspan(first, std::min<std::size_t>(per_shard, drives.size() - first));

    char name[32];
    std::snprintf(name, sizeof(name), "shard-%06zu.ssdf2", shard_index++);
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    write_columnar_file(path.string(), part, options.store);

    ShardInfo info;
    info.file = name;
    info.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path));
    info.n_drives = part.size();
    for (const trace::DriveHistory& d : part) {
      info.n_records += d.records.size();
      info.n_swaps += d.swaps.size();
    }
    manifest.shards.push_back(std::move(info));
  }
  write_manifest(dir, manifest);
}

ShardedFleetView ShardedFleetView::open(const std::string& dir,
                                        const OpenOptions& options) {
  const ShardManifest manifest = read_manifest(dir);
  ShardedFleetView view;
  view.shards_.reserve(manifest.shards.size());
  for (const ShardInfo& info : manifest.shards) {
    const std::filesystem::path path = std::filesystem::path(dir) / info.file;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) fail("cannot stat shard " + info.file + ": " + ec.message());
    if (size != info.bytes)
      fail("shard " + info.file + " size disagrees with manifest");
    ColumnarFleetView shard = ColumnarFleetView::open(path.string(), options);
    if (shard.drive_count() != info.n_drives ||
        shard.total_records() != info.n_records ||
        shard.total_swaps() != info.n_swaps)
      fail("shard " + info.file + " totals disagree with manifest");
    view.drive_count_ += shard.drive_count();
    view.total_records_ += shard.total_records();
    view.total_swaps_ += shard.total_swaps();
    view.shards_.push_back(std::move(shard));
  }
  return view;
}

trace::FleetTrace materialize(const ShardedFleetView& view) {
  trace::FleetTrace fleet;
  fleet.drives.reserve(view.drive_count());
  for (std::size_t s = 0; s < view.shard_count(); ++s) {
    trace::FleetTrace part = materialize(view.shard(s));
    for (trace::DriveHistory& d : part.drives) fleet.drives.push_back(std::move(d));
  }
  return fleet;
}

}  // namespace ssdfail::store
