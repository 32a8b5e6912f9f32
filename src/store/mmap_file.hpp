#pragma once

// Read-only file mappings with graceful degradation, and anonymous scratch
// memory that is returned to the OS when released.
//
// MappedFile::map() returns nullopt on ANY failure (missing file, zero
// size, no mmap support on the platform) — the columnar store treats that
// as "fall back to a heap buffer", never as an error.  The mapping is
// private/read-only: the kernel serves pages straight from the page cache,
// so a fleet file opened by N processes costs one copy of physical memory
// and clean pages are reclaimable under pressure (unlike the anonymous
// heap the row-struct path must hold).

#include <cstddef>
#include <optional>
#include <span>
#include <string>

namespace ssdfail::store {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Map `path` read-only.  nullopt on any failure — callers fall back to
  /// reading the file into a heap buffer.
  [[nodiscard]] static std::optional<MappedFile> map(const std::string& path);

  [[nodiscard]] std::span<const char> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writable, uninitialized memory for large short-lived buffers.  Blocks of
/// kMinMappedBytes or more are private anonymous mappings (huge pages
/// advised), unmapped on destruction; smaller ones, and every block where
/// mmap is unavailable, come from the heap.  A malloc arena keeps freed
/// multi-megabyte blocks resident for the thread that allocated them,
/// which for per-worker decode buffers (ChunkScratch) inflated peak RSS;
/// a mapping returns its pages at once.
class AnonymousMemory {
 public:
  /// Smallest block served by its own mapping.  Keeps the mapping count
  /// far below the kernel's per-process limit however many small blocks
  /// are alive.
  static constexpr std::size_t kMinMappedBytes = std::size_t{1} << 20;

  AnonymousMemory() = default;
  /// Throws std::bad_alloc when the memory cannot be obtained.
  explicit AnonymousMemory(std::size_t bytes);
  ~AnonymousMemory();

  AnonymousMemory(AnonymousMemory&& other) noexcept;
  AnonymousMemory& operator=(AnonymousMemory&& other) noexcept;
  AnonymousMemory(const AnonymousMemory&) = delete;
  AnonymousMemory& operator=(const AnonymousMemory&) = delete;

  /// Aligned for any fundamental type; null when empty.
  [[nodiscard]] std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace ssdfail::store
