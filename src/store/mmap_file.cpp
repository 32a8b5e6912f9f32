#include "store/mmap_file.hpp"

#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SSDFAIL_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SSDFAIL_HAS_MMAP 0
#endif

namespace ssdfail::store {

MappedFile::~MappedFile() {
#if SSDFAIL_HAS_MMAP
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    MappedFile tmp(std::move(other));
    std::swap(data_, tmp.data_);
    std::swap(size_, tmp.size_);
  }
  return *this;
}

std::optional<MappedFile> MappedFile::map(const std::string& path) {
#if SSDFAIL_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return std::nullopt;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
#if defined(MAP_POPULATE)
  // Prefault the whole read-only mapping: stores are opened to be read
  // end to end (CRC verify touches every chunk anyway), and one bulk
  // populate is much cheaper than thousands of per-page soft faults.
  constexpr int kMapFlags = MAP_PRIVATE | MAP_POPULATE;
#else
  constexpr int kMapFlags = MAP_PRIVATE;
#endif
  void* base = ::mmap(nullptr, size, PROT_READ, kMapFlags, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) return std::nullopt;
  MappedFile file;
  file.data_ = static_cast<const char*>(base);
  file.size_ = size;
  return file;
#else
  (void)path;
  return std::nullopt;
#endif
}

AnonymousMemory::AnonymousMemory(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
#if SSDFAIL_HAS_MMAP
  if (bytes >= kMinMappedBytes) {
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
    // Advisory: huge pages cut first-touch faults and TLB misses when the
    // buffer is filled and scanned end to end.  Failure changes nothing.
    (void)::madvise(base, bytes, MADV_HUGEPAGE);
#endif
    data_ = static_cast<std::byte*>(base);
    mapped_ = true;
    return;
  }
#endif
  data_ = new std::byte[bytes];
}

AnonymousMemory::~AnonymousMemory() {
  if (data_ == nullptr) return;
#if SSDFAIL_HAS_MMAP
  if (mapped_) {
    ::munmap(data_, size_);
    return;
  }
#endif
  delete[] data_;
}

AnonymousMemory::AnonymousMemory(AnonymousMemory&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

AnonymousMemory& AnonymousMemory::operator=(AnonymousMemory&& other) noexcept {
  if (this != &other) {
    AnonymousMemory tmp(std::move(other));
    std::swap(data_, tmp.data_);
    std::swap(size_, tmp.size_);
    std::swap(mapped_, tmp.mapped_);
  }
  return *this;
}

}  // namespace ssdfail::store
