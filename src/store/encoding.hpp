#pragma once

// SSDF2 v3 lightweight column codecs (docs/DATA_FORMAT.md §v3).
//
// Four encodings, no external dependencies, all over a column of
// fixed-width little-endian integers:
//
//   kRaw          — the v2 layout: n elements, sizeof(T) bytes each.
//   kDeltaPack    — zigzag(v[i] - v[i-1]) (v[-1] = 0), block-bitpacked.
//                   The win for monotone cumulative columns (day,
//                   pe_cycles, bad_blocks, error totals): deltas are tiny
//                   and constant runs pack to width 0.
//   kBitPack      — values block-bitpacked directly (width = bits of the
//                   block max).  The win for noisy daily counters whose
//                   values are far below the type's range.
//   kRle          — (u32 run_length, value) pairs.  The win for
//                   status/flag columns that hold one value for weeks.
//
// Block bitpacking (kDeltaPack / kBitPack payloads): values are split
// into blocks of 128; each block stores `u8 width` (0..64) followed by
// ceil(count * width / 8) bytes, bits packed LSB-first.  A width-0 block
// is one byte for 128 zero values.
//
// The writer computes the size every encoding would take and builds only
// the smallest payload (encode_column; ties keep the order raw, delta,
// bitpack, rle).  Readers dispatch on the stored encoding id and decode
// straight into the typed column (decode_column): bitpacked values are
// read one unaligned 64-bit load, shift and mask at a time by
// width-specialized kernels (after Lemire & Boytsov, "Decoding billions of
// integers per second through vectorization", SPE 2015), and the check
// that every value fits the column type is fused into the same loop.
// Every read is bounds-checked: a corrupt payload raises
// std::runtime_error, never undefined behavior (the chunk CRC catches
// corruption first in the default configuration; these checks hold even
// with verification disabled).

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

namespace ssdfail::store {

enum class ColumnEncoding : std::uint32_t {
  kRaw = 0,
  kDeltaPack = 1,
  kBitPack = 2,
  kRle = 3,
};

/// Values per bitpacked block (kDeltaPack / kBitPack).
inline constexpr std::size_t kPackBlock = 128;

/// Per-block bit widths measured by encode_column, kept by the caller so
/// a writer encoding column after column allocates them once.  One per
/// concurrent encoder.
struct EncodeScratch {
  std::vector<std::uint8_t> delta_widths;
  std::vector<std::uint8_t> plain_widths;
};

/// The encoding encode_column chose and the size of its payload.
struct EncodedPayload {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  std::size_t bytes = 0;
};

/// Encode `values` (elements widened to u64; `elem_bytes` is the on-disk
/// element size, 1..8) with the smallest applicable encoding, writing its
/// payload to the front of `out`.  `out` must hold the raw size,
/// values.size() * elem_bytes bytes, which the chosen payload never
/// exceeds (std::length_error otherwise).  Signed columns (i32
/// day/swap_day) must be widened with sign extension; the codec is
/// value-preserving either way.  Once `scratch` has grown to the largest
/// column, encoding allocates nothing.
[[nodiscard]] EncodedPayload encode_column(std::span<const std::uint64_t> values,
                                           std::size_t elem_bytes, std::span<char> out,
                                           EncodeScratch& scratch);

/// The element types a v3 column decodes into.
template <typename T>
concept ColumnElement = std::same_as<T, std::int32_t> || std::same_as<T, std::uint32_t> ||
                        std::same_as<T, std::uint16_t> || std::same_as<T, std::uint8_t>;

/// Decode `payload` into exactly `out.size()` values.  Throws
/// std::runtime_error on any structural defect: truncated payload, width
/// > 64, run lengths not summing to the count, trailing unread bytes, or a
/// decoded value outside T (a signed T matches encode_column's
/// sign-extending widening).  `out` holds unspecified values after a throw.
template <ColumnElement T>
void decode_column(ColumnEncoding encoding, std::span<const char> payload, std::span<T> out);

extern template void decode_column<std::int32_t>(ColumnEncoding, std::span<const char>,
                                                 std::span<std::int32_t>);
extern template void decode_column<std::uint32_t>(ColumnEncoding, std::span<const char>,
                                                  std::span<std::uint32_t>);
extern template void decode_column<std::uint16_t>(ColumnEncoding, std::span<const char>,
                                                  std::span<std::uint16_t>);
extern template void decode_column<std::uint8_t>(ColumnEncoding, std::span<const char>,
                                                 std::span<std::uint8_t>);

/// Human-readable encoding name (bench/CLI reporting).
[[nodiscard]] const char* encoding_name(ColumnEncoding e) noexcept;

}  // namespace ssdfail::store
