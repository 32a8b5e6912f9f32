#include "store/encoding.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace ssdfail::store {

// Payload bytes are copied to and from typed columns with memcpy, and
// packed words are assembled with plain 64-bit loads: both are only the
// on-disk little-endian layout on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the v3 column codec assumes a little-endian host");

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("column codec: " + what);
}

[[nodiscard]] std::uint64_t zigzag_encode(std::int64_t d) noexcept {
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

[[nodiscard]] std::uint64_t zigzag_decode(std::uint64_t z) noexcept {
  return (z >> 1) ^ (0ull - (z & 1));
}

[[nodiscard]] std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

[[nodiscard]] std::size_t packed_bytes(std::size_t count, unsigned width) noexcept {
  return (count * width + 7) / 8;
}

// --- Encode ---------------------------------------------------------------

/// Write `count` values of `width` bits (get(i) yields value i, already
/// below 2^width) as one block: the width byte, then the LSB-first bit
/// stream.  A 64-bit window collects values and is flushed eight bytes at
/// a time; the last partial word is flushed byte by byte, so exactly
/// 1 + packed_bytes(count, width) bytes are written.
template <typename Get>
char* pack_block(char* dst, std::size_t count, unsigned width, Get&& get) {
  *dst++ = static_cast<char>(width);
  if (width == 0) return dst;
  std::uint64_t window = 0;
  unsigned used = 0;  // bits of `window` holding data, always < 64 here
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t v = get(i);
    window |= v << used;
    used += width;
    if (used >= 64) {
      std::memcpy(dst, &window, sizeof(window));
      dst += sizeof(window);
      used -= 64;
      window = used == 0 ? 0 : v >> (width - used);  // the bits that did not fit
    }
  }
  for (unsigned b = 0; b < used; b += 8) {
    *dst++ = static_cast<char>(window);
    window >>= 8;
  }
  return dst;
}

/// Little-endian `elem_bytes`-byte store of a widened value.
char* put_elem(char* dst, std::uint64_t v, std::size_t elem_bytes) {
  for (std::size_t b = 0; b < elem_bytes; ++b) *dst++ = static_cast<char>(v >> (8 * b));
  return dst;
}

/// Total payload size of the two bitpacked encodings, plus the RLE run
/// count — with the per-block widths left in the scratch, everything the
/// writer needs to pick the smallest encoding, from one pass over the
/// column.
struct EncodingSizes {
  std::size_t delta_bytes = 0;
  std::size_t plain_bytes = 0;
  std::size_t runs = 0;
};

EncodingSizes measure(std::span<const std::uint64_t> values, EncodeScratch& widths) {
  EncodingSizes s;
  const std::size_t n = values.size();
  const std::size_t blocks = (n + kPackBlock - 1) / kPackBlock;
  widths.delta_widths.resize(blocks);
  widths.plain_widths.resize(blocks);
  std::uint64_t prev = 0;
  std::size_t run = 0;  // length of the open RLE run (0: none yet)
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t start = b * kPackBlock;
    const std::size_t count = std::min(kPackBlock, n - start);
    std::uint64_t delta_bits = 0;
    std::uint64_t plain_bits = 0;
    for (std::size_t i = start; i < start + count; ++i) {
      const std::uint64_t v = values[i];
      delta_bits |= zigzag_encode(static_cast<std::int64_t>(v - prev));
      plain_bits |= v;
      if (run == 0 || v != prev || run == std::numeric_limits<std::uint32_t>::max()) {
        ++s.runs;
        run = 1;
      } else {
        ++run;
      }
      prev = v;
    }
    // The OR of a block has the bit width of its largest element.
    widths.delta_widths[b] = static_cast<std::uint8_t>(std::bit_width(delta_bits));
    widths.plain_widths[b] = static_cast<std::uint8_t>(std::bit_width(plain_bits));
    s.delta_bytes += 1 + packed_bytes(count, widths.delta_widths[b]);
    s.plain_bytes += 1 + packed_bytes(count, widths.plain_widths[b]);
  }
  return s;
}

// --- Decode ---------------------------------------------------------------

/// Bounds-checked byte reader over a payload span.
class PayloadCursor {
 public:
  explicit PayloadCursor(std::span<const char> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  [[nodiscard]] const char* take(std::size_t n) {
    if (n > remaining()) fail("truncated column payload");
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const char> bytes_;
  std::size_t pos_ = 0;
};

/// Readable bytes every unpack kernel may touch past a block's last packed
/// byte: a value starting in that byte is read with one 8-byte load, plus
/// a ninth byte for widths above 56.
constexpr std::size_t kUnpackSlack = 8;

/// Receives decoded bitpacked values for one typed column and fuses the
/// range check into the store: a widened value v fits T iff
/// (v + bias) >> bits == 0, bias = 2^(bits-1) for signed T (shifting
/// [-2^(bits-1), 2^(bits-1)) onto [0, 2^bits)) and 0 for unsigned.  The
/// excess bits are OR-ed up and checked once per frame.  kDelta sinks
/// accumulate zigzag deltas first (wrapping: corrupt input must not hit
/// signed overflow).
template <typename T, bool kDelta>
struct TypedSink {
  static constexpr unsigned kBits = 8 * sizeof(T);
  static constexpr std::uint64_t kBias =
      std::is_signed_v<T> ? std::uint64_t{1} << (kBits - 1) : 0;
  /// Widest block a well-formed column of T uses (a delta's zigzag needs
  /// one bit more than the type); wider blocks take the generic kernel.
  static constexpr unsigned kMaxFixedWidth = kBits + 1;

  T* out = nullptr;
  std::uint64_t acc = 0;
  std::uint64_t excess = 0;

  void operator()(std::size_t i, std::uint64_t v) noexcept {
    if constexpr (kDelta) v = acc += zigzag_decode(v);
    excess |= (v + kBias) >> kBits;
    out[i] = static_cast<T>(v);
  }
};

/// Value J of a group of eight W-bit values starting at byte `p` (eight
/// values span exactly W bytes, so every offset and shift is a constant).
template <unsigned W, std::size_t J>
[[nodiscard]] std::uint64_t extract(const unsigned char* p) noexcept {
  static_assert(W >= 1 && W <= 56, "one 8-byte load must cover the value");
  constexpr std::size_t kBit = J * W;
  return (load64(p + kBit / 8) >> (kBit % 8)) & ((std::uint64_t{1} << W) - 1);
}

template <unsigned W, typename Sink, std::size_t... J>
void unpack_group(const unsigned char* p, std::size_t first, Sink& sink,
                  std::index_sequence<J...>) {
  (sink(first + J, extract<W, J>(p)), ...);
}

/// Width-W unpack of `count` values at `p` into sink(i, v).  Sinks travel
/// by value so their state stays in registers: stores through a u8 column
/// pointer could otherwise alias it.
template <unsigned W, typename Sink>
Sink unpack_fixed(const unsigned char* p, std::size_t count, Sink sink) {
  if constexpr (W == 0) {
    for (std::size_t i = 0; i < count; ++i) sink(i, 0);
  } else {
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8, p += W)
      unpack_group<W>(p, i, sink, std::make_index_sequence<8>{});
    for (std::size_t bit = 0; i < count; ++i, bit += W)
      sink(i, (load64(p + bit / 8) >> (bit % 8)) & ((std::uint64_t{1} << W) - 1));
  }
  return sink;
}

/// Any width 1..64 (runtime): the fallback for blocks wider than a
/// well-formed column of the sink's type ever writes.
template <typename Sink>
Sink unpack_any(const unsigned char* p, std::size_t count, unsigned width, Sink sink) {
  const std::uint64_t mask = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  for (std::size_t i = 0, bit = 0; i < count; ++i, bit += width) {
    const unsigned char* q = p + bit / 8;
    const unsigned shift = bit % 8;
    std::uint64_t v = load64(q) >> shift;
    if (shift + width > 64) v |= std::uint64_t{q[8]} << (64 - shift);
    sink(i, v & mask);
  }
  return sink;
}

template <typename Sink>
using Kernel = Sink (*)(const unsigned char*, std::size_t, Sink);

template <typename Sink, std::size_t... W>
constexpr std::array<Kernel<Sink>, sizeof...(W)> fixed_kernels(std::index_sequence<W...>) {
  return {&unpack_fixed<W, Sink>...};
}

/// Decode a block-bitpacked payload into `out` (kDelta: zigzag deltas).
/// Blocks decode in place from the payload when kUnpackSlack bytes follow
/// them; a frame's last block is copied into a zero-padded buffer first,
/// so no kernel reads past the payload.
template <typename T, bool kDelta>
void unpack_payload(std::span<const char> payload, std::span<T> out) {
  using Sink = TypedSink<T, kDelta>;
  static constexpr auto kKernels =
      fixed_kernels<Sink>(std::make_index_sequence<Sink::kMaxFixedWidth + 1>{});
  alignas(8) unsigned char padded[kPackBlock * 8 + kUnpackSlack];
  Sink sink{};
  PayloadCursor cur(payload);
  for (std::size_t start = 0; start < out.size(); start += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, out.size() - start);
    const unsigned width = cur.u8();
    if (width > 64) fail("bitpack width > 64");
    const std::size_t bytes = packed_bytes(count, width);
    const auto* src = reinterpret_cast<const unsigned char*>(cur.take(bytes));
    if (cur.remaining() < kUnpackSlack) {
      std::memcpy(padded, src, bytes);
      std::memset(padded + bytes, 0, kUnpackSlack);
      src = padded;
    }
    sink.out = out.data() + start;
    sink = width < kKernels.size() ? kKernels[width](src, count, sink)
                                   : unpack_any(src, count, width, sink);
  }
  if (!cur.done()) fail("trailing bytes after bitpack payload");
  if (sink.excess != 0) fail("decoded value out of range for column type");
}

}  // namespace

EncodedPayload encode_column(std::span<const std::uint64_t> values, std::size_t elem_bytes,
                             std::span<char> out, EncodeScratch& scratch) {
  const std::size_t n = values.size();
  if (out.size() < n * elem_bytes) throw std::length_error("column codec: output too small");
  const EncodingSizes sizes = measure(values, scratch);

  EncodedPayload enc;
  enc.bytes = n * elem_bytes;  // kRaw
  const auto consider = [&](ColumnEncoding encoding, std::size_t bytes) {
    if (bytes < enc.bytes) {
      enc.encoding = encoding;
      enc.bytes = bytes;
    }
  };
  consider(ColumnEncoding::kDeltaPack, sizes.delta_bytes);
  consider(ColumnEncoding::kBitPack, sizes.plain_bytes);
  consider(ColumnEncoding::kRle, sizes.runs * (sizeof(std::uint32_t) + elem_bytes));

  char* dst = out.data();
  switch (enc.encoding) {
    case ColumnEncoding::kRaw:
      for (const std::uint64_t v : values) dst = put_elem(dst, v, elem_bytes);
      break;
    case ColumnEncoding::kDeltaPack: {
      std::uint64_t prev = 0;
      for (std::size_t b = 0, start = 0; start < n; ++b, start += kPackBlock) {
        dst = pack_block(dst, std::min(kPackBlock, n - start), scratch.delta_widths[b],
                         [&](std::size_t i) {
                           const std::uint64_t v = values[start + i];
                           const std::uint64_t z =
                               zigzag_encode(static_cast<std::int64_t>(v - prev));
                           prev = v;
                           return z;
                         });
      }
      break;
    }
    case ColumnEncoding::kBitPack:
      for (std::size_t b = 0, start = 0; start < n; ++b, start += kPackBlock) {
        dst = pack_block(dst, std::min(kPackBlock, n - start), scratch.plain_widths[b],
                         [&](std::size_t i) { return values[start + i]; });
      }
      break;
    case ColumnEncoding::kRle:
      for (std::size_t i = 0; i < n;) {
        std::size_t run = 1;
        while (i + run < n && values[i + run] == values[i] &&
               run < std::numeric_limits<std::uint32_t>::max())
          ++run;
        dst = put_elem(dst, run, sizeof(std::uint32_t));
        dst = put_elem(dst, values[i], elem_bytes);
        i += run;
      }
      break;
  }
  return enc;
}

template <ColumnElement T>
void decode_column(ColumnEncoding encoding, std::span<const char> payload,
                   std::span<T> out) {
  const std::size_t n = out.size();
  switch (encoding) {
    case ColumnEncoding::kRaw:
      if (payload.size() != n * sizeof(T)) fail("raw payload size mismatch");
      if (n != 0) std::memcpy(out.data(), payload.data(), n * sizeof(T));
      return;
    case ColumnEncoding::kBitPack:
      unpack_payload<T, false>(payload, out);
      return;
    case ColumnEncoding::kDeltaPack:
      unpack_payload<T, true>(payload, out);
      return;
    case ColumnEncoding::kRle: {
      PayloadCursor cur(payload);
      for (std::size_t filled = 0; filled < n;) {
        std::uint32_t run;
        std::memcpy(&run, cur.take(sizeof(run)), sizeof(run));
        if (run == 0 || run > n - filled) fail("rle run overruns column");
        T v;
        std::memcpy(&v, cur.take(sizeof(T)), sizeof(T));
        std::fill_n(out.data() + filled, run, v);
        filled += run;
      }
      if (!cur.done()) fail("trailing bytes after rle payload");
      return;
    }
  }
  fail("unknown column encoding " + std::to_string(static_cast<std::uint32_t>(encoding)));
}

template void decode_column<std::int32_t>(ColumnEncoding, std::span<const char>,
                                          std::span<std::int32_t>);
template void decode_column<std::uint32_t>(ColumnEncoding, std::span<const char>,
                                           std::span<std::uint32_t>);
template void decode_column<std::uint16_t>(ColumnEncoding, std::span<const char>,
                                           std::span<std::uint16_t>);
template void decode_column<std::uint8_t>(ColumnEncoding, std::span<const char>,
                                          std::span<std::uint8_t>);

const char* encoding_name(ColumnEncoding e) noexcept {
  switch (e) {
    case ColumnEncoding::kRaw: return "raw";
    case ColumnEncoding::kDeltaPack: return "delta";
    case ColumnEncoding::kBitPack: return "bitpack";
    case ColumnEncoding::kRle: return "rle";
  }
  return "unknown";
}

}  // namespace ssdfail::store
