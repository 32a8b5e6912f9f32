// Unit suite for the v3 column codecs (store/encoding.hpp): round-trips
// across every encoding and value shape, writer selection sanity, the
// corrupt-payload rejection contract (clean throw, never UB — this binary
// runs in the ASan CI lane via the store test targets), and an oracle
// property test against the reference codec below.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "stats/rng.hpp"
#include "store/encoding.hpp"

namespace ssdfail::store {
namespace {

/// One encoded column: the chosen encoding plus its payload bytes.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  std::vector<char> payload;
};

/// encode_column into a fresh raw-sized buffer and scratch.
EncodedColumn encode(std::span<const std::uint64_t> values, std::size_t elem_bytes) {
  std::vector<char> out(values.size() * elem_bytes);
  EncodeScratch scratch;
  const EncodedPayload enc = encode_column(values, elem_bytes, out, scratch);
  out.resize(enc.bytes);
  return {enc.encoding, std::move(out)};
}

// --- Reference codec -------------------------------------------------------
// The first v3 codec, kept verbatim in spirit as the oracle: it packs and
// unpacks one bit slice at a time, builds all four payloads and keeps the
// strictly smallest, and decodes into widened u64 values that are then
// range-checked and narrowed.  Slow and obviously correct; the production
// codec must match it byte for byte (encode) and value for value (decode).
namespace reference {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("reference codec: " + what);
}

std::uint64_t zigzag_encode(std::int64_t d) {
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

std::uint64_t zigzag_decode(std::uint64_t z) { return (z >> 1) ^ (0ull - (z & 1)); }

void pack_block(std::vector<char>& out, std::span<const std::uint64_t> block,
                unsigned width) {
  out.push_back(static_cast<char>(width));
  if (width == 0) return;
  const std::size_t first = out.size();
  out.resize(first + (block.size() * width + 7) / 8, '\0');
  std::size_t bitpos = 0;
  for (const std::uint64_t v : block) {
    unsigned put = 0;
    while (put < width) {
      const std::size_t byte = first + (bitpos >> 3);
      const unsigned offset = bitpos & 7u;
      const unsigned take = std::min(8u - offset, width - put);
      const auto chunk = static_cast<std::uint8_t>(
          (v >> put) & ((std::uint64_t{1} << take) - 1));
      out[byte] = static_cast<char>(static_cast<std::uint8_t>(out[byte]) |
                                    (chunk << offset));
      put += take;
      bitpos += take;
    }
  }
}

std::vector<char> bitpack_payload(std::span<const std::uint64_t> values) {
  std::vector<char> out;
  for (std::size_t start = 0; start < values.size(); start += kPackBlock) {
    const auto block = values.subspan(start, std::min(kPackBlock, values.size() - start));
    unsigned width = 0;
    for (const std::uint64_t v : block)
      width = std::max(width, static_cast<unsigned>(std::bit_width(v)));
    pack_block(out, block, width);
  }
  return out;
}

std::vector<char> delta_payload(std::span<const std::uint64_t> values) {
  std::vector<std::uint64_t> deltas;
  std::uint64_t prev = 0;
  for (const std::uint64_t v : values) {
    deltas.push_back(zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
  return bitpack_payload(deltas);
}

std::vector<char> raw_payload(std::span<const std::uint64_t> values, std::size_t elem_bytes) {
  std::vector<char> out;
  for (const std::uint64_t v : values)
    for (std::size_t b = 0; b < elem_bytes; ++b) out.push_back(static_cast<char>(v >> (8 * b)));
  return out;
}

std::vector<char> rle_payload(std::span<const std::uint64_t> values, std::size_t elem_bytes) {
  std::vector<char> out;
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i] &&
           run < std::numeric_limits<std::uint32_t>::max())
      ++run;
    for (std::size_t b = 0; b < 4; ++b) out.push_back(static_cast<char>(run >> (8 * b)));
    for (std::size_t b = 0; b < elem_bytes; ++b)
      out.push_back(static_cast<char>(values[i] >> (8 * b)));
    i += run;
  }
  return out;
}

/// Every encoding's payload, in the writer's tie order.
std::vector<EncodedColumn> all_payloads(std::span<const std::uint64_t> values,
                                        std::size_t elem_bytes) {
  return {{ColumnEncoding::kRaw, raw_payload(values, elem_bytes)},
          {ColumnEncoding::kDeltaPack, delta_payload(values)},
          {ColumnEncoding::kBitPack, bitpack_payload(values)},
          {ColumnEncoding::kRle, rle_payload(values, elem_bytes)}};
}

/// The strictly smallest payload, earliest in tie order.
EncodedColumn smallest(const std::vector<EncodedColumn>& payloads) {
  EncodedColumn best = payloads.front();
  for (const EncodedColumn& p : payloads)
    if (p.payload.size() < best.payload.size()) best = p;
  return best;
}

class Cursor {
 public:
  explicit Cursor(std::span<const char> bytes) : bytes_(bytes) {}
  std::uint64_t little(std::size_t n) {
    if (n > bytes_.size() - pos_) fail("truncated");
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < n; ++b)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_ + b])) << (8 * b);
    pos_ += n;
    return v;
  }
  const char* take(std::size_t n) {
    if (n > bytes_.size() - pos_) fail("truncated");
    pos_ += n;
    return bytes_.data() + pos_ - n;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const char> bytes_;
  std::size_t pos_ = 0;
};

void unpack_block(Cursor& cur, std::size_t count, std::vector<std::uint64_t>& out) {
  const auto width = static_cast<unsigned>(cur.little(1));
  if (width > 64) fail("width > 64");
  if (width == 0) {
    out.insert(out.end(), count, 0);
    return;
  }
  const char* p = cur.take((count * width + 7) / 8);
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    unsigned got = 0;
    while (got < width) {
      const auto byte = static_cast<std::uint8_t>(p[bitpos >> 3]);
      const unsigned offset = bitpos & 7u;
      const unsigned take = std::min(8u - offset, width - got);
      v |= static_cast<std::uint64_t>((byte >> offset) & ((1u << take) - 1)) << got;
      got += take;
      bitpos += take;
    }
    out.push_back(v);
  }
}

/// Widened decode, range-checked against an `elem_bytes`-sized (signed or
/// unsigned) destination — then the caller narrows.
std::vector<std::uint64_t> decode_column(ColumnEncoding encoding, std::span<const char> payload,
                                         std::size_t n, std::size_t elem_bytes,
                                         bool is_signed) {
  const auto sign_extend = [&](std::uint64_t v) {
    if (is_signed && (v >> (8 * elem_bytes - 1)) & 1)
      v |= ~((std::uint64_t{1} << (8 * elem_bytes)) - 1);
    return v;
  };
  const auto range_check = [&](std::uint64_t v) {
    const unsigned bits = 8 * static_cast<unsigned>(elem_bytes);
    const bool ok = is_signed ? static_cast<std::int64_t>(v) >= -(std::int64_t{1} << (bits - 1)) &&
                                    static_cast<std::int64_t>(v) < (std::int64_t{1} << (bits - 1))
                              : v < (std::uint64_t{1} << bits);
    if (!ok) fail("out of range");
  };
  std::vector<std::uint64_t> out;
  Cursor cur(payload);
  switch (encoding) {
    case ColumnEncoding::kRaw:
      if (payload.size() != n * elem_bytes) fail("raw size");
      for (std::size_t i = 0; i < n; ++i) out.push_back(sign_extend(cur.little(elem_bytes)));
      return out;
    case ColumnEncoding::kBitPack:
    case ColumnEncoding::kDeltaPack: {
      for (std::size_t start = 0; start < n; start += kPackBlock)
        unpack_block(cur, std::min(kPackBlock, n - start), out);
      if (!cur.done()) fail("trailing bytes");
      std::uint64_t acc = 0;
      for (std::uint64_t& v : out) {
        if (encoding == ColumnEncoding::kDeltaPack) v = acc += zigzag_decode(v);
        range_check(v);
      }
      return out;
    }
    case ColumnEncoding::kRle:
      while (out.size() < n) {
        const std::uint64_t run = cur.little(4);
        if (run == 0 || run > n - out.size()) fail("run overrun");
        out.insert(out.end(), run, sign_extend(cur.little(elem_bytes)));
      }
      if (!cur.done()) fail("trailing bytes");
      return out;
  }
  fail("unknown encoding");
}

}  // namespace reference

// --- Helpers ---------------------------------------------------------------

template <ColumnElement T>
std::vector<T> decode_as(ColumnEncoding encoding, std::span<const char> payload, std::size_t n) {
  std::vector<T> out(n);
  decode_column<T>(encoding, payload, out);
  return out;
}

/// The production decoder either throws exactly when the reference does,
/// or yields the reference's values narrowed to T.
template <ColumnElement T>
void expect_decoders_agree(ColumnEncoding encoding, std::span<const char> payload,
                           std::size_t n, const std::string& what) {
  std::optional<std::vector<std::uint64_t>> want;
  try {
    want = reference::decode_column(encoding, payload, n, sizeof(T), std::is_signed_v<T>);
  } catch (const std::runtime_error&) {
  }
  std::optional<std::vector<T>> got;
  try {
    got = decode_as<T>(encoding, payload, n);
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(want.has_value(), got.has_value())
      << what << ": " << (want ? "reference accepted, codec threw" : "codec accepted");
  if (!want) return;
  std::vector<T> narrowed(n);
  for (std::size_t i = 0; i < n; ++i) narrowed[i] = static_cast<T>((*want)[i]);
  ASSERT_EQ(*got, narrowed) << what;
}

template <ColumnElement T>
std::vector<std::uint64_t> widen(const std::vector<T>& v) {
  std::vector<std::uint64_t> out;
  for (const T x : v)
    out.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
  return out;
}

template <ColumnElement T>
void roundtrip(const std::vector<T>& values) {
  const EncodedColumn enc = encode(widen(values), sizeof(T));
  ASSERT_EQ(values, decode_as<T>(enc.encoding, enc.payload, values.size()))
      << "winner encoding " << encoding_name(enc.encoding);
}

std::vector<char> bytes_of(std::initializer_list<int> bytes) {
  std::vector<char> out;
  for (const int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

// --- Round trips and writer selection --------------------------------------

TEST(ColumnCodec, EmptyColumn) {
  roundtrip(std::vector<std::uint32_t>{});
  roundtrip(std::vector<std::uint8_t>{});
  const EncodedColumn enc = encode({}, 4);
  EXPECT_TRUE(enc.payload.empty());
}

TEST(ColumnCodec, MonotoneCumulativePrefersDelta) {
  std::vector<std::uint32_t> values;
  std::uint32_t v = 1000;
  for (int i = 0; i < 1000; ++i) values.push_back(v += 3);
  const EncodedColumn enc = encode(widen(values), 4);
  EXPECT_EQ(enc.encoding, ColumnEncoding::kDeltaPack);
  EXPECT_LT(enc.payload.size(), values.size());  // ~2 bits/value + headers
  roundtrip(values);
}

TEST(ColumnCodec, ConstantColumnPacksToNearNothing) {
  const std::vector<std::uint32_t> values(4096, 77);
  const EncodedColumn enc = encode(widen(values), 4);
  EXPECT_LE(enc.payload.size(), 64u);  // rle pair or width-0 delta blocks
  roundtrip(values);
}

TEST(ColumnCodec, AllZeroColumn) {
  const std::vector<std::uint32_t> values(1000, 0);
  const EncodedColumn enc = encode(widen(values), 4);
  EXPECT_LE(enc.payload.size(), 40u);
  roundtrip(values);
}

TEST(ColumnCodec, NoisyBoundedValuesBeatRaw) {
  stats::Rng rng(42);
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.next_u32() % 100000);
  const EncodedColumn enc = encode(widen(values), 4);
  EXPECT_LT(enc.payload.size(), values.size() * 4);  // <17 of 32 bits/value
  roundtrip(values);
}

TEST(ColumnCodec, FullRangeUnsignedRoundTrips) {
  stats::Rng rng(7);
  std::vector<std::uint32_t> values;
  for (int i = 0; i < 777; ++i) values.push_back(rng.next_u32());
  values.push_back(std::numeric_limits<std::uint32_t>::max());
  values.push_back(0);
  roundtrip(values);
}

TEST(ColumnCodec, SignedValuesRoundTripAllEncodings) {
  const std::vector<std::int32_t> days = {-100, -1, 0, 1, 5, 5, 5, 1000,
                                          std::numeric_limits<std::int32_t>::min(),
                                          std::numeric_limits<std::int32_t>::max()};
  roundtrip(days);
  // Every encoding's payload, not just the winner's.
  for (const auto& [encoding, payload] : reference::all_payloads(widen(days), 4))
    EXPECT_EQ(days, decode_as<std::int32_t>(encoding, payload, days.size()))
        << encoding_name(encoding);
}

TEST(ColumnCodec, NarrowTypesRoundTrip) {
  stats::Rng rng(9);
  std::vector<std::uint8_t> u8s;
  std::vector<std::uint16_t> u16s;
  for (int i = 0; i < 500; ++i) {
    u8s.push_back(static_cast<std::uint8_t>(rng.next_u32() % 4));  // flags-like
    u16s.push_back(static_cast<std::uint16_t>(rng.next_u32() % 60000));
  }
  roundtrip(u8s);
  roundtrip(u16s);
}

TEST(ColumnCodec, FlagRunsPreferRle) {
  std::vector<std::uint8_t> flags(10000, 0);
  for (std::size_t i = 9000; i < flags.size(); ++i) flags[i] = 2;  // died late
  const EncodedColumn enc = encode(widen(flags), 1);
  EXPECT_LE(enc.payload.size(), 16u);
  roundtrip(flags);
}

TEST(ColumnCodec, RandomColumnsRoundTripAllShapes) {
  stats::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = rng.uniform_index(600);  // includes empty
    const int shape = static_cast<int>(rng.uniform_index(4));
    std::vector<std::uint32_t> values;
    std::uint32_t cum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      switch (shape) {
        case 0: values.push_back(rng.next_u32()); break;  // noise
        case 1:                                           // cumulative
          values.push_back(cum += static_cast<std::uint32_t>(rng.uniform_index(10)));
          break;
        case 2: values.push_back(static_cast<std::uint32_t>(rng.uniform_index(3))); break;
        default: values.push_back(0); break;  // zeros
      }
    }
    roundtrip(values);
  }
}

TEST(ColumnCodec, WritesOnlyItsPayloadWithReusedScratch) {
  // One scratch across columns of shrinking and growing length, each
  // encoded into a larger sentinel-filled buffer: the payload is exactly
  // what a fresh encode produces, and no byte past it is touched.
  stats::Rng rng(77);
  EncodeScratch scratch;
  for (const std::size_t n : {1000u, 3u, 0u, 700u, 129u}) {
    std::vector<std::uint64_t> values;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < n; ++i) values.push_back(cum += rng.uniform_index(5));
    const EncodedColumn fresh = encode(values, 4);
    std::vector<char> out(n * 4 + 16, '\x5a');
    const EncodedPayload enc = encode_column(values, 4, out, scratch);
    EXPECT_EQ(enc.encoding, fresh.encoding);
    ASSERT_EQ(enc.bytes, fresh.payload.size()) << "column of " << n;
    EXPECT_TRUE(std::equal(fresh.payload.begin(), fresh.payload.end(), out.begin()));
    EXPECT_TRUE(std::all_of(out.begin() + static_cast<std::ptrdiff_t>(enc.bytes), out.end(),
                            [](char c) { return c == '\x5a'; }))
        << "column of " << n;
  }
}

TEST(ColumnCodec, RejectsAnOutputSmallerThanTheRawSize) {
  const std::vector<std::uint64_t> values(100, 7);
  std::vector<char> out(399);
  EncodeScratch scratch;
  EXPECT_THROW((void)encode_column(values, 4, out, scratch), std::length_error);
}

// --- Oracle property -------------------------------------------------------

/// Columns whose bitpack (shape 0) or delta (shape 1) block width is
/// exactly `width`: one full block plus a `tail`-value last block.
std::vector<std::uint64_t> width_column(stats::Rng& rng, unsigned width, std::size_t tail,
                                        int shape) {
  const std::uint64_t mask = width == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << width) - 1;
  const std::uint64_t top = width == 0 ? 0 : std::uint64_t{1} << (width - 1);
  std::vector<std::uint64_t> out;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kPackBlock + tail; ++i) {
    std::uint64_t v = rng.next_u64() & mask;
    if (i % kPackBlock == 0 || i + 1 == kPackBlock + tail) v |= top;  // pin the width
    out.push_back(shape == 0 ? v : acc += reference::zigzag_decode(v));
  }
  return out;
}

/// The writer picks the reference's encoding and payload byte for byte,
/// and every encoding's payload decodes exactly as the reference decodes it.
template <ColumnElement T>
void check_against_reference(std::span<const std::uint64_t> values, const std::string& what) {
  const std::vector<EncodedColumn> payloads = reference::all_payloads(values, sizeof(T));
  const EncodedColumn want = reference::smallest(payloads);
  const EncodedColumn got = encode(values, sizeof(T));
  ASSERT_EQ(got.encoding, want.encoding) << what;
  ASSERT_EQ(got.payload, want.payload) << what;
  for (const EncodedColumn& p : payloads)
    expect_decoders_agree<T>(p.encoding, p.payload, values.size(),
                             what + " as " + encoding_name(p.encoding));
}

TEST(ColumnCodec, MatchesReferenceAcrossWidthsTailsAndTypes) {
  stats::Rng rng(2015);
  for (unsigned width = 0; width <= 64; ++width) {
    for (std::size_t tail = 1; tail <= kPackBlock; ++tail) {
      for (int shape = 0; shape < 2; ++shape) {
        const std::vector<std::uint64_t> values = width_column(rng, width, tail, shape);
        const std::string what = "width " + std::to_string(width) + " tail " +
                                 std::to_string(tail) + " shape " + std::to_string(shape);
        check_against_reference<std::uint8_t>(values, what + " u8");
        check_against_reference<std::uint16_t>(values, what + " u16");
        check_against_reference<std::uint32_t>(values, what + " u32");
        check_against_reference<std::int32_t>(values, what + " i32");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(ColumnCodec, InRangeColumnsRoundTripThroughEveryEncoding) {
  stats::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(3 * kPackBlock);
    const unsigned width = static_cast<unsigned>(rng.uniform_index(33));
    std::vector<std::int32_t> i32s;
    std::vector<std::uint32_t> u32s;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = width == 0 ? 0 : rng.next_u64() >> (64 - width);
      u32s.push_back(static_cast<std::uint32_t>(v));
      i32s.push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(v)));
    }
    roundtrip(u32s);
    roundtrip(i32s);
    check_against_reference<std::uint32_t>(widen(u32s), "u32 trial " + std::to_string(trial));
    check_against_reference<std::int32_t>(widen(i32s), "i32 trial " + std::to_string(trial));
  }
}

// --- Rejections ------------------------------------------------------------

TEST(ColumnCodec, DecodeRejectsWrongPayloadSizes) {
  const std::vector<std::uint64_t> values = {1, 2, 3, 4, 5};
  for (const auto& [encoding, payload] : reference::all_payloads(values, 4)) {
    std::vector<char> truncated = payload;
    truncated.pop_back();
    EXPECT_THROW((void)decode_as<std::uint32_t>(encoding, truncated, values.size()),
                 std::runtime_error)
        << encoding_name(encoding);
    std::vector<char> extended = payload;
    extended.push_back('\0');
    EXPECT_THROW((void)decode_as<std::uint32_t>(encoding, extended, values.size()),
                 std::runtime_error)
        << encoding_name(encoding);
  }
}

TEST(ColumnCodec, DecodeRejectsOverWideBitWidth) {
  // Hand-built bitpack block: width byte says 65.
  for (const ColumnEncoding e : {ColumnEncoding::kBitPack, ColumnEncoding::kDeltaPack}) {
    EXPECT_THROW((void)decode_as<std::uint32_t>(e, bytes_of({65}), 1), std::runtime_error);
    std::vector<char> wide = bytes_of({65});
    wide.resize(1 + 65, '\0');  // enough bytes for a 65-bit value
    EXPECT_THROW((void)decode_as<std::uint32_t>(e, wide, 1), std::runtime_error);
  }
}

TEST(ColumnCodec, DecodeRejectsValueOutOfTypeRange) {
  // A width-33 bitpacked value cannot fit u32: 2^32, LSB-first.
  const std::vector<char> width33 = bytes_of({33, 0, 0, 0, 0, 1});
  EXPECT_THROW((void)decode_as<std::uint32_t>(ColumnEncoding::kBitPack, width33, 1),
               std::runtime_error);
  EXPECT_EQ(reference::bitpack_payload(std::vector<std::uint64_t>{std::uint64_t{1} << 32}),
            width33);
  // Nor a width-9 value a u8 column, or a width-17 value a u16 column.
  const auto over = [](unsigned bits) {
    return reference::bitpack_payload(std::vector<std::uint64_t>{std::uint64_t{1} << bits});
  };
  EXPECT_THROW((void)decode_as<std::uint8_t>(ColumnEncoding::kBitPack, over(8), 1),
               std::runtime_error);
  EXPECT_THROW((void)decode_as<std::uint16_t>(ColumnEncoding::kBitPack, over(16), 1),
               std::runtime_error);
  // The same through the writer (8-byte elements, decoded as 4).
  const std::vector<std::uint64_t> big = {std::uint64_t{1} << 32};
  const EncodedColumn enc = encode(big, 8);
  EXPECT_THROW((void)decode_as<std::uint32_t>(enc.encoding, enc.payload, 1),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsDeltaLeavingInt32Range) {
  const auto wide = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  // INT32_MAX then one more: the accumulator leaves int32 in the last value.
  const std::vector<std::uint64_t> up = {wide(std::numeric_limits<std::int32_t>::max()),
                                         wide(std::int64_t{1} << 31)};
  const std::vector<std::uint64_t> down = {wide(std::numeric_limits<std::int32_t>::min()),
                                           wide(-(std::int64_t{1} << 31) - 1)};
  for (const auto& values : {up, down}) {
    const std::vector<char> payload = reference::delta_payload(values);
    EXPECT_THROW((void)decode_as<std::int32_t>(ColumnEncoding::kDeltaPack, payload, 2),
                 std::runtime_error);
    // The first value alone is in range.
    EXPECT_EQ(decode_as<std::int32_t>(ColumnEncoding::kDeltaPack,
                                      reference::delta_payload({values.data(), 1}), 1)[0],
              static_cast<std::int32_t>(values[0]));
  }
  // An unsigned column rejects a delta that goes below zero.
  const std::vector<char> negative = reference::delta_payload(std::vector<std::uint64_t>{
      5, static_cast<std::uint64_t>(-1)});
  EXPECT_THROW((void)decode_as<std::uint32_t>(ColumnEncoding::kDeltaPack, negative, 2),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsTruncatedBlocks) {
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < 2 * kPackBlock + 5; ++i) values.push_back(i % 29);
  const std::vector<char> payload = reference::bitpack_payload(values);
  // Every strict prefix — cut inside a width byte, inside a block, or
  // between blocks — is rejected by both encodings' block reader.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::span<const char> cut(payload.data(), len);
    EXPECT_THROW((void)decode_as<std::uint32_t>(ColumnEncoding::kBitPack, cut, values.size()),
                 std::runtime_error)
        << "prefix " << len;
    EXPECT_THROW(
        (void)decode_as<std::uint32_t>(ColumnEncoding::kDeltaPack, cut, values.size()),
        std::runtime_error)
        << "prefix " << len;
  }
}

TEST(ColumnCodec, DecodeRejectsTrailingBytes) {
  std::vector<std::uint64_t> values(kPackBlock + 3, 9);
  for (const auto& [encoding, payload] : reference::all_payloads(values, 2)) {
    for (const std::size_t extra : {1, 7, 8, 64}) {
      std::vector<char> padded = payload;
      padded.resize(payload.size() + extra, '\0');
      EXPECT_THROW((void)decode_as<std::uint16_t>(encoding, padded, values.size()),
                   std::runtime_error)
          << encoding_name(encoding) << " + " << extra;
    }
  }
  EXPECT_THROW((void)decode_as<std::uint8_t>(ColumnEncoding::kBitPack, bytes_of({0, 0}), 1),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsRleRunOverrun) {
  // run=5 but n=3.
  EXPECT_THROW((void)decode_as<std::uint32_t>(ColumnEncoding::kRle,
                                              bytes_of({5, 0, 0, 0, 0, 0, 0, 0}), 3),
               std::runtime_error);
  // A zero-length run never makes progress.
  EXPECT_THROW((void)decode_as<std::uint32_t>(ColumnEncoding::kRle,
                                              bytes_of({0, 0, 0, 0, 0, 0, 0, 0}), 3),
               std::runtime_error);
}

TEST(ColumnCodec, DecodeRejectsUnknownEncoding) {
  EXPECT_THROW((void)decode_as<std::uint32_t>(static_cast<ColumnEncoding>(99), {}, 0),
               std::runtime_error);
}

}  // namespace
}  // namespace ssdfail::store
