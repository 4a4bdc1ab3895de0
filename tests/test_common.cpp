// Tests for common utilities: hex codec, byte helpers, checked serde.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/serde.h"
#include "common/strings.h"

namespace erasmus {
namespace {

TEST(Hex, EncodesKnownBytes) {
  EXPECT_EQ(to_hex(Bytes{0xde, 0xad, 0xbe, 0xef}), "deadbeef");
  EXPECT_EQ(to_hex(Bytes{0x00}), "00");
  EXPECT_EQ(to_hex(Bytes{}), "");
}

TEST(Hex, DecodesLowerUpperAndPrefixed) {
  EXPECT_EQ(from_hex("deadbeef").value(), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(from_hex("DEADBEEF").value(), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(from_hex("0xDeAdBeEf").value(), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(from_hex("").value(), Bytes{});
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_FALSE(from_hex("0x1").has_value());   // odd after prefix
}

TEST(Hex, RoundTripsRandomishBuffers) {
  Bytes buf;
  for (int i = 0; i < 257; ++i) buf.push_back(static_cast<uint8_t>(i * 37));
  EXPECT_EQ(from_hex(to_hex(buf)).value(), buf);
}

TEST(Hex, AbbreviatesLikeThePaperFigures) {
  // Fig. 3 shows digests as 0xe4b...ce.
  const Bytes b = from_hex("e4b1223344556677ce").value();
  EXPECT_EQ(hex_abbrev(b), "0xe4b...ce");
  EXPECT_EQ(hex_abbrev(Bytes{0xab}), "0xab");
}

TEST(Bytes, ConcatAndAppend) {
  const Bytes a{1, 2}, b{3};
  EXPECT_EQ(concat(a, b), (Bytes{1, 2, 3}));
  Bytes c{9};
  append(c, a);
  EXPECT_EQ(c, (Bytes{9, 1, 2}));
}

TEST(Bytes, EqualComparesContent) {
  EXPECT_TRUE(equal(Bytes{1, 2}, Bytes{1, 2}));
  EXPECT_FALSE(equal(Bytes{1, 2}, Bytes{1, 3}));
  EXPECT_FALSE(equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(equal(Bytes{}, Bytes{}));
}

TEST(Bytes, BytesOfString) {
  EXPECT_EQ(bytes_of("ab"), (Bytes{'a', 'b'}));
  EXPECT_TRUE(bytes_of("").empty());
}

TEST(Serde, WritesLittleEndian) {
  ByteWriter w;
  w.u16(0x0102);
  w.u32(0x03040506);
  w.u64(0x0708090a0b0c0d0eULL);
  const Bytes expected = {0x02, 0x01, 0x06, 0x05, 0x04, 0x03,
                          0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(Serde, ReaderRoundTripsAllWidths) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.var_bytes(Bytes{1, 2, 3});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.var_bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Serde, ReaderDetectsTruncation) {
  ByteWriter w;
  w.u32(42);
  Bytes data = w.take();
  data.pop_back();
  ByteReader r(data);
  (void)r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
}

TEST(Serde, ReaderStaysFailedAfterFirstError) {
  ByteReader r(Bytes{0x01});
  (void)r.u32();  // fails
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // subsequent reads return zero
  EXPECT_FALSE(r.ok());
}

TEST(Serde, VarBytesWithHugeLengthPrefixFails) {
  ByteWriter w;
  w.u32(0xffffffffu);  // length prefix far beyond the buffer
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.var_bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serde, EmptyVarBytesRoundTrip) {
  ByteWriter w;
  w.var_bytes({});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.var_bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, RemainingTracksConsumption) {
  ByteWriter w;
  w.u64(1);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Serde, U32ListRoundTripsCountThenLittleEndianValues) {
  ByteWriter w;
  w.u32_list({7, 0x01020304u});
  EXPECT_EQ(w.bytes(), (Bytes{2, 0, 0, 0, 7, 0, 0, 0, 4, 3, 2, 1}));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32_list(), (std::vector<uint32_t>{7, 0x01020304u}));
  EXPECT_TRUE(r.done());

  ByteWriter empty;
  empty.u32_list({});
  ByteReader e(empty.bytes());
  EXPECT_TRUE(e.u32_list().empty());
  EXPECT_TRUE(e.done());
}

TEST(Serde, U32ListCountBeyondInputFails) {
  // One entry short, and a count no input could cover: both are rejected
  // before any entry is read.
  for (const uint32_t count : {3u, 0xffffffffu}) {
    ByteWriter w;
    w.u32(count);
    w.u32(1);
    w.u32(2);
    ByteReader r(w.bytes());
    EXPECT_TRUE(r.u32_list().empty()) << count;
    EXPECT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.remaining(), 8u) << "no entry consumed for count " << count;
  }
}

TEST(Strings, JsonQuoteWrapsTheEscapedText) {
  EXPECT_EQ(json_quote(""), "\"\"");
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// Property: round-trip of every u64 bit pattern sampled at byte boundaries.
class SerdeU64Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeU64Property, RoundTrips) {
  ByteWriter w;
  w.u64(GetParam());
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u64(), GetParam());
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SerdeU64Property,
    ::testing::Values(0ull, 1ull, 0xffull, 0xff00ull, 0xffffffffull,
                      0x8000000000000000ull, 0xffffffffffffffffull,
                      0x0123456789abcdefull, 1492453673ull));

}  // namespace
}  // namespace erasmus
