// HMAC known-answer tests (RFC 2202 for SHA-1, RFC 4231 for SHA-256) and
// tests for the Mac abstraction used by the measurement code.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"

namespace erasmus::crypto {
namespace {

Bytes hex(std::string_view s) { return from_hex(s).value(); }

TEST(HmacSha1, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(Hmac::compute(HashAlgo::kSha1, key, bytes_of("Hi There")),
            hex("b617318655057264e28bc0b6fb378c8ef146be00"));
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(Hmac::compute(HashAlgo::kSha1, bytes_of("Jefe"),
                          bytes_of("what do ya want for nothing?")),
            hex("effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"));
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key, bytes_of("Hi There")),
      hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"));
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, bytes_of("Jefe"),
                    bytes_of("what do ya want for nothing?")),
      hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"));
}

TEST(HmacSha256, Rfc4231Case3FiftyAa) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key, data),
      hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"));
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      Hmac::compute(HashAlgo::kSha256, key,
                    bytes_of("Test Using Larger Than Block-Size Key - Hash "
                             "Key First")),
      hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"));
}

TEST(HmacSha256, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      Hmac::compute(
          HashAlgo::kSha256, key,
          bytes_of("This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm.")),
      hex("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"));
}

TEST(Hmac, RejectsHashWithoutHmacConstruction) {
  EXPECT_THROW(Hmac(HashAlgo::kBlake2s, bytes_of("key")),
               std::invalid_argument);
}

// RFC 2104 written out with the streaming Hash interface:
// H((K' ^ opad) || H((K' ^ ipad) || m)), K' = key, or H(key) if longer
// than a block, zero-padded to a block.
Bytes reference_hmac(HashAlgo algo, ByteView key, ByteView message) {
  auto h = Hash::create(algo);
  Bytes k(key.begin(), key.end());
  if (k.size() > h->block_size()) k = Hash::digest(algo, k);
  k.resize(h->block_size(), 0x00);
  Bytes pad(k.size());
  for (size_t i = 0; i < k.size(); ++i) pad[i] = k[i] ^ 0x36;
  h->update(pad);
  h->update(message);
  const Bytes inner = h->finalize();
  for (size_t i = 0; i < k.size(); ++i) pad[i] = k[i] ^ 0x5c;
  h->update(pad);
  h->update(inner);
  return h->finalize();
}

// Property: around the block-size key boundary (hashed above 64 bytes,
// zero-padded at or below), the one-shot MAC, the verifier and one streamed
// Hmac reused across several messages all agree with the RFC formula. The
// reuse exercises the restart from the keyed midstates.
struct KeyLengthCase {
  MacAlgo mac;
  HashAlgo hash;
  size_t key_len;
};

class HmacKeyLengthProperty : public ::testing::TestWithParam<KeyLengthCase> {
};

TEST_P(HmacKeyLengthProperty, OneShotVerifyAndReusedStreamAgree) {
  const auto& p = GetParam();
  Bytes key(p.key_len);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i * 29 + 11);
  }
  Hmac streamed(p.hash, key);
  const std::vector<Bytes> messages = {
      bytes_of(""), bytes_of("t=42|digest"), Bytes(55, 0x5a), Bytes(56, 0xa5),
      Bytes(200, 0x01)};
  for (const Bytes& msg : messages) {
    const Bytes tag = Mac::compute(p.mac, key, msg);
    EXPECT_EQ(tag, reference_hmac(p.hash, key, msg)) << msg.size();
    EXPECT_TRUE(Mac::verify(p.mac, key, msg, tag)) << msg.size();
    const size_t half = msg.size() / 2;
    streamed.update(ByteView(msg).first(half));
    streamed.update(ByteView(msg).subspan(half));
    EXPECT_EQ(streamed.finalize(), tag) << msg.size();
  }
}

std::vector<KeyLengthCase> key_length_cases() {
  std::vector<KeyLengthCase> cases;
  for (size_t len : {0ul, 63ul, 64ul, 65ul, 131ul}) {
    cases.push_back({MacAlgo::kHmacSha1, HashAlgo::kSha1, len});
    cases.push_back({MacAlgo::kHmacSha256, HashAlgo::kSha256, len});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    BlockBoundaryKeys, HmacKeyLengthProperty,
    ::testing::ValuesIn(key_length_cases()),
    [](const ::testing::TestParamInfo<KeyLengthCase>& info) {
      const char* hash = info.param.hash == HashAlgo::kSha1 ? "Sha1" : "Sha256";
      return std::string(hash) + "_key" + std::to_string(info.param.key_len);
    });

TEST(Hmac, StreamingEqualsOneShot) {
  Hmac mac(HashAlgo::kSha256, bytes_of("key"));
  mac.update(bytes_of("hello "));
  mac.update(bytes_of("world"));
  EXPECT_EQ(mac.finalize(), Hmac::compute(HashAlgo::kSha256, bytes_of("key"),
                                          bytes_of("hello world")));
}

TEST(Hmac, FinalizeResetsForSameKey) {
  Hmac mac(HashAlgo::kSha256, bytes_of("key"));
  mac.update(bytes_of("m1"));
  const Bytes t1 = mac.finalize();
  mac.update(bytes_of("m1"));
  EXPECT_EQ(mac.finalize(), t1);
}

// --- Mac abstraction ---------------------------------------------------------

TEST(Mac, FactoryCoversAllAlgorithms) {
  for (auto algo : all_mac_algos()) {
    auto mac = Mac::create(algo, bytes_of("0123456789abcdef0123456789abcdef"));
    ASSERT_NE(mac, nullptr);
    EXPECT_EQ(mac->algo(), algo);
    EXPECT_GT(mac->tag_size(), 0u);
  }
}

TEST(Mac, HmacImplementationsMatchHmacClass) {
  const Bytes key = bytes_of("some key");
  const Bytes msg = bytes_of("some message");
  EXPECT_EQ(Mac::compute(MacAlgo::kHmacSha1, key, msg),
            Hmac::compute(HashAlgo::kSha1, key, msg));
  EXPECT_EQ(Mac::compute(MacAlgo::kHmacSha256, key, msg),
            Hmac::compute(HashAlgo::kSha256, key, msg));
}

TEST(Mac, VerifyAcceptsValidTag) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  for (auto algo : all_mac_algos()) {
    const Bytes tag = Mac::compute(algo, key, msg);
    EXPECT_TRUE(Mac::verify(algo, key, msg, tag)) << to_string(algo);
  }
}

TEST(Mac, VerifyRejectsTamperedTagMessageOrKey) {
  const Bytes key = bytes_of("k");
  const Bytes msg = bytes_of("m");
  for (auto algo : all_mac_algos()) {
    Bytes tag = Mac::compute(algo, key, msg);
    Bytes bad_tag = tag;
    bad_tag[0] ^= 1;
    EXPECT_FALSE(Mac::verify(algo, key, msg, bad_tag));
    EXPECT_FALSE(Mac::verify(algo, key, bytes_of("m2"), tag));
    EXPECT_FALSE(Mac::verify(algo, bytes_of("k2"), msg, tag));
    EXPECT_FALSE(Mac::verify(algo, key, msg, Bytes(tag.begin(), tag.end() - 1)));
  }
}

TEST(Mac, NamesMatchTable1) {
  EXPECT_EQ(to_string(MacAlgo::kHmacSha1), "HMAC-SHA1");
  EXPECT_EQ(to_string(MacAlgo::kHmacSha256), "HMAC-SHA256");
  EXPECT_EQ(to_string(MacAlgo::kKeyedBlake2s), "Keyed BLAKE2S");
}

TEST(Mac, Sha1IsDeprecatedForDeployment) {
  // The paper: "We exclude it in our actual implementations due to a recent
  // collision attack in SHA1."
  EXPECT_TRUE(deprecated_for_deployment(MacAlgo::kHmacSha1));
  EXPECT_FALSE(deprecated_for_deployment(MacAlgo::kHmacSha256));
  EXPECT_FALSE(deprecated_for_deployment(MacAlgo::kKeyedBlake2s));
}

TEST(CtEqual, ComparesCorrectly) {
  EXPECT_TRUE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

// Property: tags from different algorithms never collide structurally and
// streaming matches one-shot for every algorithm across sizes.
struct MacCase {
  MacAlgo algo;
  size_t len;
};

class MacStreamingProperty : public ::testing::TestWithParam<MacCase> {};

TEST_P(MacStreamingProperty, StreamingEqualsOneShot) {
  const auto& p = GetParam();
  const Bytes key = bytes_of("shared-device-key-K");
  Bytes msg(p.len);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 17 + 3);
  }
  auto mac = Mac::create(p.algo, key);
  for (size_t off = 0; off < msg.size(); off += 37) {
    mac->update(ByteView(msg).subspan(off, std::min<size_t>(37, p.len - off)));
  }
  EXPECT_EQ(mac->finalize(), Mac::compute(p.algo, key, msg));
}

std::vector<MacCase> mac_cases() {
  std::vector<MacCase> cases;
  for (auto algo : all_mac_algos()) {
    for (size_t len : {0ul, 1ul, 64ul, 65ul, 512ul, 10000ul}) {
      cases.push_back({algo, len});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgosAndSizes, MacStreamingProperty,
                         ::testing::ValuesIn(mac_cases()));

}  // namespace
}  // namespace erasmus::crypto
