// Known-answer and property tests for SHA-1 and SHA-256.
//
// KATs are the FIPS 180 / RFC examples ("abc", empty string, two-block
// message, million 'a's) plus streaming-equivalence and reuse properties.
// Each SHA-256 compression kernel is also run on its own against the KATs,
// and the SHA-NI kernel against the scalar reference on random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>

#include "common/hex.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"

namespace erasmus::crypto {
namespace {

Bytes hex(std::string_view s) { return from_hex(s).value(); }

TEST(Sha1, Fips180KnownAnswers) {
  EXPECT_EQ(Hash::digest(HashAlgo::kSha1, bytes_of("abc")),
            hex("a9993e364706816aba3e25717850c26c9cd0d89d"));
  EXPECT_EQ(Hash::digest(HashAlgo::kSha1, bytes_of("")),
            hex("da39a3ee5e6b4b0d3255bfef95601890afd80709"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha1,
                   bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                            "mnopnopq")),
      hex("84983e441c3bd26ebaae4aa1f95129e5e54670f1"));
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize(), hex("34aa973cd4c4daa4f61eeb2bdbad27316534016f"));
}

TEST(Sha256, Fips180KnownAnswers) {
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256, bytes_of("abc")),
      hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256, bytes_of("")),
      hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"));
  EXPECT_EQ(
      Hash::digest(HashAlgo::kSha256,
                   bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                            "mnopnopq")),
      hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"));
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(20000, 'a');
  for (int i = 0; i < 50; ++i) h.update(chunk);
  EXPECT_EQ(
      h.finalize(),
      hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"));
}

TEST(Sha256, FinalizeResetsForReuse) {
  Sha256 h;
  h.update(bytes_of("abc"));
  const Bytes first = h.finalize();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finalize(), first);
}

TEST(Sha256, ResetDiscardsPendingInput) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finalize(), Hash::digest(HashAlgo::kSha256, bytes_of("abc")));
}

TEST(Sha256, MetadataMatchesSpec) {
  Sha256 h;
  EXPECT_EQ(h.digest_size(), 32u);
  EXPECT_EQ(h.block_size(), 64u);
  EXPECT_EQ(h.algo(), HashAlgo::kSha256);
}

TEST(Sha1, MetadataMatchesSpec) {
  Sha1 h;
  EXPECT_EQ(h.digest_size(), 20u);
  EXPECT_EQ(h.block_size(), 64u);
}

TEST(HashFactory, CreatesEveryAlgorithm) {
  for (auto algo :
       {HashAlgo::kSha1, HashAlgo::kSha256, HashAlgo::kBlake2s}) {
    auto h = Hash::create(algo);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->algo(), algo);
  }
}

TEST(HashNames, AreHumanReadable) {
  EXPECT_EQ(to_string(HashAlgo::kSha1), "SHA-1");
  EXPECT_EQ(to_string(HashAlgo::kSha256), "SHA-256");
  EXPECT_EQ(to_string(HashAlgo::kBlake2s), "BLAKE2s");
}

// --- SHA-256 compression kernels ---------------------------------------------

using detail::Sha256Compress;

constexpr std::array<uint32_t, 8> kSha256Iv = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};

// SHA-256 of `msg` with all padded blocks passed to `kernel` in one call,
// bypassing Sha256 and its dispatch.
Bytes digest_with_kernel(Sha256Compress kernel, ByteView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bit_len = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bit_len >> (8 * i)));
  }
  std::array<uint32_t, 8> state = kSha256Iv;
  kernel(state.data(), padded.data(), padded.size() / 64);
  Bytes out;
  for (uint32_t word : state) {
    for (int i = 3; i >= 0; --i) {
      out.push_back(static_cast<uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

void expect_fips180_vectors(Sha256Compress kernel) {
  EXPECT_EQ(
      digest_with_kernel(kernel, bytes_of("abc")),
      hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"));
  EXPECT_EQ(
      digest_with_kernel(kernel, bytes_of("")),
      hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"));
  EXPECT_EQ(
      digest_with_kernel(
          kernel, bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                           "mnopnopq")),
      hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"));
  EXPECT_EQ(
      digest_with_kernel(
          kernel, bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklm"
                           "ghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrs"
                           "mnopqrstnopqrstu")),
      hex("cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"));
  EXPECT_EQ(
      digest_with_kernel(kernel, Bytes(1000000, 'a')),
      hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"));
}

TEST(Sha256Kernel, ScalarMatchesFips180) {
  expect_fips180_vectors(detail::sha256_compress_scalar);
}

TEST(Sha256Kernel, ShaNiMatchesFips180) {
  const Sha256Compress shani = detail::sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "CPU or build lacks SHA-NI";
  expect_fips180_vectors(shani);
}

TEST(Sha256Kernel, DispatchPicksShaNiWhenAvailable) {
  const Sha256Compress shani = detail::sha256_shani_kernel();
  EXPECT_EQ(detail::sha256_kernel(),
            shani != nullptr ? shani : detail::sha256_compress_scalar);
  EXPECT_EQ(std::string(detail::sha256_kernel_name()),
            shani != nullptr ? "sha-ni" : "scalar");
}

// Differential: the SHA-NI kernel must leave the same chaining value as the
// scalar reference for any number of blocks in one call, from any start
// alignment and any (non-IV) input state.
TEST(Sha256Kernel, ShaNiMatchesScalarOnRandomBlocks) {
  const Sha256Compress shani = detail::sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "CPU or build lacks SHA-NI";
  std::mt19937_64 rng(20181);
  Bytes buf(4096 + 16);
  for (int trial = 0; trial < 300; ++trial) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng());
    const size_t len = rng() % 4097;
    const size_t misalign = rng() % 16;
    std::array<uint32_t, 8> scalar_state{};
    for (auto& w : scalar_state) w = static_cast<uint32_t>(rng());
    std::array<uint32_t, 8> shani_state = scalar_state;
    detail::sha256_compress_scalar(scalar_state.data(), buf.data() + misalign,
                                   len / 64);
    shani(shani_state.data(), buf.data() + misalign, len / 64);
    ASSERT_EQ(shani_state, scalar_state)
        << "len " << len << " misalign " << misalign;
  }
}

// Differential through Sha256 itself: random lengths, start offsets and
// streaming split points against the scalar kernel fed one padded message.
TEST(Sha256Kernel, StreamingMatchesScalarReference) {
  std::mt19937_64 rng(1009);
  Bytes buf(4096 + 16);
  for (int trial = 0; trial < 300; ++trial) {
    for (auto& b : buf) b = static_cast<uint8_t>(rng());
    const size_t len = rng() % 4097;
    const ByteView msg = ByteView(buf).subspan(rng() % 16, len);
    Sha256 h;
    for (size_t off = 0; off < len;) {
      const size_t take = std::min<size_t>(len - off, rng() % 300);
      h.update(msg.subspan(off, take));
      off += take;
    }
    ASSERT_EQ(h.finalize(),
              digest_with_kernel(detail::sha256_compress_scalar, msg))
        << "len " << len;
  }
}

// Property: chunked streaming must equal one-shot hashing for any chunking
// and any message length straddling block boundaries.
struct StreamCase {
  HashAlgo algo;
  size_t message_len;
  size_t chunk;
};

class HashStreamingProperty : public ::testing::TestWithParam<StreamCase> {};

TEST_P(HashStreamingProperty, ChunkedEqualsOneShot) {
  const auto& p = GetParam();
  Bytes msg(p.message_len);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const Bytes expected = Hash::digest(p.algo, msg);

  auto h = Hash::create(p.algo);
  for (size_t off = 0; off < msg.size(); off += p.chunk) {
    const size_t len = std::min(p.chunk, msg.size() - off);
    h->update(ByteView(msg).subspan(off, len));
  }
  EXPECT_EQ(h->finalize(), expected);
}

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> cases;
  for (auto algo : {HashAlgo::kSha1, HashAlgo::kSha256, HashAlgo::kBlake2s}) {
    for (size_t len : {0ul, 1ul, 55ul, 56ul, 63ul, 64ul, 65ul, 127ul, 128ul,
                       1000ul}) {
      for (size_t chunk : {1ul, 3ul, 64ul, 100ul}) {
        if (chunk <= len || len == 0) {
          cases.push_back({algo, len, std::max<size_t>(chunk, 1)});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgosAndBoundaries, HashStreamingProperty,
                         ::testing::ValuesIn(stream_cases()));

// Property: any single-bit flip changes the digest (avalanche smoke test).
class HashBitFlipProperty : public ::testing::TestWithParam<HashAlgo> {};

TEST_P(HashBitFlipProperty, SingleBitFlipChangesDigest) {
  Bytes msg(129);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);
  const Bytes base = Hash::digest(GetParam(), msg);
  for (size_t byte : {0ul, 63ul, 64ul, 128ul}) {
    Bytes mutated = msg;
    mutated[byte] ^= 0x01;
    EXPECT_NE(Hash::digest(GetParam(), mutated), base)
        << "flip at byte " << byte;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, HashBitFlipProperty,
                         ::testing::Values(HashAlgo::kSha1, HashAlgo::kSha256,
                                           HashAlgo::kBlake2s));

}  // namespace
}  // namespace erasmus::crypto
