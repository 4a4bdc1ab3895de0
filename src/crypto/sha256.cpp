#include "crypto/sha256.h"

#include <algorithm>
#include <bit>

#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace erasmus::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t load_be32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline uint32_t big_sigma0(uint32_t x) {
  return std::rotr(x, 2) ^ std::rotr(x, 13) ^ std::rotr(x, 22);
}
inline uint32_t big_sigma1(uint32_t x) {
  return std::rotr(x, 6) ^ std::rotr(x, 11) ^ std::rotr(x, 25);
}
inline uint32_t small_sigma0(uint32_t x) {
  return std::rotr(x, 7) ^ std::rotr(x, 18) ^ (x >> 3);
}
inline uint32_t small_sigma1(uint32_t x) {
  return std::rotr(x, 17) ^ std::rotr(x, 19) ^ (x >> 10);
}

#if defined(__x86_64__)

// Rounds 4g..4g+3 of the SHA-NI compression (Intel's SHA extensions
// whitepaper, with the round constants added to the schedule words
// in-register). `w[g % 4]` holds W[4g..4g+3]; the schedule for later groups
// is advanced in place: sha256msg2 finishes W[4g+4..4g+7] (groups 3..14)
// and sha256msg1 starts W[4g+12..4g+15] (groups 1..12).
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void
shani_rounds4(__m128i& abef, __m128i& cdgh, __m128i (&w)[4]) {
  __m128i& cur = w[G % 4];
  __m128i& prev = w[(G + 3) % 4];
  const __m128i msg = _mm_add_epi32(
      cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * G)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  if constexpr (G >= 3 && G <= 14) {
    __m128i& next = w[(G + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4));
    next = _mm_sha256msg2_epu32(next, cur);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
  if constexpr (G >= 1 && G <= 12) prev = _mm_sha256msg1_epu32(prev, cur);
}

__attribute__((target("sha,sse4.1"))) void compress_shani(
    uint32_t* state, const uint8_t* blocks, size_t n_blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* state_lo = reinterpret_cast<__m128i*>(state);
  auto* state_hi = reinterpret_cast<__m128i*>(state + 4);

  // The rounds instruction wants the chaining value as ABEF / CDGH.
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(state_lo), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(state_hi), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byte_swap);
    }
    shani_rounds4<0>(abef, cdgh, w);
    shani_rounds4<1>(abef, cdgh, w);
    shani_rounds4<2>(abef, cdgh, w);
    shani_rounds4<3>(abef, cdgh, w);
    shani_rounds4<4>(abef, cdgh, w);
    shani_rounds4<5>(abef, cdgh, w);
    shani_rounds4<6>(abef, cdgh, w);
    shani_rounds4<7>(abef, cdgh, w);
    shani_rounds4<8>(abef, cdgh, w);
    shani_rounds4<9>(abef, cdgh, w);
    shani_rounds4<10>(abef, cdgh, w);
    shani_rounds4<11>(abef, cdgh, w);
    shani_rounds4<12>(abef, cdgh, w);
    shani_rounds4<13>(abef, cdgh, w);
    shani_rounds4<14>(abef, cdgh, w);
    shani_rounds4<15>(abef, cdgh, w);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(state_lo, _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(state_hi, _mm_alignr_epi8(cdgh, tmp, 8));
}

bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx >> 9) & 1;
  const bool sse41 = (ecx >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx >> 29) & 1;
  return ssse3 && sse41 && sha;
}

#endif  // __x86_64__

}  // namespace

namespace detail {

void sha256_compress_scalar(uint32_t* state, const uint8_t* blocks,
                            size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
             w[i - 16];
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t t1 =
          h + big_sigma1(e) + ((e & f) ^ (~e & g)) + kK[i] + w[i];
      const uint32_t t2 = big_sigma0(a) + ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compress sha256_shani_kernel() {
#if defined(__x86_64__)
  static const bool supported = cpu_has_shani();
  if (supported) return compress_shani;
#endif
  return nullptr;
}

Sha256Compress sha256_kernel() {
  static const Sha256Compress kernel = [] {
    const Sha256Compress shani = sha256_shani_kernel();
    return shani != nullptr ? shani : sha256_compress_scalar;
  }();
  return kernel;
}

const char* sha256_kernel_name() {
  return sha256_kernel() == sha256_compress_scalar ? "scalar" : "sha-ni";
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_bytes_ = 0;
  buffer_len_ = 0;
  buffer_.fill(0);
}

void Sha256::update(ByteView data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::copy_n(data.data(), take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      detail::sha256_kernel()(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const size_t whole_blocks = (data.size() - offset) / kBlockSize;
  if (whole_blocks > 0) {
    detail::sha256_kernel()(state_.data(), data.data() + offset,
                            whole_blocks);
    offset += whole_blocks * kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::copy_n(data.data() + offset, buffer_len_, buffer_.data());
  }
}

Bytes Sha256::finalize() {
  Bytes out(kDigestSize);
  finalize_into(std::span<uint8_t, kDigestSize>(out.data(), kDigestSize));
  return out;
}

void Sha256::finalize_into(std::span<uint8_t, kDigestSize> out) {
  const uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[kBlockSize * 2] = {0x80};
  const size_t rem = static_cast<size_t>(total_bytes_ % kBlockSize);
  const size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(ByteView(pad, pad_len));
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(ByteView(len_be, 8));

  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  reset();
}

}  // namespace erasmus::crypto
