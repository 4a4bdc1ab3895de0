#include "crypto/sha1.h"

#include <algorithm>
#include <bit>

namespace erasmus::crypto {

namespace {

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

}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffer_len_ = 0;
  buffer_.fill(0);
}

void Sha1::process_block(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = std::rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
           e = state_[4];

  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const uint32_t tmp = std::rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(ByteView data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::copy_n(data.data(), take, buffer_.data() + buffer_len_);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + kBlockSize <= data.size()) {
    process_block(data.data() + offset);
    offset += kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::copy_n(data.data() + offset, buffer_len_, buffer_.data());
  }
}

Bytes Sha1::finalize() {
  Bytes out(kDigestSize);
  finalize_into(std::span<uint8_t, kDigestSize>(out.data(), kDigestSize));
  return out;
}

void Sha1::finalize_into(std::span<uint8_t, kDigestSize> out) {
  const uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  uint8_t pad[kBlockSize * 2] = {0x80};
  const size_t rem = static_cast<size_t>(total_bytes_ % kBlockSize);
  const size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(ByteView(pad, pad_len));
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(ByteView(len_be, 8));

  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  reset();
}

}  // namespace erasmus::crypto
