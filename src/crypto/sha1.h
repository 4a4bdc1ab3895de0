// SHA-1 (FIPS 180-1, RFC 3174).
//
// Included because the paper's Table 1 reports HMAC-SHA1 ROM sizes "for
// comparison purposes only" (the authors exclude it from deployments due to
// the SHAttered collision). We do the same: it is available for the Table 1
// bench and for protocol tests, and MacAlgo::kHmacSha1 is flagged
// deprecated_for_deployment in the MAC registry.
#pragma once

#include <array>
#include <span>

#include "crypto/hash.h"

namespace erasmus::crypto {

class Sha1 final : public Hash {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;

  Sha1() { reset(); }

  void update(ByteView data) override;
  Bytes finalize() override;
  void reset() override;

  /// finalize() into a caller-owned buffer, without allocating.
  void finalize_into(std::span<uint8_t, kDigestSize> out);

  size_t digest_size() const override { return kDigestSize; }
  size_t block_size() const override { return kBlockSize; }
  HashAlgo algo() const override { return HashAlgo::kSha1; }

 private:
  void process_block(const uint8_t* block);

  std::array<uint32_t, 5> state_{};
  std::array<uint8_t, kBlockSize> buffer_{};
  uint64_t total_bytes_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace erasmus::crypto
