// SHA-256 (FIPS 180-2).
//
// Primary hash for ERASMUS measurements (H(mem_t)) and for HMAC-SHA256, the
// default MAC in the paper's SMART+ and HYDRA implementations. Also backs
// the HMAC-DRBG CSPRNG used for irregular measurement intervals (paper §3.5).
// Whole blocks go to the compression kernel chosen at startup (scalar or
// SHA-NI, see sha256_kernels.h); digests do not depend on the choice.
#pragma once

#include <array>
#include <span>

#include "crypto/hash.h"

namespace erasmus::crypto {

class Sha256 final : public Hash {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256() { reset(); }

  void update(ByteView data) override;
  Bytes finalize() override;
  void reset() override;

  /// finalize() into a caller-owned buffer, without allocating.
  void finalize_into(std::span<uint8_t, kDigestSize> out);

  size_t digest_size() const override { return kDigestSize; }
  size_t block_size() const override { return kBlockSize; }
  HashAlgo algo() const override { return HashAlgo::kSha256; }

 private:
  std::array<uint32_t, 8> state_{};
  std::array<uint8_t, kBlockSize> buffer_{};
  uint64_t total_bytes_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace erasmus::crypto
