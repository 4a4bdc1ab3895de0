#include "crypto/mac.h"

#include <stdexcept>

#include "crypto/blake2s.h"
#include "crypto/hmac.h"

namespace erasmus::crypto {

namespace {

class HmacMac final : public Mac {
 public:
  HmacMac(HashAlgo hash, MacAlgo algo, ByteView key)
      : hmac_(hash, key), algo_(algo) {}

  void update(ByteView data) override { hmac_.update(data); }
  Bytes finalize() override { return hmac_.finalize(); }
  void reset() override { hmac_.reset(); }
  size_t tag_size() const override { return hmac_.tag_size(); }
  MacAlgo algo() const override { return algo_; }

 private:
  Hmac hmac_;
  MacAlgo algo_;
};

class Blake2sMac final : public Mac {
 public:
  explicit Blake2sMac(ByteView key)
      : key_(key.begin(), key.end()), hash_(key, Blake2s::kMaxDigestSize) {}

  void update(ByteView data) override { hash_.update(data); }
  Bytes finalize() override { return hash_.finalize(); }
  void reset() override { hash_.reset(); }
  size_t tag_size() const override { return Blake2s::kMaxDigestSize; }
  MacAlgo algo() const override { return MacAlgo::kKeyedBlake2s; }

 private:
  Bytes key_;
  Blake2s hash_;
};

}  // namespace

std::string to_string(MacAlgo algo) {
  switch (algo) {
    case MacAlgo::kHmacSha1:
      return "HMAC-SHA1";
    case MacAlgo::kHmacSha256:
      return "HMAC-SHA256";
    case MacAlgo::kKeyedBlake2s:
      return "Keyed BLAKE2S";
  }
  return "unknown";
}

const std::vector<MacAlgo>& all_mac_algos() {
  static const std::vector<MacAlgo> algos = {
      MacAlgo::kHmacSha1, MacAlgo::kHmacSha256, MacAlgo::kKeyedBlake2s};
  return algos;
}

bool deprecated_for_deployment(MacAlgo algo) {
  return algo == MacAlgo::kHmacSha1;
}

std::unique_ptr<Mac> Mac::create(MacAlgo algo, ByteView key) {
  switch (algo) {
    case MacAlgo::kHmacSha1:
      return std::make_unique<HmacMac>(HashAlgo::kSha1, algo, key);
    case MacAlgo::kHmacSha256:
      return std::make_unique<HmacMac>(HashAlgo::kSha256, algo, key);
    case MacAlgo::kKeyedBlake2s:
      return std::make_unique<Blake2sMac>(key);
  }
  throw std::invalid_argument("Mac::create: unknown algorithm");
}

Bytes Mac::compute(MacAlgo algo, ByteView key, ByteView message) {
  switch (algo) {
    case MacAlgo::kHmacSha1:
      return Hmac::compute(HashAlgo::kSha1, key, message);
    case MacAlgo::kHmacSha256:
      return Hmac::compute(HashAlgo::kSha256, key, message);
    case MacAlgo::kKeyedBlake2s: {
      Blake2s hash(key, Blake2s::kMaxDigestSize);
      hash.update(message);
      return hash.finalize();
    }
  }
  throw std::invalid_argument("Mac::compute: unknown algorithm");
}

bool Mac::verify(MacAlgo algo, ByteView key, ByteView message, ByteView tag) {
  const Bytes expected = compute(algo, key, message);
  return ct_equal(expected, tag);
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace erasmus::crypto
