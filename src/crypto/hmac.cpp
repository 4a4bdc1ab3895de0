#include "crypto/hmac.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace erasmus::crypto {

template <class H>
Hmac::Keyed<H>::Keyed(ByteView key) {
  std::array<uint8_t, H::kBlockSize> k{};
  if (key.size() > H::kBlockSize) {
    H h;
    h.update(key);
    h.finalize_into(
        std::span<uint8_t, H::kDigestSize>(k.data(), H::kDigestSize));
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<uint8_t, H::kBlockSize> pad{};
  for (size_t i = 0; i < pad.size(); ++i) pad[i] = k[i] ^ 0x36;
  inner.update(pad);
  for (size_t i = 0; i < pad.size(); ++i) pad[i] = k[i] ^ 0x5c;
  outer.update(pad);
  running = inner;
}

template <class H>
Bytes Hmac::Keyed<H>::finalize() {
  std::array<uint8_t, H::kDigestSize> inner_digest{};
  running.finalize_into(inner_digest);
  running = inner;

  H tag_hash = outer;
  tag_hash.update(inner_digest);
  Bytes tag(H::kDigestSize);
  tag_hash.finalize_into(std::span<uint8_t, H::kDigestSize>(tag.data(),
                                                            H::kDigestSize));
  return tag;
}

Hmac::State Hmac::key_schedule(HashAlgo algo, ByteView key) {
  switch (algo) {
    case HashAlgo::kSha1:
      return State(std::in_place_type<Keyed<Sha1>>, key);
    case HashAlgo::kSha256:
      return State(std::in_place_type<Keyed<Sha256>>, key);
    case HashAlgo::kBlake2s:
      break;
  }
  throw std::invalid_argument("Hmac: needs SHA-1 or SHA-256, got " +
                              to_string(algo));
}

Hmac::Hmac(HashAlgo algo, ByteView key) : state_(key_schedule(algo, key)) {}

void Hmac::reset() {
  std::visit([](auto& keyed) { keyed.running = keyed.inner; }, state_);
}

void Hmac::update(ByteView data) {
  std::visit([data](auto& keyed) { keyed.running.update(data); }, state_);
}

Bytes Hmac::finalize() {
  return std::visit([](auto& keyed) { return keyed.finalize(); }, state_);
}

size_t Hmac::tag_size() const {
  return std::visit(
      [](const auto& keyed) { return keyed.inner.digest_size(); }, state_);
}

Bytes Hmac::compute(HashAlgo algo, ByteView key, ByteView message) {
  Hmac mac(algo, key);
  mac.update(message);
  return mac.finalize();
}

}  // namespace erasmus::crypto
