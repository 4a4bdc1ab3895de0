#include "crypto/hash.h"

#include <stdexcept>

#include "crypto/blake2s.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {

std::string to_string(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha1:
      return "SHA-1";
    case HashAlgo::kSha256:
      return "SHA-256";
    case HashAlgo::kBlake2s:
      return "BLAKE2s";
  }
  return "unknown";
}

std::unique_ptr<Hash> Hash::create(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha1:
      return std::make_unique<Sha1>();
    case HashAlgo::kSha256:
      return std::make_unique<Sha256>();
    case HashAlgo::kBlake2s:
      return std::make_unique<Blake2s>();
  }
  throw std::invalid_argument("Hash::create: unknown algorithm");
}

namespace {

template <class H>
Bytes digest_with(ByteView data) {
  H h;
  h.update(data);
  return h.finalize();
}

}  // namespace

Bytes Hash::digest(HashAlgo algo, ByteView data) {
  switch (algo) {
    case HashAlgo::kSha1:
      return digest_with<Sha1>(data);
    case HashAlgo::kSha256:
      return digest_with<Sha256>(data);
    case HashAlgo::kBlake2s:
      return digest_with<Blake2s>(data);
  }
  throw std::invalid_argument("Hash::digest: unknown algorithm");
}

}  // namespace erasmus::crypto
