// HMAC (RFC 2104 / FIPS 198-1) over SHA-1 or SHA-256.
#pragma once

#include <variant>

#include "crypto/hash.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {

/// Streaming HMAC. The key may be any length; keys longer than the hash
/// block size are hashed first, per the RFC. The hash contexts live inside
/// the object: construction absorbs K^ipad and K^opad once, and each message
/// starts from copies of those two midstates, so a tag over a message of at
/// most 55 bytes costs two compressions and nothing is heap-allocated.
class Hmac {
 public:
  /// `algo` must be kSha1 or kSha256; throws std::invalid_argument otherwise.
  Hmac(HashAlgo algo, ByteView key);

  void update(ByteView data);
  /// Returns the tag and resets for a new message under the same key.
  Bytes finalize();
  void reset();

  size_t tag_size() const;

  /// One-shot convenience.
  static Bytes compute(HashAlgo algo, ByteView key, ByteView message);

 private:
  template <class H>
  struct Keyed {
    explicit Keyed(ByteView key);
    /// Tag of the message in `running`, which then restarts from `inner`.
    Bytes finalize();

    H inner;    // H after absorbing K ^ ipad
    H outer;    // H after absorbing K ^ opad
    H running;  // `inner` plus the message so far
  };
  using State = std::variant<Keyed<Sha1>, Keyed<Sha256>>;

  static State key_schedule(HashAlgo algo, ByteView key);

  State state_;
};

}  // namespace erasmus::crypto
