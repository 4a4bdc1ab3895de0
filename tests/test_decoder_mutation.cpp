// Seeded mutation test over every decoder of radio bytes.
//
// Every frame a device or the verifier parses off the radio is
// attacker-controlled input. Each decoder below is fed valid frames
// mutated by truncation, bit flips, 0xff-inflated count/length fields and
// splices of two valid frames, from a fixed seed and with a fixed budget,
// so a failure replays exactly. The properties checked:
//  * no decode crashes or reads out of bounds (the ASan+UBSan build runs
//    this test like every other one);
//  * every frame a decoder accepts re-encodes to exactly the bytes it was
//    given -- no two encodings decode to the same message, so a relay
//    cannot rewrite a frame into a different but equally valid one.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "aggregate/frame.h"
#include "attest/protocol.h"
#include "overlay/wire.h"
#include "sim/rng.h"

namespace erasmus {
namespace {

constexpr uint64_t kSeed = 20260418;
constexpr int kMutantsPerDecoder = 20000;

/// One decoder under test: valid frames to mutate, and decode-then-encode
/// (nullopt when the decoder rejects its input).
struct Subject {
  std::string name;
  std::vector<Bytes> corpus;
  std::function<std::optional<Bytes>(ByteView)> reencode;
};

template <typename Msg>
Subject subject(std::string name, const std::vector<Msg>& messages) {
  Subject s;
  s.name = std::move(name);
  for (const Msg& m : messages) s.corpus.push_back(m.serialize());
  s.reencode = [](ByteView data) -> std::optional<Bytes> {
    const auto decoded = Msg::deserialize(data);
    if (!decoded) return std::nullopt;
    return decoded->serialize();
  };
  return s;
}

attest::Measurement measurement(crypto::MacAlgo algo, uint64_t t) {
  return attest::compute_measurement(algo, bytes_of("mutation-test-key"),
                                     bytes_of("application memory"), t);
}

std::vector<Subject> subjects() {
  using overlay::kEveryone;
  const attest::Measurement sha256 =
      measurement(crypto::MacAlgo::kHmacSha256, 600);
  const attest::Measurement sha1 = measurement(crypto::MacAlgo::kHmacSha1, 7);

  std::vector<Subject> all;
  all.push_back(subject<overlay::CollectFlood>(
      "CollectFlood",
      {{}, {9, 3, 1, overlay::kFloodAggregate, 1, {4, 8, 15}, bytes_of("k")},
       {0xffffffffu, 0, 255, 0, 3, {kEveryone}, Bytes(40, 0xab)}}));
  all.push_back(subject<overlay::RelayReport>(
      "RelayReport",
      {{}, {42, 9, 5, 2, 37, {9, 4, 2}, bytes_of("payload")},
       {1, 0, 0, 4, 255, {0}, {}}}));
  all.push_back(subject<overlay::AggregateReport>(
      "AggregateReport",
      {{}, {42, 6, 2, 10, {6, 3, 1}, Bytes(24, 0x5a)}}));
  all.push_back(subject<overlay::ScopedRequest>(
      "ScopedRequest",
      {{}, {77, 1, {0, 1, 2, 3}, attest::CollectRequest{4}.serialize()}}));
  all.push_back(subject<overlay::ScopedNak>(
      "ScopedNak", {{}, {77, 3}, {0xffffffffu, 0xfffffffeu}}));

  aggregate::AggregateFrame empty_frame;
  aggregate::AggregateFrame frame;
  frame.flood = 12;
  frame.head = 4;
  frame.members = {1, 2, 5, 9, 11, 13, 20, 21, 30};
  frame.bitmap = {0xb5, 0x01};
  frame.root = Bytes(32, 0x11);
  frame.raw_bytes = 1234;
  frame.mac = Bytes(32, 0x22);
  all.push_back(subject<aggregate::AggregateFrame>("AggregateFrame",
                                                   {empty_frame, frame}));

  all.push_back(subject<attest::Measurement>("Measurement",
                                             {{}, sha256, sha1}));
  all.push_back(subject<attest::CollectRequest>("CollectRequest",
                                                {{0}, {8}, {0xffffffffu}}));
  all.push_back(subject<attest::CollectResponse>(
      "CollectResponse", {{}, {{sha256}}, {{sha256, sha1, {}}}}));
  all.push_back(subject<attest::OdRequest>(
      "OdRequest", {{}, {123456789, 4, Bytes(32, 0x33)}}));
  all.push_back(subject<attest::OdResponse>(
      "OdResponse", {{}, {sha256, {}}, {sha1, {sha1, sha256}}}));
  return all;
}

// --- Mutations ---------------------------------------------------------------

size_t below(sim::Rng& rng, size_t bound) {
  return static_cast<size_t>(rng.next_below(bound));
}

/// A strict prefix (the empty frame included).
void truncate(sim::Rng& rng, Bytes& b) {
  if (!b.empty()) b.resize(below(rng, b.size()));
}

void flip_bits(sim::Rng& rng, Bytes& b) {
  if (b.empty()) return;
  const size_t flips = 1 + below(rng, 3);
  for (size_t i = 0; i < flips; ++i) {
    b[below(rng, b.size())] ^= static_cast<uint8_t>(1u << below(rng, 8));
  }
}

/// Overwrites one to four bytes with 0xff. Counts and length prefixes are
/// little-endian u32s, so this turns them into counts far beyond the
/// frame (the allocation-driving shape) or a few entries too many.
void inflate(sim::Rng& rng, Bytes& b) {
  if (b.empty()) return;
  const size_t at = below(rng, b.size());
  const size_t width = std::min<size_t>(1 + below(rng, 4), b.size() - at);
  for (size_t i = 0; i < width; ++i) b[at + i] = 0xff;
}

/// A prefix of `b` joined to a suffix of `other`: field boundaries of two
/// valid frames land on each other.
void splice(sim::Rng& rng, Bytes& b, const Bytes& other) {
  const size_t head = below(rng, b.size() + 1);
  const size_t tail = below(rng, other.size() + 1);
  b.resize(head);
  b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(tail),
           other.end());
}

Bytes mutant(sim::Rng& rng, const std::vector<Bytes>& corpus) {
  Bytes b = corpus[below(rng, corpus.size())];
  // One to three stacked mutations, so a splice can also be truncated or
  // an inflated count also flipped.
  const size_t rounds = 1 + below(rng, 3);
  for (size_t i = 0; i < rounds; ++i) {
    switch (below(rng, 4)) {
      case 0: truncate(rng, b); break;
      case 1: flip_bits(rng, b); break;
      case 2: inflate(rng, b); break;
      default: splice(rng, b, corpus[below(rng, corpus.size())]); break;
    }
  }
  // An exactly-sized copy: a read past the frame's end then leaves the
  // heap block, where ASan sees it, instead of landing in spare capacity.
  return Bytes(b.begin(), b.end());
}

// --- Properties --------------------------------------------------------------

TEST(DecoderMutation, CorpusRoundTrips) {
  for (const Subject& s : subjects()) {
    for (const Bytes& frame : s.corpus) {
      const auto again = s.reencode(frame);
      ASSERT_TRUE(again.has_value()) << s.name << " rejected a valid frame";
      EXPECT_EQ(*again, frame) << s.name;
    }
  }
}

TEST(DecoderMutation, AcceptedMutantsReencodeToTheSameBytes) {
  sim::Rng rng(kSeed);
  for (const Subject& s : subjects()) {
    size_t accepted = 0;
    size_t rejected = 0;
    size_t noncanonical = 0;
    for (int i = 0; i < kMutantsPerDecoder; ++i) {
      const Bytes input = mutant(rng, s.corpus);
      const auto again = s.reencode(input);
      if (!again) {
        ++rejected;
        continue;
      }
      ++accepted;
      if (*again != input && noncanonical++ == 0) {
        ADD_FAILURE() << s.name << " accepted a non-canonical encoding ("
                      << input.size() << " bytes, mutant " << i << ")";
      }
    }
    EXPECT_EQ(noncanonical, 0u) << s.name;
    // Both outcomes must actually occur, or the mutations are not reaching
    // the decoder's checks.
    EXPECT_GT(accepted, 0u) << s.name;
    EXPECT_GT(rejected, 0u) << s.name;
  }
}

}  // namespace
}  // namespace erasmus
