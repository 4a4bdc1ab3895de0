#include "aggregate/frame.h"

#include <algorithm>

#include "common/serde.h"

namespace erasmus::aggregate {

Bytes AggregateFrame::serialize() const {
  ByteWriter w;
  w.raw(aggregate_mac_input(*this));
  w.var_bytes(mac);
  return w.take();
}

std::optional<AggregateFrame> AggregateFrame::deserialize(ByteView data) {
  ByteReader r(data);
  AggregateFrame f;
  f.flood = r.u32();
  f.head = r.u32();
  f.members = r.u32_list();
  // Canonical member order: strictly ascending, so a bit index names
  // exactly one node and duplicate members cannot smuggle two verdicts.
  if (!std::is_sorted(f.members.begin(), f.members.end()) ||
      std::adjacent_find(f.members.begin(), f.members.end()) !=
          f.members.end()) {
    return std::nullopt;
  }
  f.bitmap = r.var_bytes();
  f.root = r.var_bytes();
  f.raw_bytes = r.u32();
  f.mac = r.var_bytes();
  if (!r.done()) return std::nullopt;
  if (f.bitmap.size() != (f.members.size() + 7) / 8) return std::nullopt;
  return f;
}

Bytes aggregate_mac_input(const AggregateFrame& frame) {
  ByteWriter w;
  w.u32(frame.flood);
  w.u32(frame.head);
  w.u32_list(frame.members);
  w.var_bytes(frame.bitmap);
  w.var_bytes(frame.root);
  w.u32(frame.raw_bytes);
  return w.take();
}

bool verify_aggregate(const AggregateFrame& frame, crypto::MacAlgo algo,
                      ByteView key) {
  return crypto::Mac::verify(algo, key, aggregate_mac_input(frame),
                             frame.mac);
}

}  // namespace erasmus::aggregate
