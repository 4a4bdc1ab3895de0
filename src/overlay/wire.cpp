#include "overlay/wire.h"

#include "common/serde.h"

namespace erasmus::overlay {

Bytes CollectFlood::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u8(ttl);
  w.u8(depth);
  w.u8(flags);
  w.u8(inner_type);
  w.u32_list(targets);
  w.var_bytes(request);
  return w.take();
}

std::optional<CollectFlood> CollectFlood::deserialize(ByteView data) {
  ByteReader r(data);
  CollectFlood f;
  f.flood = r.u32();
  f.ttl = r.u8();
  f.depth = r.u8();
  f.flags = r.u8();
  f.inner_type = r.u8();
  f.targets = r.u32_list();
  f.request = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return f;
}

Bytes RelayReport::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u32(origin);
  w.u8(hops);
  w.u8(inner_type);
  w.u8(queue);
  w.u32_list(path);
  w.var_bytes(response);
  return w.take();
}

std::optional<RelayReport> RelayReport::deserialize(ByteView data) {
  ByteReader r(data);
  RelayReport report;
  report.flood = r.u32();
  report.origin = r.u32();
  report.hops = r.u8();
  report.inner_type = r.u8();
  report.queue = r.u8();
  report.path = r.u32_list();
  report.response = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return report;
}

Bytes AggregateReport::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u32(head);
  w.u8(hops);
  w.u8(queue);
  w.u32_list(path);
  w.var_bytes(payload);
  return w.take();
}

std::optional<AggregateReport> AggregateReport::deserialize(ByteView data) {
  ByteReader r(data);
  AggregateReport agg;
  agg.flood = r.u32();
  agg.head = r.u32();
  agg.hops = r.u8();
  agg.queue = r.u8();
  agg.path = r.u32_list();
  agg.payload = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return agg;
}

Bytes ScopedRequest::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u8(inner_type);
  w.u32_list(route);
  w.var_bytes(request);
  return w.take();
}

std::optional<ScopedRequest> ScopedRequest::deserialize(ByteView data) {
  ByteReader r(data);
  ScopedRequest req;
  req.flood = r.u32();
  req.inner_type = r.u8();
  req.route = r.u32_list();
  req.request = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return req;
}

Bytes ScopedNak::serialize() const {
  ByteWriter w;
  w.u32(flood);
  w.u32(target);
  return w.take();
}

std::optional<ScopedNak> ScopedNak::deserialize(ByteView data) {
  ByteReader r(data);
  ScopedNak nak;
  nak.flood = r.u32();
  nak.target = r.u32();
  if (!r.done()) return std::nullopt;
  return nak;
}

Bytes frame_relay(RelayMsg type, ByteView body) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(type));
  w.raw(body);
  return w.take();
}

std::optional<std::pair<RelayMsg, ByteView>> unframe_relay(ByteView data) {
  if (data.empty()) return std::nullopt;
  const uint8_t tag = data[0];
  if (tag < static_cast<uint8_t>(RelayMsg::kCollectFlood) ||
      tag > static_cast<uint8_t>(RelayMsg::kAggregateReport)) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<RelayMsg>(tag), data.subspan(1));
}

}  // namespace erasmus::overlay
