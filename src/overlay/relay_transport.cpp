#include "overlay/relay_transport.h"

#include <algorithm>

namespace erasmus::overlay {

namespace {
bool valid_msg_type(uint8_t raw) {
  return raw >= static_cast<uint8_t>(attest::MsgType::kCollectRequest) &&
         raw <= static_cast<uint8_t>(attest::MsgType::kOdResponse);
}
}  // namespace

RelayTransport::RelayTransport(net::Network& network, net::NodeId self,
                               size_t num_nodes, RelayTransportConfig config)
    : network_(network), self_(self), num_nodes_(num_nodes), config_(config) {
  routes_.resize(num_nodes_);  // one slot per node; valid gates occupancy
  network_.set_handler(self_,
                       [this](const net::Datagram& d) { on_datagram(d); });
  register_instruments();
}

void RelayTransport::register_instruments() {
  obs::Registry* reg = config_.metrics;
  if (!reg) return;
  inst_.floods = &reg->counter("overlay", "floods_sent");
  inst_.targeted_floods = &reg->counter("overlay", "targeted_floods");
  inst_.scoped_sent = &reg->counter("overlay", "scoped_sent");
  inst_.scoped_fallbacks = &reg->counter("overlay", "scoped_fallbacks");
  inst_.naks = &reg->counter("overlay", "naks_received");
  inst_.reports = &reg->counter("overlay", "reports_received");
  inst_.duplicate_reports = &reg->counter("overlay", "duplicate_reports");
  inst_.stale_reports = &reg->counter("overlay", "stale_reports");
  inst_.spoofed_rejected = &reg->counter("overlay", "spoofed_rejected");
  // Inclusive upper bounds on integer relay counts; a report that crossed
  // more than 12 relays lands in the overflow bucket.
  inst_.hops = &reg->histogram("overlay", "hop_count",
                               {0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0});
}

void RelayTransport::trace_overlay(const char* name, obs::TraceArgs args) {
  obs::TraceRecorder* trace = config_.trace;
  if (!trace || !trace->enabled(obs::Subsystem::kOverlay)) return;
  trace->instant(obs::Subsystem::kOverlay, network_.now(), name,
                 std::move(args));
}

RelayTransport::~RelayTransport() {
  network_.set_handler(self_, {});
}

void RelayTransport::register_flood(uint32_t flood) {
  delivered_[flood];  // open the dedup window for this flood
  while (delivered_.size() > config_.flood_memory) {
    agg_delivered_.erase(delivered_.begin()->first);
    delivered_.erase(delivered_.begin());
  }
}

void RelayTransport::launch_flood(std::vector<net::NodeId> targets,
                                  attest::MsgType type, ByteView body,
                                  bool aggregate_eligible) {
  CollectFlood flood;
  flood.flood = next_flood_++;
  flood.targets = std::move(targets);
  flood.ttl = config_.ttl;
  if (aggregate_eligible) flood.flags |= kFloodAggregate;
  flood.inner_type = static_cast<uint8_t>(type);
  flood.request.assign(body.begin(), body.end());

  register_flood(flood.flood);

  trace_overlay("flood",
                {{"flood", static_cast<uint64_t>(flood.flood)},
                 {"targets", static_cast<uint64_t>(flood.targets.size())},
                 {"ttl", static_cast<uint64_t>(flood.ttl)}});

  const Bytes payload =
      frame_relay(RelayMsg::kCollectFlood, flood.serialize());
  network_.flood(self_, self_, payload);
}

void RelayTransport::launch_scoped(CachedRoute& route, attest::MsgType type,
                                   ByteView body) {
  ScopedRequest request;
  request.flood = next_flood_++;
  request.inner_type = static_cast<uint8_t>(type);
  // The first hop is addressed directly; it receives the rest of the
  // path down to (and including) the target.
  request.route.assign(route.route.begin() + 1, route.route.end());
  request.request.assign(body.begin(), body.end());

  register_flood(request.flood);  // the response report needs dedup state

  trace_overlay("scoped_send",
                {{"flood", static_cast<uint64_t>(request.flood)},
                 {"target", static_cast<uint64_t>(route.route.back())},
                 {"hops", static_cast<uint64_t>(route.route.size())}});

  route.used = true;
  network_.send(self_, route.route.front(),
                frame_relay(RelayMsg::kScopedRequest, request.serialize()));
}

bool RelayTransport::has_fresh_route(net::NodeId peer) const {
  if (peer >= routes_.size()) return false;
  const CachedRoute& route = routes_[peer];
  return route.valid && !route.used &&
         network_.now() - route.learned_at <= config_.route_ttl;
}

void RelayTransport::send(net::NodeId peer, attest::MsgType type,
                          ByteView body) {
  const bool retry = next_broadcast_is_retry_;
  next_broadcast_is_retry_ = false;
  // Scoped routing applies to RETRIES only: a first attempt has no
  // business burning the route cache the retry path depends on.
  if (retry && config_.scoped_retries) {
    if (has_fresh_route(peer)) {
      // The peer's path was recorded recently: retry as a source-routed
      // unicast down it instead of waking the whole swarm. Burned after
      // one use -- a silent failure means the route is suspect, so the
      // next retry re-floods.
      ++stats_.scoped_sent;
      if (inst_.scoped_sent) inst_.scoped_sent->add();
      launch_scoped(routes_[peer], type, body);
      return;
    }
    ++stats_.scoped_fallbacks;
    if (inst_.scoped_fallbacks) inst_.scoped_fallbacks->add();
    trace_overlay("scoped_fallback", {{"target", static_cast<uint64_t>(peer)}});
  }
  // A targeted flood: everyone forwards, only `peer` serves. The fresh
  // flood id rebuilds the parent tree from the topology as it is NOW, so
  // per-device re-floods double as route re-discovery.
  ++stats_.targeted_floods;
  if (inst_.targeted_floods) inst_.targeted_floods->add();
  launch_flood({peer}, type, body);
}

void RelayTransport::broadcast(const std::vector<net::NodeId>& peers,
                               attest::MsgType type, ByteView body) {
  const bool retry_wave = next_broadcast_is_retry_;
  next_broadcast_is_retry_ = false;
  // A coalesced retry wave where EVERY member has a fresh recorded path
  // needs no flood at all: unicast each down its parent chain. (All or
  // nothing -- once one member needs a flood, the flood reaches everyone
  // anyway, so extra unicasts would only add traffic. Retries only --
  // first-attempt dispatch must not burn the route cache.)
  if (retry_wave && config_.scoped_retries && !peers.empty()) {
    const bool all_routed = std::all_of(
        peers.begin(), peers.end(),
        [this](net::NodeId peer) { return has_fresh_route(peer); });
    if (all_routed) {
      for (const net::NodeId peer : peers) {
        ++stats_.scoped_sent;
        if (inst_.scoped_sent) inst_.scoped_sent->add();
        launch_scoped(routes_[peer], type, body);
      }
      return;
    }
    // Retry-economy accounting: how many retried devices had no usable
    // route, forcing this wave back onto the flood path.
    for (const net::NodeId peer : peers) {
      if (!has_fresh_route(peer)) {
        ++stats_.scoped_fallbacks;
        if (inst_.scoped_fallbacks) inst_.scoped_fallbacks->add();
        trace_overlay("scoped_fallback",
                      {{"target", static_cast<uint64_t>(peer)}});
      }
    }
  }
  // One flood covers the dispatch batch: flooding is field-wide by
  // nature, but scoping the serve set to the batch keeps the report
  // volume inside the service's window. A batch that covers every node
  // compresses to the {kEveryone} wildcard.
  if (retry_wave) {
    ++stats_.targeted_floods;
    if (inst_.targeted_floods) inst_.targeted_floods->add();
  } else {
    ++stats_.floods_sent;
    if (inst_.floods) inst_.floods->add();
  }
  // Multi-member waves are aggregate-eligible; a single-device batch has
  // nothing to combine and stays on the raw path.
  const bool aggregate_eligible = config_.aggregate && peers.size() > 1;
  if (peers.size() + 1 >= num_nodes_) {
    launch_flood({kEveryone}, type, body, aggregate_eligible);
    return;
  }
  launch_flood(peers, type, body, aggregate_eligible);
}

void RelayTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

sim::Duration RelayTransport::latency() const {
  return (network_.latency() + config_.forward_spacing) *
         (static_cast<uint64_t>(config_.ttl) + 1);
}

double RelayTransport::take_congestion() {
  const double occupancy = pending_congestion_;
  pending_congestion_ = 0.0;
  return occupancy;
}

void RelayTransport::on_datagram(const net::Datagram& dgram) {
  const auto framed = unframe_relay(dgram.payload);
  if (!framed) {
    ++stats_.malformed_frames;
    return;
  }
  switch (framed->first) {
    case RelayMsg::kCollectFlood:
    case RelayMsg::kScopedRequest:
      // Our own traffic echoed back by a neighbour; nothing to do.
      return;
    case RelayMsg::kScopedNak: {
      const auto nak = ScopedNak::deserialize(framed->second);
      if (!nak) {
        ++stats_.malformed_frames;
        return;
      }
      // A hop on the cached route lost its next link: the route is
      // stale. Evict it so the session's next retry re-floods.
      ++stats_.naks_received;
      if (inst_.naks) inst_.naks->add();
      trace_overlay("nak", {{"flood", static_cast<uint64_t>(nak->flood)},
                            {"target", static_cast<uint64_t>(nak->target)}});
      if (nak->target < routes_.size()) routes_[nak->target].valid = false;
      return;
    }
    case RelayMsg::kAggregateReport:
      handle_aggregate(framed->second);
      return;
    case RelayMsg::kRelayReport:
      break;
  }
  const auto report = RelayReport::deserialize(framed->second);
  if (!report || !valid_msg_type(report->inner_type)) {
    ++stats_.malformed_frames;
    return;
  }
  if (report->origin >= num_nodes_) {
    // Claimed origin does not exist on this network: a Sybil/spoofed
    // report. Rejected BEFORE the congestion sample and route-cache
    // refresh below -- forged traffic must not poison either.
    ++stats_.spoofed_rejected;
    if (inst_.spoofed_rejected) inst_.spoofed_rejected->add();
    trace_overlay("spoofed_rejected",
                  {{"flood", static_cast<uint64_t>(report->flood)},
                   {"origin", static_cast<uint64_t>(report->origin)}});
    return;
  }
  // Any well-formed report carries live routing and congestion evidence,
  // duplicates and stragglers included -- the relay queues and links it
  // crossed are real even when the payload is redundant.
  pending_congestion_ = std::max(
      pending_congestion_, static_cast<double>(report->queue) / 255.0);
  if (config_.scoped_retries && !report->path.empty() &&
      report->path.front() == report->origin &&
      report->path.size() == static_cast<size_t>(report->hops) + 1) {
    // The path, reversed, is the verifier's downlink route to the origin
    // -- and every prefix of it is the route to the relay that appended
    // that hop. Cache them all: a device whose own response was lost is
    // still reachable over its parent chain whenever it relayed anybody
    // else's report.
    const sim::Time now = network_.now();
    std::vector<net::NodeId> route;
    route.reserve(report->path.size());
    for (auto hop = report->path.rbegin(); hop != report->path.rend();
         ++hop) {
      route.push_back(*hop);
      if (*hop < routes_.size()) {
        routes_[*hop] = CachedRoute{route, now, /*used=*/false,
                                    /*valid=*/true};
      }
    }
  }
  const auto it = delivered_.find(report->flood);
  if (it == delivered_.end()) {
    // A flood id we never launched, or one already outside the dedup
    // window: a straggler from a long-finished round (or a forgery).
    ++stats_.stale_reports;
    if (inst_.stale_reports) inst_.stale_reports->add();
    return;
  }
  if (!it->second.insert(report->origin).second) {
    ++stats_.duplicate_reports;  // same report over a second path
    if (inst_.duplicate_reports) inst_.duplicate_reports->add();
    return;
  }
  ++stats_.reports_received;
  if (inst_.reports) inst_.reports->add();
  if (inst_.hops) inst_.hops->observe(static_cast<double>(report->hops));
  trace_overlay("report",
                {{"flood", static_cast<uint64_t>(report->flood)},
                 {"origin", static_cast<uint64_t>(report->origin)},
                 {"hops", static_cast<uint64_t>(report->hops)},
                 {"queue", static_cast<double>(report->queue) / 255.0}});
  if (hops_.size() <= report->hops) hops_.resize(report->hops + 1, 0);
  ++hops_[report->hops];
  if (receiver_) {
    receiver_(report->origin,
              static_cast<attest::MsgType>(report->inner_type),
              report->response);
  }
}

void RelayTransport::handle_aggregate(ByteView body) {
  const auto env = AggregateReport::deserialize(body);
  if (!env) {
    ++stats_.malformed_frames;
    return;
  }
  // The head's queue stamp is congestion evidence like any report's.
  pending_congestion_ = std::max(
      pending_congestion_, static_cast<double>(env->queue) / 255.0);
  if (config_.scoped_retries && !env->path.empty() &&
      env->path.front() == env->head &&
      env->path.size() == static_cast<size_t>(env->hops) + 1) {
    // Same prefix-caching as raw reports: the reversed path is the route
    // to the head, and each prefix routes to the relay that stamped it.
    const sim::Time now = network_.now();
    std::vector<net::NodeId> route;
    route.reserve(env->path.size());
    for (auto hop = env->path.rbegin(); hop != env->path.rend(); ++hop) {
      route.push_back(*hop);
      if (*hop < routes_.size()) {
        routes_[*hop] = CachedRoute{route, now, /*used=*/false,
                                    /*valid=*/true};
      }
    }
  }
  if (delivered_.find(env->flood) == delivered_.end()) {
    ++stats_.stale_reports;
    if (inst_.stale_reports) inst_.stale_reports->add();
    return;
  }
  if (!agg_delivered_[env->flood].insert(env->head).second) {
    ++stats_.duplicate_aggregates;  // same aggregate over a second path
    return;
  }
  const auto frame = aggregate::AggregateFrame::deserialize(env->payload);
  if (!frame || frame->head != env->head || frame->flood != env->flood) {
    // An unparsable payload -- or an envelope whose addressing disagrees
    // with the authenticated frame inside it -- is a malformed frame.
    ++stats_.malformed_frames;
    return;
  }
  ++stats_.aggregates_received;
  stats_.aggregate_members += frame->members.size();
  stats_.aggregate_wire_bytes += env->payload.size();
  stats_.aggregate_raw_bytes += frame->raw_bytes;
  if (inst_.hops) inst_.hops->observe(static_cast<double>(env->hops));
  trace_overlay("aggregate",
                {{"flood", static_cast<uint64_t>(env->flood)},
                 {"head", static_cast<uint64_t>(env->head)},
                 {"members", static_cast<uint64_t>(frame->members.size())},
                 {"hops", static_cast<uint64_t>(env->hops)}});
  if (aggregate_receiver_) aggregate_receiver_(*frame, env->hops);
}

}  // namespace erasmus::overlay
