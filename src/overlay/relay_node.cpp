#include "overlay/relay_node.h"

#include <algorithm>
#include <utility>

#include "attest/measurement.h"
#include "attest/protocol.h"
#include "crypto/mac.h"

namespace erasmus::overlay {

namespace {
/// Alternate-uplink memory per flood: enough for route repair in dense
/// neighbourhoods without unbounded growth in them.
constexpr size_t kMaxAlternates = 4;
}  // namespace

RelayNode::RelayNode(sim::EventQueue& queue, net::Network& network,
                     net::NodeId self, attest::Prover& prover,
                     RelayNodeConfig config)
    : queue_(queue), network_(network), self_(self), prover_(prover),
      config_(config) {
  network_.set_handler(self_,
                       [this](const net::Datagram& d) { on_datagram(d); });
  if (obs::Registry* reg = config_.metrics) {
    inst_.relay_drops = &reg->counter("overlay", "relay_drops");
    inst_.route_repairs = &reg->counter("overlay", "route_repairs");
    inst_.requests_served = &reg->counter("overlay", "requests_served");
    inst_.reports_relayed = &reg->counter("overlay", "reports_relayed");
    // Store-and-forward occupancy (0..1) sampled as each report enters a
    // relay queue: the congestion signal the AIMD window damps on.
    inst_.occupancy =
        &reg->histogram("overlay", "relay_queue_occupancy",
                        {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
  }
}

RelayNode::~RelayNode() {
  // Detach so in-flight datagrams cannot fire into a freed node; pending
  // serve/drain events are cancelled for the same reason.
  network_.set_handler(self_, {});
  for (const sim::EventId id : pending_events_) queue_.cancel(id);
}

void RelayNode::schedule(sim::Duration delay, std::function<void()> fn) {
  auto id = std::make_shared<sim::EventId>();
  *id = queue_.schedule_after(delay, [this, id, fn = std::move(fn)] {
    pending_events_.erase(*id);
    fn();
  });
  pending_events_.insert(*id);
}

void RelayNode::on_datagram(const net::Datagram& dgram) {
  if (config_.meter && config_.meter->dark()) {
    // Battery exhausted: the radio still drew the rx joules (charged by the
    // network's energy tap before delivery), but nobody is home to serve,
    // relay, or re-flood. The frame dies here.
    ++stats_.dropped_dark;
    return;
  }
  const auto framed = unframe_relay(dgram.payload);
  if (!framed) {
    ++stats_.malformed_frames;
    return;
  }
  switch (framed->first) {
    case RelayMsg::kCollectFlood: {
      const auto flood = CollectFlood::deserialize(framed->second);
      if (!flood) {
        ++stats_.malformed_frames;
        return;
      }
      handle_flood(*flood, dgram.src);
      return;
    }
    case RelayMsg::kRelayReport: {
      auto report = RelayReport::deserialize(framed->second);
      if (!report) {
        ++stats_.malformed_frames;
        return;
      }
      // Pure relay: never parse the inner response. Unknown flood (never
      // heard it, or route state already pruned) -> nowhere to send it.
      const auto it = routes_.find(report->flood);
      if (it == routes_.end()) {
        ++stats_.reports_orphaned;
        return;
      }
      // A compromised relay discards what it was trusted to carry. Placed
      // after the route lookup so only frames this node would actually
      // have relayed count as attack losses.
      if (config_.compromise.drop_relayed) {
        ++stats_.dropped_adversarial;
        if (obs::TraceRecorder* trace = config_.trace;
            trace && trace->enabled(obs::Subsystem::kOverlay)) {
          trace->instant(obs::Subsystem::kOverlay, queue_.now(),
                         "adversarial_drop",
                         {{"node", static_cast<uint64_t>(self_)},
                          {"flood", static_cast<uint64_t>(report->flood)},
                          {"origin", static_cast<uint64_t>(report->origin)}});
        }
        return;
      }
      // Head role: while the aggregation window is open, child reports
      // stop here and fold into the cluster aggregate instead of climbing
      // on. Reports arriving after the flush relay raw as usual.
      const auto agg = aggs_.find(report->flood);
      if (agg != aggs_.end()) {
        agg->second.absorb(report->origin, report->response);
        ++stats_.reports_absorbed;
        if (agg->second.members() >= config_.aggregation.max_members) {
          flush_aggregate(report->flood);
        }
        return;
      }
      ++report->hops;
      report->path.push_back(self_);
      if (config_.compromise.corrupt_relayed) {
        // Scribble instead of drop: the mangled frame still burns this
        // node's queue slot and forward spacing, then fails to parse at
        // the next hop (its malformed_frames). Truncating the tail keeps
        // the relay framing header valid but breaks the inner
        // deserialize, which insists on consuming the frame exactly.
        ++stats_.corrupted_adversarial;
        if (obs::TraceRecorder* trace = config_.trace;
            trace && trace->enabled(obs::Subsystem::kOverlay)) {
          trace->instant(obs::Subsystem::kOverlay, queue_.now(),
                         "adversarial_corrupt",
                         {{"node", static_cast<uint64_t>(self_)},
                          {"flood", static_cast<uint64_t>(report->flood)},
                          {"origin", static_cast<uint64_t>(report->origin)}});
        }
        Bytes frame = frame_relay(RelayMsg::kRelayReport, report->serialize());
        frame.resize(frame.size() - frame.size() / 3);
        enqueue_frame(report->flood, report->origin, std::move(frame),
                      /*relayed=*/true, /*aggregate=*/false);
        return;
      }
      enqueue_report(std::move(*report), /*relayed=*/true);
      return;
    }
    case RelayMsg::kAggregateReport: {
      auto agg = AggregateReport::deserialize(framed->second);
      if (!agg) {
        ++stats_.malformed_frames;
        return;
      }
      // Aggregates relay exactly like reports -- opaque payload, hop and
      // path bookkeeping, queue piggyback. No re-aggregation: a deeper
      // head's aggregate passes a shallower head unchanged.
      const auto it = routes_.find(agg->flood);
      if (it == routes_.end()) {
        ++stats_.reports_orphaned;
        return;
      }
      if (config_.compromise.drop_relayed) {
        ++stats_.dropped_adversarial;
        if (obs::TraceRecorder* trace = config_.trace;
            trace && trace->enabled(obs::Subsystem::kOverlay)) {
          trace->instant(obs::Subsystem::kOverlay, queue_.now(),
                         "adversarial_drop",
                         {{"node", static_cast<uint64_t>(self_)},
                          {"flood", static_cast<uint64_t>(agg->flood)},
                          {"origin", static_cast<uint64_t>(agg->head)}});
        }
        return;
      }
      ++agg->hops;
      agg->path.push_back(self_);
      if (config_.compromise.corrupt_relayed) {
        ++stats_.corrupted_adversarial;
        if (obs::TraceRecorder* trace = config_.trace;
            trace && trace->enabled(obs::Subsystem::kOverlay)) {
          trace->instant(obs::Subsystem::kOverlay, queue_.now(),
                         "adversarial_corrupt",
                         {{"node", static_cast<uint64_t>(self_)},
                          {"flood", static_cast<uint64_t>(agg->flood)},
                          {"origin", static_cast<uint64_t>(agg->head)}});
        }
        Bytes frame =
            frame_relay(RelayMsg::kAggregateReport, agg->serialize());
        frame.resize(frame.size() - frame.size() / 3);
        enqueue_frame(agg->flood, agg->head, std::move(frame),
                      /*relayed=*/true, /*aggregate=*/true);
        return;
      }
      enqueue_aggregate(std::move(*agg), /*relayed=*/true);
      return;
    }
    case RelayMsg::kScopedRequest: {
      auto request = ScopedRequest::deserialize(framed->second);
      if (!request) {
        ++stats_.malformed_frames;
        return;
      }
      handle_scoped(std::move(*request), dgram.src);
      return;
    }
    case RelayMsg::kScopedNak: {
      const auto nak = ScopedNak::deserialize(framed->second);
      if (!nak) {
        ++stats_.malformed_frames;
        return;
      }
      // Climb the same parent chain the scoped request laid down; a
      // pruned route leaves the NAK with nowhere to go (the verifier's
      // session timeout still recovers).
      const auto it = routes_.find(nak->flood);
      if (it == routes_.end()) {
        ++stats_.reports_orphaned;
        return;
      }
      ++stats_.naks_forwarded;
      network_.send(self_, uplink(it->second),
                    frame_relay(RelayMsg::kScopedNak, nak->serialize()));
      return;
    }
  }
}

void RelayNode::handle_scoped(ScopedRequest request, net::NodeId from) {
  // Record the sender as this flood's parent BEFORE anything else: the
  // response report (or a NAK from further down) returns over exactly the
  // hops the request traversed.
  routes_[request.flood] = FloodRoute{from, {}};
  prune_routes();
  first_sight(request.flood);  // keep the dedup watermark monotone

  if (request.route.empty()) {
    serve(request.flood, request.inner_type, request.request);
    return;
  }
  const net::NodeId next = request.route.front();
  if (link_probe_ && !link_probe_(self_, next)) {
    // The cached route broke at this hop. Tell the verifier (so the next
    // retry re-floods) instead of transmitting into the void.
    ++stats_.naks_sent;
    const ScopedNak nak{request.flood, request.route.back()};
    network_.send(self_, from,
                  frame_relay(RelayMsg::kScopedNak, nak.serialize()));
    return;
  }
  request.route.erase(request.route.begin());
  ++stats_.scoped_forwarded;
  network_.send(self_, next,
                frame_relay(RelayMsg::kScopedRequest, request.serialize()));
}

bool RelayNode::first_sight(uint32_t flood) {
  // Dedup window: transport flood ids are monotone, so once the watermark
  // has moved this far past an id, any copy of it still circulating is a
  // duplicate. MUST be wider than route memory: if a pruned route were
  // mistaken for first sight, its echoes would re-flood exponentially.
  constexpr uint32_t kWindow = 1u << 16;
  if (flood + kWindow < flood_watermark_) return false;  // ancient echo
  if (!seen_floods_.insert(flood).second) return false;
  if (flood > flood_watermark_) {
    flood_watermark_ = flood;
    while (!seen_floods_.empty() &&
           *seen_floods_.begin() + kWindow < flood_watermark_) {
      seen_floods_.erase(seen_floods_.begin());
    }
  }
  return true;
}

void RelayNode::handle_flood(const CollectFlood& flood, net::NodeId from) {
  ++stats_.floods_seen;
  if (!first_sight(flood.flood)) {
    // Duplicate arrival: remember the sender as an alternate uplink for
    // route repair; the flood was already served and forwarded.
    const auto it = routes_.find(flood.flood);
    if (it == routes_.end()) return;  // route state already pruned
    FloodRoute& route = it->second;
    if (from != route.parent &&
        route.alternates.size() < kMaxAlternates &&
        std::find(route.alternates.begin(), route.alternates.end(), from) ==
            route.alternates.end()) {
      route.alternates.push_back(from);
    }
    return;
  }

  routes_[flood.flood] = FloodRoute{from, {}};
  prune_routes();

  if (config_.compromise.sybil_per_flood > 0) {
    // Sybil flood: answer each first-sight collection flood with forged
    // reports from origins that do not exist on the network. They travel
    // the honest uplink path, consuming queue slots and spacing all the
    // way up, until the verifier's transport rejects the out-of-range
    // origins (spoofed_rejected). The bogus responses carry no valid MAC
    // either -- origin-range rejection just catches them cheaper.
    if (obs::TraceRecorder* trace = config_.trace;
        trace && trace->enabled(obs::Subsystem::kOverlay)) {
      trace->instant(
          obs::Subsystem::kOverlay, queue_.now(), "sybil_inject",
          {{"node", static_cast<uint64_t>(self_)},
           {"flood", static_cast<uint64_t>(flood.flood)},
           {"count",
            static_cast<uint64_t>(config_.compromise.sybil_per_flood)}});
    }
    for (uint32_t j = 0; j < config_.compromise.sybil_per_flood; ++j) {
      RelayReport forged;
      forged.flood = flood.flood;
      forged.origin = config_.compromise.sybil_origin_base + j;
      forged.hops = 0;
      forged.inner_type =
          static_cast<uint8_t>(attest::MsgType::kCollectResponse);
      forged.path.push_back(self_);
      forged.response = Bytes(24, 0xAB);
      ++stats_.sybil_injected;
      enqueue_report(std::move(forged), /*relayed=*/false);
    }
  }

  // First-sight depth: the frame carries the sender's re-broadcast count,
  // so this node sits one deeper. Election must precede serve(): with
  // zero processing time the node's own report would otherwise race the
  // window open.
  const uint32_t depth = std::min<uint32_t>(flood.depth, 254) + 1;
  if (config_.aggregation.enabled && (flood.flags & kFloodAggregate) != 0 &&
      aggregate::is_head(config_.aggregation.election, self_, depth)) {
    elect_head(flood.flood, depth);
  }

  if (flood.serves(self_)) {
    serve(flood.flood, flood.inner_type, flood.request);
  }

  if (flood.ttl > 0) {
    CollectFlood next = flood;
    next.ttl = flood.ttl - 1;
    next.depth = static_cast<uint8_t>(std::min<uint32_t>(depth, 255));
    ++stats_.floods_forwarded;
    // Radio broadcast (§6 semantics): everyone in range at this instant
    // hears it; the parent it came from is not offered it back.
    network_.flood(self_, from,
                   frame_relay(RelayMsg::kCollectFlood, next.serialize()));
  }
}

void RelayNode::elect_head(uint32_t flood_id, uint32_t depth) {
  if (aggs_.count(flood_id) != 0) return;
  // The healthy judgment compares children against this node's own latest
  // digest; a prover that has never measured has no yardstick and
  // declines the role (its cluster's reports simply relay raw).
  const auto latest = prover_.store().get(prover_.latest_index());
  if (!prover_.any_measurement_taken() || !latest) return;
  ++stats_.heads_elected;
  if (obs::TraceRecorder* trace = config_.trace;
      trace && trace->enabled(obs::Subsystem::kOverlay)) {
    trace->instant(obs::Subsystem::kOverlay, queue_.now(), "head_elected",
                   {{"node", static_cast<uint64_t>(self_)},
                    {"flood", static_cast<uint64_t>(flood_id)},
                    {"depth", static_cast<uint64_t>(depth)}});
  }
  aggs_.emplace(flood_id,
                aggregate::Combiner(attest::hash_for(prover_.config().algo),
                                    latest->digest));
  while (aggs_.size() > config_.flood_memory) aggs_.erase(aggs_.begin());
  schedule(config_.aggregation.window,
           [this, flood_id] { flush_aggregate(flood_id); });
}

void RelayNode::flush_aggregate(uint32_t flood_id) {
  const auto it = aggs_.find(flood_id);
  if (it == aggs_.end()) return;
  const aggregate::Combiner combiner = std::move(it->second);
  aggs_.erase(it);
  if (combiner.members() == 0) return;
  if (config_.meter && config_.meter->dark()) {
    // The battery died while the evidence was held: the aggregate never
    // existed on the wire. Counted apart from dropped_dark -- these
    // members re-enter collection via election-time recovery (session
    // timeouts re-flood, and the new tree routes around this node).
    ++stats_.aggregates_dark_purged;
    return;
  }
  // Combine cost: the head pays CPU for hashing the absorbed evidence and
  // one MAC. Charging may itself brown the head out mid-combine.
  if (config_.aggregation.combine_charge) {
    config_.aggregation.combine_charge(combiner.raw_bytes(), queue_.now());
    if (config_.meter && config_.meter->dark()) {
      ++stats_.aggregates_dark_purged;
      return;
    }
  }
  aggregate::AggregateFrame frame = combiner.build(flood_id, self_);
  prover_.arch().run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
    frame.mac = crypto::Mac::compute(prover_.config().algo, ctx.key(),
                                     aggregate::aggregate_mac_input(frame));
  });
  ++stats_.aggregates_built;
  AggregateReport env;
  env.flood = flood_id;
  env.head = self_;
  env.path.push_back(self_);
  env.payload = frame.serialize();
  if (obs::TraceRecorder* trace = config_.trace;
      trace && trace->enabled(obs::Subsystem::kOverlay)) {
    trace->instant(obs::Subsystem::kOverlay, queue_.now(), "aggregate_built",
                   {{"node", static_cast<uint64_t>(self_)},
                    {"flood", static_cast<uint64_t>(flood_id)},
                    {"members", static_cast<uint64_t>(frame.members.size())},
                    {"raw_bytes", static_cast<uint64_t>(frame.raw_bytes)},
                    {"wire_bytes", static_cast<uint64_t>(env.payload.size())}});
  }
  enqueue_aggregate(std::move(env), /*relayed=*/false);
}

void RelayNode::serve(uint32_t flood_id, uint8_t inner_type,
                      ByteView request) {
  // Serve from the co-located prover: a buffer read plus (for OD) one MAC
  // check -- collection itself triggers no measurement (§3, §6).
  Bytes response;
  uint8_t response_type = 0;
  sim::Duration processing;
  switch (static_cast<attest::MsgType>(inner_type)) {
    case attest::MsgType::kCollectRequest: {
      const auto req = attest::CollectRequest::deserialize(request);
      if (!req) {
        ++stats_.malformed_frames;
        return;
      }
      const auto res = prover_.handle_collect(*req);
      response = res.response.serialize();
      response_type = static_cast<uint8_t>(attest::MsgType::kCollectResponse);
      processing = res.processing;
      break;
    }
    case attest::MsgType::kOdRequest: {
      const auto req = attest::OdRequest::deserialize(request);
      if (!req) {
        ++stats_.malformed_frames;
        return;
      }
      const auto res = prover_.handle_od(*req);
      if (!res.response) return;  // auth/freshness reject: silent (anti-DoS)
      response = res.response->serialize();
      response_type = static_cast<uint8_t>(attest::MsgType::kOdResponse);
      processing = res.processing;
      break;
    }
    default:
      return;  // not a request; floods never carry responses
  }
  ++stats_.requests_served;
  if (inst_.requests_served) inst_.requests_served->add();

  RelayReport report;
  report.flood = flood_id;
  report.origin = self_;
  report.hops = 0;
  report.inner_type = response_type;
  report.path.push_back(self_);
  report.response = std::move(response);
  schedule(processing, [this, report = std::move(report)]() mutable {
    enqueue_report(std::move(report), /*relayed=*/false);
  });
}

uint8_t RelayNode::occupancy_byte() const {
  if (config_.queue_depth == 0) return 255;
  const size_t occupied =
      std::min(queue_out_.size() + 1, config_.queue_depth);
  return static_cast<uint8_t>(occupied * 255 / config_.queue_depth);
}

void RelayNode::enqueue_frame(uint32_t flood, net::NodeId origin, Bytes frame,
                              bool relayed, bool aggregate) {
  if (queue_out_.size() >= config_.queue_depth) {
    ++stats_.reports_dropped;
    if (inst_.relay_drops) inst_.relay_drops->add();
    if (obs::TraceRecorder* trace = config_.trace;
        trace && trace->enabled(obs::Subsystem::kOverlay)) {
      trace->instant(obs::Subsystem::kOverlay, queue_.now(), "relay_drop",
                     {{"node", static_cast<uint64_t>(self_)},
                      {"flood", static_cast<uint64_t>(flood)},
                      {"origin", static_cast<uint64_t>(origin)}});
    }
    return;
  }
  if (inst_.occupancy) {
    inst_.occupancy->observe(static_cast<double>(occupancy_byte()) / 255.0);
  }
  queue_out_.push_back({flood, std::move(frame), relayed, aggregate});
  if (!draining_) {
    draining_ = true;
    schedule(config_.forward_spacing, [this] { drain_one(); });
  }
}

void RelayNode::enqueue_report(RelayReport report, bool relayed) {
  // Congestion piggyback: the report remembers the most saturated queue
  // it crossed, measured as this queue will stand once it joins it.
  report.queue = std::max(report.queue, occupancy_byte());
  enqueue_frame(report.flood, report.origin,
                frame_relay(RelayMsg::kRelayReport, report.serialize()),
                relayed, /*aggregate=*/false);
}

void RelayNode::enqueue_aggregate(AggregateReport agg, bool relayed) {
  agg.queue = std::max(agg.queue, occupancy_byte());
  enqueue_frame(agg.flood, agg.head,
                frame_relay(RelayMsg::kAggregateReport, agg.serialize()),
                relayed, /*aggregate=*/true);
}

void RelayNode::drain_one() {
  if (config_.meter && config_.meter->dark()) {
    // Went dark with frames still queued: the store-and-forward buffer
    // dies with the node. Aggregates (queued or still held in an open
    // window) are accounted apart from plain reports -- their members
    // re-enter collection via election-time recovery, not silently.
    for (const QueuedReport& item : queue_out_) {
      if (item.aggregate) {
        ++stats_.aggregates_dark_purged;
      } else {
        ++stats_.dropped_dark;
      }
    }
    for (const auto& [flood_id, combiner] : aggs_) {
      if (combiner.members() > 0) ++stats_.aggregates_dark_purged;
    }
    aggs_.clear();
    queue_out_.clear();
    draining_ = false;
    return;
  }
  if (queue_out_.empty()) {
    draining_ = false;
    return;
  }
  QueuedReport item = std::move(queue_out_.front());
  queue_out_.pop_front();

  const auto it = routes_.find(item.flood);
  if (it == routes_.end()) {
    // Route state pruned while the report sat in the queue.
    ++stats_.reports_orphaned;
  } else {
    if (item.relayed) {
      if (item.aggregate) {
        ++stats_.aggregates_relayed;
      } else {
        ++stats_.reports_relayed;
      }
      if (inst_.reports_relayed) inst_.reports_relayed->add();
    }
    network_.send(self_, uplink(it->second), std::move(item.frame));
  }

  if (queue_out_.empty()) {
    draining_ = false;
  } else {
    schedule(config_.forward_spacing, [this] { drain_one(); });
  }
}

net::NodeId RelayNode::uplink(FloodRoute& route) {
  // Mobility-aware route repair: if the parent has moved out of range
  // since the flood passed, swap in a still-connected alternate (a
  // neighbour the same flood also arrived from). Without a probe, or with
  // no live alternate, send toward the recorded parent and let the radio
  // drop it -- datagram networks do not report loss to the sender.
  if (!link_probe_ || link_probe_(self_, route.parent)) return route.parent;
  for (net::NodeId alt : route.alternates) {
    if (link_probe_(self_, alt)) {
      ++stats_.route_repairs;
      if (inst_.route_repairs) inst_.route_repairs->add();
      if (obs::TraceRecorder* trace = config_.trace;
          trace && trace->enabled(obs::Subsystem::kOverlay)) {
        trace->instant(obs::Subsystem::kOverlay, queue_.now(), "route_repair",
                       {{"node", static_cast<uint64_t>(self_)},
                        {"new_uplink", static_cast<uint64_t>(alt)}});
      }
      route.parent = alt;
      return alt;
    }
  }
  return route.parent;
}

void RelayNode::prune_routes() {
  while (routes_.size() > config_.flood_memory) {
    routes_.erase(routes_.begin());  // oldest flood id
  }
}

}  // namespace erasmus::overlay
