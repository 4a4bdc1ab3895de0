#include "net/network.h"

#include <stdexcept>

namespace erasmus::net {

NodeId Network::add_node(Handler handler) {
  handlers_.push_back(std::move(handler));
  node_stats_.emplace_back();
  return static_cast<NodeId>(handlers_.size() - 1);
}

void Network::set_handler(NodeId node, Handler handler) {
  if (node >= handlers_.size()) {
    throw std::out_of_range("Network: unknown node");
  }
  handlers_[node] = std::move(handler);
}

bool Network::admit(NodeId src, NodeId dst, size_t payload_bytes) {
  ++stats_.sent;
  stats_.bytes_sent += payload_bytes;
  ++node_stats_[dst].sent;
  node_stats_[dst].bytes_sent += payload_bytes;
  if (filter_ && !filter_(src, dst)) {
    ++stats_.dropped_disconnected;
    ++node_stats_[dst].dropped_disconnected;
    return false;
  }
  if (loss_probability_ > 0.0 && rng_.chance(loss_probability_)) {
    ++stats_.dropped_loss;
    ++node_stats_[dst].dropped_loss;
    return false;
  }
  return true;
}

void Network::deliver(Datagram dgram) {
  queue_.schedule_after(latency_, [this, d = std::move(dgram)] {
    ++stats_.delivered;
    ++node_stats_[d.dst].delivered;
    if (handlers_[d.dst]) handlers_[d.dst](d);
  });
}

void Network::send(NodeId src, NodeId dst, Bytes payload) {
  if (src >= handlers_.size() || dst >= handlers_.size()) {
    throw std::out_of_range("Network: unknown endpoint");
  }
  stats_.phys_tx_bytes += payload.size();
  if (energy_tap_) energy_tap_(src, payload.size(), /*tx=*/true);
  if (!admit(src, dst, payload.size())) return;
  stats_.phys_rx_bytes += payload.size();
  if (energy_tap_) energy_tap_(dst, payload.size(), /*tx=*/false);
  deliver(Datagram{src, dst, std::move(payload)});
}

void Network::broadcast(NodeId src, const std::vector<NodeId>& dsts,
                        ByteView payload) {
  if (src >= handlers_.size()) {
    throw std::out_of_range("Network: unknown endpoint");
  }
  // One physical transmission: the sender's radio is charged once, not
  // per destination (Stats::bytes_sent stays per-attempt -- it counts
  // offered load, the tap counts joules).
  if (dsts.empty()) return;
  stats_.phys_tx_bytes += payload.size();
  if (energy_tap_) energy_tap_(src, payload.size(), /*tx=*/true);
  offer(src, dsts, payload);
}

void Network::flood(NodeId src, NodeId except, ByteView payload) {
  if (src >= handlers_.size()) {
    throw std::out_of_range("Network: unknown endpoint");
  }
  const size_t audience =
      handlers_.size() - 1 - (except != src && except < handlers_.size());
  if (audience == 0) return;
  stats_.phys_tx_bytes += payload.size();
  if (energy_tap_) energy_tap_(src, payload.size(), /*tx=*/true);
  // The candidates come after the tx charge: it can silence the sender,
  // which the index (and the filter) must see.
  candidates_.clear();
  if (index_) {
    index_(src, except, candidates_);
  } else {
    for (NodeId node = 0; node < handlers_.size(); ++node) {
      if (node != src && node != except) candidates_.push_back(node);
    }
  }
  offer(src, candidates_, payload);
}

void Network::offer(NodeId src, const std::vector<NodeId>& dsts,
                    ByteView payload) {
  for (const NodeId dst : dsts) {
    if (dst >= handlers_.size()) {
      throw std::out_of_range("Network: unknown endpoint");
    }
    // Same per-destination draw and event order as the equivalent send()
    // loop -- but the payload is only copied for destinations that are
    // actually delivered to.
    if (!admit(src, dst, payload.size())) continue;
    stats_.phys_rx_bytes += payload.size();
    if (energy_tap_) energy_tap_(dst, payload.size(), /*tx=*/false);
    deliver(Datagram{src, dst, Bytes(payload.begin(), payload.end())});
  }
}

const Network::Stats& Network::node_stats(NodeId dst) const {
  if (dst >= node_stats_.size()) {
    throw std::out_of_range("Network: unknown node");
  }
  return node_stats_[dst];
}

}  // namespace erasmus::net
