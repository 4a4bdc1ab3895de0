#include "attest/transport.h"

#include <algorithm>

#include "attest/prover.h"

namespace erasmus::attest {

void Transport::broadcast(const std::vector<net::NodeId>& peers, MsgType type,
                          ByteView body) {
  for (const net::NodeId peer : peers) send(peer, type, body);
}

NetworkTransport::NetworkTransport(net::Network& network, net::NodeId self)
    : network_(network), self_(self) {
  network_.set_handler(self_, [this](const net::Datagram& d) {
    const auto framed = unframe(d.payload);
    if (!framed) {
      // Not even a well-formed frame: drop here so the service only ever
      // sees typed messages.
      ++malformed_frames_;
      return;
    }
    if (receiver_) receiver_(d.src, framed->first, framed->second);
  });
}

NetworkTransport::~NetworkTransport() {
  network_.set_handler(self_, {});
}

void NetworkTransport::send(net::NodeId peer, MsgType type, ByteView body) {
  network_.send(self_, peer, frame(type, body));
}

void NetworkTransport::broadcast(const std::vector<net::NodeId>& peers,
                                 MsgType type, ByteView body) {
  network_.broadcast(self_, peers, frame(type, body));
}

void NetworkTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

void DirectTransport::attach(net::NodeId node, Prover& prover) {
  provers_[node] = &prover;
}

void DirectTransport::serve_collect(net::NodeId peer,
                                    const CollectRequest& req) {
  last_processing_ = sim::Duration(0);
  const auto it = provers_.find(peer);
  if (it == provers_.end()) return;
  const auto res = it->second->handle_collect(req);
  last_processing_ = res.processing;
  if (receiver_) {
    receiver_(peer, MsgType::kCollectResponse, res.response.serialize());
  }
}

void DirectTransport::serve_od(net::NodeId peer, const OdRequest& req) {
  last_processing_ = sim::Duration(0);
  const auto it = provers_.find(peer);
  if (it == provers_.end()) return;
  const auto res = it->second->handle_od(req);
  last_processing_ = res.processing;
  if (res.response && receiver_) {
    receiver_(peer, MsgType::kOdResponse, res.response->serialize());
  }
}

void DirectTransport::send(net::NodeId peer, MsgType type, ByteView body) {
  last_processing_ = sim::Duration(0);
  if (type == MsgType::kCollectRequest) {
    const auto req = CollectRequest::deserialize(body);
    if (req) serve_collect(peer, *req);
    return;
  }
  if (type == MsgType::kOdRequest) {
    const auto req = OdRequest::deserialize(body);
    if (req) serve_od(peer, *req);
    return;
  }
  // Provers only serve requests; anything else is silently dropped.
}

void DirectTransport::broadcast(const std::vector<net::NodeId>& peers,
                                MsgType type, ByteView body) {
  // A round's batched dispatch carries one shared body (uniform k), so
  // decode it once and run a single dispatch loop instead of re-parsing
  // per peer -- observable behaviour stays identical to the send() loop.
  last_processing_ = sim::Duration(0);
  if (type == MsgType::kCollectRequest) {
    const auto req = CollectRequest::deserialize(body);
    if (!req) return;
    if (executor_ != nullptr && peers.size() > 1) {
      serve_collect_batch(peers, *req);
      return;
    }
    for (const net::NodeId peer : peers) serve_collect(peer, *req);
    return;
  }
  if (type == MsgType::kOdRequest) {
    const auto req = OdRequest::deserialize(body);
    if (!req) return;
    for (const net::NodeId peer : peers) serve_od(peer, *req);
    return;
  }
}

void DirectTransport::serve_collect_batch(
    const std::vector<net::NodeId>& peers, const CollectRequest& req) {
  // Parallel phase: contiguous chunks of the batch, one reply slot per
  // peer. A prover touches only its own state and handle_collect is
  // crypto-free (records are pre-MAC'd at measurement time), so the only
  // shared structure is the read-only prover table. The chunking follows
  // the executor's width (four chunks per worker, so one slow chunk does
  // not idle the rest); it cannot reach any output, because delivery
  // below walks the slots in `peers` order.
  struct Reply {
    bool served = false;
    sim::Duration processing;
    Bytes payload;
  };
  const size_t n = peers.size();
  std::vector<Reply> replies(n);
  const size_t chunks = std::min(n, executor_->threads() * 4);
  executor_->run(chunks, [&](size_t c) {
    for (size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
      const auto it = provers_.find(peers[i]);
      if (it == provers_.end()) continue;  // silent drop, like send()
      const auto res = it->second->handle_collect(req);
      replies[i] = {true, res.processing, res.response.serialize()};
    }
  });
  // Delivery, after the join: the send() loop's order and its
  // last_processing() rule (zero when the final peer produced no reply).
  for (size_t i = 0; i < n; ++i) {
    last_processing_ = replies[i].processing;
    if (replies[i].served && receiver_) {
      receiver_(peers[i], MsgType::kCollectResponse, replies[i].payload);
    }
  }
}

void DirectTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
}

}  // namespace erasmus::attest
