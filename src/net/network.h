// Simulated datagram network.
//
// Stands in for the paper's transports (UDP over Ethernet on the i.MX6;
// serial/radio links on MSP430-class devices). Delivery is scheduled on the
// shared EventQueue after a configurable latency; datagrams can be lost with
// a configurable probability, and a link filter lets the swarm layer impose
// a (time-varying) topology: a datagram is only delivered if the two nodes
// are connected at SEND time.
//
// The transport is deliberately insecure -- ERASMUS measurements are
// authenticated by MAC_K and need neither encryption nor a trusted channel
// (paper §3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace erasmus::net {

using NodeId = uint32_t;

struct Datagram {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes payload;
};

class Network {
 public:
  using Handler = std::function<void(const Datagram&)>;
  /// Returns true when src->dst is currently connected.
  using LinkFilter = std::function<bool(NodeId, NodeId)>;

  Network(sim::EventQueue& queue, sim::Duration latency,
          double loss_probability = 0.0, uint64_t seed = 1)
      : queue_(queue), latency_(latency), loss_probability_(loss_probability),
        rng_(seed) {}

  /// Registers a node; the handler runs at delivery time.
  NodeId add_node(Handler handler);

  /// Replaces a node's handler (e.g. when a device reboots).
  void set_handler(NodeId node, Handler handler);

  /// Imposes a connectivity predicate evaluated at send time; nullptr means
  /// full connectivity.
  void set_link_filter(LinkFilter filter) { filter_ = std::move(filter); }

  /// Radio-energy tap, invoked at send time: once with tx=true per
  /// physical transmission (a broadcast keys the radio ONCE however many
  /// destinations it reaches), and once with tx=false per destination the
  /// datagram is actually delivered to. Kept as a generic callback so the
  /// network stays ignorant of who meters what; the energy layer installs
  /// one that charges DeviceMeters. nullptr = no metering (zero cost).
  using EnergyTap = std::function<void(NodeId node, size_t bytes, bool tx)>;
  void set_energy_tap(EnergyTap tap) { energy_tap_ = std::move(tap); }

  /// Queues a datagram for delivery after the network latency. Silently
  /// drops it when the nodes are disconnected or the loss draw fires
  /// (datagram networks do not report loss to the sender).
  void send(NodeId src, NodeId dst, Bytes payload);

  /// Sends one payload to many destinations: one independent loss/link
  /// draw and one delivery event per destination, in `dsts` order --
  /// byte-identical to the equivalent send() loop, but the payload is
  /// only copied for destinations actually delivered to. Used for
  /// batched collection-round dispatch and overlay radio floods.
  void broadcast(NodeId src, const std::vector<NodeId>& dsts,
                 ByteView payload);

  /// Candidate source for flood(): appends to `out`, in ascending id, a
  /// superset of the nodes other than `src` and `except` that the link
  /// filter can pass right now. It may evaluate the filter itself (to
  /// replay the filter's side effects); the network still filters every
  /// candidate. Runs after the sender's tx energy charge.
  using RadioIndex = std::function<void(NodeId src, NodeId except,
                                        std::vector<NodeId>& out)>;
  void set_radio_index(RadioIndex index) { index_ = std::move(index); }

  /// A radio broadcast by `src`, heard by every node but `src` and
  /// `except` that the link filter admits: byte-identical to broadcast()
  /// over that full audience, but only the radio index's candidates are
  /// offered (all of them when no index is installed). The tx charge and
  /// phys_tx_bytes follow the full audience, never the candidate count.
  void flood(NodeId src, NodeId except, ByteView payload);

  /// Replaces the per-datagram loss probability mid-run (scheduled
  /// loss-burst fault injection, src/adversary). Takes effect at the next
  /// admit draw; the RNG stream is untouched, so a burst schedule is as
  /// deterministic as a fixed loss rate.
  void set_loss_probability(double p) { loss_probability_ = p; }
  double loss_probability() const { return loss_probability_; }

  sim::Duration latency() const { return latency_; }
  /// The owning queue's current instant (route-freshness decisions of
  /// higher layers key off send-time, which is this clock).
  sim::Time now() const { return queue_.now(); }

  struct Stats {
    /// Destination attempts offered to the link filter. A flood() offers
    /// only the radio index's candidates, so this (like bytes_sent and
    /// dropped_disconnected) counts the index's work, not the full
    /// audience.
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped_loss = 0;
    uint64_t dropped_disconnected = 0;
    /// Payload bytes of those attempts, delivered or not.
    uint64_t bytes_sent = 0;
    /// PHYSICAL radio bytes: tx counted once per transmission like the
    /// energy tap (a broadcast keys the radio once, however many
    /// destinations it reaches), rx per destination actually delivered
    /// to. The honest air-interface load -- bytes_sent scales with the
    /// candidate count and is no radio cost at all.
    /// (node_stats() keeps these zero: per-destination attribution of a
    /// shared transmission is exactly the double count avoided here.)
    uint64_t phys_tx_bytes = 0;
    uint64_t phys_rx_bytes = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Delivery stats for traffic TO one node (what did device d actually
  /// receive / lose?) -- the per-device observability fleet debugging
  /// needs.
  const Stats& node_stats(NodeId dst) const;

 private:
  /// Stats + link-filter + loss draw for one (src, dst); true = deliver.
  bool admit(NodeId src, NodeId dst, size_t payload_bytes);
  /// The per-destination half of a broadcast (the tx side is charged).
  void offer(NodeId src, const std::vector<NodeId>& dsts, ByteView payload);
  void deliver(Datagram dgram);

  sim::EventQueue& queue_;
  sim::Duration latency_;
  double loss_probability_;
  sim::Rng rng_;
  LinkFilter filter_;
  RadioIndex index_;
  std::vector<NodeId> candidates_;  // flood() reuse
  EnergyTap energy_tap_;
  std::vector<Handler> handlers_;
  Stats stats_;
  std::vector<Stats> node_stats_;  // indexed by destination
};

}  // namespace erasmus::net
