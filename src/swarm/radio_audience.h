// Who may hear a radio broadcast: the mobility neighbour index turned
// into a net::Network candidate source.
//
// A broadcast used to be offered to every node, and the link filter --
// which asks RandomWaypointMobility::connected() -- rejected the ones out
// of range. Those rejected queries were not free of side effects: each
// one lazily extends any "due" trajectory from the shared trajectory RNG.
// RadioAudience offers the frame only to the index's candidates (a
// superset of the in-range nodes, ascending id) and first REPLAYS exactly
// the draws the full offer loop would have made, so every trajectory,
// delivery and loss draw stays bit-identical to offering to all nodes:
//
//   1. While the sender's trajectory is due, run the full loop's prefix
//      through the link filter: the first offer that reaches connected()
//      extends that destination, then the sender (b before a).
//   2. Then run the link filter on the due destinations only, in
//      ascending offer order.
//
// The caller must replay after anything that can silence the sender
// (the tx energy charge), exactly where the full loop would start.
#pragma once

#include <functional>
#include <vector>

#include "net/network.h"
#include "swarm/mobility.h"

namespace erasmus::swarm {

class RadioAudience {
 public:
  /// The network's link filter, evaluated here only for its mobility side
  /// effects (the network evaluates it again on every candidate).
  using Link = std::function<bool(net::NodeId, net::NodeId)>;
  /// True when the link filter rejects every link from this sender before
  /// consulting mobility (a dark or departed device).
  using Silent = std::function<bool(net::NodeId)>;

  /// Network nodes [0, devices) are the mobility model's devices; every
  /// node past them is a radio co-located with device `colocated` (the
  /// verifier rides with the root). `nodes` counts all of them.
  RadioAudience(RandomWaypointMobility& mobility, size_t nodes,
                DeviceId colocated, Link link, Silent silent);

  /// Replays the draws, then appends the candidates for a broadcast by
  /// `src` at `now` that skips `except`, in ascending id.
  void candidates(net::NodeId src, net::NodeId except, sim::Time now,
                  std::vector<net::NodeId>& out);

 private:
  DeviceId device_of(net::NodeId node) const {
    return node < devices_ ? static_cast<DeviceId>(node) : colocated_;
  }

  RandomWaypointMobility& mobility_;
  size_t devices_;
  size_t nodes_;
  DeviceId colocated_;
  Link link_;
  Silent silent_;
  std::vector<DeviceId> scratch_;
};

}  // namespace erasmus::swarm
