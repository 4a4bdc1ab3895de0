#include "swarm/radio_audience.h"

#include <stdexcept>

namespace erasmus::swarm {

RadioAudience::RadioAudience(RandomWaypointMobility& mobility, size_t nodes,
                             DeviceId colocated, Link link, Silent silent)
    : mobility_(mobility), devices_(mobility.config().devices),
      nodes_(nodes), colocated_(colocated), link_(std::move(link)),
      silent_(std::move(silent)) {
  if (nodes_ < devices_ || colocated_ >= devices_) {
    throw std::invalid_argument("RadioAudience: bad node layout");
  }
}

void RadioAudience::candidates(net::NodeId src, net::NodeId except,
                               sim::Time now,
                               std::vector<net::NodeId>& out) {
  if (silent_(src)) return;  // the filter passes nothing and draws nothing
  const auto offered = [&](net::NodeId n) { return n != src && n != except; };
  const DeviceId sender = device_of(src);

  // 1. The full loop's prefix, verbatim, until the sender gets extended.
  for (net::NodeId dst = 0; dst < nodes_ && mobility_.due(sender, now);
       ++dst) {
    if (offered(dst)) (void)link_(src, dst);
  }
  if (mobility_.due(sender, now)) {
    // No offer reached mobility at all, so only radios sharing the
    // sender's position can pass the filter.
    if (offered(sender)) out.push_back(sender);
    if (sender != colocated_) return;
    for (net::NodeId n = static_cast<net::NodeId>(devices_); n < nodes_;
         ++n) {
      if (offered(n)) out.push_back(n);
    }
    return;
  }

  // 2. The due destinations, in ascending offer order (co-located radios
  // are offered last, with their device's trajectory).
  scratch_.clear();
  mobility_.due_devices(now, scratch_);
  for (const DeviceId d : scratch_) {
    if (offered(d) && mobility_.due(d, now)) (void)link_(src, d);
  }
  for (net::NodeId n = static_cast<net::NodeId>(devices_); n < nodes_; ++n) {
    if (offered(n) && mobility_.due(colocated_, now)) (void)link_(src, n);
  }

  // Every trajectory the full loop would have generated now is: the
  // index can answer without drawing.
  scratch_.clear();
  mobility_.near(mobility_.position(sender, now), now, scratch_);
  bool colocated_near = false;
  for (const DeviceId d : scratch_) {
    if (d == colocated_) colocated_near = true;
    if (offered(d)) out.push_back(d);
  }
  if (!colocated_near) return;
  for (net::NodeId n = static_cast<net::NodeId>(devices_); n < nodes_; ++n) {
    if (offered(n)) out.push_back(n);
  }
}

}  // namespace erasmus::swarm
