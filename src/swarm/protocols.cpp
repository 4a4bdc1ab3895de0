#include "swarm/protocols.h"

#include <algorithm>
#include <vector>

namespace erasmus::swarm {

namespace {

/// Shared flood-down / aggregate-up engine; `per_device_time` is what each
/// device does between receiving the request and having its report ready.
SwarmRoundResult run_round(RandomWaypointMobility& mobility, sim::Time t0,
                           DeviceId root, sim::Duration hop_latency,
                           sim::Duration per_device_time) {
  const Topology topo = mobility.snapshot(t0);
  const auto tree = topo.bfs_tree(root);
  const size_t n = topo.size();

  SwarmRoundResult result;
  result.devices = n;

  // --- Flood the request down the tree -------------------------------------
  // received[v]: the request reached v (edges checked at crossing time).
  std::vector<bool> received(n, false);
  std::vector<sim::Time> arrival(n, sim::Time::zero());
  received[root] = true;
  arrival[root] = t0;

  // BFS order = increasing depth, so parents are settled before children.
  std::vector<DeviceId> order;
  order.reserve(n);
  for (DeviceId v = 0; v < n; ++v) {
    if (tree.parent[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](DeviceId a, DeviceId b) {
    return tree.depth[a] < tree.depth[b];
  });

  for (DeviceId v : order) {
    if (v == root) continue;
    const DeviceId p = *tree.parent[v];
    if (!received[p]) continue;
    const sim::Time crossing = arrival[p] + hop_latency;
    if (mobility.connected(p, v, crossing)) {
      received[v] = true;
      arrival[v] = crossing;
    }
  }

  // --- Aggregate reports up the tree ----------------------------------------
  // Deepest first: a node forwards once its own work and every arriving
  // child report are in; the uplink edge must be alive at forward time.
  std::vector<size_t> gathered(n, 0);          // reports in v's aggregate
  std::vector<sim::Time> ready(n, sim::Time::zero());
  std::vector<bool> report_arrived(n, false);  // v's aggregate reached parent

  // Every node's children, ascending, bucketed from parent[] in one pass
  // (SpanningTree::children() is O(N) per call).
  std::vector<std::vector<DeviceId>> children(n);
  for (DeviceId u = 0; u < n; ++u) {
    if (u != root && tree.parent[u]) children[*tree.parent[u]].push_back(u);
  }

  std::vector<DeviceId> up_order = order;
  std::sort(up_order.begin(), up_order.end(), [&](DeviceId a, DeviceId b) {
    return tree.depth[a] > tree.depth[b];
  });

  for (DeviceId v : up_order) {
    if (!received[v]) continue;
    gathered[v] = 1;  // own report
    ready[v] = arrival[v] + per_device_time;
    for (DeviceId c : children[v]) {
      if (report_arrived[c]) {
        gathered[v] += gathered[c];
        const sim::Time child_arrival = ready[c] + hop_latency;
        ready[v] = std::max(ready[v], child_arrival);
      }
    }
    if (v == root) continue;
    const DeviceId p = *tree.parent[v];
    if (received[p] && mobility.connected(v, p, ready[v])) {
      report_arrived[v] = true;
    }
  }

  // Root is processed last in up_order (depth 0) and skips the uplink
  // check, so its aggregate is final here.
  result.attested = gathered[root];
  result.duration = ready[root] - t0;
  return result;
}

}  // namespace

SwarmRoundResult run_ondemand_round(RandomWaypointMobility& mobility,
                                    sim::Time t0, DeviceId root,
                                    const SwarmProtocolConfig& config) {
  return run_round(mobility, t0, root, config.hop_latency,
                   config.measurement_time);
}

SwarmRoundResult run_erasmus_collection_round(
    RandomWaypointMobility& mobility, sim::Time t0, DeviceId root,
    const SwarmProtocolConfig& config) {
  return run_round(mobility, t0, root, config.hop_latency,
                   config.collection_reply_time);
}

size_t max_concurrent_busy(size_t devices, sim::Duration tm,
                           sim::Duration measurement_time, bool staggered) {
  if (devices == 0 || tm.is_zero()) return 0;
  const uint64_t period = tm.ns();
  const uint64_t busy = std::min(measurement_time.ns(), period);

  // Sweep one full period; device i is busy while
  // (t - offset_i) mod period < busy.
  const size_t kSamples = 10'000;
  size_t max_busy = 0;
  for (size_t s = 0; s < kSamples; ++s) {
    const uint64_t t = period * s / kSamples;
    size_t count = 0;
    for (size_t i = 0; i < devices; ++i) {
      const uint64_t offset = staggered ? (period * i / devices) : 0;
      const uint64_t phase = (t + period - offset) % period;
      if (phase < busy) ++count;
    }
    max_busy = std::max(max_busy, count);
  }
  return max_busy;
}

}  // namespace erasmus::swarm
