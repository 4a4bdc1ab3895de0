// Swarm topology: an undirected graph snapshot of device connectivity.
//
// On-demand swarm RA (SEDA/LISA-style) floods a request down a spanning
// tree and gathers reports back up; the tree is built on the topology at
// protocol start and silently breaks when edges churn mid-protocol -- the
// paper's core argument for ERASMUS in high-mobility swarms (§6).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace erasmus::swarm {

using DeviceId = uint32_t;

/// Sparse adjacency: one ascending neighbour list per device, so memory
/// and neighbour walks are O(N + E) rather than O(N^2).
class Topology {
 public:
  explicit Topology(size_t n) : adj_(n) {}

  size_t size() const { return adj_.size(); }

  void add_edge(DeviceId a, DeviceId b);
  void remove_edge(DeviceId a, DeviceId b);
  bool connected(DeviceId a, DeviceId b) const;

  /// v's neighbours in ascending id order.
  const std::vector<DeviceId>& neighbors(DeviceId v) const;
  size_t edge_count() const;

  /// BFS spanning tree rooted at `root`.
  struct SpanningTree {
    DeviceId root = 0;
    /// parent[v]; parent[root] == root; nullopt when v is unreachable.
    std::vector<std::optional<DeviceId>> parent;
    std::vector<uint32_t> depth;  // valid when parent[v] is set
    size_t reached = 0;

    uint32_t max_depth() const;
    /// Children of v in the tree.
    std::vector<DeviceId> children(DeviceId v) const;
  };
  /// Edge filter for bfs_tree: the walk crosses (from, to) only when it
  /// returns true. It must be symmetric for the tree to be the BFS tree of
  /// the graph with the rejected edges removed.
  using EdgeFilter = std::function<bool(DeviceId from, DeviceId to)>;
  SpanningTree bfs_tree(DeviceId root, const EdgeFilter& keep = {}) const;

  /// Number of devices reachable from `root` (including itself).
  size_t reachable_from(DeviceId root) const;

 private:
  void check(DeviceId a, DeviceId b) const;

  std::vector<std::vector<DeviceId>> adj_;
};

}  // namespace erasmus::swarm
