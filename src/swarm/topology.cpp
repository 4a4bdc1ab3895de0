#include "swarm/topology.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace erasmus::swarm {

namespace {
/// Inserts v into the ascending row unless present. The snapshot adds
/// edges in ascending (a, b) order, so there every insert is an append.
void insert_sorted(std::vector<DeviceId>& row, DeviceId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) row.insert(it, v);
}

void erase_sorted(std::vector<DeviceId>& row, DeviceId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) row.erase(it);
}
}  // namespace

void Topology::check(DeviceId a, DeviceId b) const {
  if (a >= adj_.size() || b >= adj_.size()) {
    throw std::out_of_range("Topology: bad device id");
  }
}

void Topology::add_edge(DeviceId a, DeviceId b) {
  check(a, b);
  if (a == b) return;
  insert_sorted(adj_[a], b);
  insert_sorted(adj_[b], a);
}

void Topology::remove_edge(DeviceId a, DeviceId b) {
  check(a, b);
  erase_sorted(adj_[a], b);
  erase_sorted(adj_[b], a);
}

bool Topology::connected(DeviceId a, DeviceId b) const {
  check(a, b);
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

const std::vector<DeviceId>& Topology::neighbors(DeviceId v) const {
  check(v, v);
  return adj_[v];
}

size_t Topology::edge_count() const {
  size_t ends = 0;
  for (const auto& row : adj_) ends += row.size();
  return ends / 2;
}

uint32_t Topology::SpanningTree::max_depth() const {
  uint32_t d = 0;
  for (size_t v = 0; v < parent.size(); ++v) {
    if (parent[v]) d = std::max(d, depth[v]);
  }
  return d;
}

std::vector<DeviceId> Topology::SpanningTree::children(DeviceId v) const {
  std::vector<DeviceId> out;
  for (DeviceId u = 0; u < parent.size(); ++u) {
    if (u != root && parent[u] && *parent[u] == v) out.push_back(u);
  }
  return out;
}

Topology::SpanningTree Topology::bfs_tree(DeviceId root,
                                          const EdgeFilter& keep) const {
  if (root >= adj_.size()) throw std::out_of_range("Topology: bad root");
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(adj_.size(), std::nullopt);
  tree.depth.assign(adj_.size(), 0);
  tree.parent[root] = root;
  tree.reached = 1;

  std::queue<DeviceId> frontier;
  frontier.push(root);
  while (!frontier.empty()) {
    const DeviceId v = frontier.front();
    frontier.pop();
    for (const DeviceId u : adj_[v]) {
      if (tree.parent[u] || (keep && !keep(v, u))) continue;
      tree.parent[u] = v;
      tree.depth[u] = tree.depth[v] + 1;
      ++tree.reached;
      frontier.push(u);
    }
  }
  return tree;
}

size_t Topology::reachable_from(DeviceId root) const {
  return bfs_tree(root).reached;
}

}  // namespace erasmus::swarm
