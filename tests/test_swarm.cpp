// Tests for the swarm layer (§6): topology, mobility, the on-demand vs.
// ERASMUS-collection protocol comparison, staggered scheduling and
// full-device fleet rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/sharded_runner.h"
#include "sim/rng.h"
#include "swarm/mobility.h"
#include "swarm/protocols.h"
#include "swarm/topology.h"

namespace erasmus::swarm {
namespace {

using sim::Duration;
using sim::Time;

TEST(Topology, EdgesAreUndirected) {
  Topology t(4);
  t.add_edge(0, 1);
  EXPECT_TRUE(t.connected(0, 1));
  EXPECT_TRUE(t.connected(1, 0));
  EXPECT_FALSE(t.connected(0, 2));
  t.remove_edge(1, 0);
  EXPECT_FALSE(t.connected(0, 1));
}

TEST(Topology, SelfLoopsIgnoredAndBoundsChecked) {
  Topology t(3);
  t.add_edge(1, 1);
  EXPECT_FALSE(t.connected(1, 1));
  EXPECT_THROW(t.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(t.connected(3, 0), std::out_of_range);
  EXPECT_THROW(t.remove_edge(3, 0), std::out_of_range);
  EXPECT_THROW(t.neighbors(3), std::out_of_range);
  EXPECT_THROW(t.bfs_tree(3), std::out_of_range);
}

TEST(Topology, NeighborsAndEdgeCount) {
  Topology t(5);
  t.add_edge(0, 1);
  t.add_edge(0, 2);
  t.add_edge(3, 4);
  EXPECT_EQ(t.neighbors(0), (std::vector<DeviceId>{1, 2}));
  EXPECT_EQ(t.edge_count(), 3u);
}

TEST(Topology, BfsTreeOnLine) {
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 4u);
  EXPECT_EQ(tree.max_depth(), 3u);
  EXPECT_EQ(*tree.parent[3], 2u);
  EXPECT_EQ(tree.children(1), (std::vector<DeviceId>{2}));
}

TEST(Topology, BfsTreeDisconnected) {
  Topology t(4);
  t.add_edge(0, 1);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 2u);
  EXPECT_FALSE(tree.parent[2].has_value());
  EXPECT_EQ(t.reachable_from(0), 2u);
  EXPECT_EQ(t.reachable_from(2), 1u);
}

TEST(Topology, SpanningTreeIgnoresUnreachableNodes) {
  // children()/max_depth() must skip nodes BFS never reached: an
  // unreachable node's depth slot is 0, which must not alias "child of
  // the root" or shrink/grow the depth.
  Topology t(6);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  // 3, 4, 5 form a separate island.
  t.add_edge(3, 4);
  t.add_edge(4, 5);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 3u);
  EXPECT_EQ(tree.max_depth(), 2u) << "island depths must not count";
  EXPECT_EQ(tree.children(0), (std::vector<DeviceId>{1}))
      << "unreachable nodes are nobody's children";
  EXPECT_EQ(tree.children(3), std::vector<DeviceId>{})
      << "an unreachable node has no children in the tree";
  for (DeviceId island : {3u, 4u, 5u}) {
    EXPECT_FALSE(tree.parent[island].has_value());
  }
}

TEST(Topology, SpanningTreeSingleNodeGraph) {
  Topology t(1);
  const auto tree = t.bfs_tree(0);
  EXPECT_EQ(tree.reached, 1u);
  EXPECT_EQ(tree.max_depth(), 0u);
  ASSERT_TRUE(tree.parent[0].has_value());
  EXPECT_EQ(*tree.parent[0], 0u) << "root is its own parent";
  EXPECT_EQ(tree.children(0), std::vector<DeviceId>{})
      << "the root must not list itself as a child";
  EXPECT_EQ(t.reachable_from(0), 1u);
  EXPECT_EQ(t.edge_count(), 0u);
}

// Dense reference for the sparse adjacency: an n*n bit matrix and the
// textbook BFS over it, neighbours in ascending id order.
struct DenseTopology {
  explicit DenseTopology(size_t n) : n(n), adj(n * n, false) {}
  size_t n;
  std::vector<bool> adj;

  bool has(DeviceId a, DeviceId b) const { return adj[a * n + b]; }
  void set(DeviceId a, DeviceId b, bool on) {
    if (a == b) return;
    adj[a * n + b] = on;
    adj[b * n + a] = on;
  }
  std::vector<DeviceId> neighbors(DeviceId v) const {
    std::vector<DeviceId> out;
    for (DeviceId u = 0; u < n; ++u) {
      if (has(v, u)) out.push_back(u);
    }
    return out;
  }
  Topology::SpanningTree bfs(DeviceId root) const {
    Topology::SpanningTree tree;
    tree.root = root;
    tree.parent.assign(n, std::nullopt);
    tree.depth.assign(n, 0);
    tree.parent[root] = root;
    tree.reached = 1;
    std::vector<DeviceId> queue = {root};
    for (size_t head = 0; head < queue.size(); ++head) {
      const DeviceId v = queue[head];
      for (const DeviceId u : neighbors(v)) {
        if (tree.parent[u]) continue;
        tree.parent[u] = v;
        tree.depth[u] = tree.depth[v] + 1;
        ++tree.reached;
        queue.push_back(u);
      }
    }
    return tree;
  }
};

void expect_same_tree(const Topology::SpanningTree& got,
                      const Topology::SpanningTree& want) {
  EXPECT_EQ(got.root, want.root);
  EXPECT_EQ(got.reached, want.reached);
  EXPECT_EQ(got.parent, want.parent);
  for (size_t v = 0; v < want.parent.size(); ++v) {
    if (want.parent[v]) {
      EXPECT_EQ(got.depth[v], want.depth[v]) << v;
    }
  }
}

void expect_matches(const Topology& t, const DenseTopology& ref,
                    sim::Rng& rng) {
  const auto n = static_cast<DeviceId>(ref.n);
  ASSERT_EQ(t.size(), ref.n);
  size_t ends = 0;
  for (DeviceId a = 0; a < n; ++a) {
    for (DeviceId b = 0; b < n; ++b) {
      ASSERT_EQ(t.connected(a, b), ref.has(a, b)) << a << "-" << b;
    }
    ASSERT_EQ(t.neighbors(a), ref.neighbors(a)) << a;
    ends += t.neighbors(a).size();
  }
  EXPECT_EQ(t.edge_count(), ends / 2);
  for (int i = 0; i < 3; ++i) {
    const auto root = static_cast<DeviceId>(rng.next_below(n));
    expect_same_tree(t.bfs_tree(root), ref.bfs(root));

    // A symmetric filter (some nodes blocked outright, some edges cut by
    // a pair hash) walks exactly the graph without the rejected edges.
    const uint64_t salt = rng.next_u64();
    std::vector<bool> blocked(n);
    for (DeviceId v = 0; v < n; ++v) blocked[v] = rng.chance(0.1);
    const auto keep = [&](DeviceId a, DeviceId b) {
      const uint64_t pair = std::min(a, b) * 1000003ull + std::max(a, b);
      return !blocked[a] && !blocked[b] && (pair ^ salt) % 4 != 0;
    };
    Topology pruned = t;
    DenseTopology pruned_ref = ref;
    for (DeviceId a = 0; a < n; ++a) {
      for (const DeviceId b : t.neighbors(a)) {
        if (keep(a, b)) continue;
        pruned.remove_edge(a, b);
        pruned_ref.set(a, b, false);
      }
    }
    const auto filtered = t.bfs_tree(root, keep);
    expect_same_tree(filtered, pruned.bfs_tree(root));
    expect_same_tree(filtered, pruned_ref.bfs(root));
  }
}

TEST(Topology, MatchesDenseReferenceUnderRandomEdits) {
  for (const size_t n : {1, 2, 64, 700}) {
    SCOPED_TRACE(n);
    sim::Rng rng(0x70b0 + n);
    Topology t(n);
    DenseTopology ref(n);
    const size_t ops = n < 64 ? 50 : 12 * n;
    // Full comparisons are O(n^2): every op on small graphs, a few
    // checkpoints on the large one.
    const size_t check_every = n <= 64 ? 1 : ops / 4;
    for (size_t op = 1; op <= ops; ++op) {
      const auto a = static_cast<DeviceId>(rng.next_below(n));
      auto b = static_cast<DeviceId>(rng.next_below(n));
      const uint64_t kind = rng.next_below(20);
      if (kind < 2) {
        b = a;  // self-loop: ignored by add, no-op for remove
      } else if (kind < 5 && !t.neighbors(a).empty()) {
        // An existing edge: a duplicate add or a real removal.
        b = t.neighbors(a)[rng.next_below(t.neighbors(a).size())];
      }
      if (kind % 3 == 0) {
        t.remove_edge(a, b);  // often absent: must be a no-op
        ref.set(a, b, false);
      } else {
        t.add_edge(a, b);
        ref.set(a, b, true);
      }
      if (op % check_every == 0) expect_matches(t, ref, rng);
    }
    if (n > 1) {
      EXPECT_GT(t.edge_count(), 0u) << "the edits must leave edges";
    }
  }
}

TEST(Topology, EdgeRemovalMidTreeDropsSubtree) {
  // A tree built before churn keeps its (now stale) parents; rebuilding
  // after removing a tree edge loses exactly the severed subtree -- the
  // on-demand-protocol failure mode the overlay exists to avoid.
  Topology t(5);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  t.add_edge(3, 4);
  const auto before = t.bfs_tree(0);
  EXPECT_EQ(before.reached, 5u);
  EXPECT_EQ(before.max_depth(), 4u);

  t.remove_edge(1, 2);
  // The old snapshot is unchanged (it is a value, not a view)...
  EXPECT_EQ(*before.parent[2], 1u);
  // ...but a rebuild sees the severed subtree vanish.
  const auto after = t.bfs_tree(0);
  EXPECT_EQ(after.reached, 2u);
  EXPECT_EQ(after.max_depth(), 1u);
  EXPECT_FALSE(after.parent[2].has_value());
  EXPECT_FALSE(after.parent[4].has_value());
  EXPECT_EQ(after.children(1), std::vector<DeviceId>{});

  // Removing an already-absent edge is a no-op, not corruption.
  t.remove_edge(1, 2);
  EXPECT_EQ(t.bfs_tree(0).reached, 2u);
}

TEST(Mobility, DeterministicPerSeed) {
  MobilityConfig cfg;
  cfg.devices = 5;
  cfg.seed = 9;
  RandomWaypointMobility a(cfg), b(cfg);
  const Time t = Time::zero() + Duration::minutes(30);
  for (DeviceId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(a.position(v, t).x, b.position(v, t).x);
    EXPECT_DOUBLE_EQ(a.position(v, t).y, b.position(v, t).y);
  }
}

TEST(Mobility, PositionsStayInField) {
  MobilityConfig cfg;
  cfg.devices = 8;
  cfg.field_size = 50.0;
  RandomWaypointMobility m(cfg);
  for (int minutes = 0; minutes < 120; minutes += 10) {
    for (DeviceId v = 0; v < 8; ++v) {
      const Point p = m.position(v, Time::zero() + Duration::minutes(minutes));
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 50.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 50.0);
    }
  }
}

TEST(Mobility, StationaryWhenSpeedZero) {
  MobilityConfig cfg;
  cfg.devices = 3;
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;
  RandomWaypointMobility m(cfg);
  const Point p0 = m.position(1, Time::zero());
  const Point p1 = m.position(1, Time::zero() + Duration::hours(5));
  EXPECT_DOUBLE_EQ(p0.x, p1.x);
  EXPECT_DOUBLE_EQ(p0.y, p1.y);
}

TEST(Mobility, OutOfOrderQueriesConsistent) {
  MobilityConfig cfg;
  cfg.devices = 2;
  RandomWaypointMobility m(cfg);
  const Point late = m.position(0, Time::zero() + Duration::minutes(60));
  const Point early = m.position(0, Time::zero() + Duration::minutes(10));
  const Point late_again = m.position(0, Time::zero() + Duration::minutes(60));
  EXPECT_DOUBLE_EQ(late.x, late_again.x);
  EXPECT_DOUBLE_EQ(late.y, late_again.y);
  (void)early;
}

TEST(Mobility, SnapshotMatchesPairwiseConnectivity) {
  MobilityConfig cfg;
  cfg.devices = 6;
  cfg.radio_range = 40.0;
  RandomWaypointMobility m(cfg);
  const Time t = Time::zero() + Duration::minutes(7);
  const Topology topo = m.snapshot(t);
  for (DeviceId a = 0; a < 6; ++a) {
    for (DeviceId b = a + 1; b < 6; ++b) {
      EXPECT_EQ(topo.connected(a, b), m.connected(a, b, t));
    }
  }
}

TEST(Mobility, ConnectedExtendsBBeforeA) {
  // Both trajectories are due, so connected() draws for both from the
  // shared RNG; the draw order is fixed (b, then a), whatever the
  // compiler's argument evaluation order.
  MobilityConfig cfg;
  cfg.devices = 6;
  cfg.seed = 21;
  RandomWaypointMobility joint(cfg), b_first(cfg), a_first(cfg);
  const Time t = Time::zero() + Duration::minutes(20);
  ASSERT_TRUE(joint.due(2, t));
  ASSERT_TRUE(joint.due(4, t));
  joint.connected(2, 4, t);
  b_first.position(4, t);
  b_first.position(2, t);
  a_first.position(2, t);
  a_first.position(4, t);
  bool orders_differ = false;
  for (int minutes = 20; minutes <= 120; minutes += 20) {
    const Time later = Time::zero() + Duration::minutes(minutes);
    for (DeviceId v = 0; v < cfg.devices; ++v) {
      const Point p = joint.position(v, later);
      const Point q = b_first.position(v, later);
      EXPECT_EQ(p.x, q.x) << "device " << v << " at " << minutes << "m";
      EXPECT_EQ(p.y, q.y) << "device " << v << " at " << minutes << "m";
      const Point r = a_first.position(v, later);
      orders_differ = orders_differ || p.x != r.x || p.y != r.y;
    }
  }
  EXPECT_TRUE(orders_differ) << "the two draw orders must be told apart";
}

// Field shapes for the neighbour-index properties: the usual swarm, a
// static one, a fast one, a radio wider than the field and a tiny range.
std::vector<MobilityConfig> index_configs() {
  std::vector<MobilityConfig> out;
  const auto make = [](double field, double range, double vmin, double vmax,
                       uint64_t seed) {
    MobilityConfig c;
    c.devices = 90;
    c.field_size = field;
    c.radio_range = range;
    c.speed_min = vmin;
    c.speed_max = vmax;
    c.seed = seed;
    return c;
  };
  out.push_back(make(300.0, 60.0, 6.0, 12.0, 1));
  out.push_back(make(150.0, 30.0, 0.0, 0.0, 2));
  out.push_back(make(200.0, 25.0, 20.0, 40.0, 3));
  out.push_back(make(50.0, 80.0, 1.0, 3.0, 4));
  out.push_back(make(400.0, 2.0, 0.5, 2.0, 5));
  return out;
}

TEST(Mobility, NeighbourIndexIsSupersetOfBruteForce) {
  for (const MobilityConfig& cfg : index_configs()) {
    SCOPED_TRACE("range " + std::to_string(cfg.radio_range) + " speed " +
                 std::to_string(cfg.speed_max));
    RandomWaypointMobility m(cfg);
    sim::Rng pick(cfg.seed * 97);
    const Duration span = m.index_span();
    const double f = cfg.field_size;
    Time t = Time::zero();
    std::vector<DeviceId> near;
    std::vector<DeviceId> due;
    for (int step = 0; step < 60; ++step) {
      // A jump past the span forces a rebuild at t; the next query lands
      // exactly at the span's end, the widest slack; then random steps
      // walk through the span.
      if (step % 10 == 0) {
        t = t + span + span;
      } else if (step % 10 == 1) {
        t = t + span;
      } else {
        t = t + Duration(1 + pick.next_below(span.ns() / 4 + 1));
      }
      due.clear();
      m.due_devices(t, due);
      EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
      for (DeviceId v = 0; v < cfg.devices; ++v) {
        EXPECT_EQ(std::binary_search(due.begin(), due.end(), v), m.due(v, t));
      }
      // Brute force first: it generates every trajectory through t.
      std::vector<Point> pos(cfg.devices);
      for (DeviceId v = 0; v < cfg.devices; ++v) pos[v] = m.position(v, t);
      std::vector<Point> centres = {
          {0.0, 0.0}, {f, f}, {0.0, f / 2}, {f, 0.0}, {f / 2, f},
          {pick.next_double() * f, pick.next_double() * f}};
      for (int k = 0; k < 4; ++k) {
        centres.push_back(pos[pick.next_below(cfg.devices)]);
      }
      for (const Point c : centres) {
        near.clear();
        m.near(c, t, near);
        EXPECT_TRUE(std::is_sorted(near.begin(), near.end()));
        for (DeviceId v = 0; v < cfg.devices; ++v) {
          if (distance(pos[v], c) <= cfg.radio_range) {
            EXPECT_TRUE(std::binary_search(near.begin(), near.end(), v))
                << "device " << v << " in range of (" << c.x << ", " << c.y
                << ") at step " << step << " but not a candidate";
          }
        }
      }
      // Device centres agree with connected() itself.
      const DeviceId a = static_cast<DeviceId>(pick.next_below(cfg.devices));
      near.clear();
      m.near(pos[a], t, near);
      for (DeviceId v = 0; v < cfg.devices; ++v) {
        if (m.connected(a, v, t)) {
          EXPECT_TRUE(std::binary_search(near.begin(), near.end(), v));
        }
      }
    }
  }
}

TEST(Mobility, NeighbourIndexNeverDraws) {
  // near() reads generated trajectories only: a twin that never asks
  // the index sees the same trajectories afterwards.
  MobilityConfig cfg = index_configs()[2];
  RandomWaypointMobility asked(cfg), twin(cfg);
  const Time t = Time::zero() + Duration::minutes(3);
  asked.position(0, t);
  twin.position(0, t);
  std::vector<DeviceId> near;
  asked.near(asked.position(0, t), t, near);
  asked.near(Point{}, t + Duration::minutes(5), near);
  for (DeviceId v = 0; v < cfg.devices; ++v) {
    EXPECT_EQ(asked.due(v, t), twin.due(v, t));
    const Point p = asked.position(v, t + Duration::minutes(9));
    const Point q = twin.position(v, t + Duration::minutes(9));
    EXPECT_EQ(p.x, q.x);
    EXPECT_EQ(p.y, q.y);
  }
}

TEST(Mobility, GridSnapshotEqualsBruteForce) {
  for (const MobilityConfig& cfg : index_configs()) {
    RandomWaypointMobility grid(cfg), brute(cfg);
    for (int minutes : {0, 7, 30, 95}) {
      const Time t = Time::zero() + Duration::minutes(minutes);
      const Topology topo = grid.snapshot(t);
      // The reference: positions in id order (the same draws), then the
      // O(n^2) pairwise predicate.
      std::vector<Point> pos(cfg.devices);
      for (DeviceId v = 0; v < cfg.devices; ++v) pos[v] = brute.position(v, t);
      size_t edges = 0;
      for (DeviceId a = 0; a < cfg.devices; ++a) {
        for (DeviceId b = a + 1; b < cfg.devices; ++b) {
          const bool in_range = distance(pos[a], pos[b]) <= cfg.radio_range;
          edges += in_range ? 1 : 0;
          EXPECT_EQ(topo.connected(a, b), in_range)
              << a << "-" << b << " at " << minutes << "m";
        }
      }
      EXPECT_EQ(topo.edge_count(), edges);
    }
  }
}

TEST(Protocols, StaticSwarmBothProtocolsReachEveryone) {
  MobilityConfig cfg;
  cfg.devices = 12;
  cfg.field_size = 60.0;
  cfg.radio_range = 30.0;  // dense enough to be connected
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;     // static topology
  cfg.seed = 3;
  RandomWaypointMobility m(cfg);
  const size_t reachable =
      m.snapshot(Time::zero()).reachable_from(0);

  SwarmProtocolConfig pc;
  const auto od = run_ondemand_round(m, Time::zero(), 0, pc);
  const auto er = run_erasmus_collection_round(m, Time::zero(), 0, pc);
  EXPECT_EQ(od.attested, reachable);
  EXPECT_EQ(er.attested, reachable);
}

TEST(Protocols, ErasmusCollectionOrdersOfMagnitudeFaster) {
  MobilityConfig cfg;
  cfg.devices = 12;
  cfg.speed_min = 0.0;
  cfg.speed_max = 0.0;
  RandomWaypointMobility m(cfg);
  SwarmProtocolConfig pc;
  pc.hop_latency = Duration::millis(1);
  const auto od = run_ondemand_round(m, Time::zero(), 0, pc);
  const auto er = run_erasmus_collection_round(m, Time::zero(), 0, pc);
  ASSERT_GT(od.attested, 1u);
  EXPECT_GT(od.duration.ns(), er.duration.ns() * 10)
      << "on-demand pays per-device measurement time; collection does not";
  // The gap is the per-device measurement work (minus the tiny stored-
  // measurement read the collection round pays instead).
  EXPECT_GE((od.duration - er.duration).ns(),
            (pc.measurement_time - pc.collection_reply_time).ns());
}

TEST(Protocols, MobilityHurtsOnDemandMoreThanCollection) {
  MobilityConfig cfg;
  cfg.devices = 25;
  cfg.field_size = 120.0;
  cfg.radio_range = 40.0;
  cfg.speed_min = 8.0;   // fast swarm (vehicles/drones)
  cfg.speed_max = 15.0;
  SwarmProtocolConfig pc;
  pc.measurement_time = Duration::seconds(7);  // low-end device, Fig. 6

  double od_cov = 0, er_cov = 0;
  int rounds = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MobilityConfig c = cfg;
    c.seed = seed;
    RandomWaypointMobility m(c);
    const Time t0 = Time::zero() + Duration::minutes(5);
    const auto od = run_ondemand_round(m, t0, 0, pc);
    const auto er = run_erasmus_collection_round(m, t0, 0, pc);
    od_cov += od.coverage();
    er_cov += er.coverage();
    ++rounds;
  }
  od_cov /= rounds;
  er_cov /= rounds;
  EXPECT_GT(er_cov, od_cov + 0.05)
      << "ERASMUS collection must tolerate mobility clearly better";
}

TEST(Protocols, StaggeredScheduleBoundsConcurrentBusy) {
  // §6: with ERASMUS it is trivial to ensure only a fraction of the swarm
  // measures at any time.
  const size_t aligned = max_concurrent_busy(
      20, Duration::minutes(10), Duration::seconds(7), /*staggered=*/false);
  const size_t staggered = max_concurrent_busy(
      20, Duration::minutes(10), Duration::seconds(7), /*staggered=*/true);
  EXPECT_EQ(aligned, 20u) << "aligned schedules all measure simultaneously";
  EXPECT_EQ(staggered, 1u) << "30 s stride >> 7 s measurement";
}

TEST(Protocols, StaggeringWithLongMeasurements) {
  // When the measurement takes longer than the stride, the bound is
  // ceil(measure / stride).
  const size_t busy = max_concurrent_busy(
      10, Duration::minutes(10), Duration::minutes(3), /*staggered=*/true);
  EXPECT_EQ(busy, 3u);
}

DeviceSpec small_spec() {
  DeviceSpec spec;
  spec.tm = Duration::minutes(10);
  spec.app_ram_bytes = 512;
  return spec;
}

// Full device stacks driven to `at` on one thread, then collected once
// through the in-process direct backend (6 records per device).
scenario::ShardedFleetConfig one_round_at(FleetPlan plan, Duration at) {
  scenario::ShardedFleetConfig cfg;
  cfg.plan = std::move(plan);
  cfg.rounds = 1;
  cfg.round_interval = at;
  cfg.k = 6;
  return cfg;
}

TEST(Fleet, StaggeredMeasurementsSpreadOverPeriod) {
  scenario::ShardedFleetRunner runner(one_round_at(
      FleetPlan::uniform(5, /*key_seed=*/7, small_spec()),
      Duration::minutes(10)));
  scenario::NullSink sink;
  runner.run(sink);
  // Offsets are i*T_M/5: all five have measured exactly once after one T_M.
  for (DeviceId id = 0; id < 5; ++id) {
    EXPECT_EQ(runner.prover(id).stats().measurements, 1u) << "device " << id;
  }
}

TEST(Fleet, CollectRoundVerifiesHealthyDevices) {
  FleetPlan plan = FleetPlan::uniform(6, /*key_seed=*/7, small_spec());
  plan.mobility.field_size = 40.0;   // dense: likely fully connected
  plan.mobility.radio_range = 60.0;
  scenario::ShardedFleetRunner runner(one_round_at(plan, Duration::hours(1)));
  scenario::NullSink sink;
  const auto rounds = runner.run(sink);

  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].reachable, 6u) << "radio range covers the whole field";
  EXPECT_EQ(rounds[0].healthy, 6u);
  EXPECT_EQ(rounds[0].flagged, 0u);
}

TEST(Fleet, InfectedDeviceFlaggedUnhealthy) {
  FleetPlan plan = FleetPlan::uniform(4, /*key_seed=*/7, small_spec());
  plan.mobility.field_size = 30.0;
  plan.mobility.radio_range = 60.0;
  scenario::ShardedFleetRunner runner(one_round_at(plan, Duration::hours(1)));
  // Persistent malware on device 2.
  runner.schedule_on_device(
      2, Time::zero() + Duration::minutes(15), [](attest::Prover& p) {
        p.memory().write(p.attested_region(), 10, bytes_of("EVIL"), false);
      });
  scenario::NullSink sink;
  const auto rounds = runner.run(sink);

  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].reachable, 4u);
  EXPECT_EQ(rounds[0].healthy, 3u);
  EXPECT_EQ(rounds[0].flagged, 1u);
}

TEST(Fleet, PerDeviceKeysAreIndependent) {
  const Duration at = Duration::minutes(15);
  scenario::ShardedFleetRunner runner(one_round_at(
      FleetPlan::uniform(3, /*key_seed=*/7, small_spec()), at));
  scenario::NullSink sink;
  runner.run(sink);
  // Device 1's measurement must not verify under device 0's key.
  const auto m =
      runner.prover(1).store().latest(runner.prover(1).latest_index(), 1);
  ASSERT_EQ(m.size(), 1u);
  attest::CollectResponse cross;
  cross.measurements = m;
  const auto report =
      attest::verify_collection(runner.directory().record(0), cross,
                                Time::zero() + at);
  EXPECT_TRUE(report.tampering_detected)
      << "cross-device measurement must fail MAC verification";
}

}  // namespace
}  // namespace erasmus::swarm
