// Random-waypoint mobility model over a square field.
//
// Each device moves toward a random waypoint at a random speed, picks a new
// waypoint on arrival, and is connected to every device within radio range.
// Trajectories are generated lazily and kept, so position(node, t) is
// well-defined for any already-reached or future t and the model can be
// queried out of order within a protocol round (hops at different times).
//
// The `speed` knob is the mobility-rate axis of the paper's §6 argument:
// at speed 0 the topology is static and on-demand swarm RA works; as speed
// grows, tree edges break mid-protocol and coverage collapses -- while
// ERASMUS collection, needing only momentary per-hop connectivity, degrades
// far more slowly.
//
// A uniform-grid neighbour index answers "who can be in range of this
// point now?" without touching every device: near() lists a superset of
// the in-range devices from positions binned at the start of a rebuild
// span, with cells of radio_range plus the distance a device can travel
// in one span. The index only reads trajectories already generated, so
// it never draws from the trajectory RNG -- callers that must reproduce a
// brute-force query loop's draws replay them through due()/due_devices().
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "swarm/topology.h"

namespace erasmus::swarm {

struct Point {
  double x = 0.0;
  double y = 0.0;
};

double distance(Point a, Point b);

struct MobilityConfig {
  size_t devices = 20;
  double field_size = 100.0;   // square side, metres
  double radio_range = 30.0;   // connectivity radius, metres
  double speed_min = 0.5;      // metres/second
  double speed_max = 2.0;
  uint64_t seed = 42;
};

class RandomWaypointMobility {
 public:
  explicit RandomWaypointMobility(MobilityConfig config);

  Point position(DeviceId node, sim::Time t);

  /// Extends b's trajectory before a's (both draw from the shared RNG, so
  /// the order is part of the output).
  bool connected(DeviceId a, DeviceId b, sim::Time t);

  /// Full adjacency snapshot at time t.
  Topology snapshot(sim::Time t);

  /// True when `node`'s trajectory is not generated through t yet, so the
  /// next position(node, t) draws from the trajectory RNG.
  bool due(DeviceId node, sim::Time t) const {
    return segments_[node].back().end < t;
  }

  /// Appends every device due at t, in ascending id.
  void due_devices(sim::Time t, std::vector<DeviceId>& out) const;

  /// Appends, in ascending id, a superset of the devices within
  /// radio_range of `at` at time t, among the devices whose trajectories
  /// are generated through t. Never extends a trajectory.
  void near(Point at, sim::Time t, std::vector<DeviceId>& out);

  /// How long a binning of the neighbour index stays usable.
  sim::Duration index_span() const { return span_; }

  const MobilityConfig& config() const { return config_; }

 private:
  struct Segment {
    sim::Time start;
    sim::Time end;
    Point from;
    Point to;
  };

  /// Square cells of side >= the reach they were shaped for, so a disc of
  /// that radius touches at most a 3x3 block.
  struct CellGrid {
    double cell = 0.0;  // side of one cell (0 when the field is a point)
    size_t side = 1;    // cells per field side
    std::vector<std::vector<DeviceId>> bins;

    CellGrid(double field, double reach, size_t devices);
    size_t coord(double v) const;
    void insert(DeviceId node, Point p);
    void clear();
    /// Calls f(node) for every binned node of the cells overlapping the
    /// square of half-side `reach` around p.
    template <typename F>
    void visit(Point p, double reach, F&& f) const;
  };

  enum class Binned : uint8_t { kNo, kQueued, kYes };

  void extend(DeviceId node, sim::Time until);
  /// position() of a node whose trajectory already covers t.
  Point locate(DeviceId node, sim::Time t) const;
  /// Distance any device can cover in `elapsed`, plus rounding headroom.
  double slack(sim::Duration elapsed) const;
  void rebuild_index(sim::Time t);

  MobilityConfig config_;
  sim::Rng rng_;
  std::vector<std::vector<Segment>> segments_;  // per node, time-ordered
  /// (trajectory end, node), one entry per node: the due set in end order.
  std::set<std::pair<sim::Time, DeviceId>> horizons_;

  // Neighbour index: positions at index_at_ of every node generated
  // through it. Nodes extended past index_at_ after the rebuild wait in
  // index_queue_ and are binned at the next near().
  sim::Duration span_;
  CellGrid index_;
  bool index_valid_ = false;
  sim::Time index_at_;
  std::vector<Point> index_pos_;
  std::vector<Binned> binned_;
  std::vector<DeviceId> index_queue_;
};

}  // namespace erasmus::swarm
