// Differential test of the radio neighbour index: a mobile swarm whose
// broadcasts go through Network::flood() with a swarm::RadioAudience must
// behave exactly like its twin that offers every broadcast to every node
// through Network::broadcast() -- same deliveries, same loss-RNG state,
// same trajectories afterwards -- while offering far fewer frames.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "swarm/mobility.h"
#include "swarm/radio_audience.h"

namespace erasmus::swarm {
namespace {

using net::NodeId;
using sim::Duration;
using sim::Time;

constexpr size_t kDevices = 70;
constexpr DeviceId kRoot = 5;
constexpr uint32_t kTxBudget = 9;  // the 9th transmission darkens a device
const Time kPartitionFrom = Time::zero() + Duration::seconds(120);
const Time kPartitionTo = Time::zero() + Duration::seconds(300);

MobilityConfig fast_swarm() {
  // Fast enough that trajectories run out between broadcasts, so every
  // broadcast has due senders and due destinations to replay.
  MobilityConfig cfg;
  cfg.devices = kDevices;
  cfg.field_size = 220.0;
  cfg.radio_range = 45.0;
  cfg.speed_min = 20.0;
  cfg.speed_max = 40.0;
  cfg.seed = 2718;
  return cfg;
}

struct Delivery {
  uint64_t at;
  NodeId src;
  NodeId dst;
  Bytes payload;
  bool operator==(const Delivery&) const = default;
};

// One mobility + Network stack with the fleet runner's link semantics:
// dark devices are radio-silent both ways, the verifier rides with the
// root, a scheduled partition splits the fleet in halves, and a tx energy
// charge can darken the sender before its frame is offered.
class Stack {
 public:
  explicit Stack(bool indexed)
      : mobility_(fast_swarm()),
        network_(queue_, Duration::millis(3), /*loss=*/0.1, /*seed=*/77),
        dark_(kDevices, false), tx_(kDevices, 0) {
    for (DeviceId id = 0; id < kDevices; id += 11) dark_[id] = true;
    for (size_t n = 0; n <= kDevices; ++n) {
      network_.add_node([this](const net::Datagram& d) {
        delivered_.push_back({queue_.now().ns(), d.src, d.dst, d.payload});
      });
    }
    verifier_ = static_cast<NodeId>(kDevices);
    network_.set_link_filter([this](NodeId a, NodeId b) { return link(a, b); });
    network_.set_energy_tap([this](NodeId node, size_t, bool tx) {
      if (tx && node != verifier_ && ++tx_[node] == kTxBudget) {
        dark_[node] = true;
      }
    });
    if (!indexed) return;
    audience_ = std::make_unique<RadioAudience>(
        mobility_, kDevices + 1, kRoot,
        [this](NodeId a, NodeId b) { return link(a, b); },
        [this](NodeId n) { return n != verifier_ && dark_[n]; });
    network_.set_radio_index(
        [this](NodeId src, NodeId except, std::vector<NodeId>& out) {
          audience_->candidates(src, except, queue_.now(), out);
        });
  }

  void broadcast(NodeId src, NodeId except, ByteView payload) {
    if (audience_) {
      network_.flood(src, except, payload);
      return;
    }
    std::vector<NodeId> all;
    for (NodeId n = 0; n <= kDevices; ++n) {
      if (n != src && n != except) all.push_back(n);
    }
    network_.broadcast(src, all, payload);
  }

  sim::EventQueue& queue() { return queue_; }
  net::Network& network() { return network_; }
  RandomWaypointMobility& mobility() { return mobility_; }
  const std::vector<Delivery>& delivered() const { return delivered_; }
  const std::vector<bool>& dark() const { return dark_; }
  NodeId verifier() const { return verifier_; }

 private:
  bool link(NodeId a, NodeId b) {
    const auto device = [this](NodeId n) {
      return n == verifier_ ? kRoot : static_cast<DeviceId>(n);
    };
    if (a != verifier_ && dark_[a]) return false;
    if (b != verifier_ && dark_[b]) return false;
    const DeviceId da = device(a);
    const DeviceId db = device(b);
    if (da == db) return true;
    const Time now = queue_.now();
    if (kPartitionFrom <= now && now < kPartitionTo &&
        (da < kDevices / 2) != (db < kDevices / 2)) {
      return false;
    }
    return mobility_.connected(da, db, now);
  }

  sim::EventQueue queue_;
  RandomWaypointMobility mobility_;
  net::Network network_;
  std::vector<bool> dark_;
  std::vector<uint32_t> tx_;
  NodeId verifier_ = 0;
  std::unique_ptr<RadioAudience> audience_;
  std::vector<Delivery> delivered_;
};

// The same broadcast schedule for both stacks: device and verifier
// senders, with no, a random, or the root's node skipped.
void run_schedule(Stack& stack) {
  sim::Rng pick(99);
  Time at = Time::zero();
  for (uint32_t i = 0; i < 600; ++i) {
    at = at + Duration::millis(200 + pick.next_below(1400));
    const NodeId src = pick.chance(0.15)
                           ? stack.verifier()
                           : static_cast<NodeId>(pick.next_below(kDevices));
    NodeId except = src;
    const uint64_t mode = pick.next_below(3);
    if (mode == 1) except = static_cast<NodeId>(pick.next_below(kDevices + 1));
    if (mode == 2) except = kRoot;
    const Bytes payload{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8),
                        static_cast<uint8_t>(src)};
    stack.queue().schedule_at(at, [&stack, src, except, payload] {
      stack.broadcast(src, except, payload);
    });
  }
  stack.queue().run();
}

TEST(RadioAudience, IndexedFloodMatchesFullBroadcast) {
  Stack full(/*indexed=*/false);
  Stack indexed(/*indexed=*/true);
  run_schedule(full);
  run_schedule(indexed);

  ASSERT_FALSE(full.delivered().empty());
  EXPECT_EQ(full.delivered(), indexed.delivered());
  EXPECT_EQ(full.dark(), indexed.dark());
  const net::Network::Stats& f = full.network().stats();
  const net::Network::Stats& x = indexed.network().stats();
  EXPECT_EQ(f.delivered, x.delivered);
  EXPECT_GT(f.dropped_loss, 0u);
  EXPECT_EQ(f.dropped_loss, x.dropped_loss);
  EXPECT_EQ(f.phys_tx_bytes, x.phys_tx_bytes);
  EXPECT_EQ(f.phys_rx_bytes, x.phys_rx_bytes);
  // The index's point: most of the full loop's offers never happen.
  EXPECT_LT(x.sent * 3, f.sent) << "offers " << x.sent << " vs " << f.sent;

  // Loss-RNG state: the next draws fall the same way on both.
  for (Stack* s : {&full, &indexed}) {
    s->network().set_link_filter(nullptr);
    for (int i = 0; i < 64; ++i) {
      s->network().send(1, 2, Bytes{static_cast<uint8_t>(i)});
    }
    s->queue().run();
  }
  EXPECT_EQ(full.delivered(), indexed.delivered());

  // Trajectory-RNG state: every device's later positions agree.
  const Time end = full.queue().now();
  for (int minutes = 1; minutes <= 30; minutes += 7) {
    for (DeviceId v = 0; v < kDevices; ++v) {
      const Time t = end + Duration::minutes(minutes);
      const Point p = full.mobility().position(v, t);
      const Point q = indexed.mobility().position(v, t);
      EXPECT_EQ(p.x, q.x) << "device " << v;
      EXPECT_EQ(p.y, q.y) << "device " << v;
    }
  }
}

TEST(RadioAudience, RejectsBadLayout) {
  RandomWaypointMobility mobility(fast_swarm());
  const auto link = [](NodeId, NodeId) { return true; };
  const auto silent = [](NodeId) { return false; };
  EXPECT_THROW(RadioAudience(mobility, kDevices - 1, 0, link, silent),
               std::invalid_argument);
  EXPECT_THROW(RadioAudience(mobility, kDevices + 1, kDevices, link, silent),
               std::invalid_argument);
}

}  // namespace
}  // namespace erasmus::swarm
