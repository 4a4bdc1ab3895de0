// Tests for the simulated datagram network: latency, loss, link filters,
// delivery statistics.
#include <gtest/gtest.h>

#include "net/network.h"

namespace erasmus::net {
namespace {

using sim::Duration;
using sim::EventQueue;
using sim::Time;

TEST(Network, DeliversAfterLatency) {
  EventQueue q;
  Network net(q, Duration::millis(7));
  std::optional<Time> delivered_at;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node(
      [&](const Datagram&) { delivered_at = q.now(); });
  q.schedule_at(Time(0), [&] { net.send(a, b, Bytes{1, 2, 3}); });
  q.run();
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(delivered_at->ns(), Duration::millis(7).ns());
}

TEST(Network, PayloadAndAddressingPreserved) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  std::optional<Datagram> got;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram& d) { got = d; });
  net.send(a, b, Bytes{0xde, 0xad});
  q.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, a);
  EXPECT_EQ(got->dst, b);
  EXPECT_EQ(got->payload, (Bytes{0xde, 0xad}));
}

TEST(Network, LossDropsApproximatelyTheConfiguredFraction) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.25, /*seed=*/11);
  size_t received = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++received; });
  const int kSent = 4000;
  for (int i = 0; i < kSent; ++i) net.send(a, b, Bytes{1});
  q.run();
  EXPECT_NEAR(static_cast<double>(received) / kSent, 0.75, 0.03);
  EXPECT_EQ(net.stats().sent, static_cast<uint64_t>(kSent));
  EXPECT_EQ(net.stats().delivered, received);
  EXPECT_EQ(net.stats().dropped_loss, kSent - received);
}

TEST(Network, LinkFilterEvaluatedAtSendTime) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  size_t received = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++received; });
  bool connected = false;
  net.set_link_filter([&](NodeId, NodeId) { return connected; });

  net.send(a, b, Bytes{1});  // disconnected: dropped
  connected = true;
  net.send(a, b, Bytes{2});  // connected: delivered even if the link
  connected = false;         // breaks before the delivery event fires
  q.run();
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(net.stats().dropped_disconnected, 1u);
}

TEST(Network, HandlerCanBeReplaced) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  int first = 0, second = 0;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram&) { ++first; });
  net.send(a, b, Bytes{1});
  q.run();
  net.set_handler(b, [&](const Datagram&) { ++second; });
  net.send(a, b, Bytes{2});
  q.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Network, UnknownEndpointsRejected) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  EXPECT_THROW(net.send(a, 99, Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.send(99, a, Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.set_handler(5, {}), std::out_of_range);
}

TEST(Network, NullHandlerDropsSilently) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node({});  // no handler
  net.send(a, b, Bytes{1});
  EXPECT_NO_THROW(q.run());
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, PerDestinationStatsTrackEachNode) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([](const Datagram&) {});
  const NodeId c = net.add_node([](const Datagram&) {});
  for (int i = 0; i < 3; ++i) net.send(a, b, Bytes{1});
  for (int i = 0; i < 2; ++i) net.send(a, c, Bytes{2});
  q.run();

  EXPECT_EQ(net.node_stats(b).sent, 3u);
  EXPECT_EQ(net.node_stats(b).delivered, 3u);
  EXPECT_EQ(net.node_stats(c).sent, 2u);
  EXPECT_EQ(net.node_stats(c).delivered, 2u);
  EXPECT_EQ(net.node_stats(a).sent, 0u);
  EXPECT_EQ(net.stats().sent, 5u);
  EXPECT_THROW(net.node_stats(99), std::out_of_range);
}

TEST(Network, PerDestinationStatsSplitDropCauses) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.5, /*seed=*/3);
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node([](const Datagram&) {});
  const NodeId c = net.add_node([](const Datagram&) {});
  net.set_link_filter([&](NodeId, NodeId dst) { return dst != c; });
  for (int i = 0; i < 200; ++i) net.send(a, b, Bytes{1});
  net.send(a, c, Bytes{2});
  q.run();

  const auto& to_b = net.node_stats(b);
  EXPECT_EQ(to_b.dropped_disconnected, 0u);
  EXPECT_GT(to_b.dropped_loss, 0u);
  EXPECT_EQ(to_b.delivered + to_b.dropped_loss, 200u);
  const auto& to_c = net.node_stats(c);
  EXPECT_EQ(to_c.dropped_disconnected, 1u);
  EXPECT_EQ(to_c.delivered, 0u);
}

TEST(Network, BroadcastReachesEveryDestinationInOrder) {
  EventQueue q;
  Network net(q, Duration::millis(2));
  std::vector<NodeId> order;
  const NodeId src = net.add_node({});
  const NodeId b = net.add_node([&](const Datagram& d) {
    order.push_back(d.dst);
    EXPECT_EQ(d.src, src);
    EXPECT_EQ(d.payload, (Bytes{0xaa, 0xbb}));
  });
  const NodeId c = net.add_node([&](const Datagram& d) {
    order.push_back(d.dst);
  });
  net.broadcast(src, {c, b}, Bytes{0xaa, 0xbb});
  q.run();

  EXPECT_EQ(order, (std::vector<NodeId>{c, b}))
      << "broadcast delivers in destination-list order";
  EXPECT_EQ(net.stats().sent, 2u);
  EXPECT_EQ(net.node_stats(b).delivered, 1u);
  EXPECT_EQ(net.node_stats(c).delivered, 1u);
}

TEST(Network, BroadcastDrawsLossPerDestination) {
  EventQueue q;
  Network net(q, Duration::millis(1), /*loss=*/0.25, /*seed=*/11);
  size_t received = 0;
  const NodeId src = net.add_node({});
  std::vector<NodeId> dsts;
  for (int i = 0; i < 40; ++i) {
    dsts.push_back(net.add_node([&](const Datagram&) { ++received; }));
  }
  for (int round = 0; round < 100; ++round) {
    net.broadcast(src, dsts, Bytes{1});
  }
  q.run();
  // Independent per-destination draws: ~75% of 4000 get through.
  EXPECT_NEAR(static_cast<double>(received) / 4000.0, 0.75, 0.03);
}

TEST(Network, FloodOffersEveryoneButSenderAndExcept) {
  EventQueue q;
  Network net(q, Duration::millis(1));
  std::vector<NodeId> heard;
  for (int i = 0; i < 5; ++i) {
    net.add_node([&](const Datagram& d) { heard.push_back(d.dst); });
  }
  size_t tx_charges = 0;
  net.set_energy_tap([&](NodeId node, size_t bytes, bool tx) {
    if (!tx) return;
    ++tx_charges;
    EXPECT_EQ(node, 2u);
    EXPECT_EQ(bytes, 3u);
  });
  net.flood(/*src=*/2, /*except=*/4, Bytes{1, 2, 3});
  net.flood(/*src=*/2, /*except=*/2, Bytes{4, 5, 6});  // nobody excepted
  q.run();
  EXPECT_EQ(heard, (std::vector<NodeId>{0, 1, 3, 0, 1, 3, 4}));
  EXPECT_EQ(tx_charges, 2u);
  EXPECT_EQ(net.stats().phys_tx_bytes, 6u);
  EXPECT_THROW(net.flood(9, 0, Bytes{1}), std::out_of_range);
}

TEST(Network, FloodChargesTheAudienceNotTheCandidates) {
  // The radio keys once for whoever is listening; an index that finds no
  // candidate changes the offered load, never the transmission.
  EventQueue q;
  Network net(q, Duration::millis(1));
  for (int i = 0; i < 4; ++i) net.add_node({});
  size_t index_calls = 0;
  net.set_radio_index([&](NodeId src, NodeId except, std::vector<NodeId>&) {
    ++index_calls;
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(except, 3u);
  });
  net.flood(1, 3, Bytes{7, 7});
  EXPECT_EQ(index_calls, 1u);
  EXPECT_EQ(net.stats().phys_tx_bytes, 2u);
  EXPECT_EQ(net.stats().sent, 0u);

  // A lone node has no audience: no transmission, no index call.
  EventQueue q2;
  Network lone(q2, Duration::millis(1));
  lone.add_node({});
  lone.set_radio_index(
      [&](NodeId, NodeId, std::vector<NodeId>&) { ++index_calls; });
  lone.flood(0, 0, Bytes{1});
  EXPECT_EQ(index_calls, 1u);
  EXPECT_EQ(lone.stats().phys_tx_bytes, 0u);
}

TEST(Network, InFlightOrderPreservedPerLink) {
  EventQueue q;
  Network net(q, Duration::millis(3));
  std::vector<uint8_t> order;
  const NodeId a = net.add_node({});
  const NodeId b = net.add_node(
      [&](const Datagram& d) { order.push_back(d.payload[0]); });
  for (uint8_t i = 0; i < 5; ++i) net.send(a, b, Bytes{i});
  q.run();
  EXPECT_EQ(order, (std::vector<uint8_t>{0, 1, 2, 3, 4}))
      << "same-latency datagrams keep FIFO order";
}

}  // namespace
}  // namespace erasmus::net
