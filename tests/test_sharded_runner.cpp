// Tests for the sharded fleet runner, above all its headline guarantee:
// for a fixed seed, metrics are bit-for-bit identical at any thread count.
// Also: who the kDirect backend reaches under churn, partitions and dark
// batteries.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

ShardedFleetConfig small_config(size_t threads) {
  swarm::DeviceSpec base;
  base.tm = Duration::minutes(10);
  base.app_ram_bytes = 1024;
  base.store_slots = 16;

  ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/42, base);
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.speed_min = 4.0;
  cfg.plan.mobility.speed_max = 9.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 4;
  return cfg;
}

std::string run_to_json(ShardedFleetConfig cfg, bool infect = true) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin_run("determinism");
  ShardedFleetRunner runner(cfg);
  if (infect) {
    runner.schedule_on_device(
        7, Time::zero() + Duration::minutes(35), [](attest::Prover& p) {
          p.memory().write(p.attested_region(), 16, bytes_of("IMPLANT"),
                           false);
        });
  }
  runner.run(sink);
  sink.end_run();
  return out.str();
}

TEST(ShardedFleetRunner, DeterministicAcross1_2_8Threads) {
  const std::string t1 = run_to_json(small_config(1));
  const std::string t2 = run_to_json(small_config(2));
  const std::string t8 = run_to_json(small_config(8));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // And the run is not trivially empty: the infected device gets flagged.
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos) << t1;
}

ShardedFleetConfig overlay_config(size_t threads) {
  ShardedFleetConfig cfg = small_config(threads);
  cfg.backend = CollectionBackend::kOverlay;
  cfg.overlay.collect_deadline = Duration::seconds(25);
  return cfg;
}

TEST(ShardedFleetRunner, OverlayBackendDeterministicAcrossThreads) {
  // The tentpole guarantee extended to packet-level collection: floods,
  // store-and-forward relays and retries all run on the coordinator
  // clock, so the radio traffic cannot see the shard layout.
  const std::string t1 = run_to_json(overlay_config(1));
  const std::string t2 = run_to_json(overlay_config(2));
  const std::string t8 = run_to_json(overlay_config(8));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos) << t1;
  EXPECT_NE(t1.find("\"overlay\""), std::string::npos)
      << "overlay backend must emit its per-round stats table";
  EXPECT_NE(t1.find("\"hops\""), std::string::npos);
}

TEST(ShardedFleetRunner, OverlayBackendActuallyRelaysMultiHop) {
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin_run("overlay");
  ShardedFleetRunner runner(overlay_config(2));
  const auto rounds = runner.run(sink);
  sink.end_run();

  size_t collected = 0;
  for (const auto& r : rounds) {
    collected += r.reachable;
    // Nothing is infected, so every report that made it back verifies.
    EXPECT_EQ(r.healthy, r.reachable) << "round " << r.round;
  }
  EXPECT_GT(collected, 0u);

  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.floods_forwarded, 0u) << "flood must propagate";
  uint64_t reports = 0;
  uint64_t beyond_first_hop = 0;
  for (size_t h = 0; h < totals.hops.size(); ++h) {
    reports += totals.hops[h];
    if (h > 0) beyond_first_hop += totals.hops[h];
  }
  // >=, not ==: a slow response racing its own retry can land two
  // transport-accepted reports for one session (the second is a service
  // stray), but never fewer than one per collected device.
  EXPECT_GE(reports, collected)
      << "every accepted report lands in the hop histogram";
  EXPECT_GT(beyond_first_hop, 0u)
      << "a 120 m field with 50 m radios needs real multi-hop";
}

TEST(ShardedFleetRunner, MoreThreadsThanDevicesClampsToFleetSize) {
  ShardedFleetConfig cfg = small_config(64);
  cfg.plan.set_devices(3);
  cfg.plan.mobility.radio_range = 500.0;  // fully connected
  const std::string wide = run_to_json(cfg, /*infect=*/false);
  cfg.threads = 1;
  EXPECT_EQ(run_to_json(cfg, /*infect=*/false), wide);
}

TEST(ShardedFleetRunner, HeterogeneousTmStaysDeterministic) {
  auto with_mixed_tm = [](size_t threads) {
    ShardedFleetConfig cfg = small_config(threads);
    cfg.plan.cycle_tm({Duration::minutes(5), Duration::minutes(10),
                       Duration::minutes(15)});
    return run_to_json(cfg);
  };
  EXPECT_EQ(with_mixed_tm(1), with_mixed_tm(8));
}

TEST(ShardedFleetRunner, ChurnAtBarriersStaysDeterministic) {
  auto with_churn = [](size_t threads) {
    ShardedFleetConfig cfg = small_config(threads);
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run("churn");
    ShardedFleetRunner runner(cfg);
    runner.set_round_hook([](ShardedFleetRunner& r, size_t round, sim::Time) {
      // Deterministic churn: device (5 * round) % size leaves, device
      // from the previous round rejoins.
      const auto leaver =
          static_cast<swarm::DeviceId>((5 * round) % r.size());
      const auto rejoiner =
          static_cast<swarm::DeviceId>((5 * (round - 1)) % r.size());
      if (round > 1) r.set_present(rejoiner, true);
      if (leaver != 0) r.set_present(leaver, false);
    });
    const auto rounds = runner.run(sink);
    sink.end_run();
    EXPECT_LT(rounds.back().present, cfg.plan.devices());
    return out.str();
  };
  EXPECT_EQ(with_churn(1), with_churn(4));
}

TEST(ShardedFleetRunner, AbsentDevicesAreNotCollected) {
  ShardedFleetConfig cfg = small_config(2);
  cfg.plan.mobility.radio_range = 500.0;  // everyone in range of root
  cfg.rounds = 1;
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.set_present(5, false);
  runner.set_present(6, false);
  const auto rounds = runner.run(sink);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].present, cfg.plan.devices() - 2);
  EXPECT_EQ(rounds[0].reachable, cfg.plan.devices() - 2);
  // Absent provers took no part: their timers were never started.
  EXPECT_EQ(runner.prover(5).stats().collections, 0u);
  EXPECT_EQ(runner.prover(5).stats().measurements, 0u);
}

// kDirect reachability from first principles: the BFS tree of the round's
// topology after removing every edge of an inactive (absent or dark)
// device and, while `cut` is true, every edge between the id halves.
std::vector<bool> direct_oracle(ShardedFleetRunner& r, swarm::DeviceId root,
                                Time at, bool cut) {
  // The same snapshot query the collection makes next: trajectories extend
  // in the same id order either way, so the topology is the round's own.
  swarm::Topology topo = r.mobility().snapshot(at);
  const auto n = static_cast<swarm::DeviceId>(r.size());
  const auto active = [&](swarm::DeviceId id) {
    return r.present(id) && !r.energy_meter()->dark(id);
  };
  for (swarm::DeviceId a = 0; a < n; ++a) {
    for (swarm::DeviceId b = a + 1; b < n; ++b) {
      if (!active(a) || !active(b) || (cut && (a < n / 2) != (b < n / 2))) {
        topo.remove_edge(a, b);
      }
    }
  }
  const auto tree = topo.bfs_tree(root);
  std::vector<bool> reached(n);
  for (swarm::DeviceId id = 0; id < n; ++id) {
    reached[id] = active(id) && tree.parent[id].has_value();
  }
  return reached;
}

TEST(ShardedFleetRunner, DirectBackendHonoursPartitionsAndDarkDevices) {
  ShardedFleetConfig cfg = small_config(2);
  cfg.rounds = 6;
  // Mixed T_M so batteries run out in different rounds; the root's lasts.
  cfg.plan.cycle_tm({Duration::minutes(30), Duration::minutes(10),
                     Duration::minutes(1)});
  cfg.energy.metered = true;
  // 100 mJ: the T_M = 1 min third of the fleet goes dark by round 3.
  cfg.energy.battery = sim::Energy{100e3};
  // Only round 2's barrier (t = 60 min) falls inside the cut.
  const Time cut_from = Time::zero() + Duration::minutes(45);
  const Time cut_to = cut_from + Duration::minutes(30);
  cfg.adversary.partitions.push_back({cut_from, cut_to - cut_from});
  ShardedFleetRunner runner(cfg);
  runner.set_present(9, false);
  const size_t n = runner.size();

  std::vector<std::vector<bool>> expected;
  std::vector<std::vector<bool>> dark;
  std::vector<std::vector<bool>> served;
  std::vector<uint64_t> collections(n, 0);
  const auto served_since_last = [&](ShardedFleetRunner& r) {
    std::vector<bool> out(n);
    for (swarm::DeviceId id = 0; id < n; ++id) {
      const uint64_t now = r.prover(id).stats().collections;
      out[id] = now > collections[id];
      collections[id] = now;
    }
    served.push_back(out);
  };
  runner.set_round_hook([&](ShardedFleetRunner& r, size_t round, Time at) {
    if (round > 1) served_since_last(r);
    expected.push_back(
        direct_oracle(r, cfg.root, at, cut_from <= at && at < cut_to));
    std::vector<bool> d(n);
    for (swarm::DeviceId id = 0; id < n; ++id) {
      d[id] = r.energy_meter()->dark(id);
    }
    dark.push_back(d);
  });
  NullSink sink;
  const auto rounds = runner.run(sink);
  served_since_last(runner);
  ASSERT_EQ(served.size(), cfg.rounds);

  size_t dark_seen = 0;
  for (size_t r = 0; r < cfg.rounds; ++r) {
    EXPECT_EQ(served[r], expected[r]) << "round " << r + 1;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(served[r].begin(), served[r].end(), true)),
              rounds[r].reachable);
    for (swarm::DeviceId id = 0; id < n; ++id) {
      if (!dark[r][id]) continue;
      ++dark_seen;
      EXPECT_FALSE(served[r][id])
          << "dark device " << id << " served in round " << r + 1;
    }
  }
  EXPECT_GT(dark_seen, 0u) << "battery sized to brown out mid-run";

  const auto far_side_served = [&](size_t round) {
    size_t count = 0;
    for (swarm::DeviceId id = n / 2; id < n; ++id) {
      count += served[round - 1][id];
    }
    return count;
  };
  EXPECT_GT(rounds[1].reachable, 0u);
  EXPECT_EQ(far_side_served(2), 0u) << "the cut isolates the far side";
  EXPECT_GT(far_side_served(1), 0u);
  EXPECT_GT(far_side_served(3), 0u) << "healed by round 3";
}

TEST(ShardedFleetRunner, ValidatesConfig) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.threads = 0;
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
  cfg = small_config(1);
  cfg.plan.set_devices(0);
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
  cfg = small_config(1);
  cfg.root = 24;
  EXPECT_THROW(ShardedFleetRunner{cfg}, std::invalid_argument);
}

TEST(ShardedFleetRunner, RunIsSingleShot) {
  ShardedFleetConfig cfg = small_config(1);
  cfg.rounds = 1;
  NullSink sink;
  ShardedFleetRunner runner(cfg);
  runner.run(sink);
  EXPECT_THROW(runner.run(sink), std::logic_error);
}

// The registered swarm_patrol scenario (the acceptance-criteria surface):
// same params, different `threads`, identical JSON bytes.
TEST(ShardedFleetRunner, SwarmPatrolScenarioThreadCountInvariant) {
  const Scenario* s = ScenarioRegistry::instance().find("swarm_patrol");
  ASSERT_NE(s, nullptr);
  auto run_with_threads = [&](const char* threads) {
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run(s->name());
    const int code = s->run(
        ParamMap::from_args(
            {"devices=40", "seed=42", std::string("threads=") + threads}),
        sink);
    EXPECT_EQ(code, 0);
    sink.end_run();
    return out.str();
  };
  const std::string t1 = run_with_threads("1");
  EXPECT_EQ(t1, run_with_threads("2"));
  EXPECT_EQ(t1, run_with_threads("8"));
}

}  // namespace
}  // namespace erasmus::scenario
