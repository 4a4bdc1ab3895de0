// Tests for the adversary engine: loud knob parsing, deterministic
// itinerary planning, the T_M-vs-dwell detection claim end-to-end through
// the sharded runner, verdict attribution to campaigns, thread-count byte
// identity with an active campaign, and the adversarial/generic counter
// split on the relay layer.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/adversary.h"
#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"

namespace erasmus::scenario {
namespace {

using sim::Duration;
using sim::Time;

TEST(AdversaryParse, ModeNamesParseAndTyposThrowLoudly) {
  EXPECT_EQ(adversary::parse_mode("off"), adversary::Mode::kOff);
  EXPECT_EQ(adversary::parse_mode("roaming"), adversary::Mode::kRoaming);
  EXPECT_EQ(adversary::parse_mode("relay"), adversary::Mode::kRelay);
  EXPECT_EQ(adversary::parse_mode("sybil"), adversary::Mode::kSybil);
  try {
    adversary::parse_mode("banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << "the error must name the offending value";
  }
}

TEST(AdversaryParse, MigrationNamesParseAndTyposThrowLoudly) {
  EXPECT_EQ(adversary::parse_migration("random"),
            adversary::Migration::kRandomWalk);
  EXPECT_EQ(adversary::parse_migration("aware"),
            adversary::Migration::kAware);
  EXPECT_EQ(adversary::parse_migration("dwell"),
            adversary::Migration::kDwellBound);
  EXPECT_THROW(adversary::parse_migration("awre"), std::invalid_argument);
  EXPECT_THROW(adversary::parse_migration(""), std::invalid_argument);
}

ShardedFleetConfig adversary_config(size_t threads, Duration tm) {
  swarm::DeviceSpec base;
  base.tm = tm;
  base.app_ram_bytes = 1024;
  base.store_slots = 16;

  ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(24, /*key_seed=*/42, base);
  cfg.plan.staggered = true;
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 4;

  cfg.adversary.mode = adversary::Mode::kRoaming;
  cfg.adversary.migration = adversary::Migration::kAware;
  cfg.adversary.dwell = Duration::minutes(12);
  cfg.adversary.chains = 3;
  cfg.adversary.seed = 42;
  return cfg;
}

TEST(AdversaryEngine, ItineraryIsAPureFunctionOfItsInputs) {
  const ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(6));
  const auto specs = cfg.plan.expand();
  const Time horizon = Time::zero() + cfg.round_interval * cfg.rounds;
  const adversary::Engine a(cfg.adversary, specs, /*staggered=*/true,
                            /*root=*/0, horizon);
  const adversary::Engine b(cfg.adversary, specs, /*staggered=*/true,
                            /*root=*/0, horizon);
  ASSERT_EQ(a.legs().size(), b.legs().size());
  ASSERT_GT(a.legs().size(), 0u);
  for (size_t i = 0; i < a.legs().size(); ++i) {
    EXPECT_EQ(a.legs()[i].chain, b.legs()[i].chain);
    EXPECT_EQ(a.legs()[i].device, b.legs()[i].device);
    EXPECT_EQ(a.legs()[i].enter, b.legs()[i].enter);
    EXPECT_EQ(a.legs()[i].leave, b.legs()[i].leave);
  }
  for (const adversary::Leg& leg : a.legs()) {
    EXPECT_NE(leg.device, 0u) << "the root/collector is never infected";
    EXPECT_LT(leg.enter, leg.leave);
  }
}

TEST(AdversaryEngine, VerdictsAttributeToTheEarliestEnteredMeasuredLeg) {
  // Two random-walk chains on a three-device fleet (root 0 is never
  // infected) keep crossing devices 1 and 2, so some device hosts legs of
  // both chains at different times.
  ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(10));
  cfg.plan.set_devices(3);
  cfg.adversary.migration = adversary::Migration::kRandomWalk;
  cfg.adversary.chains = 2;
  const auto specs = cfg.plan.expand();
  adversary::Engine engine(cfg.adversary, specs, /*staggered=*/true,
                           /*root=*/0, Time::zero() + Duration::hours(4));
  const std::vector<adversary::Leg>& legs = engine.legs();

  // The first leg of chain 1 and an earlier-entered chain-0 leg on the
  // same device.
  size_t late = legs.size();
  size_t early = legs.size();
  for (size_t i = 0; i < legs.size() && early == legs.size(); ++i) {
    if (legs[i].chain != 1) continue;
    for (size_t j = 0; j < legs.size(); ++j) {
      if (legs[j].chain == 0 && legs[j].device == legs[i].device &&
          legs[j].enter < legs[i].enter) {
        late = i;
        early = j;
        break;
      }
    }
  }
  ASSERT_LT(early, legs.size()) << "no device hosts both chains";
  const swarm::DeviceId device = legs[early].device;
  const auto chain_start = [&](size_t chain) {
    for (const adversary::Leg& leg : legs) {
      if (leg.chain == chain && leg.first) return leg.enter;
    }
    return Time::zero();
  };
  ASSERT_NE(chain_start(0), chain_start(1));

  // The runner only lends a prover's attested memory to the payload: the
  // engine is driven by hand and the runner never runs.
  cfg.adversary = adversary::EngineConfig{};
  ShardedFleetRunner runner(cfg);
  attest::Prover& prover = runner.prover(device);
  // Run the late leg first: attribution follows `enter`, not the order
  // the measurements were taken in.
  for (const size_t leg : {late, early}) {
    engine.enter_leg(leg, prover);
    engine.on_measurement(device, legs[leg].enter);
    engine.leave_leg(leg, prover);
  }
  const Time measured = std::max(legs[early].enter, legs[late].enter);

  engine.on_verdict(device, /*healthy=*/true, measured);
  EXPECT_EQ(engine.detected_chains(), 0u)
      << "a healthy verdict detects nothing";

  const Time first_flag = measured + Duration::minutes(1);
  engine.on_verdict(device, /*healthy=*/false, first_flag);
  EXPECT_EQ(engine.detected_chains(), 1u);
  EXPECT_EQ(engine.mean_detection_latency(), first_flag - chain_start(0))
      << "the earlier-entered leg's chain is detected first";

  const Time second_flag = first_flag + Duration::minutes(1);
  engine.on_verdict(device, /*healthy=*/false, second_flag);
  EXPECT_EQ(engine.detected_chains(), 2u) << "then the other chain";
  EXPECT_EQ(engine.mean_detection_latency(),
            Duration::nanos(((first_flag - chain_start(0)).ns() +
                             (second_flag - chain_start(1)).ns()) /
                            2));
  EXPECT_EQ(engine.repeat_flags(), 0u);

  engine.on_verdict(device, /*healthy=*/false, second_flag);
  EXPECT_EQ(engine.repeat_flags(), 1u) << "both chains already detected";
  EXPECT_EQ(engine.unattributed_flags(), 0u);

  // A flag older than every measurement on the device, and one on the
  // never-infected root, are explained by no measured leg.
  engine.on_verdict(device, /*healthy=*/false,
                    std::min(legs[early].enter, legs[late].enter) -
                        Duration::nanos(1));
  engine.on_verdict(/*device=*/0, /*healthy=*/false, second_flag);
  EXPECT_EQ(engine.unattributed_flags(), 2u);
  EXPECT_EQ(engine.repeat_flags(), 1u);
  EXPECT_EQ(engine.detected_chains(), 2u);
}

TEST(AdversaryEngine, AwareMalwareEvadesSparseScheduleAndTightOneCatchesIt) {
  // T_M = 30m >> dwell 12m: the staggered fleet always offers a safe host.
  {
    NullSink sink;
    ShardedFleetRunner runner(adversary_config(1, Duration::minutes(30)));
    runner.run(sink);
    const adversary::Engine& e = *runner.adversary_engine();
    EXPECT_EQ(e.detected_chains(), 0u);
    EXPECT_EQ(e.captures_total(), 0u);
    EXPECT_GE(e.migrations_total(), 1u);
  }
  // T_M = 6m << dwell 12m: no host has enough slack; after the evasion
  // budget the malware sits through a measurement and is detected.
  {
    NullSink sink;
    ShardedFleetRunner runner(adversary_config(1, Duration::minutes(6)));
    runner.run(sink);
    const adversary::Engine& e = *runner.adversary_engine();
    EXPECT_GT(e.detected_chains(), 0u);
    EXPECT_GT(e.captures_total(), 0u);
    EXPECT_GT(e.mean_detection_latency().ns(), 0u);
    EXPECT_EQ(e.detection_probability(),
              static_cast<double>(e.detected_chains()) /
                  static_cast<double>(e.chain_count()));
  }
}

TEST(AdversaryEngine, CampaignMetricsByteIdenticalAcrossThreadCounts) {
  auto run_with_threads = [](size_t threads) {
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run("adversary-determinism");
    ShardedFleetRunner runner(
        adversary_config(threads, Duration::minutes(6)));
    runner.run(sink);
    sink.end_run();
    return out.str();
  };
  const std::string t1 = run_with_threads(1);
  const std::string t3 = run_with_threads(3);
  EXPECT_EQ(t1, t3);
  // The run actually exercised the campaign path.
  EXPECT_NE(t1.find("\"adversary\""), std::string::npos);
  EXPECT_NE(t1.find("\"detections\""), std::string::npos);
}

ShardedFleetConfig relay_config(adversary::Mode mode) {
  ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(10));
  cfg.backend = CollectionBackend::kOverlay;
  cfg.overlay.collect_deadline = Duration::seconds(25);
  cfg.adversary.mode = mode;
  cfg.adversary.compromised_fraction = 0.2;
  return cfg;
}

TEST(RelayAdversary, AdversarialDropsStayOutOfTheCongestionCounter) {
  NullSink sink;
  ShardedFleetRunner runner(relay_config(adversary::Mode::kRelay));
  runner.run(sink);
  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.dropped_adversarial, 0u)
      << "compromised relays must actually drop relayed reports";
  EXPECT_EQ(totals.reports_dropped, 0u)
      << "adversarial drops must not masquerade as queue overflow";
  EXPECT_EQ(totals.sybil_injected, 0u);
}

TEST(RelayAdversary, SybilFloodIsCountedAndRejectedByOriginRange) {
  NullSink sink;
  ShardedFleetRunner runner(relay_config(adversary::Mode::kSybil));
  runner.run(sink);
  const auto totals = runner.overlay_totals();
  EXPECT_GT(totals.sybil_injected, 0u);
  EXPECT_GT(totals.spoofed_rejected, 0u)
      << "forged origins lie outside the node-id range and must be "
         "rejected before touching the route cache";
  EXPECT_EQ(totals.dropped_adversarial, 0u);
}

TEST(AdversaryEngine, OffModeLeavesRunnerOutputUntouched) {
  auto run_json = [](bool with_off_adversary) {
    ShardedFleetConfig cfg = adversary_config(1, Duration::minutes(10));
    cfg.adversary = adversary::EngineConfig{};
    cfg.adversary.mode = adversary::Mode::kOff;
    if (with_off_adversary) {
      // Same config either way -- the point is that a default EngineConfig
      // is inert; engine construction is skipped entirely.
      cfg.adversary.dwell = Duration::minutes(7);  // ignored while off
    }
    std::ostringstream out;
    JsonSink sink(out);
    sink.begin_run("off");
    ShardedFleetRunner runner(cfg);
    runner.run(sink);
    sink.end_run();
    return out.str();
  };
  const std::string a = run_json(false);
  const std::string b = run_json(true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find("\"adversary\""), std::string::npos)
      << "no adversary table when the engine is off";
}

}  // namespace
}  // namespace erasmus::scenario
