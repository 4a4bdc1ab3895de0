// Tests for the heterogeneous provisioning API: DeviceSpec/FleetPlan
// expansion, the arch factory behind it, and the acceptance property of
// the redesign -- one FleetPlan mixing architectures AND measurement
// periods, collected through the shared AttestationService, byte-identical
// at 1/2/8 threads.
#include <gtest/gtest.h>

#include <sstream>

#include "scenario/scenario.h"
#include "scenario/sharded_runner.h"
#include "swarm/provision.h"

namespace erasmus::swarm {
namespace {

using sim::Duration;
using sim::Time;

TEST(ArchFactory, BuildsEveryKindReadyToMeasure) {
  for (const hw::ArchKind kind :
       {hw::ArchKind::kSmartPlus, hw::ArchKind::kHydra,
        hw::ArchKind::kTrustLite}) {
    sim::EventQueue queue;
    DeviceSpec spec;
    spec.arch = kind;
    spec.profile = default_profile_for(kind);
    spec.app_ram_bytes = 512;
    spec.key = fleet_device_key(1, 0);
    DeviceStack stack = build_device_stack(queue, spec);
    // Ready to measure: no secure-boot / rule-lock left to the caller.
    stack.prover->start();
    queue.run_until(Time::zero() + Duration::minutes(11));
    EXPECT_EQ(stack.prover->stats().measurements, 1u)
        << hw::to_string(kind);
  }
}

TEST(ArchFactory, KindNamesRoundTrip) {
  for (const hw::ArchKind kind :
       {hw::ArchKind::kSmartPlus, hw::ArchKind::kHydra,
        hw::ArchKind::kTrustLite}) {
    EXPECT_EQ(hw::arch_kind_from_string(hw::to_string(kind)), kind);
  }
  EXPECT_EQ(hw::arch_kind_from_string("smart+"), hw::ArchKind::kSmartPlus);
  EXPECT_THROW(hw::arch_kind_from_string("sgx"), std::invalid_argument);
}

TEST(FleetPlan, UniformExpansionDerivesDistinctKeys) {
  DeviceSpec base;
  base.app_ram_bytes = 1024;
  const auto specs = FleetPlan::uniform(4, /*key_seed=*/9, base).expand();
  ASSERT_EQ(specs.size(), 4u);
  for (DeviceId id = 0; id < 4; ++id) {
    EXPECT_EQ(specs[id].arch, hw::ArchKind::kSmartPlus);
    EXPECT_EQ(specs[id].key, fleet_device_key(9, id));
    for (DeviceId other = 0; other < id; ++other) {
      EXPECT_NE(specs[id].key, specs[other].key);
    }
  }
}

TEST(FleetPlan, ExpansionIsDeterministic) {
  auto make = [] {
    FleetPlan plan(50, 7);
    DeviceSpec hydra;
    hydra.arch = hw::ArchKind::kHydra;
    plan.add_mix(0.3, hydra).add_mix(0.7, DeviceSpec{});
    plan.cycle_tm({Duration::minutes(5), Duration::minutes(20)});
    return plan.expand();
  };
  const auto a = make();
  const auto b = make();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arch, b[i].arch) << i;
    EXPECT_EQ(a[i].tm, b[i].tm) << i;
    EXPECT_EQ(a[i].key, b[i].key) << i;
  }
}

TEST(FleetPlan, MixIsProportionalAndInterleaved) {
  FleetPlan plan(10, 7);
  DeviceSpec hydra;
  hydra.arch = hw::ArchKind::kHydra;
  plan.add_mix(0.3, hydra).add_mix(0.7, DeviceSpec{});
  const auto specs = plan.expand();

  size_t hydras = 0;
  size_t hydras_in_first_half = 0;
  for (DeviceId id = 0; id < specs.size(); ++id) {
    if (specs[id].arch != hw::ArchKind::kHydra) continue;
    ++hydras;
    if (id < specs.size() / 2) ++hydras_in_first_half;
  }
  EXPECT_EQ(hydras, 3u) << "30% of 10";
  // Interleaved, not concatenated: the minority class is not bunched in
  // either half.
  EXPECT_GE(hydras_in_first_half, 1u);
  EXPECT_LE(hydras_in_first_half, 2u);
}

TEST(FleetPlan, CycleTmAndRangeOverridesApply) {
  FleetPlan plan(6, 7);
  plan.cycle_tm({Duration::minutes(5), Duration::minutes(40)});
  plan.override_range(2, 2, [](DeviceSpec& s) {
    s.conflict_policy = attest::ConflictPolicy::kSkip;
  });
  const auto specs = plan.expand();
  EXPECT_EQ(specs[0].tm, Duration::minutes(5));
  EXPECT_EQ(specs[1].tm, Duration::minutes(40));
  EXPECT_EQ(specs[4].tm, Duration::minutes(5));
  for (DeviceId id = 0; id < 6; ++id) {
    const auto expected = (id == 2 || id == 3)
                              ? attest::ConflictPolicy::kSkip
                              : attest::ConflictPolicy::kMeasureAnyway;
    EXPECT_EQ(specs[id].conflict_policy, expected) << id;
  }
}

TEST(FleetPlan, RejectsBadInput) {
  FleetPlan plan(4, 7);
  EXPECT_THROW(plan.add_mix(0.0, DeviceSpec{}), std::invalid_argument);
  EXPECT_THROW(plan.add_mix(-1.0, DeviceSpec{}), std::invalid_argument);
  EXPECT_THROW(plan.spec(4), std::out_of_range);

  sim::EventQueue queue;
  DeviceSpec keyless;
  EXPECT_THROW(build_device_stack(queue, keyless), std::invalid_argument);
  DeviceSpec bad_irregular;
  bad_irregular.key = fleet_device_key(1, 0);
  bad_irregular.scheduler = SchedulerKind::kIrregular;
  bad_irregular.irregular_lower = Duration::minutes(10);
  bad_irregular.irregular_upper = Duration::minutes(10);
  EXPECT_THROW(build_device_stack(queue, bad_irregular),
               std::invalid_argument);
}

TEST(ParseArchMix, GrammarAndErrors) {
  const auto mix = parse_arch_mix("smartplus:0.7,hydra:0.3");
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].first, hw::ArchKind::kSmartPlus);
  EXPECT_DOUBLE_EQ(mix[0].second, 0.7);
  EXPECT_EQ(mix[1].first, hw::ArchKind::kHydra);
  EXPECT_DOUBLE_EQ(mix[1].second, 0.3);

  EXPECT_THROW(parse_arch_mix(""), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("hydra"), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("hydra:"), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("hydra:0"), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("hydra:0.5,"), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("sgx:1"), std::invalid_argument);
  EXPECT_THROW(parse_arch_mix("hydra:x"), std::invalid_argument);
}

scenario::ShardedFleetConfig heterogeneous_config(size_t threads) {
  // At least two architectures and two T_M values from ONE plan (the
  // acceptance criterion of the provisioning redesign), plus a conflict-
  // policy override for good measure.
  DeviceSpec smart;
  smart.app_ram_bytes = 1024;
  smart.store_slots = 32;
  DeviceSpec hydra = smart;
  hydra.arch = hw::ArchKind::kHydra;
  hydra.profile = default_profile_for(hydra.arch);

  scenario::ShardedFleetConfig cfg;
  cfg.plan = FleetPlan(24, /*key_seed=*/42);
  cfg.plan.add_mix(0.7, smart).add_mix(0.3, hydra);
  cfg.plan.cycle_tm({Duration::minutes(5), Duration::minutes(20)});
  cfg.plan.override_range(20, 4, [](DeviceSpec& s) {
    s.conflict_policy = attest::ConflictPolicy::kAbortAndReschedule;
  });
  cfg.plan.mobility.field_size = 120.0;
  cfg.plan.mobility.radio_range = 50.0;
  cfg.plan.mobility.speed_min = 2.0;
  cfg.plan.mobility.speed_max = 6.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = 4;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 6;
  return cfg;
}

std::string run_heterogeneous(size_t threads) {
  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("heterogeneous");
  scenario::ShardedFleetRunner runner(heterogeneous_config(threads));
  // Infect one HYDRA device: detection through the shared service must be
  // architecture-independent.
  swarm::DeviceId hydra_id = 0;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    if (runner.spec(id).arch == hw::ArchKind::kHydra) {
      hydra_id = id;
      break;
    }
  }
  runner.schedule_on_device(
      hydra_id, Time::zero() + Duration::minutes(42), [](attest::Prover& p) {
        p.memory().write(p.attested_region(), 8, bytes_of("IMPLANT"), false);
      });
  runner.run(sink);
  sink.end_run();
  return out.str();
}

// The acceptance criterion: a mixed-arch, mixed-T_M plan through the
// sharded runner produces byte-identical metrics at 1/2/8 threads.
TEST(FleetPlan, HeterogeneousFleetDeterministicAcross1_2_8Threads) {
  const std::string t1 = run_heterogeneous(1);
  const std::string t2 = run_heterogeneous(2);
  const std::string t8 = run_heterogeneous(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // And the run is not trivially empty: the infected device gets flagged.
  EXPECT_NE(t1.find("\"flagged\": 1"), std::string::npos) << t1;
}

TEST(ShardedRunner, AccessorsAreBoundsChecked) {
  scenario::ShardedFleetRunner runner(heterogeneous_config(1));
  EXPECT_NO_THROW(runner.prover(23));
  EXPECT_THROW(runner.prover(24), std::out_of_range);
  EXPECT_THROW(runner.spec(24), std::out_of_range);
  EXPECT_THROW(runner.set_present(24, false), std::out_of_range);
  EXPECT_THROW(
      runner.schedule_on_device(24, Time::zero(), [](attest::Prover&) {}),
      std::out_of_range);
}

// The fleet mixes architectures as planned and every class is actually
// collected through the one shared AttestationService directory.
TEST(FleetPlan, MixedFleetSharesOneDirectory) {
  scenario::ShardedFleetRunner runner(heterogeneous_config(1));
  size_t hydras = 0;
  std::vector<Duration> tms;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    hydras += runner.spec(id).arch == hw::ArchKind::kHydra;
    tms.push_back(runner.spec(id).tm);
  }
  EXPECT_EQ(hydras, 7u);  // ~30% of 24
  EXPECT_NE(tms[0], tms[1]);  // two T_M classes really present
  EXPECT_EQ(runner.directory().size(), 24u);
}

}  // namespace
}  // namespace erasmus::swarm
