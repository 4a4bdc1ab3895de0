// Reproduces the paper's §6 swarm argument quantitatively:
//
//   1. coverage of on-demand swarm RA (SEDA-style, fresh measurement per
//      device) vs. ERASMUS collection (LISA-alpha-style relay of stored
//      measurements) as node speed grows -- on-demand needs the spanning
//      tree to survive the whole (measurement-dominated) protocol, ERASMUS
//      only needs instantaneous per-hop connectivity;
//   2. round duration for both protocols vs. swarm size;
//   3. the staggered-schedule guarantee: max fraction of the swarm busy
//      measuring at once, aligned vs. staggered (last paragraph of §6);
//   4. an end-to-end fleet round: real provers, per-device keys, verifier
//      checks, over the mobility model.
#include <cmath>
#include <cstdio>

#include "analysis/bench_report.h"
#include "analysis/stats.h"
#include "analysis/table.h"
#include "scenario/sharded_runner.h"
#include "swarm/protocols.h"

using namespace erasmus;
using sim::Duration;
using sim::Time;

namespace {

// Averages protocol coverage over several mobility seeds.
std::pair<double, double> coverage_at_speed(double speed, size_t devices) {
  swarm::SwarmProtocolConfig pc;
  pc.hop_latency = Duration::millis(5);
  pc.measurement_time = Duration::seconds(7);  // Fig. 6 low-end device
  pc.collection_reply_time = Duration::micros(15);  // Table 2

  double od = 0, er = 0;
  const int kSeeds = 10;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    swarm::MobilityConfig mc;
    mc.devices = devices;
    mc.field_size = 150.0;
    mc.radio_range = 45.0;
    mc.speed_min = speed * 0.8;
    mc.speed_max = speed * 1.2 + 0.001;
    mc.seed = static_cast<uint64_t>(seed);
    swarm::RandomWaypointMobility mobility(mc);
    const Time t0 = Time::zero() + Duration::minutes(2);
    od += swarm::run_ondemand_round(mobility, t0, 0, pc).coverage();
    er += swarm::run_erasmus_collection_round(mobility, t0, 0, pc).coverage();
  }
  return {od / kSeeds, er / kSeeds};
}

}  // namespace

int main(int argc, char** argv) {
  // Already sub-minute at full size: --quick is accepted (CI runs every
  // bench uniformly) and by contract never changes the simulated
  // configuration, so all emitted quantities keep their full-mode values.
  (void)analysis::bench_quick_mode(argc, argv);

  std::printf("=== Sect. 6: swarm attestation under mobility ===\n\n");
  analysis::BenchReport bench("swarm_mobility");

  std::printf("--- Coverage vs node speed (30 devices, 7 s per on-demand "
              "measurement) ---\n");
  analysis::Series cov("Speed (m/s)",
                       {"on-demand coverage", "ERASMUS coverage"});
  for (const double speed : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto [od, er] = coverage_at_speed(speed, 30);
    bench.sample("ondemand_coverage", od);
    bench.sample("erasmus_coverage", er);
    cov.add_point(speed, {od, er});
  }
  std::printf("%s\n", cov.render().c_str());
  std::printf("Expected shape: both near the static-reachability ceiling at "
              "speed 0;\non-demand collapses with speed, ERASMUS degrades "
              "slowly.\n\n");

  std::printf("--- Round duration vs swarm size (static topology) ---\n");
  analysis::Table dur({"Devices", "on-demand (s)", "ERASMUS (ms)",
                       "speedup"});
  for (const size_t n : {10, 20, 40, 80}) {
    swarm::MobilityConfig mc;
    mc.devices = n;
    mc.field_size = 30.0 * std::sqrt(static_cast<double>(n));
    mc.radio_range = 50.0;
    mc.speed_min = 0.0;
    mc.speed_max = 0.0;
    mc.seed = 5;
    swarm::RandomWaypointMobility mobility(mc);
    swarm::SwarmProtocolConfig pc;
    pc.measurement_time = Duration::seconds(7);
    const auto od = swarm::run_ondemand_round(mobility, Time::zero(), 0, pc);
    const auto er =
        swarm::run_erasmus_collection_round(mobility, Time::zero(), 0, pc);
    bench.sample("ondemand_round_s", od.duration.to_seconds());
    bench.sample("erasmus_round_ms", er.duration.to_millis());
    dur.add_row({std::to_string(n),
                 analysis::fmt(od.duration.to_seconds(), 2),
                 analysis::fmt(er.duration.to_millis(), 1),
                 analysis::fmt(od.duration.to_seconds() * 1000.0 /
                                   std::max(er.duration.to_millis(), 1e-9),
                               0) + "x"});
  }
  std::printf("%s\n", dur.render().c_str());

  std::printf("--- Staggered schedules: max fraction busy (T_M = 10 min, "
              "7 s measurement) ---\n");
  analysis::Table stag({"Devices", "aligned busy", "staggered busy"});
  for (const size_t n : {10, 20, 50, 100}) {
    stag.add_row(
        {std::to_string(n),
         std::to_string(swarm::max_concurrent_busy(
             n, Duration::minutes(10), Duration::seconds(7), false)),
         std::to_string(swarm::max_concurrent_busy(
             n, Duration::minutes(10), Duration::seconds(7), true))});
  }
  std::printf("%s\n", stag.render().c_str());

  std::printf("--- End-to-end fleet round (real provers, per-device keys) "
              "---\n");
  swarm::DeviceSpec base;
  base.tm = Duration::minutes(10);
  base.app_ram_bytes = 1024;
  scenario::ShardedFleetConfig fleet;
  fleet.plan = swarm::FleetPlan::uniform(12, /*key_seed=*/7, base);
  fleet.plan.mobility.field_size = 80.0;
  fleet.plan.mobility.radio_range = 45.0;
  fleet.plan.mobility.speed_min = 1.0;
  fleet.plan.mobility.speed_max = 3.0;
  fleet.rounds = 1;
  fleet.round_interval = Duration::hours(2);
  fleet.k = 12;
  scenario::ShardedFleetRunner runner(fleet);
  // One infected straggler.
  runner.schedule_on_device(
      7, Time::zero() + Duration::minutes(25), [](attest::Prover& p) {
        p.memory().write(p.attested_region(), 0, bytes_of("EVIL"), false);
      });
  scenario::NullSink sink;
  const scenario::FleetRoundResult round = runner.run(sink).front();
  std::printf("collected %zu/%zu devices, %zu healthy, %zu flagged "
              "(device 7 infected), QoSA(all-healthy)=%s\n\n",
              round.reachable, runner.size(), round.healthy, round.flagged,
              round.healthy == runner.size() ? "true" : "false");
  bench.sample("fleet_round_attested", static_cast<double>(round.reachable));
  bench.sample("fleet_round_healthy", static_cast<double>(round.healthy));
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (bench.write().empty()) return 1;
  return 0;
}
