// Perf baseline for heterogeneous provisioning: collection-round
// throughput over a mixed-architecture 1000-device fleet.
//
// One FleetPlan mixes 70% SMART+-on-MSP430 with 30% HYDRA-on-ARM and two
// T_M classes (5/20 min), then the ShardedFleetRunner drives 4 collection
// rounds at 1/2/8 threads. Reported per thread count: fleet build time
// (1000 heterogeneous stacks, HYDRA secure boot included), wall time per
// collection round, and end-to-end device-collections per second. The runs
// must stay byte-identical across thread counts -- the bench aborts
// otherwise, so the perf baseline can never drift away from the
// determinism guarantee. Emits BENCH_heterogeneous_fleet.json so later
// work on mixed fleets (per-arch batching, shard-parallel verification)
// has a baseline to beat.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "hw/memory.h"
#include "obs/phase.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

using namespace erasmus;
using sim::Duration;

namespace {

constexpr size_t kDevices = 1000;
constexpr size_t kRounds = 4;

scenario::ShardedFleetConfig make_config(size_t threads) {
  swarm::DeviceSpec smart;
  smart.arch = hw::ArchKind::kSmartPlus;
  smart.profile = swarm::default_profile_for(smart.arch);
  smart.app_ram_bytes = 1024;
  smart.store_slots = 32;
  swarm::DeviceSpec hydra = smart;
  hydra.arch = hw::ArchKind::kHydra;
  hydra.profile = swarm::default_profile_for(hydra.arch);

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan(kDevices, /*key_seed=*/42);
  cfg.plan.add_mix(0.7, smart).add_mix(0.3, hydra);
  cfg.plan.cycle_tm({Duration::minutes(5), Duration::minutes(20)});
  cfg.plan.mobility.field_size = 400.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 1.0;
  cfg.plan.mobility.speed_max = 3.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = threads;
  cfg.rounds = kRounds;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  return cfg;
}

struct BenchRun {
  double build_ms = 0.0;
  double round_ms = 0.0;          // wall per collection round
  double collections_per_s = 0.0; // device-collections per wall second
  size_t collected = 0;           // device-collections (deterministic)
  size_t healthy = 0;             // verified-healthy judgements
  size_t mem_private_bytes = 0;   // device memory owned per device, summed
  size_t mem_logical_bytes = 0;   // device memory as the devices see it
  obs::PhaseProfiler::Report phases;  // shard work / barrier wait / drain
  std::string metrics_json;
};

BenchRun run_at(size_t threads) {
  const auto t0 = std::chrono::steady_clock::now();
  scenario::ShardedFleetConfig cfg = make_config(threads);
  scenario::ShardedFleetRunner runner(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  std::ostringstream out;
  scenario::JsonSink sink(out);
  sink.begin_run("bench_heterogeneous_fleet");
  const auto rounds = runner.run(sink);
  sink.end_run();
  const auto t2 = std::chrono::steady_clock::now();

  size_t collected = 0;
  size_t healthy = 0;
  for (const auto& r : rounds) {
    collected += r.reachable;
    healthy += r.healthy;
  }

  BenchRun result;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    const hw::DeviceMemory& mem = runner.prover(id).memory();
    result.mem_private_bytes += mem.private_bytes();
    result.mem_logical_bytes += mem.total_size();
  }
  result.collected = collected;
  result.healthy = healthy;
  result.build_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  result.round_ms = run_ms / static_cast<double>(kRounds);
  result.collections_per_s =
      run_ms == 0.0 ? 0.0
                    : static_cast<double>(collected) / (run_ms / 1000.0);
  result.phases = runner.phases().report();
  result.metrics_json = out.str();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // Quick mode runs the single-thread leg only; the simulation-derived
  // quantities (collected, healthy) are thread-count independent, so the
  // baseline-gated numbers are unchanged.
  const bool quick = analysis::bench_quick_mode(argc, argv);

  std::printf("=== Heterogeneous fleet: %zu devices "
              "(70%% SMART+/MSP430 + 30%% HYDRA/i.MX6, T_M 5m/20m), "
              "%zu collection rounds ===\n\n",
              kDevices, kRounds);

  analysis::BenchReport bench("heterogeneous_fleet");
  analysis::Table table({"threads", "build ms", "round ms",
                         "device-collections/s", "barrier-wait share"});

  std::string reference_metrics;
  bool deterministic = true;
  BenchRun last;
  const std::vector<size_t> thread_counts =
      quick ? std::vector<size_t>{1} : std::vector<size_t>{1, 2, 8};
  for (const size_t threads : thread_counts) {
    const BenchRun r = run_at(threads);
    if (reference_metrics.empty()) {
      reference_metrics = r.metrics_json;
    } else if (r.metrics_json != reference_metrics) {
      deterministic = false;
    }
    table.add_row({std::to_string(threads), analysis::fmt(r.build_ms, 1),
                   analysis::fmt(r.round_ms, 1),
                   analysis::fmt(r.collections_per_s, 0),
                   analysis::fmt(r.phases.barrier_wait_share, 3)});
    std::string prefix = "t";
    prefix += std::to_string(threads);
    prefix += '_';
    bench.sample(prefix + "build_ms", r.build_ms);
    bench.sample(prefix + "round_wall_ms", r.round_ms);
    bench.sample(prefix + "collections_per_s", r.collections_per_s);
    // Phase split of the runner's wall clock: where worker thread-time
    // goes (advancing shards vs parked at barriers vs idled by the
    // single-threaded coordinator drain). Informational, never gated --
    // this is the visibility the coordinator-bottleneck work needs.
    bench.sample(prefix + "shard_work_ms", r.phases.shard_work_ms);
    bench.sample(prefix + "barrier_wait_ms", r.phases.barrier_wait_ms);
    bench.sample(prefix + "coord_drain_ms", r.phases.coordinator_ms);
    last = r;
  }
  bench.sample("collected", static_cast<double>(last.collected));
  bench.sample("healthy", static_cast<double>(last.healthy));
  // Exact memory counters: every device's full memory counts in the logical
  // size, but a still-shared golden image counts in no device's private
  // size, so undoing the sharing moves fleet_mem_private_bytes on any host.
  bench.sample("fleet_mem_private_bytes",
               static_cast<double>(last.mem_private_bytes));
  bench.sample("fleet_mem_logical_bytes",
               static_cast<double>(last.mem_logical_bytes));
  // Headline: fraction of available worker thread-time NOT spent advancing
  // shards, at the widest thread count this run exercised.
  bench.sample("barrier_wait_share", last.phases.barrier_wait_share);
  std::printf("%s\n", table.render().c_str());
  std::printf("metrics byte-identical across thread counts: %s\n\n",
              deterministic ? "yes" : "NO (BUG)");
  if (!deterministic) return 1;

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
