// Fixed vs adaptive in-flight windows for multi-hop swarm collection,
// under three network regimes.
//
// A 300-device mobile swarm is collected through the overlay for 3 rounds
// per configuration:
//
//  * fixed64        -- the pre-adaptive default window (64 sessions in
//                      flight; every dispatch batch is one scoped flood).
//  * adaptive       -- the AIMD WindowController (slow start, additive
//                      growth, multiplicative backoff on timeouts and on
//                      relay-queue congestion reports).
//  * adaptive+scoped -- adaptive window plus scoped retries (a retry for
//                      a device with a fresh recorded path unicasts down
//                      that path instead of re-flooding the field).
//
// Regimes: clean (no loss), lossy (10% per-hop loss -- the §6 radio), and
// congested (shallow relay queues + slow serialization, where the
// piggybacked queue-occupancy signal must damp the window).
//
// Headline quantities per (regime, config): device-collections (QoA),
// relay flood transmissions (duplicate-flood work), radio bytes
// transmitted (once per transmission, like the energy tap),
// store-and-forward drops, and the final window. The bench FAILS (exit 1)
// unless, in the lossy regime, adaptive collection control (adaptive
// window + scoped retries) collects at least as much as fixed64 with
// fewer relay flood transmissions. Emits BENCH_adaptive_window.json.
//
// All quantities except wall-clock are deterministic for the fixed seed,
// so CI gates them against the committed baseline (tools/check_bench.py).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/table.h"
#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

using namespace erasmus;
using sim::Duration;

namespace {

constexpr size_t kDevices = 300;
constexpr size_t kRounds = 3;

struct Regime {
  const char* name;
  double loss;
  size_t queue_depth;
  Duration forward_spacing;
};

struct WindowCase {
  const char* name;
  scenario::WindowSpec window;
  bool scoped;
};

scenario::ShardedFleetConfig make_config(const Regime& regime,
                                         const WindowCase& wcase) {
  swarm::DeviceSpec base;
  base.arch = hw::ArchKind::kSmartPlus;
  base.profile = swarm::default_profile_for(base.arch);
  base.app_ram_bytes = 1024;
  base.store_slots = 32;

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(kDevices, /*key_seed=*/42, base);
  // ~40 neighbours average, diameter ~6 hops: deep enough that relaying
  // carries most of the fleet, dense enough that one flood covers it.
  cfg.plan.mobility.field_size = 260.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 6.0;
  cfg.plan.mobility.speed_max = 12.0;
  cfg.plan.mobility.seed = 42;
  cfg.threads = 8;
  cfg.rounds = kRounds;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 12;
  cfg.overlay.net_loss = regime.loss;
  cfg.overlay.queue_depth = regime.queue_depth;
  cfg.overlay.forward_spacing = regime.forward_spacing;
  cfg.overlay.response_timeout = Duration::seconds(2);
  cfg.overlay.max_retries = 2;
  cfg.overlay.collect_deadline = Duration::seconds(30);
  cfg.overlay.scoped_retries = wcase.scoped;
  cfg.window = wcase.window;
  return cfg;
}

struct CaseResult {
  size_t collected = 0;     // device-collections over all rounds (QoA)
  uint64_t flood_tx = 0;    // relay flood transmissions (forwarded floods)
  uint64_t bytes = 0;       // radio payload bytes transmitted
  uint64_t drops = 0;       // store-and-forward overflow drops
  uint64_t scoped = 0;      // retries that rode a cached route
  uint64_t window_final = 0;
  uint64_t loss_backoffs = 0;
  uint64_t congestion_backoffs = 0;
};

CaseResult run_case(const Regime& regime, const WindowCase& wcase) {
  scenario::ShardedFleetRunner runner(make_config(regime, wcase));
  scenario::NullSink sink;
  const auto rounds = runner.run(sink);

  CaseResult r;
  for (const auto& round : rounds) r.collected += round.reachable;
  const auto totals = runner.overlay_totals();
  r.flood_tx = totals.floods_forwarded;
  r.drops = totals.reports_dropped;
  r.scoped = totals.scoped_sent;
  r.bytes = runner.overlay_network()->stats().phys_tx_bytes;
  r.window_final = runner.service().round_stats().window_final;
  r.loss_backoffs = runner.service().stats().loss_backoffs;
  r.congestion_backoffs = runner.service().stats().congestion_backoffs;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // The simulated configuration is identical in quick mode: every
  // gated quantity is deterministic either way, quick just labels the
  // CI invocation.
  (void)analysis::bench_quick_mode(argc, argv);

  std::printf("=== Adaptive in-flight window: %zu-device swarm, %zu rounds "
              "per case ===\n\n",
              kDevices, kRounds);

  const Regime regimes[] = {
      {"clean", 0.0, 256, Duration::millis(1)},
      {"lossy", 0.10, 256, Duration::millis(1)},
      {"congested", 0.02, 32, Duration::millis(4)},
  };
  scenario::WindowSpec fixed64;
  fixed64.mode = scenario::WindowSpec::Mode::kFixed;
  fixed64.fixed = 64;
  scenario::WindowSpec adaptive;
  adaptive.mode = scenario::WindowSpec::Mode::kAdaptive;
  const WindowCase cases[] = {
      {"fixed64", fixed64, false},
      {"adaptive", adaptive, false},
      {"adaptive_scoped", adaptive, true},
  };

  analysis::BenchReport bench("adaptive_window");
  bool gate_ok = true;

  for (const Regime& regime : regimes) {
    analysis::Table table({"config", "collected", "flood tx", "radio MB",
                           "drops", "scoped", "window end", "loss bk",
                           "cong bk"});
    CaseResult fixed_result;
    for (const WindowCase& wcase : cases) {
      const CaseResult r = run_case(regime, wcase);
      if (std::string(wcase.name) == "fixed64") fixed_result = r;
      table.add_row({wcase.name, std::to_string(r.collected),
                     std::to_string(r.flood_tx),
                     analysis::fmt(static_cast<double>(r.bytes) / 1e6, 1),
                     std::to_string(r.drops), std::to_string(r.scoped),
                     std::to_string(r.window_final),
                     std::to_string(r.loss_backoffs),
                     std::to_string(r.congestion_backoffs)});
      const std::string prefix =
          std::string(regime.name) + "_" + wcase.name + "_";
      bench.sample(prefix + "collected", static_cast<double>(r.collected));
      bench.sample(prefix + "flood_tx", static_cast<double>(r.flood_tx));
      bench.sample(prefix + "radio_bytes", static_cast<double>(r.bytes));
      bench.sample(prefix + "drops", static_cast<double>(r.drops));
      bench.sample(prefix + "window_final",
                   static_cast<double>(r.window_final));

      if (std::string(wcase.name) == "adaptive_scoped" &&
          std::string(regime.name) == "lossy") {
        if (r.collected < fixed_result.collected) {
          std::printf("GATE: adaptive+scoped QoA %zu < fixed64 %zu in "
                      "lossy regime\n",
                      r.collected, fixed_result.collected);
          gate_ok = false;
        }
        if (r.flood_tx >= fixed_result.flood_tx) {
          std::printf("GATE: adaptive+scoped flood tx %llu >= fixed64 "
                      "%llu in lossy regime\n",
                      static_cast<unsigned long long>(r.flood_tx),
                      static_cast<unsigned long long>(fixed_result.flood_tx));
          gate_ok = false;
        }
      }
    }
    std::printf("--- %s (loss %.0f%%, queue depth %zu) ---\n%s\n",
                regime.name, regime.loss * 100.0, regime.queue_depth,
                table.render().c_str());
  }

  std::printf("adaptive+scoped >= fixed64 QoA with fewer flood "
              "transmissions (lossy): %s\n\n",
              gate_ok ? "yes" : "NO (GATE FAILED)");
  if (!gate_ok) return 1;

  const std::string path = bench.write();
  // A missing BENCH json would silently weaken the CI baseline gate.
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
