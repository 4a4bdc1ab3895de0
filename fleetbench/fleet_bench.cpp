#include "fleet_bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "attest/measurement.h"
#include "common/hex.h"
#include "common/strings.h"
#include "crypto/hash.h"
#include "swarm/mobility.h"

namespace fleetbench {

using erasmus::format_double;
using erasmus::json_escape;
using erasmus::sim::Duration;
namespace scenario = erasmus::scenario;
namespace swarm = erasmus::swarm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Every workload is timed at one thread. On a shared 4-core host a
// four-thread kDirect run() swung 1.5-2.9 s from rep to rep, and at two
// threads the per-run medians spread by 38-64%. A barrier waits for the
// slowest shard, so one slow core stalls all of them. run.py's check rep
// runs at two threads, so the parallel paths are still exercised and
// checked on every run (see README.md).
constexpr size_t kTimedThreads = 1;

// The overlay workload's mobility trace. Under kOverlay the trace decides
// how many re-floods a round needs, and each flood costs ~N^2 radio offers:
// over seeds 11-15, a 1000-device overlay swarm ran 6 to 11 floods and
// run() doubled from one trace to the next. Pinning the trace makes runs
// with different seeds measure the same work; the seed still draws every
// device key.
constexpr uint64_t kOverlayMobilitySeed = 42;

swarm::DeviceSpec smartplus_spec() {
  swarm::DeviceSpec s;
  s.arch = erasmus::hw::ArchKind::kSmartPlus;
  s.profile = swarm::default_profile_for(s.arch);
  s.app_ram_bytes = 1024;
  s.store_slots = 32;
  return s;
}

// kDirect: 70% SMART+ / 30% HYDRA, T_M cycling 5m/20m, 48 half-hour
// rounds, plus 100 roaming random-walk malware chains (dwell 12m).
// Self-measurement hashing and batched verify dominate; the radio is idle;
// memory writes on the infected hosts invalidate any digest reuse and
// ~44% of verdicts take the flagged path. Mobility only decides
// reachability here (every device is reachable on every seed tried), so
// the seed draws it and the adversary's itinerary too.
scenario::ShardedFleetConfig direct_roaming_config(uint64_t seed) {
  swarm::DeviceSpec hydra = smartplus_spec();
  hydra.arch = erasmus::hw::ArchKind::kHydra;
  hydra.profile = swarm::default_profile_for(hydra.arch);

  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan(1000, seed);
  cfg.plan.add_mix(0.7, smartplus_spec()).add_mix(0.3, hydra);
  cfg.plan.cycle_tm({Duration::minutes(5), Duration::minutes(20)});
  cfg.plan.mobility.field_size = 400.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 1.0;
  cfg.plan.mobility.speed_max = 3.0;
  cfg.plan.mobility.seed = seed;
  cfg.threads = kTimedThreads;
  cfg.rounds = 48;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.adversary.mode = erasmus::adversary::Mode::kRoaming;
  cfg.adversary.migration = erasmus::adversary::Migration::kRandomWalk;
  cfg.adversary.chains = 100;
  cfg.adversary.dwell = Duration::minutes(12);
  cfg.adversary.seed = seed;
  return cfg;
}

// kOverlay, deep and sparse: 3000 slow devices in 1.1 km with depth-band
// aggregation and unlimited-battery metering -- the only workload that
// exercises aggregate and energy, and the one where the O(N^2) offer loop
// is furthest from the useful work.
scenario::ShardedFleetConfig overlay_agg_deep_config(uint64_t seed) {
  scenario::ShardedFleetConfig cfg;
  cfg.plan = swarm::FleetPlan::uniform(3000, seed, smartplus_spec());
  cfg.plan.staggered = true;
  cfg.plan.mobility.field_size = 1100.0;
  cfg.plan.mobility.radio_range = 60.0;
  cfg.plan.mobility.speed_min = 1.0;
  cfg.plan.mobility.speed_max = 3.0;
  cfg.plan.mobility.seed = kOverlayMobilitySeed;
  cfg.threads = kTimedThreads;
  cfg.rounds = 2;
  cfg.round_interval = Duration::minutes(30);
  cfg.k = 8;
  cfg.backend = scenario::CollectionBackend::kOverlay;
  cfg.overlay.ttl = 40;
  cfg.overlay.queue_depth = 1024;
  cfg.overlay.collect_deadline = Duration::seconds(60);
  cfg.overlay.response_timeout = Duration::seconds(5);
  cfg.overlay.max_retries = 2;
  cfg.window = scenario::WindowSpec::parse("fleet");
  cfg.overlay.aggregation.enabled = true;
  cfg.overlay.aggregation.election = {
      erasmus::aggregate::ElectionMode::kDepthBand, 2};
  cfg.overlay.aggregation.window = Duration::millis(200);
  cfg.energy.metered = true;
  cfg.energy.battery = erasmus::sim::Energy{};  // metered, unlimited
  return cfg;
}

// Chrome trace-event "complete" event.
void trace_event(std::ostringstream& out, bool& first, const Span& s,
                 std::string_view run_id) {
  out << (first ? "\n" : ",\n") << R"({"name":")" << json_escape(s.name)
      << R"(","ph":"X","pid":1,"tid":1,"ts":)" << format_double(s.start_us)
      << R"(,"dur":)" << format_double(s.end_us - s.start_us)
      << R"(,"args":{"run_id":")" << json_escape(run_id) << R"(","cause":")"
      << json_escape(s.cause) << R"(","round":)" << s.round << "}}";
  first = false;
}

void json_map(std::ostringstream& out, const char* key,
              const std::map<std::string, double>& m) {
  out << '"' << key << "\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ",") << '"' << json_escape(name)
        << "\":" << format_double(value);
    first = false;
  }
  out << '}';
}

// The runner's exact counters after run(). `outputs` are simulation-
// derived (checked against references and across thread counts); `work`
// measures effort and is only reported.
void read_counters(scenario::ShardedFleetRunner& runner, RepResult& rep) {
  auto& out = rep.outputs;
  auto& work = rep.work;

  uint64_t measurements = 0;
  double hashed_bytes = 0.0;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    const erasmus::attest::Prover& p = runner.prover(id);
    measurements += p.stats().measurements;
    hashed_bytes += static_cast<double>(p.stats().measurements) *
                    static_cast<double>(p.attested_bytes());
  }
  out["attest.measurements"] = static_cast<double>(measurements);
  work["attest.hashed_mb"] = hashed_bytes / 1e6;

  const auto& svc = runner.service().stats();
  out["attest.sessions"] = static_cast<double>(svc.sessions);
  out["attest.responses"] = static_cast<double>(svc.responses);
  out["attest.retries"] = static_cast<double>(svc.retries);
  out["attest.unreachable"] = static_cast<double>(svc.unreachable_sessions);
  out["attest.stray_datagrams"] = static_cast<double>(svc.stray_datagrams);
  out["aggregate.aggregated_sessions"] =
      static_cast<double>(svc.aggregated_sessions);
  out["aggregate.demand_fetches"] = static_cast<double>(svc.demand_fetches);
  uint64_t flagged = 0;
  for (const auto& r : rep.rounds) flagged += r.flagged;
  out["attest.flagged"] = static_cast<double>(flagged);

  double frames_local = 0.0;
  double frames_cross = 0.0;
  for (const auto& s : runner.metrics().snapshot()) {
    if (s.subsystem != "channels") continue;
    if (s.name == "frames_local") frames_local = s.value;
    if (s.name == "frames_cross") frames_cross = s.value;
  }
  work["net.channels_frames_local"] = frames_local;
  work["net.channels_frames_cross"] = frames_cross;

  const erasmus::net::Network* net = runner.overlay_network();
  const erasmus::net::Network::Stats ns =
      net ? net->stats() : erasmus::net::Network::Stats{};
  work["net.offers"] = static_cast<double>(ns.sent);
  work["net.dropped_disconnected"] =
      static_cast<double>(ns.dropped_disconnected);
  out["net.delivered"] = static_cast<double>(ns.delivered);
  out["net.phys_tx_bytes"] = static_cast<double>(ns.phys_tx_bytes);

  const auto totals = runner.overlay_totals();
  out["overlay.floods_forwarded"] =
      static_cast<double>(totals.floods_forwarded);
  out["overlay.reports_relayed"] = static_cast<double>(totals.reports_relayed);
  out["overlay.reports_dropped"] = static_cast<double>(totals.reports_dropped);
  out["overlay.route_repairs"] = static_cast<double>(totals.route_repairs);
  out["overlay.duplicate_reports"] =
      static_cast<double>(totals.duplicate_reports);
  const auto* transport = runner.relay_transport();
  out["overlay.targeted_floods"] =
      transport ? static_cast<double>(transport->stats().targeted_floods)
                : 0.0;
  out["aggregate.heads_elected"] = static_cast<double>(totals.heads_elected);
  out["aggregate.reports_absorbed"] =
      static_cast<double>(totals.reports_absorbed);
  out["aggregate.aggregates_received"] =
      static_cast<double>(totals.aggregates_received);

  const auto* meter = runner.energy_meter();
  out["energy.spent_mj"] = meter ? meter->totals().spent_mj() : 0.0;
  const auto* engine = runner.adversary_engine();
  out["adversary.migrations"] =
      engine ? static_cast<double>(engine->migrations_total()) : 0.0;
  out["adversary.detections"] =
      engine ? static_cast<double>(engine->detected_chains()) : 0.0;
}

// Timed calls into attest::compute_measurement / verify_measurement with
// each architecture's key, MAC and attested-memory size, weighted by how
// many devices of the fleet run that architecture.
void probe_crypto(scenario::ShardedFleetRunner& runner, RepResult& rep,
                  Clock::time_point t0) {
  constexpr int kCalls = 64;
  std::map<erasmus::hw::ArchKind, size_t> first_of;  // arch -> first id
  std::map<erasmus::hw::ArchKind, size_t> count_of;
  for (swarm::DeviceId id = 0; id < runner.size(); ++id) {
    const auto arch = runner.spec(id).arch;
    first_of.emplace(arch, id);
    ++count_of[arch];
  }
  double measure_us = 0.0;
  double verify_us = 0.0;
  for (const auto& [arch, id] : first_of) {
    const swarm::DeviceSpec& spec = runner.spec(id);
    erasmus::Bytes memory(runner.prover(id).attested_bytes());
    uint64_t x = rep.seed * 6364136223846793005ull + 1442695040888963407ull;
    for (auto& b : memory) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(x >> 56);
    }
    std::vector<double> m_us;
    std::vector<double> v_us;
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      const auto a = Clock::now();
      const erasmus::attest::Measurement m =
          erasmus::attest::compute_measurement(spec.algo, spec.key, memory,
                                               static_cast<uint64_t>(i));
      const auto b = Clock::now();
      const bool ok =
          erasmus::attest::verify_measurement(spec.algo, spec.key, m);
      const auto c = Clock::now();
      if (!ok) {
        throw std::runtime_error("probe: fresh measurement did not verify");
      }
      m_us.push_back(ms_between(a, b) * 1e3);
      v_us.push_back(ms_between(b, c) * 1e3);
    }
    rep.spans.push_back({std::string("crypto.") + erasmus::hw::to_string(arch),
                         ms_between(t0, start) * 1e3,
                         ms_between(t0, Clock::now()) * 1e3, 0, "probe"});
    const double share = static_cast<double>(count_of[arch]) /
                         static_cast<double>(runner.size());
    measure_us += share * median(m_us);
    verify_us += share * median(v_us);
  }
  rep.layers["crypto.measure_us"] = measure_us;
  rep.layers["crypto.verify_us"] = verify_us;
}

// Timed calls on a separate RandomWaypointMobility built from the
// workload's mobility config, at each round's barrier instant.
void probe_swarm(const scenario::ShardedFleetConfig& cfg, RepResult& rep,
                 Clock::time_point t0) {
  swarm::MobilityConfig m = cfg.plan.mobility;
  m.devices = cfg.plan.devices();
  swarm::RandomWaypointMobility mobility(m);
  const size_t n = m.devices;
  std::vector<double> snapshot_ms;
  std::vector<double> connected_ns;
  for (size_t round = 1; round <= cfg.rounds; ++round) {
    const erasmus::sim::Time at =
        erasmus::sim::Time::zero() + cfg.round_interval * round;
    const auto a = Clock::now();
    mobility.snapshot(at);
    const auto b = Clock::now();
    constexpr size_t kPairsPerDevice = 4;
    for (size_t i = 0; i < n * kPairsPerDevice; ++i) {
      const swarm::DeviceId x = i % n;
      const swarm::DeviceId y = (i * 7919 + round) % n;
      mobility.connected(x, y, at);
    }
    const auto c = Clock::now();
    snapshot_ms.push_back(ms_between(a, b));
    connected_ns.push_back(ms_between(b, c) * 1e6 /
                           static_cast<double>(n * kPairsPerDevice));
    rep.spans.push_back({"swarm.snapshot", ms_between(t0, a) * 1e3,
                         ms_between(t0, b) * 1e3, round, "probe"});
    rep.spans.push_back({"swarm.connected", ms_between(t0, b) * 1e3,
                         ms_between(t0, c) * 1e3, round, "probe"});
  }
  rep.layers["swarm.snapshot_ms"] = median(snapshot_ms);
  rep.layers["swarm.connected_ns"] = median(connected_ns);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "direct_roaming", "overlay_agg_deep"};
  return names;
}

scenario::ShardedFleetConfig make_config(std::string_view workload,
                                         uint64_t seed) {
  if (workload == "direct_roaming") return direct_roaming_config(seed);
  if (workload == "overlay_agg_deep") return overlay_agg_deep_config(seed);
  throw std::invalid_argument("unknown workload '" +
                              std::string(workload) + "'");
}

void TimingSink::row(std::string_view table, const scenario::Row& r) {
  inner_.row(table, r);
  last_row_ = Clock::now();
  if (table == "rounds") rounds_rows_.push_back(last_row_);
}

RoundSpans::RoundSpans(scenario::ShardedFleetRunner& runner,
                       const TimingSink& sink)
    : sink_(sink) {
  runner.set_round_hook([this](scenario::ShardedFleetRunner&, size_t,
                               erasmus::sim::Time) {
    const auto now = Clock::now();
    if (hooks_.size() > rounds_.size()) close_round(sink_.last_row());
    hooks_.push_back(now);
  });
}

void RoundSpans::end() {
  if (hooks_.size() > rounds_.size()) close_round(sink_.last_row());
}

void RoundSpans::close_round(Clock::time_point emit_end) {
  const size_t i = rounds_.size();
  const Clock::time_point advance_start =
      i == 0 ? run_start_ : advance_start_;
  const Clock::time_point hook = hooks_.at(i);
  const Clock::time_point collected = sink_.rounds_rows().at(i);
  Round r;
  r.advance_start_us = ms_between(run_start_, advance_start) * 1e3;
  r.collect_start_us = ms_between(run_start_, hook) * 1e3;
  r.emit_start_us = ms_between(run_start_, collected) * 1e3;
  r.emit_end_us = ms_between(run_start_, emit_end) * 1e3;
  rounds_.push_back(r);
  advance_start_ = emit_end;
}

RepResult run_rep(std::string_view workload,
                  const scenario::ShardedFleetConfig& cfg, bool traced) {
  RepResult rep;
  rep.workload = std::string(workload);
  rep.seed = cfg.plan.key_seed();
  rep.threads = cfg.threads;
  rep.traced = traced;

  std::ostringstream metrics;
  scenario::JsonSink json(metrics);
  const auto t0 = Clock::now();
  scenario::ShardedFleetRunner runner(cfg);
  const auto t1 = Clock::now();
  if (traced) {
    TimingSink sink(json);
    RoundSpans spans(runner, sink);
    sink.begin_run(workload);
    spans.begin();
    rep.rounds = runner.run(sink);
    spans.end();
    const auto t2 = Clock::now();
    sink.end_run();
    rep.setup_s = ms_between(t0, t1) / 1e3;
    rep.run_s = ms_between(t1, t2) / 1e3;

    const double run_start_us = ms_between(t0, spans.run_start()) * 1e3;
    rep.spans.push_back({"build", 0.0, ms_between(t0, t1) * 1e3, 0, "rep"});
    rep.spans.push_back(
        {"run", ms_between(t0, t1) * 1e3, ms_between(t0, t2) * 1e3, 0, "rep"});
    std::vector<double> collect_ms;
    double advance = 0.0, collect = 0.0, emit = 0.0;
    for (size_t i = 0; i < spans.rounds().size(); ++i) {
      const RoundSpans::Round& r = spans.rounds()[i];
      const uint64_t round = i + 1;
      rep.spans.push_back({"advance", run_start_us + r.advance_start_us,
                           run_start_us + r.collect_start_us, round, "run"});
      rep.spans.push_back({"collect", run_start_us + r.collect_start_us,
                           run_start_us + r.emit_start_us, round, "run"});
      rep.spans.push_back({"emit", run_start_us + r.emit_start_us,
                           run_start_us + r.emit_end_us, round, "run"});
      advance += (r.collect_start_us - r.advance_start_us) / 1e3;
      collect += (r.emit_start_us - r.collect_start_us) / 1e3;
      emit += (r.emit_end_us - r.emit_start_us) / 1e3;
      collect_ms.push_back((r.emit_start_us - r.collect_start_us) / 1e3);
    }
    rep.layers["scenario.build_ms"] = rep.setup_s * 1e3;
    rep.layers["scenario.advance_ms"] = advance;
    rep.layers["scenario.collect_ms"] = collect;
    rep.layers["scenario.emit_ms"] = emit;
    rep.layers["scenario.collect_ms_p50"] = median(collect_ms);
    rep.layers["scenario.span_coverage"] =
        (advance + collect + emit) / (rep.run_s * 1e3);
  } else {
    json.begin_run(workload);
    rep.rounds = runner.run(json);
    const auto t2 = Clock::now();
    json.end_run();
    rep.setup_s = ms_between(t0, t1) / 1e3;
    rep.run_s = ms_between(t1, t2) / 1e3;
  }
  rep.peak_rss_mb = peak_rss_mb();

  for (const auto& r : rep.rounds) rep.collections += r.reachable;
  rep.metrics_json = metrics.str();
  rep.metrics_sha256 = erasmus::to_hex(erasmus::crypto::Hash::digest(
      erasmus::crypto::HashAlgo::kSha256, erasmus::bytes_of(rep.metrics_json)));
  read_counters(runner, rep);

  const auto phases = runner.phases().report();
  rep.layers["obs.shard_work_ms"] = phases.shard_work_ms;
  rep.layers["obs.barrier_wait_ms"] = phases.barrier_wait_ms;
  rep.layers["obs.barrier_wait_share"] = phases.barrier_wait_share;
  if (traced) {
    probe_crypto(runner, rep, t0);
    probe_swarm(cfg, rep, t0);
  }
  return rep;
}

std::vector<double> yardstick(double seconds) {
  constexpr size_t kSlots = size_t{1} << 23;  // 32 MiB of uint32_t
  constexpr size_t kLoadsPerBlock = size_t{1} << 20;
  // Sattolo's shuffle: one cycle through every slot, so the chain never
  // settles into a short loop the caches could hold.
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  std::vector<double> blocks;
  uint32_t at = 0;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    const auto a = Clock::now();
    for (size_t i = 0; i < kLoadsPerBlock; ++i) at = next[at];
    blocks.push_back(ms_between(a, Clock::now()) / 1e3);
    volatile uint32_t live = at;  // the chain's result must be computed
    (void)live;
  }
  return blocks;
}

std::string to_json(const RepResult& rep) {
  std::ostringstream out;
  out << R"({"workload":")" << json_escape(rep.workload)
      << R"(","seed":)" << rep.seed << R"(,"threads":)" << rep.threads
      << R"(,"traced":)" << (rep.traced ? "true" : "false")
      << R"(,"setup_s":)" << format_double(rep.setup_s)
      << R"(,"run_s":)" << format_double(rep.run_s)
      << R"(,"peak_rss_mb":)" << format_double(rep.peak_rss_mb)
      << R"(,"collections":)" << rep.collections
      << R"(,"metrics_sha256":")" << rep.metrics_sha256 << R"(","rounds":[)";
  for (size_t i = 0; i < rep.rounds.size(); ++i) {
    const auto& r = rep.rounds[i];
    out << (i ? "," : "") << R"({"round":)" << r.round << R"(,"t_min":)"
        << r.at.ns() / 60'000'000'000ull << R"(,"present":)" << r.present
        << R"(,"reachable":)" << r.reachable << R"(,"healthy":)" << r.healthy
        << R"(,"flagged":)" << r.flagged << R"(,"dark":)" << r.dark << '}';
  }
  out << "],";
  json_map(out, "outputs", rep.outputs);
  out << ',';
  json_map(out, "work", rep.work);
  out << ',';
  json_map(out, "layers", rep.layers);
  out << '}';
  return out.str();
}

std::string chrome_trace(const RepResult& rep, std::string_view run_id) {
  std::ostringstream out;
  out << R"({"displayTimeUnit":"ms","traceEvents":[)";
  bool first = true;
  for (const Span& s : rep.spans) trace_event(out, first, s, run_id);
  out << "\n]}\n";
  return out.str();
}

}  // namespace fleetbench
