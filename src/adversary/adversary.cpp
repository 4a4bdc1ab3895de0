#include "adversary/adversary.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/rng.h"

namespace erasmus::adversary {

namespace {
/// Payload shape shared with malware::Infector: 64 bytes of 0xEB at the
/// midpoint of the attested region -- big enough that any digest over the
/// region flips, small enough to save/restore cheaply.
constexpr size_t kPayloadSize = 64;
constexpr uint8_t kPayloadByte = 0xEB;

/// How long before the predicted measurement an aware chain flees. The
/// analytic prediction is a lower bound on the actual tick (provers
/// reschedule from completion), so any positive margin is safe.
constexpr sim::Duration kEvadeMargin = sim::Duration::millis(2);

size_t payload_offset(size_t region) {
  size_t offset = region / 2;
  if (offset + kPayloadSize > region) offset = 0;
  return offset;
}
}  // namespace

Mode parse_mode(const std::string& text) {
  if (text == "off") return Mode::kOff;
  if (text == "roaming") return Mode::kRoaming;
  if (text == "relay") return Mode::kRelay;
  if (text == "sybil") return Mode::kSybil;
  throw std::invalid_argument(
      "adversary: expected 'off', 'roaming', 'relay' or 'sybil', got '" +
      text + "'");
}

Migration parse_migration(const std::string& text) {
  if (text == "random") return Migration::kRandomWalk;
  if (text == "aware") return Migration::kAware;
  if (text == "dwell") return Migration::kDwellBound;
  throw std::invalid_argument(
      "migration: expected 'random', 'aware' or 'dwell', got '" + text +
      "'");
}

Engine::Engine(EngineConfig config,
               const std::vector<swarm::DeviceSpec>& specs, bool staggered,
               swarm::DeviceId root, sim::Time horizon)
    : config_(std::move(config)), fleet_(specs.size()), root_(root),
      horizon_(horizon) {
  first_.reserve(fleet_);
  period_.reserve(fleet_);
  for (swarm::DeviceId d = 0; d < fleet_; ++d) {
    // The runner's analytic schedule: staggered fleets take their first
    // measurement at the stagger offset, unstaggered ones one nominal
    // period in. Irregular schedules are keyed and unpredictable; their
    // nominal midpoint is the best an adversary without K can do.
    const sim::Duration tm = swarm::nominal_tm(specs[d]);
    period_.push_back(tm);
    first_.push_back(staggered ? swarm::stagger_offset(tm, d, fleet_) : tm);
  }
  device_legs_.resize(fleet_);
  active_leg_.assign(fleet_, -1);
  saved_.resize(fleet_);
  plan_compromised_relays();
  plan_roaming();
}

sim::Time Engine::next_measurement(swarm::DeviceId d, sim::Time t) const {
  const sim::Time first = sim::Time::zero() + first_[d];
  if (t < first) return first;
  const sim::Duration period = period_[d];
  if (period.ns() == 0) return t;
  // Strictly after t: landing exactly on a tick means that tick fires.
  const uint64_t k = (t - first) / period + 1;
  return first + period * k;
}

bool Engine::interval_free(swarm::DeviceId d, sim::Time from,
                           sim::Time to) const {
  for (const size_t i : device_legs_[d]) {
    if (from < legs_[i].leave && legs_[i].enter < to) return false;
  }
  return true;
}

void Engine::plan_compromised_relays() {
  compromised_.assign(fleet_, false);
  if (config_.mode != Mode::kRelay && config_.mode != Mode::kSybil) return;
  if (fleet_ < 2) return;  // the root is never compromised
  size_t want = static_cast<size_t>(std::llround(
      config_.compromised_fraction * static_cast<double>(fleet_)));
  want = std::min(std::max<size_t>(want, 1), fleet_ - 1);
  sim::Rng rng(config_.seed ^ 0x5e1ec7ed'ce11ull);
  size_t placed = 0;
  while (placed < want) {
    const auto id = static_cast<swarm::DeviceId>(rng.next_below(fleet_));
    if (id == root_ || compromised_[id]) continue;
    compromised_[id] = true;
    ++placed;
  }
}

void Engine::plan_roaming() {
  if (config_.mode != Mode::kRoaming || config_.chains == 0 || fleet_ < 2) {
    return;
  }
  const sim::Duration dwell = config_.dwell;
  for (size_t c = 0; c < config_.chains; ++c) {
    // Per-chain stream: chains plan independently of each other's RNG
    // draws (adding a chain never reshuffles existing itineraries).
    sim::Rng rng(config_.seed + 0x9E3779B97F4A7C15ull * (c + 1));
    sim::Time t = sim::Time::zero() + config_.first_infection +
                  sim::Duration::nanos(
                      rng.next_below(std::max<uint64_t>(1, dwell.ns())));
    const size_t chain = chains_.size();
    int32_t prev = -1;
    int evasions = 0;
    bool first = true;
    bool started = false;
    while (t < horizon_) {
      int32_t pick = -1;
      sim::Duration pick_dur = dwell;
      const char* reason = "random";
      bool evade = false;
      bool forced = false;
      if (config_.migration == Migration::kAware) {
        // Hop to the host with the most slack before its next predicted
        // measurement. Enough slack -> a full safe dwell; too little
        // everywhere -> flee just before the tick, until the evasion
        // budget runs out and the malware must sit through one (it has
        // work to do -- endless fleeing is a defender win by itself).
        sim::Duration best_slack;
        for (swarm::DeviceId d = 0; d < fleet_; ++d) {
          if (d == root_ || static_cast<int32_t>(d) == prev) continue;
          const sim::Duration slack = next_measurement(d, t) - t;
          sim::Duration dur = dwell;
          bool d_evade = false;
          bool d_forced = false;
          if (slack > dwell) {
            // safe host
          } else if (evasions < config_.max_evasions &&
                     slack > kEvadeMargin) {
            dur = slack - kEvadeMargin;
            d_evade = true;
          } else {
            d_forced = true;
          }
          if (!interval_free(d, t, t + dur)) continue;
          if (pick < 0 || slack > best_slack) {
            pick = static_cast<int32_t>(d);
            best_slack = slack;
            pick_dur = dur;
            evade = d_evade;
            forced = d_forced;
          }
        }
        reason = evade ? "evade_window" : (forced ? "forced_dwell"
                                                  : "safe_host");
      } else {
        if (config_.migration == Migration::kDwellBound) {
          pick_dur = sim::Duration::nanos(
              dwell.ns() / 2 +
              rng.next_below(std::max<uint64_t>(1, dwell.ns() / 2 + 1)));
          reason = "dwell";
        }
        const size_t start = rng.next_below(fleet_);
        for (size_t off = 0; off < fleet_; ++off) {
          const auto d =
              static_cast<swarm::DeviceId>((start + off) % fleet_);
          if (d == root_ || static_cast<int32_t>(d) == prev) continue;
          if (!interval_free(d, t, t + pick_dur)) continue;
          pick = static_cast<int32_t>(d);
          break;
        }
      }
      if (pick < 0) {
        // Every candidate is occupied by another chain right now: skip
        // ahead one dwell and try again (t grows, so this terminates).
        t = t + dwell + config_.hop_gap;
        continue;
      }
      Leg leg;
      leg.chain = chain;
      leg.device = static_cast<swarm::DeviceId>(pick);
      leg.enter = t;
      leg.leave = t + pick_dur;
      leg.reason = reason;
      leg.first = first;
      leg.evade = evade;
      leg.forced = forced;
      device_legs_[leg.device].push_back(legs_.size());
      legs_.push_back(leg);
      if (!started) {
        chains_.push_back({leg.enter, false, {}});
        started = true;
      }
      evasions = evade ? evasions + 1 : 0;
      prev = pick;
      first = false;
      t = leg.leave + config_.hop_gap;
    }
  }
}

void Engine::enter_leg(size_t leg_index, attest::Prover& prover) {
  Leg& leg = legs_[leg_index];
  hw::DeviceMemory& mem = prover.memory();
  const hw::RegionId app = prover.attested_region();
  const size_t region = mem.region_size(app);
  if (region < kPayloadSize) return;  // nowhere to implant
  const size_t offset = payload_offset(region);
  saved_[leg.device] =
      mem.read(app, offset, kPayloadSize, /*privileged=*/false);
  mem.write(app, offset, Bytes(kPayloadSize, kPayloadByte),
            /*privileged=*/false);
  active_leg_[leg.device] = static_cast<int32_t>(leg_index);
  leg.entered = true;
}

void Engine::leave_leg(size_t leg_index, attest::Prover& prover) {
  Leg& leg = legs_[leg_index];
  if (!leg.entered || leg.left) return;
  if (!saved_[leg.device].empty()) {
    // Self-clean on the way out: restore the overwritten bytes so only a
    // measurement taken DURING residency can tell -- the paper's case for
    // detecting infections in the past.
    const hw::RegionId app = prover.attested_region();
    const size_t offset = payload_offset(prover.memory().region_size(app));
    prover.memory().write(app, offset, saved_[leg.device],
                          /*privileged=*/false);
    saved_[leg.device].clear();
  }
  active_leg_[leg.device] = -1;
  leg.left = true;
}

void Engine::on_measurement(swarm::DeviceId device, sim::Time at) {
  const int32_t idx = active_leg_[device];
  if (idx < 0) return;
  Leg& leg = legs_[static_cast<size_t>(idx)];
  if (!leg.measured) {
    leg.measured = true;
    leg.measured_at = at;
  }
}

void Engine::on_verdict(swarm::DeviceId device, bool healthy, sim::Time at) {
  if (healthy || device >= fleet_) return;
  // A failed verdict is attributed to the earliest-entered measured leg
  // on this device whose chain is still undetected; the infected record
  // stays in the device's store, so later rounds re-flag it (repeat).
  // Ties on `enter` go to the lowest leg index (the list is ascending).
  int32_t best = -1;
  bool any_measured = false;
  for (const size_t i : device_legs_[device]) {
    const Leg& leg = legs_[i];
    if (!leg.measured || at < leg.measured_at) continue;
    any_measured = true;
    if (chains_[leg.chain].detected) continue;
    if (best < 0 || leg.enter < legs_[static_cast<size_t>(best)].enter) {
      best = static_cast<int32_t>(i);
    }
  }
  if (best < 0) {
    if (any_measured) {
      ++repeat_flags_;
    } else {
      ++unattributed_flags_;  // a flag no measured leg explains
    }
    return;
  }
  const Leg& leg = legs_[static_cast<size_t>(best)];
  Chain& chain = chains_[leg.chain];
  chain.detected = true;
  chain.detected_at = at;
  if (trace_ && trace_->enabled(obs::Subsystem::kAdversary)) {
    trace_->instant(
        obs::Subsystem::kAdversary, at, "detected",
        {{"chain", static_cast<uint64_t>(leg.chain)},
         {"device", static_cast<uint64_t>(device)},
         {"latency_ms",
          static_cast<double>((at - chain.started).ns()) / 1e6}});
  }
}

bool Engine::relay_compromised(swarm::DeviceId id) const {
  return id < compromised_.size() && compromised_[id];
}

bool Engine::link_allowed(swarm::DeviceId a, swarm::DeviceId b,
                          sim::Time at) const {
  for (const PartitionEvent& p : config_.partitions) {
    if (p.at <= at && at < p.at + p.heal_after) {
      const bool side_a = a < fleet_ / 2;
      const bool side_b = b < fleet_ / 2;
      if (side_a != side_b) return false;
    }
  }
  return true;
}

void Engine::emit_trace(sim::Time upto) {
  if (!trace_ || !trace_->enabled(obs::Subsystem::kAdversary)) {
    last_emit_ = upto;
    return;
  }
  struct Pending {
    sim::Time at;
    size_t leg;
    int kind;  // 0 enter, 1 leave, 2 captured
  };
  std::vector<Pending> pending;
  for (size_t i = 0; i < legs_.size(); ++i) {
    const Leg& leg = legs_[i];
    if (leg.entered && last_emit_ < leg.enter && leg.enter <= upto) {
      pending.push_back({leg.enter, i, 0});
    }
    if (leg.left && last_emit_ < leg.leave && leg.leave <= upto) {
      pending.push_back({leg.leave, i, 1});
    }
    if (leg.measured && last_emit_ < leg.measured_at &&
        leg.measured_at <= upto) {
      pending.push_back({leg.measured_at, i, 2});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.leg != b.leg) return a.leg < b.leg;
              return a.kind < b.kind;
            });
  for (const Pending& p : pending) {
    const Leg& leg = legs_[p.leg];
    const char* name = "captured";
    if (p.kind == 0) name = leg.first ? "infect" : "migrate";
    if (p.kind == 1) name = leg.evade ? "evade" : "leave";
    obs::TraceArgs args = {{"chain", static_cast<uint64_t>(leg.chain)},
                           {"device", static_cast<uint64_t>(leg.device)}};
    if (p.kind == 0) args.push_back({"reason", leg.reason});
    trace_->instant(obs::Subsystem::kAdversary, p.at, name,
                    std::move(args));
  }
  last_emit_ = upto;
}

Engine::Snapshot Engine::snapshot() const {
  Snapshot snap;
  for (const Leg& leg : legs_) {
    if (leg.entered) {
      if (leg.first) {
        ++snap.infections;
      } else {
        ++snap.migrations;
      }
      if (!leg.left) ++snap.active;
    }
    if (leg.left && leg.evade) ++snap.evasions;
    if (leg.measured) ++snap.captures;
  }
  snap.detections = detected_chains();
  snap.mean_detection_latency_ms =
      static_cast<double>(mean_detection_latency().ns()) / 1e6;
  return snap;
}

size_t Engine::detected_chains() const {
  return static_cast<size_t>(
      std::count_if(chains_.begin(), chains_.end(),
                    [](const Chain& c) { return c.detected; }));
}

double Engine::detection_probability() const {
  if (chains_.empty()) return 0.0;
  return static_cast<double>(detected_chains()) /
         static_cast<double>(chains_.size());
}

sim::Duration Engine::mean_detection_latency() const {
  uint64_t total_ns = 0;
  uint64_t n = 0;
  for (const Chain& chain : chains_) {
    if (!chain.detected) continue;
    total_ns += (chain.detected_at - chain.started).ns();
    ++n;
  }
  if (n == 0) return sim::Duration::nanos(0);
  return sim::Duration::nanos(total_ns / n);
}

uint64_t Engine::migrations_total() const {
  uint64_t n = 0;
  for (const Leg& leg : legs_) {
    if (leg.entered && !leg.first) ++n;
  }
  return n;
}

uint64_t Engine::evasions_total() const {
  uint64_t n = 0;
  for (const Leg& leg : legs_) {
    if (leg.left && leg.evade) ++n;
  }
  return n;
}

uint64_t Engine::captures_total() const {
  uint64_t n = 0;
  for (const Leg& leg : legs_) {
    if (leg.measured) ++n;
  }
  return n;
}

}  // namespace erasmus::adversary
