#include "scenario/sharded_runner.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace erasmus::scenario {

using swarm::detail::throw_bad_device_id;

namespace {
// kDirect wire model: the direct backend bypasses the radio Network, so
// radio joules are charged from the served-session loop using the same
// per-message byte costs the energy::Planner's closed form assumes
// (request down, one k-record report up).
constexpr size_t kDirectRequestBytes = 24;
constexpr size_t kDirectReportHeaderBytes = 20;
constexpr size_t kDirectRecordBytes = 73;

// Virtual radio domains for the kDirect batch serve. A property of the
// FLEET, deliberately independent of the thread count: channel traffic
// counters must be byte-identical at 1/2/8 threads, so the partition can
// never follow the executor's width. 16 keeps the job pool wide enough
// for any shard count this runner targets.
constexpr size_t kVirtualDomains = 16;
}  // namespace

WindowSpec WindowSpec::parse(const std::string& text) {
  WindowSpec spec;
  if (text == "default") {
    spec.mode = Mode::kBackendDefault;
    return spec;
  }
  if (text == "fleet") {
    spec.mode = Mode::kFleet;
    return spec;
  }
  if (text == "adaptive") {
    spec.mode = Mode::kAdaptive;
    return spec;
  }
  // strtoull alone is too permissive: it sign-wraps "-5" and clamps
  // overflow to ULLONG_MAX, both of which must throw, not become an
  // effectively unbounded window.
  constexpr unsigned long long kMaxWindow = 1ull << 31;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() ||
      !std::isdigit(static_cast<unsigned char>(text.front())) ||
      end != text.c_str() + text.size() || parsed == 0 ||
      errno == ERANGE || parsed > kMaxWindow) {
    throw std::invalid_argument(
        "window: expected 'default', 'fleet', 'adaptive' or a positive "
        "integer (<= 2^31), got '" + text + "'");
  }
  spec.mode = Mode::kFixed;
  spec.fixed = static_cast<size_t>(parsed);
  return spec;
}

attest::WindowConfig WindowSpec::resolve(CollectionBackend /*backend*/,
                                         size_t fleet) const {
  attest::WindowConfig wc;
  switch (mode) {
    case Mode::kBackendDefault:
      // Both backends default to a fleet-sized window. Under kDirect every
      // session completes synchronously inside the dispatch loop, so the
      // window only bounds transient state -- and a fleet-wide batch lets
      // the batched serve/verify path fan the whole round out once instead
      // of in window-sized slices. kOverlay floods the whole swarm in one
      // batch as it always did.
      wc.fixed = fleet;
      break;
    case Mode::kFleet:
      wc.fixed = fleet;
      break;
    case Mode::kFixed:
      wc.fixed = fixed;
      break;
    case Mode::kAdaptive:
      wc.adaptive = true;
      // Let the controller discover up to a full-fleet window; the floor
      // keeps a loss burst from strangling the round.
      wc.ceiling = std::max<size_t>(fleet, wc.floor);
      break;
  }
  return wc;
}

ShardedFleetRunner::ShardedFleetRunner(ShardedFleetConfig config)
    : config_(std::move(config)), specs_(config_.plan.expand()),
      mobility_([&] {
        swarm::MobilityConfig m = config_.plan.mobility;
        m.devices = config_.plan.devices();
        return m;
      }()) {
  if (config_.threads == 0) {
    throw std::invalid_argument("ShardedFleetRunner: threads must be >= 1");
  }
  if (specs_.empty()) {
    throw std::invalid_argument("ShardedFleetRunner: need >= 1 device");
  }
  if (config_.root >= specs_.size()) {
    throw std::invalid_argument("ShardedFleetRunner: root out of range");
  }
  shards_.resize(std::min(config_.threads, specs_.size()));
  for (auto& shard : shards_) {
    shard.queue = std::make_unique<sim::EventQueue>();
  }
  // One pool for every parallel phase (shard advance, batch serve, batched
  // verify). With one shard it degenerates to inline execution on the
  // calling thread.
  executor_ = std::make_unique<common::ParallelExecutor>(shards_.size());

  // Build in global id order: stack construction is partition-independent,
  // only the owning queue differs.
  stacks_.reserve(specs_.size());
  present_.assign(specs_.size(), true);
  for (swarm::DeviceId id = 0; id < specs_.size(); ++id) {
    stacks_.push_back(swarm::build_device_stack(*shards_[shard_of(id)].queue,
                                                specs_[id]));
    directory_.add(id, swarm::build_device_record(specs_[id], stacks_[id]));
    if (config_.backend == CollectionBackend::kDirect) {
      direct_transport_.attach(id, *stacks_[id].prover);
    }
  }

  if (config_.backend == CollectionBackend::kDirect) {
    // Shard-local radio domains: collect broadcasts are served
    // domain-parallel on the pool, responses crossing domains over SPSC
    // channels drained in deterministic (domain, sequence) order. The
    // domain count follows the fleet, never the thread count.
    direct_transport_.enable_batch_serve(
        *executor_, std::min(kVirtualDomains, specs_.size()), config_.root);
    channel_inst_.frames_local = &metrics_.counter("channels", "frames_local");
    channel_inst_.frames_cross = &metrics_.counter("channels", "frames_cross");
    channel_inst_.drains = &metrics_.counter("channels", "drains");
  }

  // The flight recorder is process-global (installed by the CLI's --trace
  // before the scenario runs) so scenario signatures stay unchanged.
  trace_ = obs::global_trace();
  if (trace_) trace_->attach_shards(shards_.size());
  build_adversary();
  if (config_.energy.metered) build_energy_meter();
  attach_device_observers();

  attest::ServiceConfig sc;
  sc.keep_audit = false;  // million-device fleets aggregate via rows instead
  sc.window = config_.window.resolve(config_.backend, specs_.size());
  sc.trace = trace_;
  sc.metrics = &metrics_;
  // Batched verifier-core crypto at collection barriers: responses a
  // broadcast loops back synchronously verify in one parallel pass
  // (grouped per MAC algorithm), byte-identical to inline verification.
  // Inert under kOverlay, whose responses arrive asynchronously.
  sc.verify_executor = executor_.get();
  attest::Transport* transport = &direct_transport_;
  if (config_.backend == CollectionBackend::kOverlay) {
    build_overlay();
    // Loss bursts ride the coordinator queue (the radio's clock): jump
    // the loss rate at burst start, restore the configured baseline at
    // burst end. The RNG stream is untouched, so the schedule is as
    // deterministic as a fixed rate.
    for (const adversary::LossBurst& burst : config_.adversary.loss_bursts) {
      coordinator_queue_.schedule_at(burst.at, [this, loss = burst.loss] {
        overlay_net_->set_loss_probability(loss);
      });
      coordinator_queue_.schedule_at(burst.at + burst.duration, [this] {
        overlay_net_->set_loss_probability(config_.overlay.net_loss);
      });
    }
    transport = relay_transport_.get();
    sc.response_timeout = config_.overlay.response_timeout;
    sc.max_retries = config_.overlay.max_retries;
  }
  service_ = std::make_unique<attest::AttestationService>(
      coordinator_queue_, *transport, directory_, sc);
  if (config_.backend == CollectionBackend::kOverlay) {
    service_->set_observer(
        [this](const attest::AttestationService::SessionOutcome& outcome) {
          round_outcomes_.push_back(outcome);
        });
  }
}

void ShardedFleetRunner::build_adversary() {
  const adversary::EngineConfig& ac = config_.adversary;
  if (ac.mode == adversary::Mode::kOff && ac.partitions.empty() &&
      ac.loss_bursts.empty()) {
    return;  // inert: no engine, no "adversary" rows, no extra code paths
  }
  const sim::Time horizon =
      sim::Time::zero() + config_.round_interval * config_.rounds;
  engine_ = std::make_unique<adversary::Engine>(
      ac, specs_, config_.plan.staggered, config_.root, horizon);
  engine_->set_trace(trace_);
  // Itinerary legs run on the owning device's shard queue -- the same
  // placement schedule_on_device uses -- so enter/leave interleave with
  // that device's measurements deterministically at any thread count.
  for (size_t i = 0; i < engine_->legs().size(); ++i) {
    const adversary::Leg& leg = engine_->legs()[i];
    attest::Prover* target = stacks_[leg.device].prover.get();
    sim::EventQueue& queue = *shards_[shard_of(leg.device)].queue;
    queue.schedule_at(leg.enter,
                      [this, i, target] { engine_->enter_leg(i, *target); });
    if (leg.leave <= horizon) {
      queue.schedule_at(
          leg.leave, [this, i, target] { engine_->leave_leg(i, *target); });
    }
  }
}

void ShardedFleetRunner::build_overlay() {
  overlay_net_ = std::make_unique<net::Network>(
      coordinator_queue_, config_.overlay.net_latency,
      config_.overlay.net_loss, config_.plan.key_seed());
  for (swarm::DeviceId id = 0; id < specs_.size(); ++id) {
    overlay_net_->add_node({});  // handler installed by the RelayNode
  }
  verifier_node_ = overlay_net_->add_node({});
  overlay_net_->set_link_filter(
      [this](net::NodeId a, net::NodeId b) { return link_up(a, b); });
  // Floods are offered only to the nodes the mobility index can place in
  // range, after replaying the trajectory draws the filter would have
  // made on the rest -- outputs stay those of offering every node.
  radio_audience_ = std::make_unique<swarm::RadioAudience>(
      mobility_, specs_.size() + 1, config_.root,
      [this](net::NodeId a, net::NodeId b) { return link_up(a, b); },
      [this](net::NodeId n) { return n != verifier_node_ && !active(n); });
  overlay_net_->set_radio_index(
      [this](net::NodeId src, net::NodeId except,
             std::vector<net::NodeId>& out) {
        radio_audience_->candidates(src, except, coordinator_queue_.now(),
                                    out);
      });

  if (energy_meter_) {
    // Radio joules: tx once per physical transmission, rx per delivered
    // destination (Network's tap contract). The tap runs from coordinator
    // events only, while every shard queue is parked at the barrier. A
    // transition silences the device's prover on the spot -- shard queues
    // are parked, so touching the shard-owned prover is safe.
    overlay_net_->set_energy_tap(
        [this](net::NodeId node, size_t bytes, bool tx) {
          if (node == verifier_node_) return;  // mains-powered root
          energy::DeviceMeter& m = energy_meter_->device(node);
          const sim::Time now = coordinator_queue_.now();
          const bool out =
              tx ? m.charge_tx(bytes, now) : m.charge_rx(bytes, now);
          if (out) stacks_[node].prover->stop();
        });
  }

  overlay::RelayNodeConfig nc;
  nc.queue_depth = config_.overlay.queue_depth;
  nc.forward_spacing = config_.overlay.forward_spacing;
  nc.flood_memory = overlay::flood_memory_for(specs_.size());
  nc.trace = trace_;
  nc.metrics = &metrics_;
  nc.aggregation = config_.overlay.aggregation;
  relay_nodes_.reserve(specs_.size());
  for (swarm::DeviceId id = 0; id < specs_.size(); ++id) {
    if (energy_meter_) {
      nc.meter = &energy_meter_->device(id);
      if (nc.aggregation.enabled) {
        // Heads pay CPU for the combine: hashing the absorbed evidence
        // plus one MAC, costed as the device's self-measurement charge
        // scaled by bytes combined over bytes attested (same cycle/byte
        // model, different buffer). Floor of one nJ so a combine is
        // never free. Runs at flush time, coordinator-side.
        nc.aggregation.combine_charge = [this, id](uint64_t bytes,
                                                   sim::Time at) {
          energy::DeviceMeter& m = energy_meter_->device(id);
          const uint64_t attested =
              std::max<uint64_t>(1, stacks_[id].prover->attested_bytes());
          const uint64_t nj = std::max<uint64_t>(
              1, m.cost().measurement_nj * bytes / attested);
          if (m.charge_cpu(nj, at)) stacks_[id].prover->stop();
        };
      }
    }
    nc.compromise = {};
    if (engine_ && engine_->relay_compromised(id)) {
      if (config_.adversary.mode == adversary::Mode::kSybil) {
        nc.compromise.sybil_per_flood = config_.adversary.sybil_per_flood;
        // Forged origins live past the last real node id (fleet + verifier),
        // disjoint per compromised relay, so the transport rejects them by
        // range and the counts attribute cleanly.
        nc.compromise.sybil_origin_base = static_cast<net::NodeId>(
            specs_.size() + 1 + id * config_.adversary.sybil_per_flood);
      } else if (config_.adversary.corrupt_frames) {
        nc.compromise.corrupt_relayed = true;
      } else {
        nc.compromise.drop_relayed = true;
      }
    }
    relay_nodes_.push_back(std::make_unique<overlay::RelayNode>(
        coordinator_queue_, *overlay_net_, id, *stacks_[id].prover, nc));
    relay_nodes_.back()->set_link_probe(
        [this](net::NodeId a, net::NodeId b) { return link_up(a, b); });
  }

  overlay::RelayTransportConfig tc;
  tc.ttl = config_.overlay.ttl;
  tc.forward_spacing = config_.overlay.forward_spacing;
  tc.flood_memory = overlay::flood_memory_for(specs_.size());
  tc.scoped_retries = config_.overlay.scoped_retries;
  tc.route_ttl = config_.overlay.route_ttl;
  tc.trace = trace_;
  tc.metrics = &metrics_;
  tc.aggregate = config_.overlay.aggregation.enabled;
  relay_transport_ = std::make_unique<overlay::RelayTransport>(
      *overlay_net_, verifier_node_, specs_.size() + 1, tc);
  if (tc.aggregate) {
    relay_transport_->set_aggregate_receiver(
        [this](const aggregate::AggregateFrame& frame, uint8_t hops) {
          on_aggregate(frame, hops);
        });
  }
}

void ShardedFleetRunner::on_aggregate(const aggregate::AggregateFrame& frame,
                                      uint8_t hops) {
  // The transport deduplicated and parsed; authentication lands here,
  // where the directory lives. Node ids are device ids for the fleet,
  // and the verifier endpoint never heads a cluster.
  if (frame.head >= specs_.size()) {
    ++agg_counters_.auth_failures;
    return;
  }
  const attest::DeviceRecord& rec = directory_.record(frame.head);
  if (!aggregate::verify_aggregate(frame, rec.algo, rec.key)) {
    ++agg_counters_.auth_failures;
    if (trace_ && trace_->enabled(obs::Subsystem::kOverlay)) {
      trace_->instant(obs::Subsystem::kOverlay, coordinator_queue_.now(),
                      "aggregate_auth_fail",
                      {{"head", static_cast<uint64_t>(frame.head)},
                       {"flood", static_cast<uint64_t>(frame.flood)}});
    }
    return;
  }
  ++agg_counters_.clusters;
  agg_counters_.members += frame.members.size();
  for (size_t i = 0; i < frame.members.size(); ++i) {
    const net::NodeId member = frame.members[i];
    if (frame.healthy(i)) {
      // The head vouched for this member's digest: close its session
      // without its raw report ever crossing the field.
      if (service_->complete_aggregated(member)) {
        ++agg_counters_.healthy_bits;
      }
    } else {
      // Cleared bit: the head saw evidence it could not vouch for. Demand
      // the member's raw report over the per-device (scoped) path.
      service_->demand_fetch(member);
    }
  }
  (void)hops;  // already histogrammed by the transport
}

void ShardedFleetRunner::build_energy_meter() {
  const uint64_t capacity = energy::to_nanojoules(config_.energy.battery);
  std::vector<energy::DeviceMeter> meters;
  meters.reserve(specs_.size());
  for (swarm::DeviceId id = 0; id < specs_.size(); ++id) {
    meters.emplace_back(
        energy::CostModel::for_device(specs_[id].profile,
                                      energy::profile_for(specs_[id].arch),
                                      specs_[id].algo,
                                      stacks_[id].prover->attested_bytes()),
        capacity);
  }
  energy_meter_ = std::make_unique<energy::FleetMeter>(std::move(meters));
  swept_dark_.assign(specs_.size(), false);
}

void ShardedFleetRunner::attach_device_observers() {
  // shard(i) is nullptr when the kDevice category is filtered out: trace
  // emission is then never installed and the hot measurement path pays
  // nothing for it. A device's observer writes ONLY its own shard's trace
  // buffer and its own meter, from its own shard's thread -- the lock-free
  // discipline TraceShard and DeviceMeter both want.
  const bool tracing = trace_ && trace_->shard(0);
  if (!tracing && !energy_meter_ && !engine_) return;
  for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
    obs::TraceShard* shard = tracing ? trace_->shard(shard_of(id)) : nullptr;
    energy::DeviceMeter* meter =
        energy_meter_ ? &energy_meter_->device(id) : nullptr;
    attest::Prover* prover = stacks_[id].prover.get();
    adversary::Engine* engine = engine_.get();
    const auto actor = static_cast<uint32_t>(id);
    prover->set_measurement_observer(
        [shard, meter, prover, engine, actor](sim::Time at,
                                              uint64_t t_ticks) {
          if (shard) {
            shard->emit({at, actor, obs::Subsystem::kDevice,
                         obs::TraceKind::kInstant, "measure",
                         {{"t", t_ticks}}});
          }
          // Resident malware is captured by this measurement (shard-side:
          // the engine only touches this device's slots).
          if (engine) engine->on_measurement(actor, at);
          // The measurement that empties the battery is the device's last:
          // stop the schedule shard-side, immediately. The coordinator's
          // barrier sweep handles the trace event and the dark count.
          if (meter && meter->charge_measurement(at)) prover->stop();
        });
  }
}

bool ShardedFleetRunner::active(swarm::DeviceId id) const {
  return present_[id] &&
         !(energy_meter_ && energy_meter_->device(id).dark());
}

size_t ShardedFleetRunner::sweep_dark() {
  if (!energy_meter_) return 0;
  size_t newly = 0;
  for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
    const energy::DeviceMeter& m = energy_meter_->device(id);
    if (!m.dark() || swept_dark_[id]) continue;
    swept_dark_[id] = true;
    ++newly;
    stacks_[id].prover->stop();  // idempotent; shard side may have already
    if (trace_ && trace_->enabled(obs::Subsystem::kEnergy)) {
      // Timestamped with the exhausting charge's instant (possibly mid
      // shard phase); swept in device-id order at the barrier, so the
      // stream is deterministic at any thread count.
      trace_->instant(obs::Subsystem::kEnergy, m.dark_at(), "went_dark",
                      {{"device", static_cast<uint64_t>(id)},
                       {"spent_nj", m.spent_nj()}});
    }
  }
  return newly;
}

bool ShardedFleetRunner::link_up(net::NodeId a, net::NodeId b) {
  // Departed devices are radio-silent; the verifier is co-located with the
  // root device (same position, distance zero).
  const auto device = [this](net::NodeId n) {
    return n == verifier_node_ ? config_.root
                               : static_cast<swarm::DeviceId>(n);
  };
  // active() also mutes dark devices: a dead battery keys no radio. (An
  // in-flight frame addressed to a device that went dark after the send
  // admit is instead dropped by the RelayNode's dark gate.)
  if (a != verifier_node_ && !active(a)) return false;
  if (b != verifier_node_ && !active(b)) return false;
  const swarm::DeviceId da = device(a);
  const swarm::DeviceId db = device(b);
  if (da == db) return true;
  // Scheduled partitions veto the link before mobility is consulted. The
  // partition schedule is pure config, so the veto -- and therefore the
  // mobility RNG draw order -- stays deterministic at any thread count.
  if (engine_ && !engine_->link_allowed(da, db, coordinator_queue_.now())) {
    return false;
  }
  // Single-threaded invariant: the link filter only runs from coordinator
  // events (floods, relays), while every shard queue is parked at the
  // barrier -- so the shared mobility RNG is consumed in deterministic
  // order regardless of thread count.
  return mobility_.connected(da, db, coordinator_queue_.now());
}

attest::Prover& ShardedFleetRunner::prover(swarm::DeviceId id) {
  if (id >= stacks_.size()) {
    throw_bad_device_id("ShardedFleetRunner::prover", id, stacks_.size());
  }
  return *stacks_[id].prover;
}

const swarm::DeviceSpec& ShardedFleetRunner::spec(swarm::DeviceId id) const {
  if (id >= specs_.size()) {
    throw_bad_device_id("ShardedFleetRunner::spec", id, specs_.size());
  }
  return specs_[id];
}

void ShardedFleetRunner::schedule_on_device(
    swarm::DeviceId id, sim::Time at,
    std::function<void(attest::Prover&)> fn) {
  attest::Prover& target = prover(id);
  shards_[shard_of(id)].queue->schedule_at(
      at, [&target, fn = std::move(fn)] { fn(target); });
}

void ShardedFleetRunner::set_present(swarm::DeviceId id, bool present) {
  if (id >= stacks_.size()) {
    throw_bad_device_id("ShardedFleetRunner::set_present", id, stacks_.size());
  }
  if (present_[id] == present) return;
  present_[id] = present;
  if (trace_ && trace_->enabled(obs::Subsystem::kRunner)) {
    // Churn only happens at barriers (round hook) or before run(), both
    // coordinator-side, so direct emission keeps deterministic order.
    trace_->instant(obs::Subsystem::kRunner, coordinator_queue_.now(),
                    present ? "device_join" : "device_leave",
                    {{"device", static_cast<uint64_t>(id)}});
  }
  if (!started_) return;
  if (present) {
    // Rejoin: the schedule restarts one period from now, exactly as a
    // rebooted device's timer would. A rejoiner with a dead battery stays
    // dark -- back in the roster, but its prover never restarts.
    if (!(energy_meter_ && energy_meter_->device(id).dark())) {
      stacks_[id].prover->start();
    }
  } else {
    stacks_[id].prover->stop();
  }
}

size_t ShardedFleetRunner::present_count() const {
  return static_cast<size_t>(
      std::count(present_.begin(), present_.end(), true));
}

size_t ShardedFleetRunner::shard_of(swarm::DeviceId id) const {
  // First `rem` blocks carry base+1 devices, the rest carry base.
  const size_t n = specs_.size();
  const size_t s = shards_.size();
  const size_t base = n / s;
  const size_t rem = n % s;
  const size_t cut = rem * (base + 1);  // first device id of the base blocks
  if (id < cut) return id / (base + 1);
  return rem + (id - cut) / base;
}

void ShardedFleetRunner::advance_all(sim::Time barrier) {
  using clock = std::chrono::steady_clock;
  const auto wall_start = clock::now();
  // Per-shard busy clocks vs the advance's wall clock: their gap is the
  // barrier-wait the phase profile reports. Each worker writes only its
  // own slot.
  std::vector<double> busy_ms(shards_.size(), 0.0);
  const auto advance_shard = [&](size_t s) {
    const auto t0 = clock::now();
    shards_[s].queue->run_until(barrier);
    busy_ms[s] =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };
  // The persistent pool replaces a thread spawn/join per barrier: workers
  // park on a condition variable between phases, so a 10ms advance no
  // longer pays thread creation. Which worker runs which shard is
  // unspecified (job stealing) -- shard queues are independent between
  // barriers, so it cannot matter.
  executor_->run(shards_.size(), advance_shard);
  double busy_sum = 0.0;
  for (const double b : busy_ms) busy_sum += b;
  phases_.record_advance(
      shards_.size(), busy_sum,
      std::chrono::duration<double, std::milli>(clock::now() - wall_start)
          .count());
}

FleetRoundResult ShardedFleetRunner::collect_round(size_t round,
                                                   sim::Time at) {
  FleetRoundResult result;
  result.round = round;
  result.at = at;
  result.present = present_count();

  // The coordinator's own clock provides session timestamps/timeouts (and
  // drives the overlay radio). run_until (not advance_to) so cancelled
  // timeout entries from the previous round are reclaimed instead of
  // accumulating one per session per round for the runner's lifetime.
  coordinator_queue_.run_until(at);

  const auto judge = [this, &result](
      const attest::AttestationService::SessionOutcome& outcome) {
    // An aggregated outcome carries no per-measurement history: the
    // head's healthy bit stands in for freshness (the head judged the
    // member against its own latest digest this round).
    const bool healthy = outcome.report.device_trustworthy() &&
                         (outcome.report.freshness.has_value() ||
                          outcome.aggregated);
    if (healthy) {
      ++result.healthy;
    } else {
      ++result.flagged;
    }
    // The engine attributes failed verdicts to campaigns (detection
    // latency starts its clock at infection, stops here).
    if (engine_) engine_->on_verdict(outcome.device, healthy, outcome.at);
  };

  if (config_.backend == CollectionBackend::kDirect) {
    // Single-threaded: mobility's lazy trajectory extension shares one
    // RNG, so it must only ever be queried here, in deterministic order.
    const swarm::Topology topo = mobility_.snapshot(at);
    // The walk crosses only edges between active devices (departed and
    // dark ones relay nothing) that no scheduled partition cuts, like the
    // overlay's link filter. link_allowed is symmetric, so this is the BFS
    // tree of the graph with those edges removed.
    const auto tree = topo.bfs_tree(
        config_.root, [this, at](swarm::DeviceId a, swarm::DeviceId b) {
          return active(a) && active(b) &&
                 (!engine_ || engine_->link_allowed(a, b, at));
        });

    std::vector<attest::DeviceId> targets;
    targets.reserve(stacks_.size());
    for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
      if (!active(id) || !tree.parent[id].has_value()) continue;
      targets.push_back(id);
    }
    // Over the DirectTransport every session completes synchronously at
    // `at`, in global id order.
    const auto outcomes =
        service_->collect_now(targets, static_cast<uint32_t>(config_.k));
    result.reachable = outcomes.size();
    for (const auto& outcome : outcomes) judge(outcome);
    if (energy_meter_) {
      // No radio Network under kDirect, so charge the session's wire bytes
      // here: each served device heard one request and transmitted one
      // k-record report. A device this charge kills still answered THIS
      // round (the radio browned out transmitting the report).
      const size_t report_bytes =
          kDirectReportHeaderBytes + config_.k * kDirectRecordBytes;
      for (const attest::DeviceId id : targets) {
        energy::DeviceMeter& m = energy_meter_->device(id);
        bool out = m.charge_rx(kDirectRequestBytes, at);
        out = m.charge_tx(report_bytes, at) || out;
        if (out) stacks_[id].prover->stop();
      }
    }
    return result;
  }

  // kOverlay: flood the round over the radio and listen until the
  // deadline; who is "reachable" is decided by the packets, not a
  // topology oracle. Devices that left the fleet are radio-silent (the
  // link filter mutes them), so their sessions resolve as unreachable.
  std::vector<attest::DeviceId> targets;
  targets.reserve(stacks_.size());
  for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
    if (present_[id]) targets.push_back(id);
  }
  round_outcomes_.clear();
  service_->collect_now(targets, static_cast<uint32_t>(config_.k));
  coordinator_queue_.run_until(at + config_.overlay.collect_deadline);
  // Sessions still unresolved at the deadline missed this round; late
  // reports surface as stale/stray datagrams and cannot disturb the next
  // round's floods.
  if (service_->round_in_progress()) service_->stop();
  for (const auto& outcome : round_outcomes_) {
    if (!outcome.reachable) continue;
    ++result.reachable;
    judge(outcome);
  }
  round_outcomes_.clear();
  return result;
}

std::vector<FleetRoundResult> ShardedFleetRunner::run(MetricsSink& sink) {
  if (started_) {
    throw std::logic_error("ShardedFleetRunner: run() called twice");
  }
  started_ = true;
  for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
    if (!present_[id]) continue;
    if (config_.plan.staggered) {
      stacks_[id].prover->start(swarm::stagger_offset(
          swarm::nominal_tm(specs_[id]), id, stacks_.size()));
    } else {
      stacks_[id].prover->start();
    }
  }

  std::vector<FleetRoundResult> results;
  results.reserve(config_.rounds);
  const bool trace_runner =
      trace_ && trace_->enabled(obs::Subsystem::kRunner);
  for (size_t round = 1; round <= config_.rounds; ++round) {
    const sim::Time barrier =
        sim::Time::zero() + config_.round_interval * round;
    advance_all(barrier);
    // Barrier: drain the shards' device events BEFORE any coordinator
    // event of this round, so the merged order is partition-independent.
    if (trace_) trace_->merge_shards();
    // Adversary itinerary instants for the interval just simulated
    // (timestamps inside it, like the dark sweep's) -- after the shard
    // merge, before this round's coordinator events.
    if (engine_) engine_->emit_trace(barrier);
    const auto coord_start = std::chrono::steady_clock::now();
    if (trace_runner) {
      trace_->span_begin(obs::Subsystem::kRunner, barrier, "collect",
                         {{"round", static_cast<uint64_t>(round)}});
    }
    if (energy_meter_) {
      // The idle floor for the interval just simulated, then a sweep so
      // measurement- or sleep-exhausted devices are dark BEFORE this
      // round's topology/flood decisions see them.
      for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
        if (present_[id]) {
          energy_meter_->device(id).charge_sleep(config_.round_interval,
                                                 barrier);
        }
      }
      sweep_dark();
    }
    if (round_hook_) round_hook_(*this, round, barrier);
    const OverlayTotals before = overlay_totals();
    const overlay::RelayTransport::Stats transport_before =
        relay_transport_ ? relay_transport_->stats()
                         : overlay::RelayTransport::Stats{};
    const AggregateCounters agg_before = agg_counters_;
    FleetRoundResult r = collect_round(round, barrier);
    if (energy_meter_) {
      sweep_dark();  // radio/direct transitions from this collection
      r.dark = energy_meter_->dark_count();
    }
    results.push_back(r);
    if (trace_runner) {
      trace_->span_end(obs::Subsystem::kRunner, coordinator_queue_.now(),
                       "collect",
                       {{"round", static_cast<uint64_t>(round)},
                        {"present", static_cast<uint64_t>(r.present)},
                        {"reachable", static_cast<uint64_t>(r.reachable)},
                        {"healthy", static_cast<uint64_t>(r.healthy)},
                        {"flagged", static_cast<uint64_t>(r.flagged)}});
    }
    // The "dark" column only exists on metered runs, so unmetered output
    // stays byte-for-byte what it was before energy metering existed.
    Row rounds_row = {
        {"round", static_cast<uint64_t>(r.round)},
        {"t_min", static_cast<uint64_t>(r.at.ns() / 60'000'000'000ull)},
        {"present", static_cast<uint64_t>(r.present)},
        {"reachable", static_cast<uint64_t>(r.reachable)},
        {"healthy", static_cast<uint64_t>(r.healthy)},
        {"flagged", static_cast<uint64_t>(r.flagged)}};
    if (energy_meter_) {
      rounds_row.push_back({"dark", static_cast<uint64_t>(r.dark)});
    }
    sink.row("rounds", rounds_row);
    emit_window_round(sink, round, transport_before);
    if (config_.backend == CollectionBackend::kOverlay) {
      emit_overlay_round(sink, round, before);
      if (config_.overlay.aggregation.enabled) {
        emit_aggregate_round(sink, round, agg_before, transport_before);
      }
    }
    emit_energy_round(sink, round);
    emit_adversary_round(sink, round, before);
    sync_channel_metrics(barrier);
    emit_metrics_round(sink, round);
    phases_.record_coordinator(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - coord_start)
            .count());
  }
  return results;
}

void ShardedFleetRunner::emit_window_round(
    MetricsSink& sink, size_t round,
    const overlay::RelayTransport::Stats& before) {
  // The service resets round stats at each round start, so these are the
  // collection we just ran -- the window trajectory the AIMD controller
  // took, and how deep the dispatch pipeline actually got.
  const attest::AttestationService::RoundStats& rs = service_->round_stats();
  sink.row("window",
           {{"round", static_cast<uint64_t>(round)},
            {"window_min", rs.window_min},
            {"window_max", rs.window_max},
            {"window_final", rs.window_final},
            {"max_in_flight", rs.max_in_flight},
            {"retries", rs.retries},
            {"loss_backoffs", rs.loss_backoffs},
            {"congestion_backoffs", rs.congestion_backoffs}});
  if (config_.backend != CollectionBackend::kOverlay ||
      !config_.overlay.scoped_retries) {
    return;
  }
  // Scoped-retry economy as per-round deltas: how many retries rode a
  // cached route, how many had to fall back, and how often a route broke
  // mid-unicast.
  const overlay::RelayTransport::Stats& now = relay_transport_->stats();
  sink.row("scoped_retry",
           {{"round", static_cast<uint64_t>(round)},
            {"scoped", now.scoped_sent - before.scoped_sent},
            {"fallback_floods",
             now.targeted_floods - before.targeted_floods},
            {"no_route", now.scoped_fallbacks - before.scoped_fallbacks},
            {"naks", now.naks_received - before.naks_received}});
}

ShardedFleetRunner::OverlayTotals ShardedFleetRunner::overlay_totals() const {
  OverlayTotals totals;
  if (config_.backend != CollectionBackend::kOverlay) return totals;
  for (const auto& node : relay_nodes_) {
    const overlay::RelayNode::Stats& s = node->stats();
    totals.floods_seen += s.floods_seen;
    totals.floods_forwarded += s.floods_forwarded;
    totals.reports_relayed += s.reports_relayed;
    totals.reports_dropped += s.reports_dropped;
    totals.reports_orphaned += s.reports_orphaned;
    totals.route_repairs += s.route_repairs;
    totals.malformed_frames += s.malformed_frames;
    totals.scoped_forwarded += s.scoped_forwarded;
    totals.naks += s.naks_sent;
    totals.heads_elected += s.heads_elected;
    totals.reports_absorbed += s.reports_absorbed;
    totals.aggregates_built += s.aggregates_built;
    totals.aggregates_relayed += s.aggregates_relayed;
    totals.aggregates_dark_purged += s.aggregates_dark_purged;
    totals.dropped_adversarial += s.dropped_adversarial;
    totals.corrupted_adversarial += s.corrupted_adversarial;
    totals.sybil_injected += s.sybil_injected;
  }
  const overlay::RelayTransport::Stats& t = relay_transport_->stats();
  totals.malformed_frames += t.malformed_frames;
  totals.duplicate_reports += t.duplicate_reports;
  totals.stale_reports += t.stale_reports;
  totals.spoofed_rejected += t.spoofed_rejected;
  totals.scoped_sent += t.scoped_sent;
  totals.aggregates_received += t.aggregates_received;
  totals.duplicate_aggregates += t.duplicate_aggregates;
  totals.hops = relay_transport_->hop_histogram();
  return totals;
}

void ShardedFleetRunner::emit_overlay_round(MetricsSink& sink, size_t round,
                                            const OverlayTotals& before) {
  // Per-round per-hop behaviour as deltas of the cumulative counters: one
  // "overlay" row per round, plus the round's hop-count distribution.
  const OverlayTotals now = overlay_totals();
  sink.row(
      "overlay",
      {{"round", static_cast<uint64_t>(round)},
       {"floods_seen", now.floods_seen - before.floods_seen},
       {"floods_forwarded", now.floods_forwarded - before.floods_forwarded},
       {"reports_relayed", now.reports_relayed - before.reports_relayed},
       {"reports_dropped", now.reports_dropped - before.reports_dropped},
       {"route_repairs", now.route_repairs - before.route_repairs},
       {"malformed_frames", now.malformed_frames - before.malformed_frames},
       {"duplicate_reports",
        now.duplicate_reports - before.duplicate_reports},
       {"stale_reports", now.stale_reports - before.stale_reports}});
  for (size_t h = 0; h < now.hops.size(); ++h) {
    const uint64_t prev = h < before.hops.size() ? before.hops[h] : 0;
    if (now.hops[h] == prev) continue;  // no reports at this depth
    sink.row("hops", {{"round", static_cast<uint64_t>(round)},
                      {"hops", static_cast<uint64_t>(h)},
                      {"reports", now.hops[h] - prev}});
  }
}

void ShardedFleetRunner::emit_aggregate_round(
    MetricsSink& sink, size_t round, const AggregateCounters& before,
    const overlay::RelayTransport::Stats& transport_before) {
  // The round's hierarchical-collection economy: how many clusters
  // reported, how many sessions their bitmaps closed, and what the
  // bitmap+root encoding saved over relaying every report raw.
  const AggregateCounters& now = agg_counters_;
  const overlay::RelayTransport::Stats& t = relay_transport_->stats();
  const attest::AttestationService::RoundStats& rs = service_->round_stats();
  const uint64_t wire = t.aggregate_wire_bytes -
                        transport_before.aggregate_wire_bytes;
  const uint64_t raw = t.aggregate_raw_bytes -
                       transport_before.aggregate_raw_bytes;
  sink.row("aggregate",
           {{"round", static_cast<uint64_t>(round)},
            {"clusters", now.clusters - before.clusters},
            {"members", now.members - before.members},
            {"healthy_bits", now.healthy_bits - before.healthy_bits},
            {"aggregated_sessions", rs.aggregated_sessions},
            {"demand_fetches", rs.demand_fetches},
            {"auth_failures", now.auth_failures - before.auth_failures},
            {"raw_bytes", raw},
            {"wire_bytes", wire},
            {"compression",
             wire > 0 ? static_cast<double>(raw) / static_cast<double>(wire)
                      : 0.0}});
}

void ShardedFleetRunner::emit_energy_round(MetricsSink& sink, size_t round) {
  if (!energy_meter_) return;
  const energy::FleetMeter::Totals now = energy_meter_->totals();
  const size_t dark = energy_meter_->dark_count();
  // Per-round joule economy as deltas: where did this round's energy go?
  sink.row("energy",
           {{"round", static_cast<uint64_t>(round)},
            {"cpu_mj", now.cpu_mj - last_energy_totals_.cpu_mj},
            {"tx_mj", now.tx_mj - last_energy_totals_.tx_mj},
            {"rx_mj", now.rx_mj - last_energy_totals_.rx_mj},
            {"sleep_mj", now.sleep_mj - last_energy_totals_.sleep_mj},
            {"dark", static_cast<uint64_t>(dark)},
            {"went_dark", static_cast<uint64_t>(dark - last_dark_)}});
  // Gauges ride the generic "metrics" snapshot (registration idempotent).
  metrics_.gauge("energy", "fleet_cpu_j").set(now.cpu_mj / 1e3);
  metrics_.gauge("energy", "fleet_tx_j").set(now.tx_mj / 1e3);
  metrics_.gauge("energy", "fleet_rx_j").set(now.rx_mj / 1e3);
  metrics_.gauge("energy", "fleet_sleep_j").set(now.sleep_mj / 1e3);
  metrics_.gauge("energy", "dark_devices").set(static_cast<double>(dark));
  if (energy_meter_->device(0).capacity_nj() > 0) {
    // Battery health distribution, one observation per present device per
    // round (cumulative, like every histogram in the registry).
    obs::Histogram& remaining = metrics_.histogram(
        "energy", "battery_remaining", {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
    for (swarm::DeviceId id = 0; id < stacks_.size(); ++id) {
      if (!present_[id]) continue;
      remaining.observe(energy_meter_->device(id).remaining_fraction());
    }
  }
  last_energy_totals_ = now;
  last_dark_ = dark;
}

void ShardedFleetRunner::emit_adversary_round(MetricsSink& sink, size_t round,
                                              const OverlayTotals& before) {
  if (!engine_) return;
  // Campaign progress as deltas of the engine's cumulative counters;
  // `active` is a gauge (legs resident right now) and the latency column
  // is the cumulative mean over detected chains. Columns are fixed --
  // zeros where a family is off -- so the table's shape never depends on
  // which attacks fired.
  const adversary::Engine::Snapshot now = engine_->snapshot();
  const OverlayTotals totals = overlay_totals();
  sink.row(
      "adversary",
      {{"round", static_cast<uint64_t>(round)},
       {"infections", now.infections - last_adversary_.infections},
       {"migrations", now.migrations - last_adversary_.migrations},
       {"evasions", now.evasions - last_adversary_.evasions},
       {"captures", now.captures - last_adversary_.captures},
       {"detections", now.detections - last_adversary_.detections},
       {"active", now.active},
       {"detection_latency_ms", now.mean_detection_latency_ms},
       {"dropped_adversarial",
        totals.dropped_adversarial - before.dropped_adversarial},
       {"corrupted_adversarial",
        totals.corrupted_adversarial - before.corrupted_adversarial},
       {"sybil_injected", totals.sybil_injected - before.sybil_injected},
       {"spoofed_rejected",
        totals.spoofed_rejected - before.spoofed_rejected}});
  last_adversary_ = now;
}

void ShardedFleetRunner::sync_channel_metrics(sim::Time at) {
  const net::ShardChannels* channels = direct_transport_.channels();
  if (channels == nullptr || channel_inst_.frames_local == nullptr) return;
  const net::ShardChannels::Counters& now = channels->counters();
  const uint64_t local = now.frames_local - last_channel_.frames_local;
  const uint64_t cross = now.frames_cross - last_channel_.frames_cross;
  const uint64_t drains = now.drains - last_channel_.drains;
  channel_inst_.frames_local->add(local);
  channel_inst_.frames_cross->add(cross);
  channel_inst_.drains->add(drains);
  last_channel_ = now;
  if (trace_ && trace_->enabled(obs::Subsystem::kRunner) &&
      (local + cross + drains) > 0) {
    trace_->instant(obs::Subsystem::kRunner, at, "channel_drain",
                    {{"frames_local", local},
                     {"frames_cross", cross},
                     {"drains", drains}});
  }
}

void ShardedFleetRunner::emit_metrics_round(MetricsSink& sink, size_t round) {
  // Cumulative-to-date values in registration order: differencing is the
  // analyst's job, determinism (same rows at any thread count) is ours.
  for (const obs::Registry::Sample& s : metrics_.snapshot()) {
    const char* kind = "counter";
    if (s.kind == obs::Registry::Kind::kGauge) kind = "gauge";
    if (s.kind == obs::Registry::Kind::kHistogram) kind = "histogram";
    sink.row("metrics", {{"round", static_cast<uint64_t>(round)},
                         {"subsystem", s.subsystem},
                         {"name", s.name},
                         {"kind", std::string(kind)},
                         {"value", s.value}});
    for (const auto& [le, count] : s.buckets) {
      sink.row("metrics_hist", {{"round", static_cast<uint64_t>(round)},
                                {"subsystem", s.subsystem},
                                {"name", s.name},
                                {"le", le},
                                {"count", count}});
    }
  }
}

}  // namespace erasmus::scenario
