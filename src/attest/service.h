// AttestationService: the unified verifier-side collection engine.
//
// One service multiplexes N concurrent collection sessions over one
// verifier endpoint -- the paper's one-verifier/many-unattended-provers
// shape (§3, §6). Each session runs the Fig. 2 loop as a small state
// machine (request -> timeout -> retry -> report or unreachable), judged
// by the shared verifier core against the device's DeviceRecord, and
// appended to that device's AuditLog. Batched rounds dispatch through a
// bounded in-flight window so a million-device round never floods the
// transport.
//
// Round policies:
//  * periodic    -- start() schedules a full-directory round every T_C,
//                   the Fig. 2 collection daemon, over a whole fleet.
//  * single-shot -- collect_now() runs one round over a chosen device set
//                   at the current instant; over a DirectTransport every
//                   session completes synchronously (the
//                   ShardedFleetRunner kDirect round semantics).
//  * on-demand   -- ServiceConfig::kind = kOnDemand makes rounds send
//                   authenticated ERASMUS+OD requests (Fig. 4) instead of
//                   plain collect requests.
//
// Responses are only accepted from the node a session is awaiting, with
// the MsgType the round expects, and only while the session is in flight;
// spoofed sources, stray/duplicate datagrams and undecodable payloads are
// counted and dropped without disturbing the session (the timeout/retry
// machinery recovers).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "attest/audit.h"
#include "attest/directory.h"
#include "attest/transport.h"
#include "attest/window.h"
#include "common/parallel.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace erasmus::attest {

/// Which exchange a round runs per device.
enum class RoundKind : uint8_t {
  kCollect,   // Fig. 2: unauthenticated "collect k"
  kOnDemand,  // Fig. 4: authenticated t_req/k request, fresh M_0 + history
};

struct ServiceConfig {
  sim::Duration tc = sim::Duration::hours(1);  // periodic round interval
  uint32_t k = 8;                              // records per request
  sim::Duration response_timeout = sim::Duration::seconds(2);
  int max_retries = 2;      // per session, after the first attempt
  /// Bounded dispatch window per round: fixed (window.fixed slots,
  /// the default) or AIMD-adaptive (window.adaptive = true; see
  /// attest/window.h). Loss timeouts and relay-queue congestion damp an
  /// adaptive window; on-time responses grow it back.
  WindowConfig window;
  RoundKind kind = RoundKind::kCollect;
  /// Keep full per-device audit logs. Turn off for huge fleets where the
  /// caller aggregates through the observer instead.
  bool keep_audit = true;
  /// Flight recorder for round/dispatch/window events (categories kService
  /// and kWindow). Not owned; nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Metrics registry; the service registers its session counters and the
  /// per-device response-latency histogram under subsystem "service" (the
  /// window trajectory gauge under "window"). Not owned; nullptr = off.
  obs::Registry* metrics = nullptr;
  /// Verifier-core executor for batched report verification (kCollect
  /// rounds). Responses a broadcast delivers synchronously are taken in
  /// without judging, their MACs verified in bulk after the broadcast
  /// returns -- chunked per MAC algorithm, so each worker runs one arch
  /// family's code path -- and the sessions then completed in intake
  /// order. Verdicts, stats and traces are byte-identical to the inline
  /// per-session path (verification is a pure function; only its wall
  /// placement moves). Asynchronous transports are unaffected: their
  /// responses arrive outside any broadcast and verify inline as before.
  /// Not owned; nullptr = always verify inline.
  common::ParallelExecutor* verify_executor = nullptr;
};

class AttestationService {
 public:
  /// Everything a finished session establishes; streamed to the observer
  /// and returned by collect_now() for synchronously-completed sessions.
  struct SessionOutcome {
    DeviceId device = 0;
    sim::Time at;              // completion time
    bool reachable = false;    // false: retry budget exhausted
    int attempts = 0;
    CollectionReport report;   // empty when unreachable
    /// kOnDemand only: fresh measurement authentic and current.
    bool fresh_valid = false;
    /// Completed via a cluster head's healthy bit (hierarchical
    /// collection): the report is an empty placeholder -- the head
    /// vouched for the digest, not for per-measurement history.
    bool aggregated = false;
  };
  using Observer = std::function<void(const SessionOutcome&)>;

  /// Lifetime counters, accumulated across every round the service ran.
  struct Stats {
    uint64_t rounds = 0;
    uint64_t sessions = 0;
    uint64_t responses = 0;
    uint64_t retries = 0;
    uint64_t unreachable_sessions = 0;
    /// Spoofed source, unexpected MsgType, undecodable or duplicate
    /// responses -- dropped without touching any session.
    uint64_t stray_datagrams = 0;
    /// Lifetime high-water mark; RoundStats::max_in_flight has the
    /// per-round value.
    uint64_t max_in_flight_seen = 0;
    /// Adaptive-window backoffs (0 when the window is fixed).
    uint64_t loss_backoffs = 0;
    uint64_t congestion_backoffs = 0;
    /// Hierarchical collection: sessions closed by a head's healthy bit,
    /// and per-device evidence fetches forced by a cleared bit.
    uint64_t aggregated_sessions = 0;
    uint64_t demand_fetches = 0;
  };

  /// Per-round counters, reset when a round begins (a periodic round, a
  /// collect_now). Unlike Stats these describe ONE round, so scenario
  /// metric tables can emit round rows without differencing lifetime
  /// counters.
  struct RoundStats {
    uint64_t sessions = 0;
    uint64_t responses = 0;
    uint64_t retries = 0;
    uint64_t unreachable_sessions = 0;
    uint64_t max_in_flight = 0;
    /// Window trajectory inside the round: smallest/largest value the
    /// AIMD controller visited, and the window at round end (== the fixed
    /// size when adaptivity is off).
    uint64_t window_min = 0;
    uint64_t window_max = 0;
    uint64_t window_final = 0;
    uint64_t loss_backoffs = 0;
    uint64_t congestion_backoffs = 0;
    uint64_t aggregated_sessions = 0;
    uint64_t demand_fetches = 0;
  };

  /// The service takes exclusive ownership of `transport`'s receiver:
  /// exactly one service per transport instance (a second one would
  /// silently steal the first one's deliveries).
  AttestationService(sim::EventQueue& queue, Transport& transport,
                     DeviceDirectory& directory, ServiceConfig config);
  /// Cancels pending timeouts and detaches from the transport so nothing
  /// fires into a destroyed service if the queue keeps running.
  ~AttestationService();

  // --- Periodic policy -------------------------------------------------------
  /// Schedules the first full-directory round one T_C from now.
  void start();
  /// Quiesces immediately: cancels the next round AND aborts in-flight
  /// sessions (nothing further is sent or recorded; late responses count
  /// as stray datagrams).
  void stop();

  // --- Single-shot policy ----------------------------------------------------
  /// Runs one round over `devices` (ids into the directory) right now,
  /// requesting `k` records each (nullopt: config k). Returns the outcomes
  /// of sessions that completed before this call returned -- all of them
  /// over a DirectTransport whose targets are attached and reply (a silent
  /// direct endpoint resolves later through the timeout path, like any
  /// lost datagram); typically none over a NetworkTransport, where results
  /// arrive later via the observer and audit logs as the caller runs the
  /// event queue.
  std::vector<SessionOutcome> collect_now(
      const std::vector<DeviceId>& devices,
      std::optional<uint32_t> k = std::nullopt);

  bool round_in_progress() const { return round_active_; }

  // --- Hierarchical collection ----------------------------------------------
  /// Closes `node`'s in-flight session on the strength of a cluster
  /// head's healthy bit (caller has already authenticated the aggregate).
  /// The outcome carries an empty report with `aggregated` set -- the
  /// head vouched for the digest, not for history or freshness. Returns
  /// false (counted as a stray) when no session awaits the node.
  bool complete_aggregated(net::NodeId node);
  /// A cleared bit (or root mismatch) demands the device's raw evidence:
  /// spends one retry NOW as a scoped per-device send instead of waiting
  /// for the session's timeout. With the retry budget already exhausted
  /// the session is left to its armed timeout. Returns false when no
  /// session awaits the node.
  bool demand_fetch(net::NodeId node);

  /// Per-device longitudinal record. Empty when keep_audit is off or no
  /// round has reached the device yet.
  const AuditLog& log(DeviceId id) const {
    static const AuditLog kEmpty;
    return id < logs_.size() ? logs_[id] : kEmpty;
  }

  /// Streamed per-session results (scenario metrics bridge). The observer
  /// runs at session completion time, after the audit log was appended.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  const Stats& stats() const { return stats_; }
  /// Stats of the round in progress (or the last finished round).
  const RoundStats& round_stats() const { return round_stats_; }
  /// Current dispatch window (moves only when window.adaptive is set).
  size_t window() const { return window_ctl_.window(); }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Session {
    DeviceId device = 0;
    net::NodeId node = 0;
    int attempts = 0;
    /// Dispatch instant of the FIRST attempt; completion minus this is the
    /// per-device response latency the obs histogram records.
    sim::Time started;
    /// WindowController stamp of the LATEST attempt; a timeout reports
    /// it so correlated losses of one dispatch wave cut the window once.
    uint64_t send_seq = 0;
    /// kOnDemand: the FIRST attempt's request timestamp. Responses are
    /// judged against it so a slow answer to attempt 1 arriving after a
    /// retry is still fresh-since-we-asked, not "tampering".
    uint64_t treq = 0;
    /// Batched verify: a response for this session sits in verify_intake_
    /// awaiting the bulk MAC pass; a second response meanwhile is a
    /// duplicate (stray), exactly as the inline path would count it.
    bool intaken = false;
    std::optional<sim::EventId> timeout;
  };

  void begin_periodic_round();
  /// Throws (round in progress, duplicate/unknown target) BEFORE any
  /// member state is mutated, so callers stay consistent on failure.
  void admit_round(const std::vector<DeviceId>& devices);
  void begin_round(const std::vector<DeviceId>& devices, uint32_t k);
  /// Dispatches pending sessions up to the in-flight window, batching
  /// identical first-attempt requests into one transport broadcast.
  void pump();
  void send_attempt(Session& session);
  /// Retry coalescing over flood transports: a dispatch wave's sessions
  /// time out at the same instant, so their retries are collected here
  /// and flushed as ONE broadcast (one re-flood instead of one per
  /// device) by a zero-delay event that runs after the whole wave's
  /// timeouts (FIFO within a timestamp).
  void queue_retry(Session& session);
  void flush_retries();
  void arm_timeout(Session& session);
  void on_receive(net::NodeId src, MsgType type, ByteView body);
  void on_timeout(net::NodeId node);
  /// Drains the transport's relay-queue occupancy signal and damps an
  /// adaptive window when it crosses the configured threshold.
  void poll_congestion();
  /// Mirrors the controller's window trajectory into round_stats_ (and the
  /// obs window gauge).
  void sync_window_stats();
  /// Registers the service's obs instruments (no-op without a registry).
  void register_instruments();
  /// kWindow category instant with the current window attached.
  void trace_window(const char* name, const char* reason);
  void complete(net::NodeId node, bool reachable, CollectionReport report,
                bool fresh_valid, bool aggregated = false);
  /// Bulk-verifies everything in verify_intake_ on the verify executor
  /// (chunked, grouped by MAC algorithm) and completes the sessions in
  /// intake order -- the exact order the inline path would have judged
  /// them. Runs after a broadcast returns, inside the pump's guard.
  void flush_deferred_verifies();
  void finish_round();

  sim::EventQueue& queue_;
  Transport& transport_;
  DeviceDirectory& directory_;
  ServiceConfig config_;

  std::vector<AuditLog> logs_;  // indexed by DeviceId; grown on demand
  Observer observer_;

  bool running_ = false;  // periodic policy armed
  std::optional<sim::EventId> next_round_event_;

  std::deque<DeviceId> pending_;
  uint32_t round_k_ = 0;  // one uniform k per round, by construction
  /// Batched verify (kCollect over synchronous transports): responses
  /// delivered DURING a broadcast are parked here instead of being judged
  /// inline, then flushed through the verify executor in one bulk pass.
  struct PendingVerify {
    net::NodeId node = 0;
    DeviceId device = 0;
    CollectResponse resp;
  };
  std::vector<PendingVerify> verify_intake_;
  bool defer_verify_ = false;  // true only while a broadcast is on the stack
  std::vector<net::NodeId> retry_batch_;
  std::optional<sim::EventId> retry_flush_event_;
  std::unordered_map<net::NodeId, Session> active_;
  size_t in_flight_ = 0;
  bool pumping_ = false;
  bool round_active_ = false;
  bool round_periodic_ = false;
  std::vector<SessionOutcome>* sync_outcomes_ = nullptr;

  WindowController window_ctl_{WindowConfig{}};
  Stats stats_;
  RoundStats round_stats_;

  /// obs instruments (all null without ServiceConfig::metrics).
  struct {
    obs::Counter* sessions = nullptr;
    obs::Counter* responses = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* unreachable = nullptr;
    obs::Counter* stray_datagrams = nullptr;
    obs::Counter* loss_backoffs = nullptr;
    obs::Counter* congestion_backoffs = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Gauge* window = nullptr;
  } inst_;
};

}  // namespace erasmus::attest
