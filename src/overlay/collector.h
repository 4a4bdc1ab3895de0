// Verifier-side swarm collection driver over the overlay.
//
// The port of the legacy swarm::RelayCollector onto the unified verifier
// stack: where the old collector drove a per-device
// std::vector<attest::Verifier*> with hand-rolled receive/dedup/verify
// logic, this one owns an overlay::RelayTransport and an
// AttestationService over a DeviceDirectory -- the same session machine
// (timeouts, retries, stray handling, audit hooks) every other deployment
// shape uses. run_round() floods one collection round and gathers
// whatever part of the swarm is momentarily reachable (§6).
#pragma once

#include <vector>

#include "attest/directory.h"
#include "attest/service.h"
#include "overlay/relay_transport.h"
#include "swarm/qosa.h"

namespace erasmus::overlay {

struct RelayCollectorConfig {
  RelayTransportConfig transport;
  /// Per-session retry budget inside a round's deadline. Each retry is a
  /// fresh targeted flood, i.e. a route re-discovery.
  int max_retries = 1;
  /// Per-attempt response timeout; floored by the service at twice the
  /// transport's multi-hop latency estimate.
  sim::Duration response_timeout = sim::Duration::seconds(2);
};

class RelayCollector {
 public:
  /// The verifier endpoint is node `self` on `network`; `directory` maps
  /// device ids to their overlay node ids and holds each device's record.
  /// Node ids [0, num_nodes) exist (devices + this endpoint).
  RelayCollector(sim::EventQueue& queue, net::Network& network,
                 net::NodeId self, attest::DeviceDirectory& directory,
                 size_t num_nodes, RelayCollectorConfig config = {});

  struct RoundResult {
    std::vector<swarm::DeviceStatus> statuses;  // indexed by device id
    size_t reports_received = 0;
    sim::Duration elapsed;  // flood to last accepted report
  };

  /// Runs one round to completion: floods a "collect k", advances the
  /// event queue to the deadline, and judges every response through the
  /// shared verifier core. Sessions still unresolved at the deadline are
  /// aborted (the device counts as not attested this round).
  RoundResult run_round(uint32_t k, sim::Duration deadline);

  RelayTransport& transport() { return transport_; }
  const attest::AttestationService& service() const { return service_; }

 private:
  sim::EventQueue& queue_;
  attest::DeviceDirectory& directory_;
  RelayTransport transport_;
  attest::AttestationService service_;

  // Per-round capture, filled by the service observer.
  std::vector<swarm::DeviceStatus> statuses_;
  size_t reports_ = 0;
  sim::Time round_start_;
  sim::Time last_report_at_;
};

}  // namespace erasmus::overlay
