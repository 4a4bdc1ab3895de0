// Tests for the periodic collection daemon -- one AttestationService
// overseeing one device over a lossy network, with retries -- and the
// audit log (longitudinal QoA record).
#include <gtest/gtest.h>

#include "attest/prover.h"
#include "attest/service.h"
#include "attest/verifier.h"

namespace erasmus::attest {
namespace {

using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

struct Rig {
  sim::EventQueue queue;
  hw::SmartPlusArch arch;
  Prover prover;
  Verifier verifier;
  net::Network network;
  net::NodeId collector_node;
  net::NodeId prover_node;
  DeviceDirectory directory;
  DeviceId device;
  NetworkTransport transport;
  AttestationService service;

  explicit Rig(double loss = 0.0)
      : arch(test_key(), 4096, 2048, 32 * kRecordBytes),
        prover(queue, arch, arch.app_region(), arch.store_region(),
               std::make_unique<RegularScheduler>(Duration::minutes(10)),
               ProverConfig{}),
        verifier([&] {
          VerifierConfig vc;
          vc.key = test_key();
          vc.golden_digest = crypto::Hash::digest(
              crypto::HashAlgo::kSha256,
              arch.memory().view(arch.app_region(), true));
          return vc;
        }()),
        network(queue, Duration::millis(5), loss, /*seed=*/99),
        collector_node(network.add_node({})),
        prover_node(network.add_node({})),
        device(directory.link(prover_node, &verifier.record())),
        transport(network, collector_node),
        service(queue, transport, directory, daemon_config()) {
    prover.bind(network, prover_node);
  }

  // Every T_C, ask the one device for its 6 freshest records; one session
  // in flight, two retries on a 30 s timeout.
  static ServiceConfig daemon_config() {
    ServiceConfig sc;
    sc.tc = Duration::hours(1);
    sc.k = 6;
    sc.response_timeout = Duration::seconds(30);
    sc.max_retries = 2;
    sc.window.fixed = 1;
    sc.keep_audit = true;
    return sc;
  }

  const AuditLog& log() const { return service.log(device); }
};

TEST(CollectionDaemon, CollectsEveryTcOnReliableNetwork) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(12) +
                      Duration::minutes(1));

  EXPECT_EQ(rig.service.stats().rounds, 12u);
  EXPECT_EQ(rig.service.stats().responses, 12u);
  EXPECT_EQ(rig.service.stats().retries, 0u);
  EXPECT_EQ(rig.service.stats().unreachable_sessions, 0u);
  EXPECT_EQ(rig.log().size(), 12u);
  EXPECT_DOUBLE_EQ(rig.log().trustworthy_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(rig.log().reachable_fraction(), 1.0);
}

TEST(CollectionDaemon, RetriesRecoverFromPacketLoss) {
  Rig rig(/*loss=*/0.3);
  rig.prover.start();
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(48));

  EXPECT_GT(rig.service.stats().retries, 0u) << "30% loss must trigger retries";
  // With 2 retries, P(round lost) = (1 - 0.7^2)^3 ~= 13% worst case; most
  // rounds succeed.
  EXPECT_GT(rig.log().reachable_fraction(), 0.7);
  EXPECT_GT(rig.service.stats().responses, 30u);
}

TEST(CollectionDaemon, DeadProverLoggedUnreachable) {
  Rig rig;
  // Prover never started and handler removed: simulates a dead device.
  rig.network.set_handler(rig.prover_node, {});
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(6));

  EXPECT_GT(rig.service.stats().unreachable_sessions, 3u);
  EXPECT_EQ(rig.service.stats().responses, 0u);
  EXPECT_DOUBLE_EQ(rig.log().reachable_fraction(), 0.0);
}

TEST(CollectionDaemon, StopCancelsPendingWork) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(3) +
                      Duration::minutes(1));
  rig.service.stop();
  const auto rounds = rig.service.stats().rounds;
  rig.queue.run_until(Time::zero() + Duration::hours(12));
  EXPECT_EQ(rig.service.stats().rounds, rounds);
}

TEST(CollectionDaemon, DetectsInfectionThroughTheDaemonPath) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  // Persistent malware at 3.5 h.
  rig.queue.schedule_at(Time::zero() + Duration::minutes(210), [&] {
    rig.prover.memory().write(rig.arch.app_region(), 10, bytes_of("EVIL"),
                              false);
  });
  rig.queue.run_until(Time::zero() + Duration::hours(8));

  const auto first = rig.log().first_infection_seen();
  ASSERT_TRUE(first.has_value());
  // Infection at 3.5 h; next measurement 3:40; next collection 4 h (+net).
  EXPECT_GE(first->ns(), (Time::zero() + Duration::hours(4)).ns());
  EXPECT_LT(first->ns(), (Time::zero() + Duration::hours(5)).ns());
}

TEST(AuditLog, EmpiricalQoAMatchesConfiguration) {
  Rig rig;
  rig.prover.start();
  rig.service.start();
  rig.queue.run_until(Time::zero() + Duration::hours(24) +
                      Duration::minutes(1));

  const auto qoa = rig.log().empirical_qoa();
  EXPECT_EQ(qoa.rounds, 24u);
  // T_M = 10 min; collections land just past the hour: freshness is the
  // network delay above 0 ~ up to T_M. Mean must stay below T_M.
  EXPECT_LT(qoa.mean_freshness.ns(), Duration::minutes(10).ns());
  EXPECT_NEAR(static_cast<double>(qoa.mean_collection_interval.ns()),
              static_cast<double>(Duration::hours(1).ns()),
              static_cast<double>(Duration::minutes(2).ns()));
}

TEST(AuditLog, QueriesOnEmptyLog) {
  AuditLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.first_infection_seen().has_value());
  EXPECT_FALSE(log.first_tampering_seen().has_value());
  EXPECT_DOUBLE_EQ(log.trustworthy_fraction(), 0.0);
  EXPECT_EQ(log.empirical_qoa().rounds, 0u);
}

TEST(AuditLog, FirstTamperingSeen) {
  AuditLog log;
  CollectionReport clean;
  clean.freshness = Duration::minutes(3);
  log.record(Time::zero() + Duration::hours(1), clean);
  CollectionReport tampered;
  tampered.tampering_detected = true;
  log.record(Time::zero() + Duration::hours(2), tampered);
  const auto first = log.first_tampering_seen();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->ns(), (Time::zero() + Duration::hours(2)).ns());
  EXPECT_DOUBLE_EQ(log.trustworthy_fraction(), 0.5);
}

}  // namespace
}  // namespace erasmus::attest
