// Cross-module integration tests beyond the per-module suites: the HYDRA
// prover end-to-end, ERASMUS+OD over the network, irregular + lenient
// composition, and an event-queue stress property.
#include <gtest/gtest.h>

#include <algorithm>

#include "attest/prover.h"
#include "attest/verifier.h"
#include "sim/rng.h"

namespace erasmus {
namespace {

using attest::CollectRequest;
using attest::OdRequest;
using attest::Prover;
using attest::ProverConfig;
using attest::Verifier;
using attest::VerifierConfig;
using crypto::MacAlgo;
using sim::Duration;
using sim::Time;

Bytes test_key() { return bytes_of("0123456789abcdef0123456789abcdef"); }

constexpr size_t kRecordBytes = 1 + 8 + 32 + 32;

TEST(HydraIntegration, FullErasmusLoopOnHydra) {
  sim::EventQueue queue;
  hw::HydraArch arch(test_key(), 64 * 1024, 32 * kRecordBytes);
  arch.secure_boot();
  arch.spawn_process("sensor-app", 100);
  ProverConfig pc;
  pc.profile = sim::DeviceProfile::imx6_1ghz();
  pc.algo = MacAlgo::kKeyedBlake2s;
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                pc);
  VerifierConfig vc;
  vc.algo = pc.algo;
  vc.key = test_key();
  vc.golden_digest = crypto::Hash::digest(
      attest::hash_for(pc.algo), arch.memory().view(arch.app_region(), true));
  Verifier verifier(std::move(vc));

  prover.start();
  queue.run_until(Time::zero() + Duration::hours(2));
  EXPECT_EQ(prover.stats().measurements, 12u);

  const auto res = prover.handle_collect(CollectRequest{12});
  const auto report = verifier.verify_collection(res.response, queue.now());
  EXPECT_TRUE(report.device_trustworthy());
  EXPECT_EQ(report.verdicts.size(), 12u);
}

TEST(HydraIntegration, UnbootedHydraCannotMeasure) {
  sim::EventQueue queue;
  hw::HydraArch arch(test_key(), 4096, 16 * kRecordBytes);
  // No secure_boot(): the first scheduled measurement must fault.
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  prover.start();
  EXPECT_THROW(queue.run_until(Time::zero() + Duration::hours(1)),
               hw::SecurityViolation);
}

TEST(NetworkIntegration, ErasmusOdOverSimulatedUdp) {
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 2048, 16 * kRecordBytes);
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  VerifierConfig vc;
  vc.key = test_key();
  vc.golden_digest = crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true));
  Verifier verifier(std::move(vc));

  net::Network network(queue, Duration::millis(3));
  const net::NodeId vrf = network.add_node({});
  const net::NodeId prv = network.add_node({});
  prover.bind(network, prv);

  std::optional<Verifier::OdReport> od_report;
  uint64_t sent_treq = 0;
  network.set_handler(vrf, [&](const net::Datagram& d) {
    const auto framed = attest::unframe(d.payload);
    ASSERT_TRUE(framed.has_value());
    ASSERT_EQ(framed->first, attest::MsgType::kOdResponse);
    const auto resp = attest::OdResponse::deserialize(framed->second);
    ASSERT_TRUE(resp.has_value());
    od_report = verifier.verify_od_response(*resp, queue.now(), sent_treq);
  });

  prover.start();
  queue.schedule_at(Time::zero() + Duration::minutes(45), [&] {
    sent_treq = 45 * 60;  // RROC ticks at that moment
    const OdRequest req = verifier.make_od_request(sent_treq, 3);
    network.send(vrf, prv, attest::frame(attest::MsgType::kOdRequest,
                                         req.serialize()));
  });
  queue.run_until(Time::zero() + Duration::hours(1));

  ASSERT_TRUE(od_report.has_value());
  EXPECT_TRUE(od_report->fresh_valid);
  EXPECT_EQ(od_report->fresh.status, attest::MeasurementStatus::kHealthy);
  EXPECT_EQ(od_report->history.verdicts.size(), 3u);
}

TEST(NetworkIntegration, ForgedOdRequestGetsNoReplyAtAll) {
  // Fig. 4 "abort": rejected requests are silently dropped -- no error
  // message an attacker could use as an oracle or amplifier.
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 2048, 16 * kRecordBytes);
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::make_unique<attest::RegularScheduler>(
                    Duration::minutes(10)),
                ProverConfig{});
  net::Network network(queue, Duration::millis(3));
  size_t replies = 0;
  const net::NodeId attacker =
      network.add_node([&](const net::Datagram&) { ++replies; });
  const net::NodeId prv = network.add_node({});
  prover.bind(network, prv);
  prover.start();

  queue.schedule_at(Time::zero() + Duration::minutes(30), [&] {
    OdRequest req;
    req.treq = 30 * 60;
    req.mac = Bytes(32, 0x42);  // forged
    network.send(attacker, prv,
                 attest::frame(attest::MsgType::kOdRequest, req.serialize()));
  });
  queue.run_until(Time::zero() + Duration::hours(1));
  EXPECT_EQ(replies, 0u);
}

TEST(Composition, IrregularLenientScheduleStillVerifies) {
  // Lenient wrapper around an irregular base: the verifier replays the
  // irregular sequence through the wrapper transparently.
  sim::EventQueue queue;
  hw::SmartPlusArch arch(test_key(), 4096, 1024, 64 * kRecordBytes);
  ProverConfig pc;
  pc.conflict_policy = attest::ConflictPolicy::kAbortAndReschedule;
  auto sched = std::make_unique<attest::LenientScheduler>(
      std::make_unique<attest::IrregularScheduler>(
          test_key(), Duration::minutes(5), Duration::minutes(15)),
      2.0);
  const attest::Scheduler* sched_ptr = sched.get();
  Prover prover(queue, arch, arch.app_region(), arch.store_region(),
                std::move(sched), pc);
  VerifierConfig vc;
  vc.key = test_key();
  vc.golden_digest = crypto::Hash::digest(
      crypto::HashAlgo::kSha256, arch.memory().view(arch.app_region(), true));
  Verifier verifier(std::move(vc));
  const uint64_t t0 = sched_ptr->next_interval(0) / Duration::seconds(1);
  verifier.set_schedule(sched_ptr, t0);

  prover.start();
  queue.run_until(Time::zero() + Duration::hours(6));
  ASSERT_GT(prover.stats().measurements, 20u);
  const auto res = prover.handle_collect(CollectRequest{16});
  const auto report = verifier.verify_collection(res.response, queue.now());
  EXPECT_TRUE(report.device_trustworthy()) << report.note;
}

TEST(EventQueueStress, RandomWorkloadExecutesInOrder) {
  sim::EventQueue queue;
  sim::Rng rng(99);
  std::vector<uint64_t> executed;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t at = rng.next_below(1'000'000);
    ids.push_back(queue.schedule_at(
        Time(at), [&executed, at] { executed.push_back(at); }));
  }
  // Cancel a random 10%.
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 10) {
    cancelled += queue.cancel(ids[i]);
  }
  queue.run();
  EXPECT_EQ(executed.size(), 2000u - cancelled);
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

}  // namespace
}  // namespace erasmus
