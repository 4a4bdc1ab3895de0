// QoA planning: inverse of the §3.1 metric.
//
// The paper defines QoA in terms of (T_M, T_C) but leaves choosing them to
// "specifics of Prv's mission and its deployment setting". This module
// solves the operator's actual problem:
//
//   "I must detect mobile malware that dwells >= D with probability >= p,
//    flag it within latency <= L, and the battery must last >= B days.
//    What (T_M, T_C, n) should I configure?"
//
// using the closed forms of attest/qoa.h and the energy model of
// sim/energy.h.
//
// energy/planner.h is the other planner and answers a different question.
// It has no hard goal: for a fleet in a given radio deployment it picks the
// T_M, window policy and collection backend that maximise QoA per joule,
// and hands the runner a config. This one keeps the hard bounds, minimises
// energy subject to them, also sizes T_C and the buffer n, and says when
// the goal is infeasible. Neither objective can stand in for the other.
#pragma once

#include <optional>

#include "attest/qoa.h"
#include "crypto/mac.h"
#include "sim/device_profile.h"
#include "sim/energy.h"

namespace erasmus::analysis {

struct QoAGoal {
  /// Minimum dwell time of the malware we must catch.
  sim::Duration min_dwell = sim::Duration::minutes(30);
  /// Required detection probability for a random-phase dwell of min_dwell.
  double min_detection_prob = 0.9;
  /// Worst acceptable infection-to-detection latency (T_M + T_C bound).
  sim::Duration max_detection_latency = sim::Duration::hours(4);
  /// Required battery life in days (0 = mains powered, ignore energy).
  double min_battery_days = 0.0;
  double battery_mwh = 2400.0;  // 2x AA-ish
};

struct DeviceSpec {
  sim::DeviceProfile profile = sim::DeviceProfile::msp430_8mhz();
  sim::EnergyProfile energy = sim::EnergyProfile::msp430();
  crypto::MacAlgo algo = crypto::MacAlgo::kHmacSha256;
  uint64_t attested_bytes = 10 * 1024;
  size_t record_bytes = 1 + 8 + 32 + 32;
};

struct QoAPlan {
  sim::Duration tm;
  sim::Duration tc;
  size_t buffer_slots = 0;  // minimal n with T_C <= n * T_M
  double detection_prob = 0.0;
  sim::Duration worst_case_latency;
  double battery_days = 0.0;
  /// Fraction of wall-clock time the device spends measuring.
  double measurement_duty = 0.0;
};

/// Searches a (T_M, T_C) grid (1 min .. 24 h, geometric steps) for the
/// cheapest configuration (by total energy) meeting every goal. Returns
/// nullopt when no grid point satisfies the goal (e.g. the detection
/// probability demands a T_M whose energy cost breaks the battery bound).
std::optional<QoAPlan> plan_qoa(const QoAGoal& goal, const DeviceSpec& spec);

/// Evaluates one explicit configuration against a goal (all the derived
/// numbers, no search). Useful for what-if tables.
QoAPlan evaluate_qoa(sim::Duration tm, sim::Duration tc,
                     const DeviceSpec& spec);

}  // namespace erasmus::analysis
