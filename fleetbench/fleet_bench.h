// fleetbench: the repeated-run fleet benchmark's core.
//
// One "rep" builds a scenario::ShardedFleetRunner for a named workload and
// seed, runs it, and reports host times plus the run's exact,
// simulation-derived outputs. Everything is measured from OUTSIDE the
// runner, through its public surface only:
//  * the constructor (fleet build, `setup_s`);
//  * the round hook, which fires after the shard advance and before
//    collection;
//  * a pass-through MetricsSink that timestamps the "rounds" row (end of
//    collection) and the round's last row (end of emission);
//  * the public accessors after run() (work counters);
//  * timed calls into attest:: and swarm:: public functions (layer probes).
// An untraced rep installs none of the span instrumentation, so its end-to-
// end figures carry no tracing cost; a traced rep adds the spans and the
// layer probes, and the difference between the two is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/metrics.h"
#include "scenario/sharded_runner.h"

namespace fleetbench {

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The runner config for `workload` at `seed`, with `threads` set to the
/// workload's timed thread count (one). Throws std::invalid_argument naming an
/// unknown workload.
erasmus::scenario::ShardedFleetConfig make_config(std::string_view workload,
                                                  uint64_t seed);

/// One recorded span: [start, end) in microseconds since the rep began.
/// `cause` names the span that caused it; all spans of one rep share the
/// rep's run id.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t round = 0;  // 0 = not tied to a round
  std::string cause;
};

/// Pass-through sink: forwards every call to `inner` unchanged and stamps
/// the wall time of each "rounds" row and of the latest row of any table.
class TimingSink : public erasmus::scenario::MetricsSink {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimingSink(erasmus::scenario::MetricsSink& inner)
      : inner_(inner) {}

  void begin_run(std::string_view scenario) override {
    inner_.begin_run(scenario);
  }
  void note(std::string_view key, erasmus::scenario::Value value) override {
    inner_.note(key, std::move(value));
  }
  void row(std::string_view table,
           const erasmus::scenario::Row& r) override;
  void end_run() override { inner_.end_run(); }

  /// End of collection per round, in "rounds" row order.
  const std::vector<Clock::time_point>& rounds_rows() const {
    return rounds_rows_;
  }
  /// The most recent row of any table (end of emission so far).
  Clock::time_point last_row() const { return last_row_; }

 private:
  erasmus::scenario::MetricsSink& inner_;
  std::vector<Clock::time_point> rounds_rows_;
  Clock::time_point last_row_{};
};

/// Per-round span boundaries, measured outside the runner. Round r's
/// advance runs from the previous round's last row (or run() entry) to the
/// round hook; collect from the hook to the "rounds" row; emit from there
/// to the round's last row.
class RoundSpans {
 public:
  using Clock = std::chrono::steady_clock;

  /// Installs the round hook on `runner`; `sink` must be the sink run()
  /// writes to. Call begin() immediately before run() and end()
  /// immediately after it.
  RoundSpans(erasmus::scenario::ShardedFleetRunner& runner,
             const TimingSink& sink);
  // The runner's hook holds `this`.
  RoundSpans(const RoundSpans&) = delete;
  RoundSpans& operator=(const RoundSpans&) = delete;

  void begin() { run_start_ = Clock::now(); }
  void end();

  /// One round's boundaries, in microseconds since run() entry.
  struct Round {
    double advance_start_us = 0.0;
    double collect_start_us = 0.0;  // the round hook
    double emit_start_us = 0.0;     // the "rounds" row
    double emit_end_us = 0.0;       // the round's last row
  };
  const std::vector<Round>& rounds() const { return rounds_; }
  Clock::time_point run_start() const { return run_start_; }

 private:
  void close_round(Clock::time_point emit_end);

  const TimingSink& sink_;
  Clock::time_point run_start_{};
  Clock::time_point advance_start_{};
  std::vector<Clock::time_point> hooks_;
  std::vector<Round> rounds_;
};

/// One rep's results. `outputs` are simulation-derived and must be
/// identical at every thread count and on every host; `work` counters
/// measure effort (they may legitimately change when an optimisation makes
/// a layer do less) and are reported, not checked.
struct RepResult {
  std::string workload;
  uint64_t seed = 0;
  size_t threads = 0;
  bool traced = false;

  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t collections = 0;  // sum of `reachable` over rounds

  std::vector<erasmus::scenario::FleetRoundResult> rounds;
  std::string metrics_json;    // the run's full JsonSink output
  std::string metrics_sha256;  // and its digest
  std::map<std::string, double> outputs;
  std::map<std::string, double> work;
  /// Host-time per-layer figures (traced reps only, plus the phase
  /// profile, which the runner always records).
  std::map<std::string, double> layers;
  std::vector<Span> spans;  // traced reps only
};

/// Runs one rep of `cfg`, labelled `workload` (its seed is the plan's key
/// seed). With `traced`, records spans and runs the layer probes after
/// run().
RepResult run_rep(std::string_view workload,
                  const erasmus::scenario::ShardedFleetConfig& cfg,
                  bool traced);

/// The host-speed yardstick: a fixed chain of dependent loads over a
/// 32 MiB random cycle, timed in blocks of 2^20 loads for `seconds`.
/// Returns each block's wall time in seconds. It uses no simulator code,
/// so no change to the simulator moves it; only the host's speed does.
std::vector<double> yardstick(double seconds);

/// One-line JSON rendering of a rep (run.py parses it).
std::string to_json(const RepResult& rep);

/// Chrome trace-event JSON of a traced rep's spans.
std::string chrome_trace(const RepResult& rep, std::string_view run_id);

}  // namespace fleetbench
