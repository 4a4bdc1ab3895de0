// The fleet benchmark's own tests: its instrumentation must not change what
// it measures, its spans must account for run()'s wall time, and the
// outputs it checks must not depend on the thread count.
//
//   python3 fleetbench/run.py --self-test
#include <gtest/gtest.h>

#include <algorithm>

#include "fleet_bench.h"

namespace {

using erasmus::scenario::ShardedFleetConfig;

// Fewer rounds than the real workload where a round repeats the same work,
// so the suite stays short; every other knob is the workload's own.
ShardedFleetConfig test_config(const std::string& workload, size_t rounds) {
  ShardedFleetConfig cfg = fleetbench::make_config(workload, /*seed=*/1);
  cfg.rounds = std::min(cfg.rounds, rounds);
  return cfg;
}

TEST(FleetBench, TimingSinkOutputIsByteIdenticalToPlainJsonSink) {
  for (const std::string& workload : fleetbench::workload_names()) {
    SCOPED_TRACE(workload);
    const ShardedFleetConfig cfg = test_config(workload, 4);
    const fleetbench::RepResult plain =
        fleetbench::run_rep(workload, cfg, /*traced=*/false);
    const fleetbench::RepResult timed =
        fleetbench::run_rep(workload, cfg, /*traced=*/true);
    ASSERT_FALSE(plain.metrics_json.empty());
    EXPECT_EQ(plain.metrics_json, timed.metrics_json);
  }
}

TEST(FleetBench, SpansSumToRunWallTime) {
  for (const std::string& workload : fleetbench::workload_names()) {
    SCOPED_TRACE(workload);
    const ShardedFleetConfig cfg = test_config(workload, 8);
    const fleetbench::RepResult rep =
        fleetbench::run_rep(workload, cfg, /*traced=*/true);
    size_t advance = 0, collect = 0, emit = 0;
    for (const fleetbench::Span& s : rep.spans) {
      advance += s.name == "advance";
      collect += s.name == "collect";
      emit += s.name == "emit";
      EXPECT_LE(s.start_us, s.end_us) << s.name;
    }
    EXPECT_EQ(advance, cfg.rounds);
    EXPECT_EQ(collect, cfg.rounds);
    EXPECT_EQ(emit, cfg.rounds);
    const double sum = rep.layers.at("scenario.advance_ms") +
                       rep.layers.at("scenario.collect_ms") +
                       rep.layers.at("scenario.emit_ms");
    EXPECT_NEAR(sum / (rep.run_s * 1e3), 1.0, 0.03);
    EXPECT_DOUBLE_EQ(rep.layers.at("scenario.span_coverage"),
                     sum / (rep.run_s * 1e3));
  }
}

TEST(FleetBench, YardstickTimesBlocksForTheInterval) {
  const std::vector<double> blocks = fleetbench::yardstick(1.0);
  ASSERT_FALSE(blocks.empty());
  double sum = 0.0;
  for (const double b : blocks) {
    EXPECT_GT(b, 0.0);
    sum += b;
  }
  EXPECT_LE(sum, 1.5);
}

TEST(FleetBench, CountersMatchAcrossThreadCounts) {
  for (const std::string& workload : fleetbench::workload_names()) {
    SCOPED_TRACE(workload);
    ShardedFleetConfig cfg = test_config(workload, 8);
    // At least two threads, so the parallel paths run even where the
    // workload's own count is capped by the host.
    const size_t threads = std::max<size_t>(cfg.threads, 2);
    cfg.threads = 1;
    const fleetbench::RepResult one =
        fleetbench::run_rep(workload, cfg, /*traced=*/false);
    cfg.threads = threads;
    const fleetbench::RepResult many =
        fleetbench::run_rep(workload, cfg, /*traced=*/false);
    EXPECT_EQ(one.threads, 1u);
    EXPECT_EQ(many.threads, threads);
    EXPECT_EQ(one.outputs, many.outputs);
    EXPECT_EQ(one.work, many.work);
    EXPECT_EQ(one.collections, many.collections);
    EXPECT_EQ(one.metrics_json, many.metrics_json);
    EXPECT_GT(one.collections, 0u);
  }
}

TEST(FleetBench, EachWorkloadExercisesItsLayers) {
  const auto run = [](const std::string& workload) {
    return fleetbench::run_rep(workload, test_config(workload, 2),
                               /*traced=*/false);
  };
  const fleetbench::RepResult roaming = run("direct_roaming");
  EXPECT_GT(roaming.outputs.at("attest.measurements"), 0.0);
  EXPECT_EQ(roaming.work.at("net.offers"), 0.0);
  EXPECT_GT(roaming.outputs.at("adversary.migrations"), 0.0);
  EXPECT_GT(roaming.outputs.at("attest.flagged"), 0.0);
  const fleetbench::RepResult deep = run("overlay_agg_deep");
  EXPECT_GT(deep.work.at("net.offers"), deep.outputs.at("net.delivered"));
  EXPECT_GT(deep.outputs.at("overlay.floods_forwarded"), 0.0);
  EXPECT_GT(deep.outputs.at("aggregate.aggregates_received"), 0.0);
  EXPECT_GT(deep.outputs.at("energy.spent_mj"), 0.0);
}

TEST(FleetBench, UnknownWorkloadIsRejected) {
  EXPECT_THROW(fleetbench::make_config("no_such_workload", 1),
               std::invalid_argument);
}

TEST(FleetBench, ChromeTraceNamesRunAndCause) {
  const ShardedFleetConfig cfg = test_config("overlay_agg_deep", 1);
  const fleetbench::RepResult rep =
      fleetbench::run_rep("overlay_agg_deep", cfg, /*traced=*/true);
  const std::string trace = fleetbench::chrome_trace(rep, "run-7");
  EXPECT_NE(trace.find(R"("traceEvents")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"collect")"), std::string::npos);
  EXPECT_NE(trace.find(R"("run_id":"run-7")"), std::string::npos);
  EXPECT_NE(trace.find(R"("cause":"run")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"swarm.snapshot")"), std::string::npos);
}

}  // namespace
