// fleetbench: runs ONE rep of one workload and prints it as a JSON line.
//
//   fleetbench rep <workload> <seed> [--threads N] [--trace-out FILE]
//   fleetbench yardstick <seconds>
//
// --trace-out makes the rep a traced one: spans and layer probes are
// recorded and the spans are written to FILE as Chrome trace-event JSON.
// `yardstick` times the host-speed yardstick for <seconds> and prints its
// block times. run.py drives the reps, repeats them for the measured
// interval next to the yardstick and checks their outputs; see README.md.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common/strings.h"
#include "fleet_bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench rep <workload> <seed> [--threads N] "
               "[--trace-out FILE]\n"
               "       fleetbench yardstick <seconds>\n");
  return 2;
}

uint64_t parse_u64(const std::string& text, const char* what) {
  size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size() || text[0] == '-') {
    throw std::invalid_argument(std::string("bad ") + what + ": " + text);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::string(argv[1]) == "yardstick") {
      const double seconds = static_cast<double>(
          parse_u64(argv[2], "yardstick seconds"));
      std::string out = "{\"block_s\":[";
      const std::vector<double> blocks = fleetbench::yardstick(seconds);
      for (size_t i = 0; i < blocks.size(); ++i) {
        out += (i ? "," : "") + erasmus::format_double(blocks[i]);
      }
      std::printf("%s]}\n", out.c_str());
      return 0;
    }
    if (argc < 4 || std::string(argv[1]) != "rep") return usage();
    const std::string workload = argv[2];
    const uint64_t seed = parse_u64(argv[3], "seed");
    size_t threads = 0;
    std::string trace_out;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threads" && i + 1 < argc) {
        threads = parse_u64(argv[++i], "thread count");
        if (threads == 0) throw std::invalid_argument("threads must be >= 1");
      } else if (arg == "--trace-out" && i + 1 < argc) {
        trace_out = argv[++i];
      } else {
        return usage();
      }
    }

    erasmus::scenario::ShardedFleetConfig cfg =
        fleetbench::make_config(workload, seed);
    if (threads != 0) cfg.threads = threads;
    const fleetbench::RepResult rep =
        fleetbench::run_rep(workload, cfg, !trace_out.empty());
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << fleetbench::chrome_trace(
          rep, workload + "-seed" + std::to_string(seed));
      if (!out) {
        std::fprintf(stderr, "fleetbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
    }
    std::printf("%s\n", fleetbench::to_json(rep).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 1;
  }
}
