#include "analysis/bench_report.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/stats.h"
#include "common/strings.h"

namespace erasmus::analysis {

bool bench_quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

namespace {

std::vector<double>* find_quantity(
    std::vector<std::pair<std::string, std::vector<double>>>& quantities,
    const std::string& name) {
  for (auto& [q, values] : quantities) {
    if (q == name) return &values;
  }
  quantities.emplace_back(name, std::vector<double>{});
  return &quantities.back().second;
}

}  // namespace

void BenchReport::sample(const std::string& quantity, double value) {
  find_quantity(quantities_, quantity)->push_back(value);
}

void BenchReport::samples(const std::string& quantity,
                          const std::vector<double>& values) {
  auto* dest = find_quantity(quantities_, quantity);
  dest->insert(dest->end(), values.begin(), values.end());
}

std::string BenchReport::to_json() const {
  std::string out = "{\n  \"bench\": \"" + json_escape(name_) +
                    "\",\n  \"quantities\": {";
  for (size_t i = 0; i < quantities_.size(); ++i) {
    const auto& [name, values] = quantities_[i];
    const Summary s = summarize(values);
    const double p99 = quantile(values, 0.99);
    out += (i ? ",\n    " : "\n    ");
    out += json_quote(name) + ": {\"count\": " +
           std::to_string(s.count) + ", \"mean\": " + format_double(s.mean) +
           ", \"p50\": " + format_double(s.p50) +
           ", \"p99\": " + format_double(p99) + "}";
  }
  out += quantities_.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "[bench_report] ERROR: cannot open %s for writing\n",
                 path.c_str());
    return {};
  }
  file << to_json();
  file.flush();  // surface disk-full/quota errors before claiming success
  if (!file) {
    std::fprintf(stderr,
                 "[bench_report] ERROR: write to %s failed (disk full?)\n",
                 path.c_str());
    return {};
  }
  std::fprintf(stderr, "[bench_report] wrote %s\n", path.c_str());
  return path;
}

}  // namespace erasmus::analysis
