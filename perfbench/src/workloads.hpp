// The four benchmark workloads and the driver that times them (timed
// run) or traces them layer by layer (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scales every population down to a few dozen peers (self-test).
  bool tiny = false;
  /// Round budget per construction; 0 = the workload's default.
  std::uint64_t round_budget = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable report lines (tables, failed checks), printed
  /// before the JSON result line.
  std::vector<std::string> lines;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A failed correctness check marks the whole run incorrect; the
  /// first few are reported.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (++failed_checks <= 10) lines.push_back("CHECK FAILED: " + what);
  }
  std::uint64_t failed_checks = 0;
};

const std::vector<std::string>& workload_names();

/// Runs one workload: with options.trace the traced run (per-layer
/// metrics), otherwise the timed run (end-to-end metrics).
Result run_workload(const Options& options);

}  // namespace perfbench
