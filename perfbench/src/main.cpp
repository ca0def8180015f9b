// LagOver benchmark driver.
//
//   lagover_perfbench --workload construct|churn|async-faults|feed-lossy|all
//                     --seed N --seconds S --trace 0|1
//                     [--tiny] [--round-budget R]
//
// --trace 0 is the timed run (end-to-end metrics), --trace 1 the traced
// run (per-layer metrics and the self-time table). --workload all runs
// both on every workload in turn. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when any correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: lagover_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--round-budget R]\n";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(const perfbench::Result& result) {
  for (const std::string& line : result.lines) std::cout << line << '\n';
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::Metric& metric : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    std::cout << sep << '"' << json_escape(metric.name) << "\": {\"value\": "
              << value << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
}

/// Both runs of every workload, metrics prefixed "<workload>.".
perfbench::Result run_all(perfbench::Options options) {
  perfbench::Result all;
  for (const std::string& name : perfbench::workload_names()) {
    options.workload = name;
    for (bool trace : {false, true}) {
      options.trace = trace;
      const perfbench::Result result = perfbench::run_workload(options);
      all.lines.push_back("## " + name + (trace ? " (traced)" : " (timed)"));
      all.lines.insert(all.lines.end(), result.lines.begin(),
                       result.lines.end());
      for (const perfbench::Metric& metric : result.metrics)
        all.add(name + "." + metric.name, metric.value, metric.unit);
      all.correct = all.correct && result.correct;
      all.attempted += result.attempted;
      all.failed += result.failed;
    }
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--round-budget" && has_value) {
      options.round_budget = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::cerr << "unknown or incomplete flag: " << flag << '\n';
      usage();
      return 2;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    usage();
    return 2;
  }
  try {
    const perfbench::Result result = options.workload == "all"
                                         ? run_all(options)
                                         : perfbench::run_workload(options);
    print_result(result);
    return result.correct && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "lagover_perfbench: " << error.what() << '\n';
    return 2;
  }
}
