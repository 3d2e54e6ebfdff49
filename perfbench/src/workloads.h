// The benchmark's three workloads. Each builds its inputs from the seed,
// times untraced passes (end-to-end metrics) or runs the traced passes
// (per-layer metrics), and checks the program's outputs on the way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 1;           ///< pool threads for fig6-sweep
  std::vector<double> rates_per_hr;  ///< serving-ladder arrival rates
  double slo_p99_s = 0;              ///< serving-ladder sojourn p99 limit (simulated s)
  std::string spans_path;            ///< where the traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;  ///< end_to_end (untraced) or per_layer (traced) metrics
  std::vector<Metric> extra;    ///< printed with the report, not part of the result
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  ///< simulations run
  std::uint64_t failed = 0;     ///< simulations that threw or whose outputs failed a check
};

Report run_fig6_sweep(const Options& opt);
Report run_mega_cluster(const Options& opt);
Report run_serving_ladder(const Options& opt);

}  // namespace perfbench
