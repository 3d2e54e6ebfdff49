// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload fig6-sweep|mega-cluster|serving-ladder --seed N
//             --seconds S --trace 0|1 [--threads T] [--rates a,b,c]
//             [--slo-p99-s X] [--spans FILE]
//
// Prints a human-readable report, then one JSON line: the metrics, the
// correctness checks and the run context. perfbench/run.py builds this
// binary, runs it and turns that line into the benchmark's result.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// Spin-loop iterations per second summed over `threads` threads spinning
/// together for `seconds`.
double spin_rate(std::size_t threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> iters(threads, 0);
  std::vector<std::thread> pool;
  const std::int64_t t0 = perfbench::now_ns();
  for (std::size_t i = 0; i < threads; ++i)
    pool.emplace_back([&, i] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + i, n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x ^= x << 13, x ^= x >> 7, x ^= x << 17;
        n += 4096;
      }
      iters[i] = n + (x & 1);
    });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (std::thread& t : pool) t.join();
  const double elapsed = 1e-9 * static_cast<double>(perfbench::now_ns() - t0);
  std::uint64_t total = 0;
  for (const std::uint64_t n : iters) total += n;
  return static_cast<double>(total) / elapsed;
}

/// How many of `threads` cores the process really got: N-thread spin rate
/// over the 1-thread rate. A first N-thread spin wakes idle cores, which
/// otherwise come up late and read as missing.
double capacity_probe(std::size_t threads) {
  (void)spin_rate(threads, 0.1);
  const double one = spin_rate(1, 0.2);
  return spin_rate(threads, 0.2) / one;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value != "0";
    else if (key == "--threads") opt.threads = std::stoul(value);
    else if (key == "--rates") opt.rates_per_hr = parse_list(value);
    else if (key == "--slo-p99-s") opt.slo_p99_s = std::stod(value);
    else if (key == "--spans") opt.spans_path = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (opt.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return opt;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-44s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const double cores_before = capacity_probe(hw);

    Report rep;
    if (opt.workload == "fig6-sweep") rep = perfbench::run_fig6_sweep(opt);
    else if (opt.workload == "mega-cluster") rep = perfbench::run_mega_cluster(opt);
    else if (opt.workload == "serving-ladder") rep = perfbench::run_serving_ladder(opt);
    else throw std::invalid_argument("unknown workload '" + opt.workload + "'");

    const double cores_after = capacity_probe(hw);
    bool correct = rep.failed == 0 && rep.attempted > 0;
    for (const perfbench::Check& c : rep.checks) correct = correct && c.passed;
    rep.extra.push_back({"failed_frac",
                         rep.attempted == 0 ? 1.0
                                            : static_cast<double>(rep.failed) /
                                                  static_cast<double>(rep.attempted),
                         "frac"});

    std::printf("== %s (seed %llu, %s) ==\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "untraced");
    print_metrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:", rep.metrics);
    print_metrics("also reported:", rep.extra);
    std::printf("checks:\n");
    for (const perfbench::Check& c : rep.checks)
      std::printf("  [%s] %s: %s\n", c.passed ? "ok" : "FAIL", c.name.c_str(), c.detail.c_str());

    std::string checks = "[";
    for (std::size_t i = 0; i < rep.checks.size(); ++i)
      checks += (i > 0 ? ", " : "") + std::string("{\"name\": ") + json_string(rep.checks[i].name) +
                ", \"passed\": " + (rep.checks[i].passed ? "true" : "false") +
                ", \"detail\": " + json_string(rep.checks[i].detail) + "}";
    checks += "]";
    std::cout << "{\"workload\": " << json_string(opt.workload)
              << ", \"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
              << ", \"metrics\": " << json_metrics(rep.metrics)
              << ", \"extra\": " << json_metrics(rep.extra) << ", \"checks\": " << checks
              << ", \"context\": {\"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
              << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << ", \"nproc\": " << hw
              << ", \"threads\": " << opt.threads << ", \"seed\": " << opt.seed
              << ", \"cores_probe_start\": " << json_number(cores_before)
              << ", \"cores_probe_end\": " << json_number(cores_after) << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
