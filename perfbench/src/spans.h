// Spans and counters the benchmark records around calls into the program.
//
// Every pass runs in one of three probe modes:
//   * kOff      — untraced: nothing is recorded (only a relaxed per-call
//                 increment of the simulation counter);
//   * kTiming   — spans around calls made once per app or once per run
//                 (ClusterSim::run/serve/isolated_exec_time, profile(),
//                 train_selector, scenarios);
//   * kCounting — exact counts: engine events through obs::CountingSink,
//                 mode()/cpu_check()/profile() calls through ProbedPolicy.
//                 Times from this mode are never reported.
//
// A span has a name, start, end, parent and the id of the simulation it
// belongs to. Spans live in per-thread logs in memory until the benchmark
// writes them out and reduces them to per-name totals and self times.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.h"
#include "sparksim/audit/invariant_auditor.h"

namespace perfbench {

enum class ProbeMode : std::uint8_t { kOff, kTiming, kCounting };

void set_probe_mode(ProbeMode mode);
ProbeMode probe_mode();

/// Attach a fresh sim::audit::InvariantAuditor to every simulation run in
/// kCounting mode.
void set_audit(bool on);
bool audit_enabled();

std::int64_t now_ns();
/// CPU time of the calling thread and of the whole process.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

/// Interned span name; intern once and keep the id.
using SpanName = std::uint32_t;
SpanName span_name(std::string_view name);
const std::string& span_name_text(SpanName id);

struct Span {
  SpanName name = 0;
  std::uint64_t id = 0;      ///< (thread << 32) | index, never 0
  std::uint64_t parent = 0;  ///< enclosing span (same thread) or the root; 0 = none
  std::uint64_t sim = 0;     ///< simulation id shared by the spans of one run; 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;   ///< CPU time of the span's thread while it was open
};

/// Records a span from construction to destruction when the probe mode is
/// kTiming; costs one relaxed load otherwise. `new_sim` opens a simulation:
/// the span and everything nested in it on this thread share a fresh id.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, bool new_sim = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id of this span (0 when not recording); spans opened on other threads
  /// while it is the root name it as their parent.
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_sim_ = 0;
  bool recording_ = false;
  bool opened_sim_ = false;
};

/// The span other threads' top-level spans report as their parent (the
/// pass or scenario open on the driving thread); 0 clears it.
void set_root_span(std::uint64_t id);

/// Take every recorded span out of the per-thread logs.
std::vector<Span> drain_spans();

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0;  ///< sum of durations
  double self_s = 0;   ///< durations minus same-thread child spans
  double cpu_s = 0;    ///< thread CPU time inside the spans
  std::vector<double> durations_s;
};
/// Per-name totals and self times of a set of spans.
std::map<std::string, SpanTotals> reduce_spans(const std::vector<Span>& spans);

/// Append spans as TSV (phase, name, id, parent, sim, start_ns, end_ns,
/// cpu_ns) to `path`.
void write_spans(const std::string& path, std::string_view phase, const std::vector<Span>& spans);

/// Exact work counts gathered in kCounting mode: one RunTally per policy
/// name, summed over that policy's runs.
struct RunTally {
  std::size_t sims = 0;
  std::size_t app_sims = 0;  ///< applications finished across those runs
  std::size_t executors = 0;
  std::size_t ooms = 0;
  double makespan_sum = 0;
};

struct Counts {
  std::array<std::uint64_t, smoe::obs::kEventTypeCount> events{};
  std::uint64_t events_total = 0;
  std::uint64_t mode_calls = 0;
  std::uint64_t cpu_check_calls = 0;
  std::uint64_t profile_calls = 0;
  std::map<std::string, RunTally> by_policy;  ///< keyed by SchedulingPolicy::name()
};

/// The sinks a kCounting-mode run carries: a CountingSink, a fresh
/// InvariantAuditor when auditing is on, and the run's own sink if any.
class CountingSinks {
 public:
  explicit CountingSinks(smoe::obs::EventSink* own);
  CountingSinks(const CountingSinks&) = delete;
  CountingSinks& operator=(const CountingSinks&) = delete;

  smoe::obs::EventSink* sink() { return attached_; }
  const smoe::obs::CountingSink& counter() const { return counter_; }

 private:
  smoe::obs::CountingSink counter_;
  std::optional<smoe::sim::audit::InvariantAuditor> auditor_;
  std::optional<smoe::obs::TeeSink> with_auditor_;
  std::optional<smoe::obs::TeeSink> tee_;
  smoe::obs::EventSink* attached_ = &counter_;
};

/// Simulations started (ClusterSim::run calls seen by the wrappers plus
/// serve calls the benchmark reports) since the last reset, in any mode.
std::uint64_t sims_started();
void note_sim_started();

void reset_counts();
Counts counts();

void add_policy_calls(std::uint64_t mode_calls, std::uint64_t cpu_check_calls,
                      std::uint64_t profile_calls);
/// Record one finished run: its event counts and its result under `policy`.
void add_run(const std::string& policy, const smoe::obs::CountingSink& sink, std::size_t apps,
             std::size_t executors, std::size_t ooms, double makespan);

}  // namespace perfbench
