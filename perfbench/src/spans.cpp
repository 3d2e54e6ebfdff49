#include "spans.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<ProbeMode> g_mode{ProbeMode::kOff};
std::atomic<bool> g_audit{false};
std::atomic<std::uint64_t> g_root{0};
std::atomic<std::uint64_t> g_next_sim{1};
std::atomic<std::uint64_t> g_sims{0};

struct ThreadLog {
  std::uint64_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indexes into spans of the open spans
  std::uint64_t next_index = 1;   ///< per-thread span counter (ids survive draining)
  std::uint64_t sim = 0;          ///< current simulation id on this thread
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;  // guarded by mutex
  std::deque<std::string> names;                 // guarded by mutex; stable refs
  std::unordered_map<std::string, SpanName> ids; // guarded by mutex
  Counts counts;                                 // guarded by mutex
};

Registry& registry() {
  static Registry r;
  return r;
}

// Logs are owned by the registry so they outlive pool threads; a thread
// registers its log on its first recorded span.
ThreadLog& thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.logs.push_back(std::make_unique<ThreadLog>());
    log = r.logs.back().get();
    log->thread = r.logs.size();
  }
  return *log;
}

}  // namespace

void set_probe_mode(ProbeMode mode) { g_mode.store(mode, std::memory_order_relaxed); }
ProbeMode probe_mode() { return g_mode.load(std::memory_order_relaxed); }
void set_audit(bool on) { g_audit.store(on, std::memory_order_relaxed); }
bool audit_enabled() { return g_audit.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

SpanName span_name(std::string_view name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto [it, inserted] = r.ids.emplace(std::string(name), r.names.size());
  if (inserted) r.names.emplace_back(name);
  return it->second;
}

const std::string& span_name_text(SpanName id) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.names.at(id);  // a deque only grows here, so references stay valid
}

ScopedSpan::ScopedSpan(SpanName name, bool new_sim) {
  if (probe_mode() != ProbeMode::kTiming) return;
  ThreadLog& log = thread_log();
  recording_ = true;
  saved_sim_ = log.sim;
  if (new_sim) {
    log.sim = g_next_sim.fetch_add(1, std::memory_order_relaxed);
    opened_sim_ = true;
  }
  Span span;
  span.name = name;
  span.id = (log.thread << 32) | log.next_index++;
  span.parent = log.open.empty() ? g_root.load(std::memory_order_relaxed)
                                 : log.spans[log.open.back()].id;
  span.sim = log.sim;
  id_ = span.id;
  log.open.push_back(log.spans.size());
  log.spans.push_back(span);
  log.spans.back().cpu_ns = thread_cpu_ns();
  log.spans.back().start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!recording_) return;
  const std::int64_t end = now_ns();
  const std::int64_t cpu_end = thread_cpu_ns();
  ThreadLog& log = thread_log();
  Span& span = log.spans[log.open.back()];
  span.end_ns = end;
  span.cpu_ns = cpu_end - span.cpu_ns;
  log.open.pop_back();
  if (opened_sim_) log.sim = saved_sim_;
}

void set_root_span(std::uint64_t id) { g_root.store(id, std::memory_order_relaxed); }

std::vector<Span> drain_spans() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<Span> out;
  for (const auto& log : r.logs) {
    // Only completed spans are drained; spans still open stay in the log.
    const std::size_t keep = log->open.empty() ? log->spans.size() : log->open.front();
    out.insert(out.end(), log->spans.begin(), log->spans.begin() + keep);
    log->spans.erase(log->spans.begin(), log->spans.begin() + keep);
    for (std::size_t& idx : log->open) idx -= keep;
  }
  return out;
}

std::map<std::string, SpanTotals> reduce_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    // Only same-thread children are nested in their parent's interval; a
    // child on another thread runs beside it, not inside its self time.
    if (it != index.end() && (spans[it->second].id >> 32) == (s.id >> 32))
      child_ns[it->second] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[span_name_text(spans[i].name)];
    const double d = 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++t.count;
    t.total_s += d;
    t.self_s += d - 1e-9 * static_cast<double>(child_ns[i]);
    t.cpu_s += 1e-9 * static_cast<double>(spans[i].cpu_ns);
    t.durations_s.push_back(d);
  }
  return out;
}

void write_spans(const std::string& path, std::string_view phase, const std::vector<Span>& spans) {
  std::ofstream os(path, std::ios::app);
  for (const Span& s : spans)
    os << phase << '\t' << span_name_text(s.name) << '\t' << s.id << '\t' << s.parent << '\t'
       << s.sim << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.cpu_ns << '\n';
}

CountingSinks::CountingSinks(smoe::obs::EventSink* own) {
  smoe::obs::EventSink* extra = own;
  if (audit_enabled()) {
    auditor_.emplace();
    if (extra != nullptr) {
      with_auditor_.emplace(*auditor_, *extra);
      extra = &*with_auditor_;
    } else {
      extra = &*auditor_;
    }
  }
  if (extra != nullptr) {
    tee_.emplace(counter_, *extra);
    attached_ = &*tee_;
  }
}

std::uint64_t sims_started() { return g_sims.load(std::memory_order_relaxed); }
void note_sim_started() { g_sims.fetch_add(1, std::memory_order_relaxed); }

void reset_counts() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counts = Counts{};
  g_sims.store(0, std::memory_order_relaxed);
}

Counts counts() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.counts;
}

void add_policy_calls(std::uint64_t mode_calls, std::uint64_t cpu_check_calls,
                      std::uint64_t profile_calls) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counts.mode_calls += mode_calls;
  r.counts.cpu_check_calls += cpu_check_calls;
  r.counts.profile_calls += profile_calls;
}

void add_run(const std::string& policy, const smoe::obs::CountingSink& sink, std::size_t apps,
             std::size_t executors, std::size_t ooms, double makespan) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (std::size_t t = 0; t < smoe::obs::kEventTypeCount; ++t)
    r.counts.events[t] += sink.count(static_cast<smoe::obs::EventType>(t));
  r.counts.events_total += sink.total();
  RunTally& tally = r.counts.by_policy[policy];
  ++tally.sims;
  tally.app_sims += apps;
  tally.executors += executors;
  tally.ooms += ooms;
  tally.makespan_sum += makespan;
}

}  // namespace perfbench
