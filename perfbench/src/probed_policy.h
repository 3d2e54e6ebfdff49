// A forwarding SchedulingPolicy decorator: every call goes to the wrapped
// policy unchanged. In kTiming mode it records a span around profile(); in
// kCounting mode it counts profile(), mode() and cpu_check() calls (the
// dispatcher asks mode() once per dispatch round and cpu_check() once per
// candidate node it tests). Clones decorate the wrapped policy's clone, so
// the experiment runner's per-job copies are probed too. Counts are kept per
// instance and flushed into the global tallies when the instance dies or on
// flush(), so the hot path is a plain increment.
#pragma once

#include <memory>

#include "sparksim/policy.h"
#include "spans.h"

namespace perfbench {

class ProbedPolicy final : public smoe::sim::SchedulingPolicy {
 public:
  explicit ProbedPolicy(smoe::sim::SchedulingPolicy& inner) : inner_(inner) {}
  ~ProbedPolicy() override { flush(); }
  ProbedPolicy(const ProbedPolicy&) = delete;
  ProbedPolicy& operator=(const ProbedPolicy&) = delete;

  std::string name() const override { return inner_.name(); }

  smoe::sim::DispatchMode mode() const override {
    if (probe_mode() == ProbeMode::kCounting) ++mode_calls_;
    return inner_.mode();
  }

  bool cpu_check() const override {
    if (probe_mode() == ProbeMode::kCounting) ++cpu_check_calls_;
    return inner_.cpu_check();
  }

  double spawn_search_overhead() const override { return inner_.spawn_search_overhead(); }

  smoe::sim::ProfilingCost profile(smoe::sim::AppProbe& probe,
                                   smoe::sim::MemoryEstimate& estimate) override {
    static const SpanName span = span_name("core.profile");
    if (probe_mode() == ProbeMode::kCounting) ++profile_calls_;
    // The engine binds its registry to the policy it was handed; pass it on
    // so the wrapped policy's telemetry lands in the same SimResult.
    inner_.bind_metrics(metrics());
    const ScopedSpan timed(span);
    return inner_.profile(probe, estimate);
  }

  std::unique_ptr<smoe::sim::SchedulingPolicy> clone() const override {
    std::unique_ptr<smoe::sim::SchedulingPolicy> inner = inner_.clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<ProbedPolicy>(std::move(inner));
  }

  explicit ProbedPolicy(std::unique_ptr<smoe::sim::SchedulingPolicy> owned)
      : owned_(std::move(owned)), inner_(*owned_) {}

  /// Move this instance's counts into the global tallies.
  void flush() {
    if (mode_calls_ + cpu_check_calls_ + profile_calls_ == 0) return;
    add_policy_calls(mode_calls_, cpu_check_calls_, profile_calls_);
    mode_calls_ = cpu_check_calls_ = profile_calls_ = 0;
  }

 private:
  std::unique_ptr<smoe::sim::SchedulingPolicy> owned_;  // set for clones only
  smoe::sim::SchedulingPolicy& inner_;
  mutable std::uint64_t mode_calls_ = 0;
  mutable std::uint64_t cpu_check_calls_ = 0;
  std::uint64_t profile_calls_ = 0;
};

}  // namespace perfbench
