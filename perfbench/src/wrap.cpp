// Link-time wrappers around public entry points of the program under test.
//
// CMakeLists.txt links the benchmark with `--wrap=<symbol>` for each
// function below, so every call into it from another translation unit of the
// program — ExperimentRunner's replays and baselines, IsolatedTimes, the
// SelectorCache's training — lands here first and is timed or counted from
// outside the program. `__real_<symbol>` is the original function. The
// declarations bind to the mangled names with asm labels; a member function
// is declared as a free function taking `this` first, which is how the
// Itanium C++ ABI passes it (a by-value class result's hidden return slot
// precedes `this` in both forms).
//
// Calls made inside the defining translation unit are not wrapped: the
// simulation ClusterSim::isolated_exec_time runs internally is timed as one
// isolated call, not as a ClusterSim::run.
#include "core/trainer.h"
#include "sparksim/engine.h"
#include "spans.h"

using smoe::sim::ClusterSim;
using smoe::sim::SchedulingPolicy;
using smoe::sim::SimResult;
using smoe::wl::TaskMix;

#define PB_RUN2 "_ZN4smoe3sim10ClusterSim3runERKSt6vectorINS_2wl11AppInstanceESaIS4_EERNS0_16SchedulingPolicyE"
#define PB_RUN3 \
  "_ZN4smoe3sim10ClusterSim3runERKSt6vectorINS_2wl11AppInstanceESaIS4_EERNS0_16SchedulingPolicyEPNS_3obs9EventSinkE"
#define PB_ISOLATED "_ZN4smoe3sim10ClusterSim18isolated_exec_timeERKNS_2wl11AppInstanceE"
#define PB_TRAIN \
  "_ZN4smoe4core14train_selectorERKNS0_10ExpertPoolERKSt6vectorINS0_15TrainingExampleESaIS5_EERKNS0_14TrainerOptionsE"

SimResult real_run3(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy,
                    smoe::obs::EventSink* sink) __asm__("__real_" PB_RUN3);
smoe::Seconds real_isolated(ClusterSim* self, const smoe::wl::AppInstance& app) __asm__(
    "__real_" PB_ISOLATED);
smoe::core::SelectorModel real_train(const smoe::core::ExpertPool& pool,
                                     const std::vector<smoe::core::TrainingExample>& examples,
                                     const smoe::core::TrainerOptions& options) __asm__(
    "__real_" PB_TRAIN);

SimResult wrap_run3(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy,
                    smoe::obs::EventSink* sink) __asm__("__wrap_" PB_RUN3);
SimResult wrap_run2(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy) __asm__(
    "__wrap_" PB_RUN2);
smoe::Seconds wrap_isolated(ClusterSim* self, const smoe::wl::AppInstance& app) __asm__(
    "__wrap_" PB_ISOLATED);
smoe::core::SelectorModel wrap_train(const smoe::core::ExpertPool& pool,
                                     const std::vector<smoe::core::TrainingExample>& examples,
                                     const smoe::core::TrainerOptions& options) __asm__(
    "__wrap_" PB_TRAIN);

namespace {

// Sinks are passive (any sink or none yields the same SimResult), so the
// counting pass may attach its own sinks to runs the program starts with
// none; the benchmark checks that promise against the untraced passes.
SimResult counted_run(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy,
                      smoe::obs::EventSink* sink) {
  perfbench::CountingSinks sinks(sink);
  SimResult result = real_run3(self, mix, policy, sinks.sink());
  perfbench::add_run(policy.name(), sinks.counter(), result.apps.size(),
                     result.executors_spawned, result.oom_total, result.makespan);
  return result;
}

}  // namespace

SimResult wrap_run3(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy,
                    smoe::obs::EventSink* sink) {
  perfbench::note_sim_started();
  switch (perfbench::probe_mode()) {
    case perfbench::ProbeMode::kOff:
      return real_run3(self, mix, policy, sink);
    case perfbench::ProbeMode::kTiming: {
      static const perfbench::SpanName name = perfbench::span_name("sparksim.run");
      const perfbench::ScopedSpan span(name, true);
      return real_run3(self, mix, policy, sink);
    }
    case perfbench::ProbeMode::kCounting:
      break;
  }
  return counted_run(self, mix, policy, sink);
}

// The two-argument overload is run(mix, policy, config().sink).
SimResult wrap_run2(ClusterSim* self, const TaskMix& mix, SchedulingPolicy& policy) {
  return wrap_run3(self, mix, policy, self->config().sink);
}

smoe::Seconds wrap_isolated(ClusterSim* self, const smoe::wl::AppInstance& app) {
  static const perfbench::SpanName name = perfbench::span_name("sparksim.isolated");
  const perfbench::ScopedSpan span(name);
  return real_isolated(self, app);
}

smoe::core::SelectorModel wrap_train(const smoe::core::ExpertPool& pool,
                                     const std::vector<smoe::core::TrainingExample>& examples,
                                     const smoe::core::TrainerOptions& options) {
  static const perfbench::SpanName name = perfbench::span_name("core.train");
  const perfbench::ScopedSpan span(name);
  return real_train(pool, examples, options);
}
