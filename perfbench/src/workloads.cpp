#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "core/predictor.h"
#include "obs/sink.h"
#include "probed_policy.h"
#include "sched/experiment.h"
#include "sched/metrics.h"
#include "sched/policies_basic.h"
#include "sched/policies_learned.h"
#include "sched/training_data.h"
#include "sparksim/admission.h"
#include "sparksim/app_probe.h"
#include "sparksim/engine.h"
#include "spans.h"
#include "workloads/mixes.h"
#include "workloads/suites.h"

namespace perfbench {

namespace sim = smoe::sim;
namespace sched = smoe::sched;
namespace wl = smoe::wl;
using smoe::Rng;

namespace {

/// The trained "world" (feature model, training programs) is fixed; the
/// workload seed chooses the mixes, arrival lists and measurement noise.
constexpr std::uint64_t kWorldSeed = 2017;
constexpr const char* kMoeName = "Ours (MoE)";
/// Set-ups per untraced run, spread over it; setup_s is their median.
constexpr std::size_t kSetupRepeats = 31;

double seconds_since(std::int64_t t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// A workload's simulated output behind the end-to-end metrics.
struct Work {
  double app_sims = 0;          ///< applications simulated per pass
  double oom_per_executor = 0;  ///< Ours (MoE) OOM kills / executors spawned
  double sim_makespan_s = 0;    ///< Ours (MoE) simulated makespan
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string rate_label(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", rate);
  return buf;
}

/// Train every leave-one-out model a learned policy keeps by profiling one
/// application of each of the 44 benchmarks.
void train_all(sim::SchedulingPolicy& policy, const wl::FeatureModel& features) {
  for (const wl::BenchmarkSpec& spec : wl::all_spark_benchmarks()) {
    sim::AppProbe probe(spec, features, 4096.0, Rng::derive(kWorldSeed, spec.name));
    sim::MemoryEstimate estimate;
    (void)policy.profile(probe, estimate);
  }
}

bool same_apps(const std::vector<sim::AppResult>& a, const std::vector<sim::AppResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const sim::AppResult& x = a[i];
    const sim::AppResult& y = b[i];
    if (x.benchmark != y.benchmark || x.input_items != y.input_items || x.submit != y.submit ||
        x.profile_end != y.profile_end || x.start != y.start || x.finish != y.finish ||
        x.feature_time != y.feature_time || x.calibration_time != y.calibration_time ||
        x.oom_events != y.oom_events || x.executors_used != y.executors_used)
      return false;
  }
  return true;
}

/// Exact sample quantile (nearest rank) of a sorted sample.
double exact_quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of the usual percentiles with at least 10 samples beyond it.
double tail_percentile(std::size_t n) {
  for (const double p : {0.999, 0.99, 0.9})
    if ((1.0 - p) * static_cast<double>(n) >= 10.0 - 1e-9) return p;
  return 0.5;
}

// ------------------------------------------------------------ fig6-sweep --

/// Figure 6 as users of the reproduction run it: L1-L10, 100 mixes each,
/// Pairwise, Quasar, Ours (MoE) and Oracle raced under the default
/// RaceOptions on a fresh ExperimentRunner per pass.
class Fig6Sweep {
 public:
  using Outcome = std::vector<sched::ExperimentRunner::RacedScenarioResult>;
  static constexpr bool kAudit = false;
  static constexpr std::size_t kMixes = 100;

  explicit Fig6Sweep(const Options& opt)
      : opt_(opt),
        mix_seed_(Rng::derive(opt.seed, "fig6:mixes")),
        noise_seed_(Rng::derive(opt.seed, "fig6:noise")) {
    for (const wl::Scenario& sc : wl::scenarios())
      span_names_.push_back(span_name("sched.scenario." + sc.label));
  }

  std::size_t threads() const { return opt_.threads; }

  void setup() {
    features_ = std::make_unique<wl::FeatureModel>(kWorldSeed);
    quasar_ = std::make_unique<sched::QuasarPolicy>(*features_, kWorldSeed);
    moe_ = std::make_unique<sched::MoePolicy>(*features_, kWorldSeed);
    train_all(*quasar_, *features_);
    train_all(*moe_, *features_);
    raw_ = {&pairwise_, quasar_.get(), moe_.get(), &oracle_};
    probed_.clear();
    for (sim::SchedulingPolicy* p : raw_) probed_.push_back(std::make_unique<ProbedPolicy>(*p));
  }

  Outcome pass(bool probed, std::size_t threads, std::vector<double>& unit_s) {
    sim::SimConfig cfg;
    cfg.seed = noise_seed_;
    sched::ExperimentRunner runner(cfg, *features_, kMixes, mix_seed_, threads);
    std::vector<sim::SchedulingPolicy*> policies = raw_;
    if (probed)
      for (std::size_t i = 0; i < policies.size(); ++i) policies[i] = probed_[i].get();
    Outcome out;
    const auto scenarios = wl::scenarios();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const std::int64_t t0 = now_ns();
      const ScopedSpan span(span_names_[s]);
      set_root_span(span.id());
      out.push_back(runner.run_scenario_raced(scenarios[s], policies));
      unit_s.push_back(seconds_since(t0));
    }
    set_root_span(0);
    for (const auto& p : probed_) p->flush();
    return out;
  }

  static bool same(const Outcome& a, const Outcome& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
      const auto& x = a[s];
      const auto& y = b[s];
      if (x.total_simulations != y.total_simulations ||
          x.fixed_budget_simulations != y.fixed_budget_simulations ||
          x.schemes.size() != y.schemes.size() || x.cells.size() != y.cells.size())
        return false;
      for (std::size_t p = 0; p < x.schemes.size(); ++p) {
        const auto& u = x.schemes[p];
        const auto& v = y.schemes[p];
        // Exact comparisons on purpose: every pass must reproduce the
        // reference bit for bit, at any thread count.
        if (u.scheme != v.scheme || u.stp_geomean != v.stp_geomean || u.stp_min != v.stp_min ||
            u.stp_max != v.stp_max || u.antt_red_mean != v.antt_red_mean ||
            u.antt_red_min != v.antt_red_min || u.antt_red_max != v.antt_red_max ||
            u.mean_makespan != v.mean_makespan || u.oom_total != v.oom_total)
          return false;
      }
      for (std::size_t c = 0; c < x.cells.size(); ++c) {
        const auto& u = x.cells[c];
        const auto& v = y.cells[c];
        if (u.replays_used != v.replays_used || u.mean != v.mean || u.ci_half != v.ci_half ||
            u.secondary_mean != v.secondary_mean || u.makespan_mean != v.makespan_mean ||
            u.oom_total != v.oom_total || u.stop != v.stop ||
            u.separated_from_best != v.separated_from_best)
          return false;
      }
    }
    return true;
  }

  /// Geomean over scenarios of each scheme's normalized STP, in panel order.
  static std::vector<double> stp_by_scheme(const Outcome& out) {
    std::vector<double> logs(out.front().schemes.size(), 0.0);
    for (const auto& sc : out)
      for (std::size_t p = 0; p < logs.size(); ++p) logs[p] += std::log(sc.schemes[p].stp_geomean);
    for (double& l : logs) l = std::exp(l / static_cast<double>(out.size()));
    return logs;
  }

  void checks(const Outcome& ref, Report& rep) const {
    const std::vector<double> stp = stp_by_scheme(ref);  // Pairwise, Quasar, MoE, Oracle
    const bool ordered = stp[3] >= stp[2] && stp[2] >= stp[1] && stp[1] >= stp[0];
    char buf[160];
    std::snprintf(buf, sizeof buf, "Oracle %.4f >= MoE %.4f >= Quasar %.4f >= Pairwise %.4f",
                  stp[3], stp[2], stp[1], stp[0]);
    rep.checks.push_back({"fig6 STP order", ordered, buf});
  }

  /// Counted over every simulation of the pass, baselines included; the
  /// MoE figures average over its replays.
  Work end_to_end(const Outcome& ref, const Counts& k, std::vector<Metric>& extra) const {
    std::size_t app_sims = 0;
    for (const auto& [name, tally] : k.by_policy) app_sims += tally.app_sims;
    const auto moe_it = k.by_policy.find(kMoeName);
    const RunTally moe = moe_it == k.by_policy.end() ? RunTally{} : moe_it->second;
    double antt = 0;
    for (const auto& sc : ref) antt += sc.schemes[2].antt_red_mean;
    extra.push_back({"stp_moe", stp_by_scheme(ref)[2], "x"});
    extra.push_back({"antt_red_moe", antt / static_cast<double>(ref.size()), "frac"});
    return {static_cast<double>(app_sims), ratio(moe.ooms, moe.executors),
            ratio(moe.makespan_sum, moe.sims)};
  }

  void per_layer(const Outcome& ref, const std::map<std::string, SpanTotals>& spans,
                 double pass_wall_s, std::map<std::string, double>& layer,
                 std::vector<Metric>& extra) const {
    double sims = 0, budget = 0;
    for (const auto& sc : ref) {
      sims += static_cast<double>(sc.total_simulations);
      budget += static_cast<double>(sc.fixed_budget_simulations);
    }
    layer["sched.race.sims"] = sims;
    layer["sched.race.fixed_budget_sims"] = budget;
    layer["sched.race.saved_frac"] = 1.0 - ratio(sims, budget);
    for (const wl::Scenario& sc : wl::scenarios()) {
      const auto it = spans.find("sched.scenario." + sc.label);
      const double wall = it == spans.end() ? 0 : it->second.total_s;
      layer["sched.scenario_share." + sc.label] = wall / pass_wall_s;
      extra.push_back({"sched.scenario_wall_s." + sc.label, wall, "s"});
    }
    // run_scenario_raced generates each scenario's mixes from the mix seed
    // inside the timed passes, so set-up does not; one standalone generation
    // of the same mixes gives workloads.gen_s (on fig6 that cost is part of
    // wall_s, not setup_s).
    const std::int64_t t0 = now_ns();
    std::size_t apps = 0;
    for (const wl::Scenario& sc : wl::scenarios())
      for (const wl::TaskMix& mix : wl::scenario_mixes(sc, kMixes, mix_seed_)) apps += mix.size();
    layer["workloads.gen_s"] = seconds_since(t0);
    if (apps == 0) throw std::runtime_error("fig6-sweep: empty mixes");
  }

 private:
  Options opt_;
  std::uint64_t mix_seed_;
  std::uint64_t noise_seed_;
  std::vector<SpanName> span_names_;  // per scenario
  std::unique_ptr<wl::FeatureModel> features_;
  sched::PairwisePolicy pairwise_;
  std::unique_ptr<sched::QuasarPolicy> quasar_;
  std::unique_ptr<sched::MoePolicy> moe_;
  sched::OraclePolicy oracle_;
  std::vector<sim::SchedulingPolicy*> raw_;
  std::vector<std::unique_ptr<ProbedPolicy>> probed_;
};

// ---------------------------------------------------------- mega-cluster --

/// One 100k-application random mix on a 10k-node cluster under Ours (MoE).
class MegaCluster {
 public:
  using Outcome = sim::SimResult;
  static constexpr bool kAudit = true;
  static constexpr std::size_t kApps = 100000;
  static constexpr std::size_t kNodes = 10000;

  explicit MegaCluster(const Options& opt) : opt_(opt) {
    cfg_.seed = Rng::derive(opt.seed, "mega:noise");
    cfg_.cluster.n_nodes = kNodes;
    cfg_.trace_bin = 3600.0;
  }

  std::size_t threads() const { return 1; }

  void setup() {
    features_ = std::make_unique<wl::FeatureModel>(kWorldSeed);
    moe_ = std::make_unique<sched::MoePolicy>(*features_, kWorldSeed);
    train_all(*moe_, *features_);
    probed_ = std::make_unique<ProbedPolicy>(*moe_);
    static const SpanName gen = span_name("workloads.gen");
    {
      const ScopedSpan span(gen);
      Rng rng(Rng::derive(opt_.seed, "mega:mix"));
      mix_ = wl::random_mix(kApps, rng);
    }
    iso_cluster_ = std::make_unique<sim::ClusterSim>(cfg_, *features_);
    iso_ = std::make_unique<sched::IsolatedTimes>(*iso_cluster_);
    for (const wl::AppInstance& app : mix_) (void)iso_->get(app.benchmark, app.input_items);
  }

  Outcome pass(bool probed, std::size_t, std::vector<double>& unit_s) {
    const std::int64_t t0 = now_ns();
    sim::ClusterSim cluster(cfg_, *features_);
    sim::SimResult result =
        cluster.run(mix_, probed ? static_cast<sim::SchedulingPolicy&>(*probed_) : *moe_, nullptr);
    unit_s.push_back(seconds_since(t0));
    probed_->flush();
    return result;
  }

  static bool same(const Outcome& a, const Outcome& b) {
    return same_apps(a.apps, b.apps) && a.makespan == b.makespan && a.oom_total == b.oom_total &&
           a.executors_spawned == b.executors_spawned &&
           a.executors_degraded == b.executors_degraded &&
           a.peak_node_occupancy == b.peak_node_occupancy &&
           a.reserved_gib_hours == b.reserved_gib_hours && a.used_gib_hours == b.used_gib_hours &&
           a.trace.overall_mean() == b.trace.overall_mean() && a.metrics == b.metrics;
  }

  void checks(const Outcome& ref, Report& rep) const {
    const bool all_finished = std::all_of(ref.apps.begin(), ref.apps.end(),
                                          [](const sim::AppResult& a) { return a.finish >= 0; });
    rep.checks.push_back({"mega-cluster every app finished",
                          all_finished && ref.apps.size() == kApps,
                          std::to_string(ref.apps.size()) + " apps"});
  }

  Work end_to_end(const Outcome& ref, const Counts&, std::vector<Metric>& extra) const {
    extra.push_back({"antt_moe", sched::compute_metrics(ref, *iso_).antt, "ratio"});
    return {static_cast<double>(ref.apps.size()), ratio(ref.oom_total, ref.executors_spawned),
            ref.makespan};
  }

  void per_layer(const Outcome&, const std::map<std::string, SpanTotals>&, double,
                 std::map<std::string, double>&, std::vector<Metric>&) const {}

 private:
  Options opt_;
  sim::SimConfig cfg_;
  std::unique_ptr<wl::FeatureModel> features_;
  std::unique_ptr<sched::MoePolicy> moe_;
  std::unique_ptr<ProbedPolicy> probed_;
  wl::TaskMix mix_;
  std::unique_ptr<sim::ClusterSim> iso_cluster_;
  std::unique_ptr<sched::IsolatedTimes> iso_;  // C^iso of every app of mix_, measured in set-up
};

// -------------------------------------------------------- serving-ladder --

/// Open-loop serving under Ours (MoE) on 40 nodes: kStreams Poisson arrival
/// lists of 1000 applications per rate, played against the unbounded and
/// MURS-style memory-pressure (0.5) gates at the fixed ladder rates.
///
/// The arrival lists come from kStreamSeed and are part of the workload,
/// like the rates; the workload seed varies the simulation noise. Near
/// saturation a stream's host cost swings with small differences in its
/// realized load (coefficient of variation ~0.35 across streams), so
/// seed-drawn streams would need ~30 streams per rate for a steady wall
/// time; with the lists fixed it varies ~5% across noise seeds.
class ServingLadder {
 public:
  using Outcome = std::vector<sim::ServingResult>;  // [rate][gate][stream], flattened
  static constexpr bool kAudit = true;
  static constexpr std::size_t kArrivals = 1000;
  static constexpr double kMursFraction = 0.5;
  static constexpr std::size_t kStreams = 4;
  static constexpr std::uint64_t kStreamSeed = 2017;

  explicit ServingLadder(const Options& opt) : opt_(opt) {
    cfg_.seed = Rng::derive(opt.seed, "serving:noise");
    if (opt.rates_per_hr.empty()) throw std::invalid_argument("serving-ladder needs --rates");
    for (const std::string& gate : gate_names())
      for (const double rate : opt.rates_per_hr)
        span_names_.push_back(span_name("sparksim.serve." + gate + "." + rate_label(rate)));
  }

  static std::vector<std::string> gate_names() { return {"unbounded", "murs-gate"}; }

  std::size_t threads() const { return 1; }

  void setup() {
    features_ = std::make_unique<wl::FeatureModel>(kWorldSeed);
    moe_ = std::make_unique<sched::MoePolicy>(*features_, kWorldSeed);
    train_all(*moe_, *features_);
    probed_ = std::make_unique<ProbedPolicy>(*moe_);
    static const SpanName gen = span_name("workloads.gen");
    {
      const ScopedSpan span(gen);
      loads_.clear();
      for (const double rate : opt_.rates_per_hr)
        for (std::size_t k = 0; k < kStreams; ++k)
          loads_.push_back(sim::poisson_load(
              kArrivals, rate / 3600.0,
              Rng::derive(kStreamSeed, "serving:stream" + std::to_string(k))));
    }
    // C^iso of every arrival, for ANTT. poisson_load keys the application
    // sequence off the stream seed alone, so stream k offers the same
    // applications at every rate.
    sim::ClusterSim iso_cluster(cfg_, *features_);
    sched::IsolatedTimes isolated(iso_cluster);
    for (auto& load : loads_)
      for (sim::ServingArrival& a : load)
        a.isolated_s = isolated.get(a.app.benchmark, a.app.input_items);
  }

  Outcome pass(bool probed, std::size_t, std::vector<double>& unit_s) {
    sim::ClusterSim cluster(cfg_, *features_);
    sim::SchedulingPolicy& policy =
        probed ? static_cast<sim::SchedulingPolicy&>(*probed_) : *moe_;
    Outcome out;
    const std::size_t n_rates = opt_.rates_per_hr.size();
    for (std::size_t r = 0; r < n_rates; ++r) {
      for (std::size_t g = 0; g < 2; ++g) {
        sim::UnboundedAdmission unbounded;
        sim::MursGateAdmission murs(kMursFraction);
        sim::AdmissionPolicy& gate = g == 0 ? static_cast<sim::AdmissionPolicy&>(unbounded) : murs;
        for (std::size_t k = 0; k < kStreams; ++k) {
          const auto& load = loads_[r * kStreams + k];
          const std::int64_t t0 = now_ns();
          note_sim_started();
          if (probe_mode() == ProbeMode::kCounting) {
            CountingSinks sinks(nullptr);
            out.push_back(cluster.serve(load, policy, gate, sinks.sink()));
            const sim::ServingResult& res = out.back();
            add_run(policy.name(), sinks.counter(), res.apps.size(), res.executors_spawned,
                    res.oom_total, res.makespan);
          } else {
            const ScopedSpan span(span_names_[g * n_rates + r], true);
            out.push_back(cluster.serve(load, policy, gate));
          }
          unit_s.push_back(seconds_since(t0));
        }
      }
    }
    probed_->flush();
    return out;
  }

  static bool same(const Outcome& a, const Outcome& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const sim::ServingResult& x = a[i];
      const sim::ServingResult& y = b[i];
      if (!same_apps(x.apps, y.apps) || x.offered != y.offered || x.admitted != y.admitted ||
          x.dropped != y.dropped || x.deferrals != y.deferrals || x.makespan != y.makespan ||
          x.antt != y.antt || x.throughput != y.throughput || x.oom_total != y.oom_total ||
          x.executors_spawned != y.executors_spawned ||
          x.executors_degraded != y.executors_degraded || x.metrics != y.metrics)
        return false;
    }
    return true;
  }

  /// Exact sojourn sample of one (rate, gate) rung pooled over streams;
  /// dropped arrivals count as infinitely late (they miss any limit).
  std::vector<double> sojourns(const Outcome& out, std::size_t r, std::size_t g) const {
    std::vector<double> v;
    for (std::size_t k = 0; k < kStreams; ++k) {
      const sim::ServingResult& res = out[(r * 2 + g) * kStreams + k];
      for (const sim::AppResult& a : res.apps)
        v.push_back(a.finish >= 0 ? a.turnaround() : INFINITY);
      v.insert(v.end(), res.dropped, INFINITY);
    }
    std::sort(v.begin(), v.end());
    return v;
  }

  void checks(const Outcome& ref, Report& rep) const {
    std::size_t offered = 0, resolved = 0;
    for (const sim::ServingResult& res : ref) {
      offered += res.offered;
      resolved += res.admitted + res.dropped;
    }
    rep.checks.push_back({"serving every arrival admitted or dropped",
                          offered == resolved && offered == ref.size() * kArrivals,
                          std::to_string(resolved) + " of " + std::to_string(offered)});
  }

  /// The makespan is the top rate's under the unbounded gate, averaged over
  /// streams; OOMs and executors pool every run.
  Work end_to_end(const Outcome& ref, const Counts&, std::vector<Metric>& extra) const {
    std::size_t finished = 0, ooms = 0, executors = 0;
    for (const sim::ServingResult& res : ref) {
      for (const sim::AppResult& a : res.apps) finished += a.finish >= 0 ? 1 : 0;
      ooms += res.oom_total;
      executors += res.executors_spawned;
    }
    const std::size_t top = opt_.rates_per_hr.size() - 1;
    double makespan = 0;
    for (std::size_t k = 0; k < kStreams; ++k)
      makespan += ref[top * 2 * kStreams + k].makespan;

    const std::vector<double> top_unbounded = sojourns(ref, top, 0);
    const double n = static_cast<double>(top_unbounded.size());
    extra.push_back({"sojourn_p50_sim_s", exact_quantile(top_unbounded, 0.50), "s"});
    extra.push_back({"sojourn_p99_sim_s", exact_quantile(top_unbounded, 0.99), "s"});
    extra.push_back({"sojourn_samples", n, "count"});
    const double tail = tail_percentile(top_unbounded.size());
    extra.push_back({"sojourn_tail_percentile", 100.0 * tail, "%"});
    extra.push_back({"sojourn_tail_sim_s", exact_quantile(top_unbounded, tail), "s"});
    double slo_rate = 0;
    const auto gates = gate_names();
    for (std::size_t r = 0; r < opt_.rates_per_hr.size(); ++r) {
      for (std::size_t g = 0; g < 2; ++g) {
        const std::vector<double> s = sojourns(ref, r, g);
        const std::string rung = gates[g] + "." + rate_label(opt_.rates_per_hr[r]);
        const double p99 = exact_quantile(s, 0.99);
        extra.push_back({"sojourn_p50_sim_s." + rung, exact_quantile(s, 0.50), "s"});
        extra.push_back({"sojourn_p99_sim_s." + rung, p99, "s"});
        std::size_t dropped = 0;
        for (std::size_t k = 0; k < kStreams; ++k)
          dropped += ref[(r * 2 + g) * kStreams + k].dropped;
        if (dropped == 0 && p99 <= opt_.slo_p99_s)
          slo_rate = std::max(slo_rate, opt_.rates_per_hr[r]);
      }
    }
    extra.push_back({"slo_rate_apps_per_hr", slo_rate, "1/h"});
    return {static_cast<double>(finished), ratio(ooms, executors),
            makespan / static_cast<double>(kStreams)};
  }

  void per_layer(const Outcome&, const std::map<std::string, SpanTotals>& spans,
                 double pass_wall_s, std::map<std::string, double>& layer,
                 std::vector<Metric>& extra) const {
    const std::string prefix = "sparksim.serve.";
    for (const auto& [name, totals] : spans) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::string rung = name.substr(prefix.size());
      layer["sparksim.serve_share." + rung] = totals.total_s / pass_wall_s;
      extra.push_back({"sparksim.serve_s." + rung, totals.total_s, "s"});
    }
  }

 private:
  Options opt_;
  sim::SimConfig cfg_;
  std::vector<SpanName> span_names_;  // [gate][rate]
  std::unique_ptr<wl::FeatureModel> features_;
  std::unique_ptr<sched::MoePolicy> moe_;
  std::unique_ptr<ProbedPolicy> probed_;
  std::vector<std::vector<sim::ServingArrival>> loads_;  // [rate * kStreams + stream]
};

// ------------------------------------------------------------- harness --

/// Per-call cost of MoePredictor::select and ::calibrate, from standalone
/// calls over the 44 benchmarks' profiling features and probes (median of
/// per-benchmark means, in microseconds).
std::pair<double, double> time_predictor(std::uint64_t seed) {
  const wl::FeatureModel features(kWorldSeed);
  sched::SelectorCache cache(features, kWorldSeed);
  constexpr int kReps = 200;
  std::vector<double> select_us, calibrate_us;
  volatile double sink = 0;
  for (const wl::BenchmarkSpec& spec : wl::all_spark_benchmarks()) {
    const sched::SelectorCache::Entry& entry = cache.for_test_benchmark(spec.name);
    const smoe::core::MoePredictor predictor(entry.pool, entry.selector);
    sim::AppProbe probe(spec, features, 8192.0, Rng::derive(seed, "predictor:" + spec.name));
    const smoe::ml::Vector raw = probe.raw_features();
    const smoe::core::CalibrationProbes probes = sched::take_calibration_probes(probe);
    smoe::core::Selection sel;
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kReps; ++i) {
      sel = predictor.select(raw);
      sink = sink + sel.distance;
    }
    select_us.push_back(1e-3 * static_cast<double>(now_ns() - t0) / kReps);
    t0 = now_ns();
    for (int i = 0; i < kReps; ++i)
      sink = sink + predictor.calibrate(sel, probes).footprint(probes.x2);
    calibrate_us.push_back(1e-3 * static_cast<double>(now_ns() - t0) / kReps);
  }
  return {median(select_us), median(calibrate_us)};
}

const char* kEventNames[] = {"dispatch",       "executor_spawn", "executor_finish", "executor_oom",
                             "monitor_report", "app_arrival",    "admission"};
const smoe::obs::EventType kEventTypes[] = {
    smoe::obs::EventType::kDispatch,       smoe::obs::EventType::kExecutorSpawn,
    smoe::obs::EventType::kExecutorFinish, smoe::obs::EventType::kExecutorOom,
    smoe::obs::EventType::kMonitorReport,  smoe::obs::EventType::kAppArrival,
    smoe::obs::EventType::kAdmission};

/// Every per-layer metric, in report order, with its unit. Layers a workload
/// does not exercise report 0.
std::vector<std::pair<std::string, std::string>> per_layer_names(const Options& opt) {
  std::vector<std::pair<std::string, std::string>> names = {
      {"sched.race.sims", "count"},
      {"sched.race.fixed_budget_sims", "count"},
      {"sched.race.saved_frac", "frac"}};
  for (const wl::Scenario& sc : wl::scenarios())
    names.push_back({"sched.scenario_share." + sc.label, "frac"});
  names.insert(names.end(), {{"common.pool.threads", "count"},
                             {"common.pool.parallel_eff", "frac"},
                             {"core.profile.calls", "count"},
                             {"core.profile_s", "s"},
                             {"core.profile_us_p50", "us"},
                             {"core.select_us", "us"},
                             {"core.calibrate_us", "us"},
                             {"core.train.calls", "count"},
                             {"core.train_s", "s"},
                             {"sparksim.run_s", "s"},
                             {"sparksim.self_s", "s"},
                             {"sparksim.ns_per_event", "ns"}});
  for (const std::string& gate : ServingLadder::gate_names())
    for (const double rate : opt.rates_per_hr)
      names.push_back({"sparksim.serve_share." + gate + "." + rate_label(rate), "frac"});
  names.push_back({"sparksim.events", "count"});
  for (const char* e : kEventNames) names.push_back({std::string("sparksim.events.") + e, "count"});
  names.insert(names.end(), {{"sparksim.dispatch.rounds", "count"},
                             {"sparksim.dispatch.candidates", "count"},
                             {"sparksim.dispatch.candidates_per_spawn", "ratio"},
                             {"sparksim.isolated.calls", "count"},
                             {"sparksim.isolated_s", "s"},
                             {"workloads.gen_s", "s"},
                             {"obs.trace_overhead_frac", "frac"}});
  return names;
}

/// One pass: its outputs, wall time, per-unit times and simulations run.
template <class W>
struct PassRun {
  typename W::Outcome outcome;
  double wall_s = 0;
  double cpu_s = 0;            ///< process CPU time over the pass, all threads
  std::vector<double> unit_s;  ///< host s of each unit of the pass (scenario, run, serve call)
  std::uint64_t sims = 0;
};

template <class W>
PassRun<W> run_pass(W& w, ProbeMode mode, bool probed, std::size_t threads) {
  static const SpanName pass_name = span_name("pass");
  set_probe_mode(mode);
  PassRun<W> run;
  const std::uint64_t sims0 = sims_started();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  {
    const ScopedSpan span(pass_name);
    set_root_span(span.id());
    run.outcome = w.pass(probed, threads, run.unit_s);
    set_root_span(0);
  }
  run.wall_s = seconds_since(t0);
  run.cpu_s = 1e-9 * static_cast<double>(process_cpu_ns() - cpu0);
  run.sims = sims_started() - sims0;
  set_probe_mode(ProbeMode::kOff);
  return run;
}

template <class W>
void compare(Report& rep, const std::string& what, const PassRun<W>& run,
             const typename W::Outcome& ref) {
  const bool ok = W::same(run.outcome, ref);
  rep.attempted += run.sims;
  if (!ok) rep.failed += run.sims;
  rep.checks.push_back({what, ok, std::to_string(run.sims) + " simulations"});
}

template <class W>
Report untraced(const Options& opt) {
  Report rep;
  // kSetupRepeats set-ups are spread over the run, keeping level with the
  // timed passes, so setup_s samples the machine over the whole run rather
  // than at its start.
  std::vector<double> setup_walls;
  auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    auto fresh = std::make_unique<W>(opt);
    fresh->setup();
    setup_walls.push_back(seconds_since(t0));
    return fresh;
  };
  const std::unique_ptr<W> w = timed_setup();

  // Timed passes for opt.seconds; the first one is the reference the
  // others must reproduce exactly.
  const std::int64_t start = now_ns();
  std::vector<double> walls;
  PassRun<W> ref = run_pass(*w, ProbeMode::kOff, false, w->threads());
  walls.push_back(ref.wall_s);
  std::vector<std::vector<double>> unit_s(ref.unit_s.size());  // [unit][pass]
  auto add_units = [&](const PassRun<W>& run) {
    for (std::size_t u = 0; u < unit_s.size() && u < run.unit_s.size(); ++u)
      unit_s[u].push_back(run.unit_s[u]);
  };
  add_units(ref);
  rep.attempted += ref.sims;
  std::size_t repeats = 0, mismatches = 0;
  std::uint64_t repeat_sims = 0;
  while (seconds_since(start) < opt.seconds) {
    PassRun<W> run = run_pass(*w, ProbeMode::kOff, false, w->threads());
    walls.push_back(run.wall_s);
    add_units(run);
    const double progress = std::min(1.0, seconds_since(start) / opt.seconds);
    while (static_cast<double>(setup_walls.size()) < progress * kSetupRepeats) (void)timed_setup();
    ++repeats;
    repeat_sims += run.sims;
    rep.attempted += run.sims;
    if (!W::same(run.outcome, ref.outcome)) {
      ++mismatches;
      rep.failed += run.sims;
    }
  }
  rep.checks.push_back({"untraced passes repeat the first exactly", mismatches == 0,
                        std::to_string(repeats - mismatches) + " of " + std::to_string(repeats) +
                            " passes, " + std::to_string(repeat_sims) + " simulations"});
  while (setup_walls.size() < kSetupRepeats) (void)timed_setup();
  const double rss = peak_rss_mib();

  // Check pass: a CountingSink on every run gives the exact event count and
  // checks that attaching a sink changes no result. (The invariant auditor
  // rides on the traced run's counting pass only: on 10k nodes it costs
  // tens of seconds.)
  reset_counts();
  PassRun<W> counted = run_pass(*w, ProbeMode::kCounting, false, w->threads());
  const Counts k = counts();
  compare(rep, "pass with counting sinks matches untraced", counted, ref.outcome);
  w->checks(ref.outcome, rep);

  const Work work = w->end_to_end(ref.outcome, k, rep.extra);
  // A pass's wall time is the sum over its units of each unit's median
  // across passes, which keeps a burst of machine noise in one pass from
  // moving the whole figure.
  double wall = 0;
  for (const std::vector<double>& times : unit_s) wall += median(times);
  rep.metrics = {{"wall_s", wall, "s"},
                 {"app_sims_per_s", work.app_sims / wall, "1/s"},
                 {"events_per_s", static_cast<double>(k.events_total) / wall, "1/s"},
                 {"setup_s", median(setup_walls), "s"},
                 {"peak_rss_mib", rss, "MiB"},
                 {"oom_per_executor", work.oom_per_executor, "ratio"},
                 {"sim_makespan_s", work.sim_makespan_s, "s"}};
  const auto [min_wall, max_wall] = std::minmax_element(walls.begin(), walls.end());
  const auto [min_setup, max_setup] = std::minmax_element(setup_walls.begin(), setup_walls.end());
  rep.extra.insert(rep.extra.begin(),
                   {{"passes", static_cast<double>(walls.size()), "count"},
                    {"units_per_pass", static_cast<double>(unit_s.size()), "count"},
                    {"pass_wall_s_median", median(walls), "s"},
                    {"pass_wall_s_min", *min_wall, "s"},
                    {"pass_wall_s_max", *max_wall, "s"},
                    {"app_sims_per_pass", work.app_sims, "count"},
                    {"events_per_pass", static_cast<double>(k.events_total), "count"},
                    {"setup_s_min", *min_setup, "s"},
                    {"setup_s_max", *max_setup, "s"}});
  return rep;
}

template <class W>
Report traced(const Options& opt) {
  Report rep;
  auto w = std::make_unique<W>(opt);
  set_probe_mode(ProbeMode::kTiming);
  w->setup();
  set_probe_mode(ProbeMode::kOff);
  const std::vector<Span> setup_spans = drain_spans();
  const auto setup_totals = reduce_spans(setup_spans);

  // Untraced and timing passes alternate twice; the tracing overhead
  // compares the faster of each pair of like passes.
  const std::size_t threads = w->threads();
  PassRun<W> ref = run_pass(*w, ProbeMode::kOff, false, threads);
  rep.attempted += ref.sims;
  PassRun<W> timed = run_pass(*w, ProbeMode::kTiming, true, threads);
  std::vector<Span> timed_spans = drain_spans();
  compare(rep, "timing pass (decorated, spans) matches untraced", timed, ref.outcome);
  const PassRun<W> ref2 = run_pass(*w, ProbeMode::kOff, false, threads);
  compare(rep, "second untraced pass matches the first", ref2, ref.outcome);
  const PassRun<W> timed2 = run_pass(*w, ProbeMode::kTiming, true, threads);
  (void)drain_spans();
  compare(rep, "second timing pass matches untraced", timed2, ref.outcome);
  const double untraced_wall = std::min(ref.wall_s, ref2.wall_s);
  const double traced_wall = std::min(timed.wall_s, timed2.wall_s);
  // Per-simulation layer times come from a timing pass on a one-worker pool
  // (ExperimentRunner's --threads 1). ThreadPool::parallel_for_each also
  // runs jobs on the calling thread, so that pass still overlaps up to two
  // simulations; span sums are busy time, not wall time.
  PassRun<W> one = timed;
  std::vector<Span> layer_spans = timed_spans;
  if (threads > 1) {
    one = run_pass(*w, ProbeMode::kTiming, true, 1);
    layer_spans = drain_spans();
    compare(rep, "1-thread timing pass matches the " + std::to_string(threads) + "-thread passes",
            one, ref.outcome);
  }
  reset_counts();
  set_audit(W::kAudit);
  PassRun<W> counted = run_pass(*w, ProbeMode::kCounting, true, threads);
  set_audit(false);
  const Counts k = counts();
  compare(rep, std::string("counting pass (decorated, counting sinks") +
                   (W::kAudit ? ", invariant auditor" : "") + ") matches untraced",
          counted, ref.outcome);
  w->checks(ref.outcome, rep);

  if (!opt.spans_path.empty()) {
    write_spans(opt.spans_path, "setup", setup_spans);
    write_spans(opt.spans_path, "timing", timed_spans);
    if (threads > 1) write_spans(opt.spans_path, "timing-1thread", layer_spans);
  }
  const auto totals = reduce_spans(layer_spans);
  const auto timed_totals = reduce_spans(timed_spans);
  auto total = [&](const std::map<std::string, SpanTotals>& t, const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? SpanTotals{} : it->second;
  };

  std::map<std::string, double> layer;
  layer["common.pool.threads"] = static_cast<double>(threads);
  layer["common.pool.parallel_eff"] =
      threads > 1 ? one.wall_s / (static_cast<double>(threads) * traced_wall) : 0.0;
  const SpanTotals profile = total(totals, "core.profile");
  layer["core.profile.calls"] = static_cast<double>(k.profile_calls);
  layer["core.profile_s"] = profile.total_s;
  layer["core.profile_us_p50"] = 1e6 * median(profile.durations_s);
  const SpanTotals train = total(setup_totals, "core.train");
  layer["core.train.calls"] = static_cast<double>(train.count);
  layer["core.train_s"] = train.total_s;
  // A simulation is a ClusterSim::run or ::serve span; its only child span
  // is profile(), so self_s = run_s - core.profile_s.
  double run_s = 0, self_s = 0, sim_cpu_s = 0;
  for (const auto& [name, t] : totals) {
    if (name == "sparksim.run" || name.rfind("sparksim.serve.", 0) == 0) {
      run_s += t.total_s;
      self_s += t.self_s;
      sim_cpu_s += t.cpu_s;
    }
  }
  layer["sparksim.run_s"] = run_s;
  layer["sparksim.self_s"] = self_s;
  layer["sparksim.ns_per_event"] = 1e9 * ratio(run_s, static_cast<double>(k.events_total));
  layer["sparksim.events"] = static_cast<double>(k.events_total);
  for (std::size_t e = 0; e < std::size(kEventNames); ++e)
    layer[std::string("sparksim.events.") + kEventNames[e]] =
        static_cast<double>(k.events[static_cast<std::size_t>(kEventTypes[e])]);
  layer["sparksim.dispatch.rounds"] = static_cast<double>(k.mode_calls);
  layer["sparksim.dispatch.candidates"] = static_cast<double>(k.cpu_check_calls);
  const auto spawns = k.events[static_cast<std::size_t>(smoe::obs::EventType::kExecutorSpawn)];
  layer["sparksim.dispatch.candidates_per_spawn"] =
      ratio(static_cast<double>(k.cpu_check_calls), static_cast<double>(spawns));
  const SpanTotals iso_setup = total(setup_totals, "sparksim.isolated");
  const SpanTotals iso_pass = total(totals, "sparksim.isolated");
  layer["sparksim.isolated.calls"] = static_cast<double>(iso_setup.count + iso_pass.count);
  layer["sparksim.isolated_s"] = iso_setup.total_s + iso_pass.total_s;
  layer["workloads.gen_s"] = total(setup_totals, "workloads.gen").total_s;
  layer["obs.trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall;
  const auto [select_us, calibrate_us] = time_predictor(opt.seed);
  layer["core.select_us"] = select_us;
  layer["core.calibrate_us"] = calibrate_us;
  std::vector<Metric> layer_extra;
  w->per_layer(ref.outcome, timed_totals, timed.wall_s, layer, layer_extra);

  // Accounting: the simulation layers must explain the busy time of the
  // pass they were taken from. Busy time is the process CPU time over the
  // pass, all threads, read apart from the spans; the layers are the thread
  // CPU time inside ClusterSim::run/::serve and ::isolated_exec_time spans.
  // What is left (racing, baselines, metrics, mix generation, cluster set-up
  // in the pass) must stay under kUnexplained of it. On single-threaded
  // workloads the same holds for span wall time against the pass wall.
  constexpr double kUnexplained = 0.05;
  auto explained = [&](const char* what, double layers_s, double pass_s) {
    const double unexplained = 1.0 - layers_s / pass_s;
    char buf[160];
    std::snprintf(buf, sizeof buf, "layers %.4f s of %.4f s, unexplained %.2f%% (limit %.0f%%)",
                  layers_s, pass_s, 100.0 * unexplained, 100.0 * kUnexplained);
    rep.checks.push_back({std::string("accounting: simulation layers explain the pass ") + what,
                          unexplained >= -0.01 && unexplained <= kUnexplained, buf});
    rep.extra.push_back({std::string("unexplained_frac.") + what, unexplained, "frac"});
  };
  explained("cpu", sim_cpu_s + iso_pass.cpu_s, one.cpu_s);
  if (threads == 1) explained("wall", run_s + iso_pass.total_s, one.wall_s);
  for (const Check& c : rep.checks)
    if (!c.passed && c.name.rfind("accounting", 0) == 0) rep.failed += one.sims;

  for (const auto& [name, unit] : per_layer_names(opt)) {
    const auto it = layer.find(name);
    rep.metrics.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
  }
  const double spans_recorded = static_cast<double>(
      setup_spans.size() + timed_spans.size() + (threads > 1 ? layer_spans.size() : 0));
  rep.extra.insert(rep.extra.begin(), {{"untraced_pass_wall_s", untraced_wall, "s"},
                                       {"timing_pass_wall_s", traced_wall, "s"},
                                       {"layer_pass_wall_s", one.wall_s, "s"},
                                       {"layer_pass_busy_over_wall", run_s / one.wall_s, "ratio"},
                                       {"spans_recorded", spans_recorded, "count"}});
  rep.extra.insert(rep.extra.end(), layer_extra.begin(), layer_extra.end());
  return rep;
}

template <class W>
Report run(const Options& opt) {
  return opt.trace ? traced<W>(opt) : untraced<W>(opt);
}

}  // namespace

Report run_fig6_sweep(const Options& opt) { return run<Fig6Sweep>(opt); }
Report run_mega_cluster(const Options& opt) { return run<MegaCluster>(opt); }
Report run_serving_ladder(const Options& opt) { return run<ServingLadder>(opt); }

}  // namespace perfbench
