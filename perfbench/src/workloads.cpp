#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "core/oracle.hpp"
#include "core/validator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "feed/reliability.hpp"
#include "speed.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workload/churn.hpp"
#include "workload/constraints.hpp"

namespace perfbench {
namespace {

using lagover::Round;

// ---------------------------------------------------------------------
// Small helpers.

/// Deterministic per-(stream, index) seed derived from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  lagover::SplitMix64 mix(seed ^ (stream * 0x9E3779B97F4A7C15ULL) ^
                          (index * 0xD1B54A32D192ED03ULL));
  mix.next();
  return mix.next();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, fmt, args...);
  return buffer;
}

lagover::Population generate(lagover::WorkloadKind kind, std::size_t peers,
                             std::uint64_t seed) {
  lagover::WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return lagover::generate_workload(kind, params);
}

// ---------------------------------------------------------------------
// What one unit of benchmark work reports, and what the traced pass
// counts beside its spans.

struct OpResult {
  std::uint64_t op_ns = 0;
  double rounds = -1.0;  ///< rounds (or sim time) to converge, <0 = n/a
  double ok_num = 0.0;   ///< satisfied share of ok_den (ok_fraction)
  double ok_den = 0.0;
  bool failed = false;
  /// Seeded outcome; every pass over the same ops must reproduce it.
  std::vector<std::uint64_t> fingerprint;
};

struct SetupSample {
  std::uint64_t setup_ns = 0;
  std::uint64_t generate_ns = 0;
  double rounds = -1.0;  ///< rounds to converge the set-up tree, <0 = n/a
};

struct Layers {
  Tracer tracer;
  OverlayProbe probe;
  std::uint64_t oracle_queries = 0;
  std::uint64_t oracle_empty = 0;
  std::uint64_t churn_calls = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t churn_joins = 0;
  std::uint64_t rounds = 0;
  double node_rounds = 0.0;  ///< online nodes summed over traced rounds
  std::uint64_t maintenance_detaches = 0;
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t partition_blocks = 0;
  std::uint64_t oracle_outage_queries = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t counted_deliveries = 0;
  std::uint64_t lost_pushes = 0;
  std::uint64_t recovery_pulls = 0;
  std::uint64_t recovered = 0;
  std::uint64_t late = 0;
};

/// Pauses span recording (set-up work in a traced pass is not part of
/// the per-layer profile).
class Paused {
 public:
  explicit Paused(Layers* layers) : layers_(layers) {
    if (layers_ != nullptr) layers_->tracer.set_recording(false);
  }
  ~Paused() {
    if (layers_ != nullptr) layers_->tracer.set_recording(true);
  }
  Paused(const Paused&) = delete;
  Paused& operator=(const Paused&) = delete;

 private:
  Layers* layers_;
};

/// Speed probes of a timed pass (see speed.hpp), taken at most every
/// kProbeEveryNs of wall time: between ops and set-ups, and inside ops
/// that run for seconds.
class Prober {
 public:
  static constexpr std::uint64_t kProbeEveryNs = 250'000'000;

  explicit Prober(SpeedProbe* probe) : probe_(probe) {}

  /// Probes if one is due, or always with `force`. Returns the wall time
  /// it took, which an op leaves out of its own time.
  std::uint64_t poll(bool force = false) {
    const std::uint64_t start = now_ns();
    if (probe_ == nullptr || !(force || start - last_ >= kProbeEveryNs))
      return 0;
    samples_ns.push_back(static_cast<double>(probe_->measure()));
    last_ = now_ns();
    return last_ - start;
  }

  std::vector<double> samples_ns;

 private:
  SpeedProbe* probe_;
  std::uint64_t last_ = 0;
};

class Workload {
 public:
  explicit Workload(int spread_setups) : spread_setups_(spread_setups) {}
  virtual ~Workload() = default;
  /// Ops a run does at least; peak RSS is read once they are done, so
  /// that it rests on a fixed amount of work, not on the machine's speed.
  virtual std::uint64_t min_ops() const { return 1; }
  /// Builds the state the ops of a pass share; returns one sample per
  /// set-up it timed.
  virtual std::vector<SetupSample> begin_pass(Layers*, Result&) { return {}; }
  /// Times one complete set-up on the `rep`-th seed of a stream of its
  /// own, so the ops' inputs do not depend on it, and discards what it
  /// built.
  virtual SetupSample time_setup(std::uint64_t rep, Result& result) = 0;
  /// How many time_setup() samples a timed pass spreads evenly over its
  /// ops. A shared machine's speed drifts over seconds, so a median over
  /// the whole run is steadier than one over a burst at its start.
  int spread_setups() const { return spread_setups_; }
  virtual OpResult op(std::uint64_t index, Layers* layers, Result& result) = 0;
  /// End-of-pass checks; returns the pass's final outcome fingerprint.
  virtual std::vector<std::uint64_t> end_pass(Result&) { return {}; }
  /// The running pass's prober (it probes only in a timed pass).
  void set_prober(Prober* prober) { prober_ = prober; }
  /// Checks the self-time shares of the traced run against the layers
  /// this workload is expected to spend its time in; `why` says what
  /// was expected and what was seen.
  virtual bool attribution_agrees(const std::map<std::string, double>&,
                                  std::string& why) const {
    why = "no prediction for this workload";
    return true;
  }

 protected:
  /// Probes inside an op if one is due; returns the time to leave out.
  std::uint64_t probe_pause() {
    return prober_ == nullptr ? 0 : prober_->poll();
  }

 private:
  int spread_setups_;
  Prober* prober_ = nullptr;
};

/// Set-up of the workloads whose ops start from an empty engine:
/// population generation plus engine construction.
template <typename EngineT, typename Config>
SetupSample time_fresh_setup(lagover::WorkloadKind kind, std::size_t peers,
                             std::uint64_t seed, Config config) {
  SetupSample sample;
  const std::uint64_t t0 = now_ns();
  lagover::Population population = generate(kind, peers, seed);
  sample.generate_ns = now_ns() - t0;
  const EngineT engine(std::move(population), std::move(config));
  sample.setup_ns = now_ns() - t0;
  return sample;
}

/// Wraps the default Oracle of `kind` when tracing.
template <typename EngineT>
TracedOracle* install_oracle(EngineT& engine, lagover::OracleKind kind,
                             Layers* layers) {
  if (layers == nullptr) return nullptr;
  auto traced =
      std::make_unique<TracedOracle>(lagover::make_oracle(kind), layers->tracer);
  TracedOracle* raw = traced.get();
  engine.set_oracle(std::move(traced));
  return raw;
}

void note_oracle(Layers* layers, const TracedOracle* oracle) {
  if (layers == nullptr || oracle == nullptr) return;
  layers->oracle_queries += oracle->stats().queries;
  layers->oracle_empty += oracle->stats().empty_results;
}

/// One synchronous round, spanned and probed when tracing.
lagover::RoundStats traced_round(lagover::Engine& engine, Layers* layers) {
  if (layers == nullptr) return engine.run_round();
  lagover::RoundStats stats;
  {
    Tracer::Scope scope(layers->tracer, "engine.round");
    stats = engine.run_round();
  }
  ++layers->rounds;
  layers->node_rounds += static_cast<double>(stats.online);
  layers->probe.run(layers->tracer, engine.overlay());
  return stats;
}

/// Engine::run_until_converged, spelled out so each round is spanned.
std::optional<Round> converge(lagover::Engine& engine, Round budget,
                              Layers* layers) {
  if (layers == nullptr) return engine.run_until_converged(budget);
  if (engine.overlay().all_satisfied()) return engine.round();
  for (Round r = 0; r < budget; ++r) {
    traced_round(engine, layers);
    if (engine.overlay().all_satisfied()) return engine.round();
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// construct: hybrid + RandomDelay (O3) over a Rand population, from
// empty to converged; a fresh population and engine seed per op.

class Construct final : public Workload {
 public:
  Construct(std::uint64_t seed, std::size_t peers, Round budget,
            int spread_setups)
      : Workload(spread_setups), seed_(seed), peers_(peers), budget_(budget) {}

  SetupSample time_setup(std::uint64_t rep, Result&) override {
    const std::uint64_t seed = derive(seed_, 6, rep);
    return time_fresh_setup<lagover::Engine>(lagover::WorkloadKind::kRand,
                                             peers_, seed, config(seed));
  }

  OpResult op(std::uint64_t index, Layers* layers, Result& result) override {
    OpResult out;
    const std::uint64_t seed = derive(seed_, 1, index);
    lagover::Engine engine(generate(lagover::WorkloadKind::kRand, peers_, seed),
                           config(seed));
    TracedOracle* oracle =
        install_oracle(engine, lagover::OracleKind::kRandomDelay, layers);

    std::optional<Round> converged;
    const std::uint64_t start = now_ns();
    if (layers != nullptr) {
      layers->tracer.next_trace();
      Tracer::Scope root(layers->tracer, "workload.construct");
      converged = converge(engine, budget_, layers);
    } else {
      converged = engine.run_until_converged(budget_);
    }
    out.op_ns = now_ns() - start;

    const lagover::Overlay& overlay = engine.overlay();
    const bool valid = lagover::validate_overlay(overlay).converged();
    out.failed = !converged.has_value() || !valid;
    result.check(!out.failed,
                 "construction " + std::to_string(index) + " (seed " +
                     std::to_string(seed) + ") did not converge within " +
                     std::to_string(budget_) + " rounds");
    out.rounds = static_cast<double>(engine.round());
    out.ok_num = out.failed ? 0.0 : 1.0;
    out.ok_den = 1.0;
    out.fingerprint = {engine.round(), overlay.satisfied_count(),
                       overlay.counters().attaches, overlay.counters().detaches,
                       engine.oracle().stats().queries};
    if (layers != nullptr) {
      note_oracle(layers, oracle);
      layers->maintenance_detaches += engine.maintenance_detaches();
      layers->attaches += overlay.counters().attaches;
      layers->detaches += overlay.counters().detaches;
    }
    return out;
  }

  bool attribution_agrees(const std::map<std::string, double>& self,
                          std::string& why) const override {
    const auto top = std::max_element(
        self.begin(), self.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    why = "expected core/oracle to hold the largest self time; top is " +
          top->first + format(" (%.1f%%)", 100.0 * top->second);
    return top->first == "oracle";
  }

 private:
  static lagover::EngineConfig config(std::uint64_t seed) {
    lagover::EngineConfig config;
    config.seed = seed;
    return config;
  }

  std::uint64_t seed_;
  std::size_t peers_;
  Round budget_;
};

// ---------------------------------------------------------------------
// Shared set-up of churn and feed-lossy: converge `reps` hybrid/O3 trees
// over Rand populations with distinct seeds. Ops rotate over the trees,
// so a run averages over several inputs rather than resting on one.

class ConvergedTrees : public Workload {
 protected:
  struct Tree {
    std::unique_ptr<lagover::Engine> engine;
    TracedChurn* churn = nullptr;
    // State at the end of set-up: only the ops' work is profiled.
    lagover::OverlayCounters counters;
    std::uint64_t maintenance_detaches = 0;
    lagover::OracleStats oracle_stats;
  };

  ConvergedTrees(std::uint64_t seed, std::uint64_t stream, std::size_t peers,
                 Round budget, int reps, int spread_setups)
      : Workload(spread_setups), seed_(seed), stream_(stream), peers_(peers),
        budget_(budget), reps_(reps) {}

  std::vector<SetupSample> build(Layers* layers, Result& result) {
    std::vector<SetupSample> samples;
    trees_.clear();
    for (int rep = 0; rep < reps_; ++rep) {
      SetupSample sample;
      trees_.push_back(converge_tree(
          derive(seed_, stream_, static_cast<std::uint64_t>(rep)), layers,
          result, sample));
      samples.push_back(sample);
    }
    return samples;
  }

  SetupSample time_setup(std::uint64_t rep, Result& result) override {
    SetupSample sample;
    converge_tree(derive(seed_, stream_ + 10, rep), nullptr, result, sample);
    return sample;
  }

  Tree converge_tree(std::uint64_t seed, Layers* layers, Result& result,
                     SetupSample& sample) {
    Tree tree;
    const std::uint64_t t0 = now_ns();
    lagover::Population population =
        generate(lagover::WorkloadKind::kRand, peers_, seed);
    sample.generate_ns = now_ns() - t0;
    lagover::EngineConfig config;
    config.seed = seed;
    tree.engine =
        std::make_unique<lagover::Engine>(std::move(population), config);
    install_oracle(*tree.engine, lagover::OracleKind::kRandomDelay, layers);
    std::optional<Round> converged;
    {
      const Paused paused(layers);
      converged = tree.engine->run_until_converged(budget_);
    }
    sample.setup_ns = now_ns() - t0;
    sample.rounds = static_cast<double>(tree.engine->round());
    const lagover::Engine& engine = *tree.engine;
    result.check(converged.has_value() &&
                     lagover::validate_overlay(engine.overlay()).converged(),
                 "set-up tree (seed " + std::to_string(seed) +
                     ") did not converge within " + std::to_string(budget_) +
                     " rounds");
    tree.counters = engine.overlay().counters();
    tree.maintenance_detaches = engine.maintenance_detaches();
    tree.oracle_stats = engine.oracle().stats();
    return tree;
  }

  Tree& tree(std::uint64_t index) { return trees_[index % trees_.size()]; }

  std::uint64_t seed_;
  std::uint64_t stream_;
  std::size_t peers_;
  Round budget_;
  int reps_;
  std::vector<Tree> trees_;
};

// ---------------------------------------------------------------------
// churn: steady BernoulliChurn(0.01, 0.2) on converged trees; one op is
// one round of one tree.

class Churn final : public ConvergedTrees {
 public:
  Churn(std::uint64_t seed, std::size_t peers, Round budget, int reps,
        int spread_setups)
      : ConvergedTrees(seed, 2, peers, budget, reps, spread_setups) {}

  // Churned trees grow by about 0.25 MB per 1000 rounds; peak RSS after
  // a fixed 2000 rounds shows that growth without depending on speed.
  std::uint64_t min_ops() const override { return 2000; }

  std::vector<SetupSample> begin_pass(Layers* layers, Result& result) override {
    std::vector<SetupSample> samples = build(layers, result);
    for (Tree& t : trees_) {
      auto churn = std::make_unique<lagover::BernoulliChurn>(0.01, 0.2);
      if (layers != nullptr) {
        auto traced =
            std::make_unique<TracedChurn>(std::move(churn), layers->tracer);
        t.churn = traced.get();
        t.engine->set_churn(std::move(traced));
      } else {
        t.engine->set_churn(std::move(churn));
      }
    }
    layers_ = layers;
    return samples;
  }

  OpResult op(std::uint64_t index, Layers* layers, Result&) override {
    OpResult out;
    lagover::Engine& engine = *tree(index).engine;
    lagover::RoundStats stats;
    const std::uint64_t start = now_ns();
    if (layers != nullptr) {
      layers->tracer.next_trace();
      Tracer::Scope root(layers->tracer, "workload.churn_round");
      stats = traced_round(engine, layers);
    } else {
      stats = engine.run_round();
    }
    out.op_ns = now_ns() - start;
    out.ok_num = static_cast<double>(stats.satisfied);
    out.ok_den = static_cast<double>(stats.online);
    out.fingerprint = {stats.online, stats.satisfied, stats.orphan_roots};
    return out;
  }

  std::vector<std::uint64_t> end_pass(Result& result) override {
    std::vector<std::uint64_t> fingerprint;
    for (const Tree& t : trees_) {
      const lagover::Engine& engine = *t.engine;
      const lagover::Overlay& overlay = engine.overlay();
      overlay.audit();  // aborts (nonzero exit) on a broken invariant
      const std::size_t satisfied = overlay.satisfied_count();
      result.check(satisfied <= overlay.online_count(),
                   "churn: satisfied count exceeds online count");
      fingerprint.insert(fingerprint.end(),
                         {engine.round(), satisfied, overlay.online_count(),
                          overlay.counters().attaches,
                          overlay.counters().detaches,
                          engine.oracle().stats().queries});
      if (layers_ == nullptr) continue;
      layers_->oracle_queries +=
          engine.oracle().stats().queries - t.oracle_stats.queries;
      layers_->oracle_empty +=
          engine.oracle().stats().empty_results - t.oracle_stats.empty_results;
      layers_->churn_calls += t.churn->calls;
      layers_->churn_leaves += t.churn->leaves;
      layers_->churn_joins += t.churn->joins;
      layers_->attaches += overlay.counters().attaches - t.counters.attaches;
      layers_->detaches += overlay.counters().detaches - t.counters.detaches;
      layers_->maintenance_detaches +=
          engine.maintenance_detaches() - t.maintenance_detaches;
    }
    return fingerprint;
  }

 private:
  Layers* layers_ = nullptr;
};

// ---------------------------------------------------------------------
// async-faults: AsyncEngine, hybrid, BiUnCorr, bench_chaos's canonical
// plan at drop 0.2, fixed horizon; one op is one run.

constexpr double kAsyncHorizon = 400.0;
constexpr double kAsyncChunk = 10.0;

lagover::fault::FaultPlan chaos_plan() {
  using lagover::fault::FaultPlan;
  FaultPlan plan;
  plan.add(FaultPlan::drop(30.0, 80.0, 0.2))
      .add(FaultPlan::partition(100.0, 150.0, 0.1))
      .add(FaultPlan::oracle_outage(140.0, 190.0));
  return plan;
}

class AsyncFaults final : public Workload {
 public:
  AsyncFaults(std::uint64_t seed, std::size_t peers, int spread_setups)
      : Workload(spread_setups), seed_(seed), peers_(peers) {}

  SetupSample time_setup(std::uint64_t rep, Result&) override {
    const std::uint64_t seed = derive(seed_, 7, rep);
    return time_fresh_setup<lagover::AsyncEngine>(
        lagover::WorkloadKind::kBiUnCorr, peers_, seed, config(seed));
  }

  OpResult op(std::uint64_t index, Layers* layers, Result& result) override {
    OpResult out;
    const std::uint64_t seed = derive(seed_, 3, index);
    lagover::AsyncEngine engine(
        generate(lagover::WorkloadKind::kBiUnCorr, peers_, seed), config(seed));
    TracedOracle* oracle =
        install_oracle(engine, lagover::OracleKind::kRandomDelay, layers);

    // Online node-time accounting (ok_fraction) and first convergence,
    // sampled every time unit in every pass.
    std::uint64_t ticks = 0;
    double satisfied_time = 0.0;
    double online_time = 0.0;
    double converged_at = -1.0;
    const lagover::Overlay& overlay = engine.overlay();
    engine.set_sampler(1.0, [&](lagover::SimTime now) {
      ++ticks;
      std::size_t satisfied = 0;
      if (layers != nullptr) {
        Tracer::Scope scope(layers->tracer, "overlay.satisfied_count");
        satisfied = overlay.satisfied_count();
      } else {
        satisfied = overlay.satisfied_count();
      }
      satisfied_time += static_cast<double>(satisfied);
      online_time += static_cast<double>(overlay.online_count());
      if (converged_at < 0.0 && satisfied == overlay.online_count())
        converged_at = now;
      if (layers != nullptr) {
        layers->probe.run(layers->tracer, overlay);
        layers->pending_max = std::max<std::uint64_t>(
            layers->pending_max, engine.simulator().pending_events());
      }
    });

    const std::uint64_t start = now_ns();
    std::uint64_t paused = 0;
    if (layers != nullptr) {
      layers->tracer.next_trace();
      Tracer::Scope root(layers->tracer, "workload.async_run");
      for (double t = 0.0; t < kAsyncHorizon; t += kAsyncChunk) {
        Tracer::Scope chunk(layers->tracer, "async.run_for");
        engine.run_for(kAsyncChunk);
      }
    } else {
      // In chunks, so that the machine's speed is probed during the run
      // too. Each chunk resumes where the last stopped, so the engine
      // steps through the same events as in one call.
      for (double t = 0.0; t < kAsyncHorizon; t += kAsyncChunk) {
        engine.run_for(kAsyncChunk);
        paused += probe_pause();
      }
    }
    out.op_ns = now_ns() - start - paused;

    overlay.audit();  // aborts (nonzero exit) on a broken invariant
    result.check(engine.simulator().now() == kAsyncHorizon,
                 "async run " + std::to_string(index) +
                     " stopped short of the horizon");
    const std::uint64_t events = engine.simulator().executed_events() - ticks;
    const lagover::fault::FaultStats& faults = engine.faults()->stats();
    out.rounds = converged_at < 0.0 ? kAsyncHorizon : converged_at;
    out.ok_num = satisfied_time;
    out.ok_den = online_time;
    out.fingerprint = {events,
                       overlay.satisfied_count(),
                       overlay.online_count(),
                       engine.oracle().stats().queries,
                       faults.messages_dropped,
                       faults.partition_blocks,
                       faults.oracle_outage_queries};
    if (layers != nullptr) {
      note_oracle(layers, oracle);
      layers->events += events;
      layers->attaches += overlay.counters().attaches;
      layers->detaches += overlay.counters().detaches;
      layers->messages_dropped += faults.messages_dropped;
      layers->partition_blocks += faults.partition_blocks;
      layers->oracle_outage_queries += faults.oracle_outage_queries;
    }
    return out;
  }

  bool attribution_agrees(const std::map<std::string, double>& self,
                          std::string& why) const override {
    const auto share = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end() ? 0.0 : it->second;
    };
    // The engine's own all_satisfied() check on every wake runs inside
    // run_for, so from outside the library it is part of async self
    // time: this shows that async self time dominates and the Oracle is
    // small, not how much of it the per-wake check takes.
    const double both = share("async") + share("overlay");
    const double oracle = share("oracle");
    why = "expected async self time plus the overlay probe above 50% and "
          "the Oracle below 10%; they hold" +
          format(" %.1f%% and %.1f%%", 100.0 * both, 100.0 * oracle) +
          "; the engine's per-wake all_satisfied() is inside async self "
          "time and not split out";
    return both > 0.5 && oracle < 0.1;
  }

 private:
  static lagover::AsyncConfig config(std::uint64_t seed) {
    lagover::AsyncConfig config;
    config.seed = seed;
    config.faults = std::make_shared<lagover::fault::FaultInjector>(
        chaos_plan(), seed ^ 0xc4a05);
    return config;
  }

  std::uint64_t seed_;
  std::size_t peers_;
};

// ---------------------------------------------------------------------
// feed-lossy: run_lossy_dissemination at 5% push loss with NACK repair
// over the converged trees; one op is one run.

constexpr double kFeedDuration = 250.0;

class FeedLossy final : public ConvergedTrees {
 public:
  FeedLossy(std::uint64_t seed, std::size_t peers, Round budget, int reps,
            int spread_setups)
      : ConvergedTrees(seed, 4, peers, budget, reps, spread_setups) {}

  // The trees are static here, so every pass shares the first pass's.
  std::vector<SetupSample> begin_pass(Layers*, Result& result) override {
    if (!trees_.empty()) return {};
    return build(nullptr, result);
  }

  OpResult op(std::uint64_t index, Layers* layers, Result& result) override {
    OpResult out;
    const lagover::Overlay& overlay = tree(index).engine->overlay();
    lagover::feed::LossyConfig config;
    config.base.seed = derive(seed_, 5, index);
    config.push_loss = 0.05;
    config.enable_recovery = true;
    config.repair = lagover::feed::RepairMode::kNack;
    lagover::feed::LossyReport report;
    const std::uint64_t start = now_ns();
    if (layers != nullptr) {
      layers->tracer.next_trace();
      Tracer::Scope root(layers->tracer, "workload.feed_run");
      Tracer::Scope call(layers->tracer, "feed.run_lossy");
      report = lagover::feed::run_lossy_dissemination(overlay, config,
                                                      kFeedDuration);
    } else {
      report = lagover::feed::run_lossy_dissemination(overlay, config,
                                                      kFeedDuration);
    }
    out.op_ns = now_ns() - start;

    const std::uint64_t delivered = static_cast<std::uint64_t>(std::llround(
        report.delivery_ratio * static_cast<double>(report.expected_deliveries)));
    result.check(report.applications ==
                     report.push_deliveries + report.recovered_deliveries,
                 "feed run " + std::to_string(index) +
                     ": applications != push + recovered deliveries");
    result.check(report.expected_deliveries > 0,
                 "feed run " + std::to_string(index) + " expected no deliveries");
    out.ok_num = static_cast<double>(delivered);
    out.ok_den = static_cast<double>(report.expected_deliveries);
    out.fingerprint = {report.applications,        report.push_deliveries,
                       report.recovered_deliveries, report.lost_pushes,
                       report.recovery_pulls,       report.late_deliveries,
                       report.expected_deliveries};
    if (layers != nullptr) {
      layers->deliveries += report.applications;
      layers->counted_deliveries += delivered;
      layers->lost_pushes += report.lost_pushes;
      layers->recovery_pulls += report.recovery_pulls;
      layers->recovered += report.recovered_deliveries;
      layers->late += report.late_deliveries;
    }
    return out;
  }
};

// ---------------------------------------------------------------------
// Driver.

struct Sizes {
  std::size_t construct = 4096;
  std::size_t churn = 2048;
  std::size_t async = 1024;
  std::size_t feed = 4096;
  int tree_reps = 7;  ///< converged trees built by churn / feed-lossy
  // Set-up samples spread over a timed run (Workload::spread_setups);
  // fewer where one set-up converges a whole tree.
  int fresh_setups = 200;
  int churn_setups = 16;
  int feed_setups = 8;
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  Sizes sizes;
  if (options.tiny) sizes = {96, 96, 64, 96, 2, 5, 2, 1};
  const Round budget = options.round_budget != 0 ? options.round_budget : 200;
  const std::uint64_t seed = options.seed;
  if (options.workload == "construct")
    return std::make_unique<Construct>(seed, sizes.construct, budget,
                                       sizes.fresh_setups);
  if (options.workload == "churn")
    return std::make_unique<Churn>(seed, sizes.churn, budget, sizes.tree_reps,
                                   sizes.churn_setups);
  if (options.workload == "async-faults")
    return std::make_unique<AsyncFaults>(seed, sizes.async, sizes.fresh_setups);
  if (options.workload == "feed-lossy")
    return std::make_unique<FeedLossy>(seed, sizes.feed, budget, sizes.tree_reps,
                                       sizes.feed_setups);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

struct Pass {
  std::vector<SetupSample> setups;
  std::vector<OpResult> ops;
  std::vector<std::uint64_t> end_fingerprint;
  std::vector<double> probe_ns;  ///< speed probes of a timed pass
  std::uint64_t peak_rss_bytes = 0;  ///< once min_ops ops are done

  double op_ns() const {
    double total = 0.0;
    for (const OpResult& op : ops) total += static_cast<double>(op.op_ns);
    return total;
  }
};

/// Runs ops until they have taken `seconds` (and min_ops are done),
/// taking the workload's spread set-up samples between them, or exactly
/// `fixed_ops` ops and no extra set-ups when it is non-zero. With a
/// `probe`, the machine's speed is probed before and after the pass and
/// every Prober::kProbeEveryNs in between.
Pass run_pass(Workload& workload, Layers* layers, double seconds,
              std::uint64_t fixed_ops, Result& result,
              SpeedProbe* probe = nullptr) {
  Pass pass;
  Prober prober(probe);
  workload.set_prober(&prober);
  prober.poll(true);
  pass.setups = workload.begin_pass(layers, result);
  const double budget_ns = seconds * 1e9;
  const std::uint64_t min_ops = std::max<std::uint64_t>(1, workload.min_ops());
  const std::uint64_t spread =
      fixed_ops != 0 ? 0 : static_cast<std::uint64_t>(workload.spread_setups());
  std::uint64_t setups = 0;
  double op_ns = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    // Set-up k is due once the ops have taken k/spread of the budget.
    while (setups < spread &&
           op_ns >= static_cast<double>(setups) * budget_ns /
                        static_cast<double>(spread)) {
      prober.poll();
      pass.setups.push_back(workload.time_setup(setups++, result));
    }
    if (fixed_ops != 0 ? i >= fixed_ops : i >= min_ops && op_ns >= budget_ns)
      break;
    prober.poll();
    pass.ops.push_back(workload.op(i, layers, result));
    op_ns += static_cast<double>(pass.ops.back().op_ns);
    if (i + 1 == min_ops)
      pass.peak_rss_bytes = lagover::telemetry::peak_rss_bytes();
  }
  prober.poll(true);
  workload.set_prober(nullptr);
  pass.probe_ns = std::move(prober.samples_ns);
  pass.end_fingerprint = workload.end_pass(result);
  return pass;
}

void add_end_to_end(const Pass& pass, Result& result) {
  std::vector<double> setup_ns, rounds, op_ms;
  double ok_num = 0.0, ok_den = 0.0;
  for (const SetupSample& s : pass.setups) {
    setup_ns.push_back(static_cast<double>(s.setup_ns));
    if (s.rounds >= 0.0) rounds.push_back(s.rounds);
  }
  for (const OpResult& op : pass.ops) {
    if (op.rounds >= 0.0) rounds.push_back(op.rounds);
    op_ms.push_back(static_cast<double>(op.op_ns) / 1e6);
    ok_num += op.ok_num;
    ok_den += op.ok_den;
    ++result.attempted;
    if (op.failed) ++result.failed;
  }
  // Times at the reference machine's speed (see speed.hpp).
  const double probe_ms = median(pass.probe_ns) / 1e6;
  const double scale = kReferenceProbeNs / 1e6 / probe_ms;
  result.add("setup_s", scale * median(setup_ns) / 1e9, "s");
  result.add("op_ref_ms_p50", scale * quantile(op_ms, 0.5), "ms");
  result.add("rounds_to_converge_mean",
             std::accumulate(rounds.begin(), rounds.end(), 0.0) /
                 static_cast<double>(std::max<std::size_t>(1, rounds.size())),
             "rounds");
  result.add("peak_rss_mb", static_cast<double>(pass.peak_rss_bytes) / 1e6,
             "MB");
  result.add("ok_fraction", ratio(ok_num, ok_den), "fraction");
  result.lines.push_back(
      format("# timed run: %.0f ops, %.0f set-ups, %.1f s measured",
             static_cast<double>(pass.ops.size()),
             static_cast<double>(setup_ns.size()), pass.op_ns() / 1e9));
  result.lines.push_back(format(
      "# op ms: min %.3f, q1 %.3f, median %.3f, q3 %.3f, max %.3f",
      quantile(op_ms, 0.0), quantile(op_ms, 0.25), quantile(op_ms, 0.5),
      quantile(op_ms, 0.75), quantile(op_ms, 1.0)));
  result.lines.push_back(format(
      "# set-up ms: min %.3f, q1 %.3f, median %.3f, q3 %.3f, max %.3f",
      quantile(setup_ns, 0.0) / 1e6, quantile(setup_ns, 0.25) / 1e6,
      quantile(setup_ns, 0.5) / 1e6, quantile(setup_ns, 0.75) / 1e6,
      quantile(setup_ns, 1.0) / 1e6));
  const std::vector<double>& probes = pass.probe_ns;
  result.lines.push_back(format(
      "# probe ms (%.0f): min %.3f, q1 %.3f, median %.3f, q3 %.3f, max %.3f; "
      "times above are raw, metrics are scaled by %.4f",
      static_cast<double>(probes.size()), quantile(probes, 0.0) / 1e6,
      quantile(probes, 0.25) / 1e6, probe_ms, quantile(probes, 0.75) / 1e6,
      quantile(probes, 1.0) / 1e6, scale));
}

bool same_outcome(const Pass& a, const Pass& b) {
  if (a.ops.size() != b.ops.size() || a.end_fingerprint != b.end_fingerprint)
    return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i)
    if (a.ops[i].fingerprint != b.ops[i].fingerprint) return false;
  return true;
}

constexpr const char* kLayerRows[] = {"workload", "engine", "oracle", "churn",
                                      "overlay",  "async",  "feed"};

void add_per_layer(const Workload& workload, const Pass& plain,
                   const Pass& traced, const Pass& telemetry_pass,
                   const Layers& layers, Result& result) {
  const Tracer& tracer = layers.tracer;
  const auto by_layer = tracer.by_layer();
  const auto by_name = tracer.by_name();
  const auto layer = [&](const char* name) {
    const auto it = by_layer.find(name);
    return it == by_layer.end() ? LayerTotals{} : it->second;
  };
  const auto span = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? LayerTotals{} : it->second;
  };
  const double ops = static_cast<double>(traced.ops.size());
  const double wall = traced.op_ns();
  const double plain_wall = plain.op_ns();

  std::vector<double> generate_ns;
  for (const SetupSample& s : plain.setups)
    generate_ns.push_back(static_cast<double>(s.generate_ns));
  result.add("workload.generate_s", median(generate_ns) / 1e9, "s");

  const OverlayProbe& probe = layers.probe;
  result.add("overlay.delay_at_ns",
             ratio(static_cast<double>(span("overlay.delay_at").total_ns),
                   static_cast<double>(probe.delay_queries)),
             "ns");
  result.add("overlay.all_satisfied_ns",
             ratio(static_cast<double>(span("overlay.all_satisfied").total_ns),
                   static_cast<double>(probe.probes)),
             "ns");
  result.add("overlay.depth_mean",
             ratio(probe.depth_sum, static_cast<double>(probe.delay_queries)),
             "hops");
  result.add("overlay.attaches", ratio(static_cast<double>(layers.attaches), ops),
             "count");
  result.add("overlay.detaches", ratio(static_cast<double>(layers.detaches), ops),
             "count");

  const double queries = static_cast<double>(layers.oracle_queries);
  const std::vector<double> sample_ns = tracer.durations_ns("oracle.sample");
  result.add("oracle.queries", ratio(queries, ops), "count");
  result.add("oracle.sample_us_p50", quantile(sample_ns, 0.5) / 1e3, "us");
  result.add("oracle.sample_us_p99", quantile(sample_ns, 0.99) / 1e3, "us");
  result.add("oracle.time_share",
             ratio(static_cast<double>(layer("oracle").total_ns), wall),
             "fraction");
  result.add("oracle.empty_fraction",
             ratio(static_cast<double>(layers.oracle_empty), queries),
             "fraction");
  result.add("oracle.allocs_per_query",
             ratio(static_cast<double>(layer("oracle").self_allocs), queries),
             "count");

  const double rounds = static_cast<double>(layers.rounds);
  result.add("engine.rounds", ratio(rounds, ops), "count");
  const std::vector<double> round_ns = tracer.durations_ns("engine.round");
  result.add("engine.round_ms_p50", quantile(round_ns, 0.5) / 1e6, "ms");
  result.add("engine.round_ms_p95", quantile(round_ns, 0.95) / 1e6, "ms");
  result.add("engine.self_ns_per_node_round",
             ratio(static_cast<double>(layer("engine").self_ns),
                   layers.node_rounds),
             "ns");
  result.add("engine.allocs_per_round",
             ratio(static_cast<double>(layer("engine").self_allocs), rounds),
             "count");
  result.add("engine.maintenance_detaches",
             ratio(static_cast<double>(layers.maintenance_detaches), ops),
             "count");

  const double calls = static_cast<double>(layers.churn_calls);
  result.add("churn.decide_us",
             ratio(static_cast<double>(span("churn.decide").total_ns), calls) /
                 1e3,
             "us");
  result.add("churn.leaves_per_round",
             ratio(static_cast<double>(layers.churn_leaves), calls), "count");
  result.add("churn.joins_per_round",
             ratio(static_cast<double>(layers.churn_joins), calls), "count");

  const double events = static_cast<double>(layers.events);
  const LayerTotals async = layer("async");
  result.add("async.events", ratio(events, ops), "count");
  result.add("async.self_ns_per_event",
             ratio(static_cast<double>(async.self_ns), events), "ns");
  result.add("async.pending_max", static_cast<double>(layers.pending_max),
             "count");
  result.add("async.allocs_per_event",
             ratio(static_cast<double>(async.self_allocs), events), "count");
  result.add("async.oracle_share",
             ratio(static_cast<double>(layer("oracle").total_ns),
                   static_cast<double>(async.total_ns)),
             "fraction");

  result.add("fault.messages_dropped",
             ratio(static_cast<double>(layers.messages_dropped), ops), "count");
  result.add("fault.partition_blocks",
             ratio(static_cast<double>(layers.partition_blocks), ops), "count");
  result.add("fault.oracle_outage_queries",
             ratio(static_cast<double>(layers.oracle_outage_queries), ops),
             "count");

  const double deliveries = static_cast<double>(layers.deliveries);
  result.add("feed.deliveries", ratio(deliveries, ops), "count");
  result.add("feed.ns_per_delivery",
             ratio(static_cast<double>(layer("feed").self_ns), deliveries), "ns");
  result.add("feed.allocs_per_delivery",
             ratio(static_cast<double>(layer("feed").self_allocs), deliveries),
             "count");
  result.add("feed.lost_pushes",
             ratio(static_cast<double>(layers.lost_pushes), ops), "count");
  result.add("feed.recovery_pulls",
             ratio(static_cast<double>(layers.recovery_pulls), ops), "count");
  result.add("feed.repair_yield",
             ratio(static_cast<double>(layers.recovered),
                   static_cast<double>(layers.recovery_pulls)),
             "fraction");
  result.add("feed.late_fraction",
             ratio(static_cast<double>(layers.late),
                   static_cast<double>(layers.counted_deliveries)),
             "fraction");

  result.add("telemetry.overhead_fraction",
             ratio(telemetry_pass.op_ns(), plain_wall) - 1.0, "fraction");
  result.add("trace.overhead_fraction", ratio(wall, plain_wall) - 1.0,
             "fraction");
  result.add("trace.wall_s", wall / 1e9, "s");

  // Self-time table: each layer's self time against traced wall time;
  // whatever no span covers is its own row.
  std::map<std::string, double> shares;
  result.lines.push_back(format(
      "# traced run: %.0f ops; traced wall %.3f s, untraced %.3f s, "
      "telemetry on %.3f s",
      ops, wall / 1e9, plain_wall / 1e9, telemetry_pass.op_ns() / 1e9));
  result.lines.push_back("# layer          self_s     share   spans   self_allocs");
  double attributed = 0.0;
  for (const char* name : kLayerRows) {
    const LayerTotals t = layer(name);
    const double self_s = static_cast<double>(t.self_ns) / 1e9;
    attributed += self_s;
    shares[name] = ratio(self_s * 1e9, wall);
    result.add(std::string("self.") + name, shares[name], "fraction");
    result.lines.push_back(format("# %-12s %9.4f %8.1f%% %7llu %13llu", name,
                                  self_s, 100.0 * shares[name],
                                  static_cast<unsigned long long>(t.spans),
                                  static_cast<unsigned long long>(t.self_allocs)));
  }
  const double unattributed = wall / 1e9 - attributed;
  result.add("self.unattributed", ratio(unattributed * 1e9, wall), "fraction");
  result.lines.push_back(format("# unattributed %9.4f %8.1f%%", unattributed,
                                100.0 * ratio(unattributed * 1e9, wall)));
  result.lines.push_back(format("# sum          %9.4f   (traced wall %.4f s)",
                                attributed + unattributed, wall / 1e9));

  std::string why;
  const bool agrees = workload.attribution_agrees(shares, why);
  result.add("trace.attribution_agrees", agrees ? 1.0 : 0.0, "bool");
  result.lines.push_back(std::string("# attribution: ") +
                         (agrees ? "agrees" : "DISAGREES") + " (" + why + ")");
}

Result traced_run(Workload& workload, const Options& options) {
  Result result;
  // Untraced reference pass; its op count fixes the other two passes.
  const Pass plain = run_pass(workload, nullptr, options.seconds * 0.25, 0, result);
  const std::uint64_t ops = plain.ops.size();

  Layers layers;
  lagover::telemetry::set_alloc_tracking(true);
  const Pass traced = run_pass(workload, &layers, 0.0, ops, result);
  lagover::telemetry::set_alloc_tracking(false);
  layers.tracer.finish();

  Pass telemetry_pass;
  {
    lagover::telemetry::set_enabled(true);
    lagover::telemetry::set_alloc_tracking(true);
    lagover::telemetry::PerfRecorder recorder;
    lagover::telemetry::PerfRecorder::set_active(&recorder);
    telemetry_pass = run_pass(workload, nullptr, 0.0, ops, result);
    lagover::telemetry::PerfRecorder::set_active(nullptr);
    lagover::telemetry::set_alloc_tracking(false);
    lagover::telemetry::set_enabled(false);
  }

  const bool deterministic =
      same_outcome(plain, traced) && same_outcome(plain, telemetry_pass);
  result.check(deterministic,
               "traced or telemetry pass diverged from the untraced pass");
  result.add("trace.deterministic", deterministic ? 1.0 : 0.0, "bool");
  add_per_layer(workload, plain, traced, telemetry_pass, layers, result);
  for (const OpResult& op : traced.ops) {
    ++result.attempted;
    if (op.failed) ++result.failed;
  }
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"construct", "churn",
                                                 "async-faults", "feed-lossy"};
  return names;
}

Result run_workload(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  if (options.trace) return traced_run(*workload, options);
  Result result;
  SpeedProbe probe;
  const Pass pass =
      run_pass(*workload, nullptr, options.seconds, 0, result, &probe);
  add_end_to_end(pass, result);
  return result;
}

}  // namespace perfbench
