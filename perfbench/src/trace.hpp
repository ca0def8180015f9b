// Benchmark-side tracing for the traced run. The library itself is not
// instrumented: the wrappers below sit at the public entry points of
// each layer (Oracle, ChurnModel, Overlay queries) and the driver opens
// spans around Engine::run_round, AsyncEngine::run_for chunks and
// feed::run_lossy_dissemination. Spans are kept in memory; a layer's
// self time is its span minus the time its child spans cover.
//
// Nothing here draws from an Rng or touches simulation state, so a
// traced run reproduces the untraced run's seeded outcome exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded span. `name` is "<layer>.<operation>"; spans of one
/// unit of benchmark work (a construction, a churn round, an async run,
/// a dissemination run) share `trace_id`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 = root
  std::uint32_t trace_id = 0;
  std::uint64_t allocs = 0;  ///< operator new calls inside the span
  std::uint64_t self_ns = 0;      ///< filled by finish()
  std::uint64_t self_allocs = 0;  ///< filled by finish()

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-layer aggregate of the recorded spans.
struct LayerTotals {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;  ///< inclusive of child spans
  std::uint64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};

class Tracer {
 public:
  Tracer();

  /// Starts a new trace id (one unit of benchmark work).
  void next_trace() { ++trace_id_; }
  /// While off, open() records nothing and returns -1.
  void set_recording(bool on) { recording_ = on; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  /// Computes self time and self allocations of every span.
  void finish();

  /// Aggregates per span name and per layer (name prefix before '.').
  std::map<std::string, LayerTotals> by_name() const;
  std::map<std::string, LayerTotals> by_layer() const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_ns(const char* name) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t trace_id_ = 0;
  bool recording_ = true;
};

/// Oracle decorator: forwards to the wrapped Oracle inside an
/// "oracle.sample" span. The base class counts queries and empty
/// results, so stats() of the decorator is the layer's work count.
class TracedOracle final : public lagover::Oracle {
 public:
  TracedOracle(std::unique_ptr<lagover::Oracle> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  lagover::OracleKind kind() const noexcept override { return inner_->kind(); }

 private:
  std::optional<lagover::NodeId> sample_impl(lagover::NodeId querier,
                                             const lagover::Overlay& overlay,
                                             lagover::Rng& rng) override {
    Tracer::Scope scope(tracer_, "oracle.sample");
    return inner_->sample(querier, overlay, rng);
  }

  std::unique_ptr<lagover::Oracle> inner_;
  Tracer& tracer_;
};

/// ChurnModel decorator: forwards inside a "churn.decide" span and
/// counts the decided leaves and joins.
class TracedChurn final : public lagover::ChurnModel {
 public:
  TracedChurn(std::unique_ptr<lagover::ChurnModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Decision decide(lagover::Round round, const lagover::Overlay& overlay,
                  lagover::Rng& rng) override {
    Tracer::Scope scope(tracer_, "churn.decide");
    Decision decision = inner_->decide(round, overlay, rng);
    ++calls;
    leaves += decision.leave.size();
    joins += decision.join.size();
    return decision;
  }

  std::uint64_t calls = 0;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;

 private:
  std::unique_ptr<lagover::ChurnModel> inner_;
  Tracer& tracer_;
};

/// Times the public Overlay queries on the live tree: DelayAt over
/// every online node, then all_satisfied(). Called once per round or
/// sampler tick in the traced run.
struct OverlayProbe {
  std::uint64_t probes = 0;
  std::uint64_t delay_queries = 0;  ///< DelayAt calls (online nodes)
  double depth_sum = 0.0;           ///< their summed results

  void run(Tracer& tracer, const lagover::Overlay& overlay);
};

}  // namespace perfbench
