// Round-based LagOver construction engine (paper Section 2.1.1's
// "decoupled time": construction proceeds in rounds, independent of the
// latency unit). Each round:
//
//   1. churn is applied (paper Section 5.3 model, pluggable),
//   2. connected nodes run maintenance (Algorithm 1 / hybrid timeout),
//   3. every parentless chain root performs one step of its construction
//      loop: direct source contact when its timeout has fired or it was
//      referred to the source, otherwise one interaction with a partner
//      from its last referral or the Oracle.
//
// The engine is deterministic given (population, config seed).
#pragma once

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/engine_kernel.hpp"
#include "core/types.hpp"

namespace lagover {

/// Tunable parameters of a construction run: the shared KernelConfig
/// plus the round scheduler's own fields.
struct EngineConfig : KernelConfig {
  /// Rounds an orphan waits (without acquiring a parent) before
  /// contacting the source directly.
  int timeout_rounds = 4;
  /// Allow the orphaning-displacement move (Protocol docs); disabling it
  /// approximates the paper's literally-described move set for ablation.
  bool orphaning_displacement = true;
  /// Stale chain knowledge (paper Section 2.1.3 ablation): maintenance
  /// decisions use each node's DelayAt/Root as observed this many
  /// rounds ago — piggy-backed information takes time to ride down the
  /// chain. 0 = instantaneous (the paper's simulator and our default).
  int knowledge_lag = 0;
};

/// Per-round snapshot used by convergence tracking.
struct RoundStats {
  Round round = 0;
  std::size_t online = 0;
  std::size_t satisfied = 0;
  std::size_t orphan_roots = 0;
  double satisfied_fraction = 1.0;
};

/// Drives one LagOver construction run in rounds; the kernel's clock is
/// the round number.
class LAGOVER_THREAD_HOSTILE Engine : public EngineKernel {
 public:
  Engine(Population population, EngineConfig config);

  /// Installs a churn model; nullptr disables churn.
  void set_churn(std::unique_ptr<ChurnModel> churn);

  /// When enabled, every round's RoundStats is retained in history().
  void set_record_history(bool record) { record_history_ = record; }

  Round round() const noexcept { return round_; }
  const std::vector<RoundStats>& history() const noexcept { return history_; }

  /// Escalation entry point for the feed layer's degradation ladder: a
  /// persistently starved child abandons its overloaded parent (mild
  /// suspicion evidence when defenses run) and re-enters construction,
  /// spreading load across the tree. No-op when the child is offline or
  /// already parentless.
  void escalate_starvation(NodeId child);

  /// Executes one construction round and returns its statistics.
  RoundStats run_round();

  /// Runs rounds until every online consumer is satisfied or max_rounds
  /// is exhausted. Returns the converged round, or nullopt on timeout
  /// ("did not converge" in the paper's evaluation).
  std::optional<Round> run_until_converged(Round max_rounds);

 private:
  void apply_churn();
  void apply_fault_rejoins();
  /// Deterministic down-states: flapper duty cycles and correlated
  /// domain-outage windows, checked once per round before the
  /// probabilistic crash rolls.
  void apply_scheduled_crashes();
  /// Crashes node i this round: offline + scheduled rejoin after
  /// `downtime` rounds (floored at 1).
  void crash_node(NodeId id, double downtime, const char* cause);
  /// Drops a departed node's admission retry state.
  void forget_admission_backoff(NodeId id);

  Round round_ = 0;
  int knowledge_lag_;
  bool record_history_ = false;
  std::vector<RoundStats> history_;
  /// Ring buffer of per-node violation observations for knowledge_lag
  /// (entry k: the snapshot taken k rounds ago, newest first).
  std::deque<std::vector<char>> violation_snapshots_;
  /// Crashed nodes and the round they come back.
  std::vector<std::pair<Round, NodeId>> crash_rejoins_;
  /// Per-node retry-after deadline (round before which a rejected node
  /// sits out) and consecutive-rejection count driving the exponential
  /// retry spread. Sized only when admission control is installed.
  std::vector<Round> admission_defer_;
  std::vector<int> admission_attempts_;
};

}  // namespace lagover
