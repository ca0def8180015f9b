#include "core/engine.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

Engine::Engine(Population population, EngineConfig config)
    : EngineKernel(std::move(population), config, config.timeout_rounds,
                   [this] { return static_cast<SimTime>(round_); }),
      knowledge_lag_(config.knowledge_lag) {
  protocol_->set_orphaning_displacement(config.orphaning_displacement);
  if (admission_ != nullptr) {
    admission_defer_.assign(overlay_.node_count(), 0);
    admission_attempts_.assign(overlay_.node_count(), 0);
  }
}

void Engine::set_churn(std::unique_ptr<ChurnModel> churn) {
  churn_ = std::move(churn);
}

void Engine::forget_admission_backoff(NodeId id) {
  if (admission_ == nullptr) return;
  admission_defer_[id] = 0;
  admission_attempts_[id] = 0;
}

void Engine::apply_churn() {
  if (!churn_) return;
  const ChurnModel::Decision decision = churn_->decide(round_, overlay_, rng_);
  for (NodeId id : decision.leave) {
    if (!overlay_.online(id)) continue;
    take_offline(id);
    forget_admission_backoff(id);
    core_->emit({round_, TraceEventType::kChurnLeave, id, kNoNode, false});
  }
  for (NodeId id : decision.join)
    rejoin(id, round_, TraceEventType::kChurnJoin);
}

void Engine::crash_node(NodeId id, double downtime, const char* cause) {
  crash(id, round_, cause);
  forget_admission_backoff(id);
  const Round back =
      round_ + std::max<Round>(1, static_cast<Round>(std::ceil(downtime)));
  crash_rejoins_.emplace_back(back, id);
}

void Engine::apply_scheduled_crashes() {
  // Flapper duty cycles and correlated domain-outage windows are pure
  // functions of (node, time) — no engine RNG — applied as a dedicated
  // pass so both attached nodes and orphans go down on schedule.
  const auto t = static_cast<SimTime>(round_);
  if (config_.adversary != nullptr) {
    for (NodeId id = 1; id < overlay_.node_count(); ++id)
      if (overlay_.online(id) && config_.adversary->flapping_down(id, t))
        crash_node(id, config_.adversary->flap_remaining(id, t), "flap");
  }
  if (config_.faults != nullptr && config_.faults->domains() != nullptr) {
    for (NodeId id = 1; id < overlay_.node_count(); ++id) {
      if (!overlay_.online(id)) continue;
      const double outage = config_.faults->domain_crash_outage(id, t);
      if (outage > 0.0) crash_node(id, outage, "domain");
    }
  }
}

void Engine::apply_fault_rejoins() {
  auto due = crash_rejoins_.begin();
  for (auto it = crash_rejoins_.begin(); it != crash_rejoins_.end(); ++it) {
    if (it->first > round_) {
      *due++ = *it;
      continue;
    }
    // A node churn already rejoined stays as it is.
    rejoin(it->second, round_, TraceEventType::kRejoin);
  }
  crash_rejoins_.erase(due, crash_rejoins_.end());
}

void Engine::escalate_starvation(NodeId child) {
  if (static_cast<std::size_t>(child) >= overlay_.node_count()) return;
  if (!overlay_.online(child) || !overlay_.has_parent(child)) return;
  const NodeId parent = overlay_.parent(child);
  ++starvation_detaches_;
  parent_poll_misses_[child] = 0;
  // An overloaded parent is a poor parent for THIS child right now, but
  // only mild evidence against it in general — weight 1, like a missed
  // poll, not like a provable lie.
  if (defense_active())
    suspicion_.report(parent, 1.0, epochs_.epoch(parent), "starved");
  overlay_.detach(child);
  TraceEvent event{round_, TraceEventType::kParentLost, child, parent, false};
  event.cause = "starved";
  core_->emit(event);
  if (config_.health.failover == health::FailoverPolicy::kLadder)
    failover_pending_[child] = 1;
  TELEM_COUNT("engine.starvation_detaches", 1);
}

RoundStats Engine::run_round() {
  TELEM_SCOPE("engine.round");
  started_ = true;
  ++round_;
  telemetry::note_sim_time(static_cast<double>(round_));
  apply_churn();
  if (config_.faults != nullptr) apply_fault_rejoins();
  if (config_.adversary != nullptr || config_.faults != nullptr)
    apply_scheduled_crashes();

  // With stale chain knowledge, snapshot each node's violation state
  // BEFORE this round's maintenance so decisions can be based on what a
  // node believed `knowledge_lag` rounds ago.
  if (knowledge_lag_ > 0) {
    std::vector<char> snapshot(overlay_.node_count(), 0);
    for (NodeId id = 1; id < overlay_.node_count(); ++id) {
      if (!overlay_.online(id) || !overlay_.has_parent(id)) continue;
      snapshot[id] =
          overlay_.delay_at(id) > overlay_.latency_of(id) ? 1 : 0;
    }
    violation_snapshots_.push_front(std::move(snapshot));
    while (violation_snapshots_.size() >
           static_cast<std::size_t>(knowledge_lag_))
      violation_snapshots_.pop_back();
  }

  // Maintenance pass over connected nodes. With instantaneous knowledge
  // it is evaluated on live state: an upstream detach earlier in the
  // pass already changed downstream Root()/DelayAt() values.
  const int patience = protocol_->maintenance_patience();
  const bool lagged =
      knowledge_lag_ > 0 &&
      violation_snapshots_.size() ==
          static_cast<std::size_t>(knowledge_lag_);
  const auto now = static_cast<SimTime>(round_);
  for (NodeId id = 1; id < overlay_.node_count(); ++id) {
    // Crash fault for attached nodes (orphans roll in the interaction
    // pass below): the node dies, its subtree is orphaned.
    if (config_.faults != nullptr && overlay_.online(id) &&
        overlay_.has_parent(id) && config_.faults->crash_roll(id, now)) {
      crash_node(id, config_.faults->crash_downtime(now), "");
      continue;
    }
    // The maintenance check doubles as a poll of the parent; a lost poll
    // or a detach means no maintenance this round.
    if ((config_.faults != nullptr || defense_active()) &&
        overlay_.online(id) && overlay_.has_parent(id) &&
        poll_parent(id, now) != Poll::kKept)
      continue;
    std::optional<bool> observed;
    if (knowledge_lag_ > 0)
      observed = lagged && violation_snapshots_.back()[id] != 0;
    // Under an adversary the self-check runs on the parent's reported
    // delay (believes_violated); that takes precedence over
    // knowledge_lag, whose snapshots are ground truth the victims of a
    // delay-liar would not have.
    if (config_.adversary != nullptr && overlay_.online(id) &&
        overlay_.has_parent(id))
      observed = believes_violated(id);
    core_->maintenance_step(id, patience, round_, observed);
  }

  // Interaction pass: every parentless chain root acts once, in random
  // order (nodes are not synchronized; the shuffle models arbitrary
  // arrival order within a round).
  std::vector<NodeId> roots;
  roots.reserve(overlay_.node_count());
  for (NodeId id = 1; id < overlay_.node_count(); ++id)
    if (overlay_.online(id) && !overlay_.has_parent(id)) roots.push_back(id);
  rng_.shuffle(roots);
  for (NodeId i : roots) {
    // Crash fault: the node dies mid-interaction instead of acting.
    if (config_.faults != nullptr && config_.faults->crash_roll(i, now)) {
      crash_node(i, config_.faults->crash_downtime(now), "");
      continue;
    }
    // Failover ladder: a node orphaned by a suspicion event gets one
    // shot at local recovery before the Oracle-driven loop. Only ever
    // armed by faults, so the fault-free path is untouched.
    if (failover_pending_[i] != 0) {
      failover_pending_[i] = 0;
      const NodeId hint = grandparent_hint_[i];
      grandparent_hint_[i] = kNoNode;
      if (core_->failover_step(i, hint, round_)) {
        if (admission_ != nullptr) admission_attempts_[i] = 0;
        continue;
      }
    }
    // Admission backoff: a node the Oracle rejected sits out its
    // retry-after window instead of re-stampeding the service.
    if (admission_ != nullptr && admission_defer_[i] > round_) continue;
    const StepOutcome outcome = core_->orphan_step(i, rng_, round_);
    if (admission_oracle_ != nullptr) {
      if (admission_oracle_->consume_rejection() &&
          outcome.partner == kNoNode) {
        // Exponential retry spread (mirrors the async engine's backoff
        // machinery at round granularity): the k-th consecutive
        // rejection defers the node retry_after * 2^(k-1) rounds.
        const int attempts = std::min(++admission_attempts_[i], 6);
        const double wait = config_.admission.retry_after *
                            static_cast<double>(1 << (attempts - 1));
        admission_defer_[i] =
            round_ +
            std::max<Round>(1, static_cast<Round>(std::llround(wait)));
        TELEM_COUNT("engine.admission_deferrals", 1);
      } else if (outcome.partner != kNoNode) {
        admission_attempts_[i] = 0;
      }
    }
  }

  RoundStats stats;
  stats.round = round_;
  stats.online = overlay_.online_count();
  stats.satisfied = overlay_.satisfied_count();
  stats.satisfied_fraction = overlay_.satisfied_fraction();
  std::size_t orphans = 0;
  for (NodeId id = 1; id < overlay_.node_count(); ++id)
    if (overlay_.online(id) && !overlay_.has_parent(id)) ++orphans;
  stats.orphan_roots = orphans;
  TELEM_COUNT("engine.rounds", 1);
  TELEM_GAUGE("engine.online", static_cast<double>(stats.online));
  TELEM_GAUGE("engine.orphan_roots", static_cast<double>(stats.orphan_roots));
  TELEM_GAUGE("engine.satisfied_fraction", stats.satisfied_fraction);
  if (record_history_) history_.push_back(stats);
  note_health_round(now);
#ifdef LAGOVER_AUDIT
  audit(round_);
#endif
  return stats;
}

std::optional<Round> Engine::run_until_converged(Round max_rounds) {
  const telemetry::PerfPhase perf_phase("construction");
  if (overlay_.all_satisfied()) return round_;
  for (Round r = 0; r < max_rounds; ++r) {
    run_round();
    if (overlay_.all_satisfied()) return round_;
  }
  return std::nullopt;
}

}  // namespace lagover
