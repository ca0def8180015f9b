#include "core/async_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

AsyncEngine::AsyncEngine(Population population, AsyncConfig config)
    : EngineKernel(std::move(population), config, config.timeout_steps,
                   [this] { return sim_.now(); }),
      timing_(config) {
  LAGOVER_EXPECTS(timing_.min_interaction_time > 0.0);
  LAGOVER_EXPECTS(timing_.max_interaction_time >=
                  timing_.min_interaction_time);
  LAGOVER_EXPECTS(timing_.maintenance_period > 0.0);
  LAGOVER_EXPECTS(timing_.backoff_base > 0.0);
  LAGOVER_EXPECTS(timing_.backoff_max >= timing_.backoff_base);
  LAGOVER_EXPECTS(timing_.backoff_jitter >= 0.0 &&
                  timing_.backoff_jitter < 1.0);
  failed_attempts_.assign(overlay_.node_count(), 0);
#ifdef LAGOVER_AUDIT
  // Audit the overlay once per simulated time unit (the same cadence as
  // the synchronous engine's rounds). Read-only: it draws no RNG and
  // mutates nothing, so the construction trajectory is unchanged.
  sim_.schedule_periodic(1.0,
                         [this] { audit(static_cast<Round>(sim_.now())); });
#endif
  // Sample the health observatory at the audit tick's cadence. The
  // event only exists when a recorder is active, keeping default runs
  // byte-identical.
  if (health_run_ != 0)
    sim_.schedule_periodic(1.0, [this] { note_health_round(sim_.now()); });
  // Stagger the first wake-ups so nodes are desynchronized from t = 0.
  for (NodeId id = 1; id < overlay_.node_count(); ++id)
    schedule_node(id, draw_duration());
}

void AsyncEngine::set_churn(std::unique_ptr<ChurnModel> churn) {
  LAGOVER_EXPECTS(!started_);
  churn_ = std::move(churn);
  sim_.schedule_periodic(1.0, [this] { apply_churn(); });
}

void AsyncEngine::park_offline(NodeId id) {
  LAGOVER_EXPECTS(!started_);
  LAGOVER_EXPECTS(id >= 1 && static_cast<std::size_t>(id) <
                                 overlay_.node_count());
  if (overlay_.online(id)) take_offline(id);
}

void AsyncEngine::set_sampler(double period,
                              std::function<void(SimTime)> sampler) {
  LAGOVER_EXPECTS(!started_);
  LAGOVER_EXPECTS(period > 0.0);
  LAGOVER_EXPECTS(sampler != nullptr);
  sim_.schedule_periodic(
      period, [this, sampler = std::move(sampler)] { sampler(sim_.now()); });
}

void AsyncEngine::apply_churn() {
  if (!churn_) return;
  const Round label = static_cast<Round>(sim_.now());
  const ChurnModel::Decision decision =
      churn_->decide(++churn_ticks_, overlay_, rng_);
  for (NodeId id : decision.leave) {
    if (!overlay_.online(id)) continue;
    core_->emit({label, TraceEventType::kChurnLeave, id, kNoNode, false});
    take_offline(id);
  }
  // Rejoined nodes resume their action loop (their previous wake-up
  // chain died at the offline check).
  for (NodeId id : decision.join)
    if (rejoin(id, label, TraceEventType::kChurnJoin))
      schedule_node(id, draw_duration());
  // Churn can invalidate a previous "converged" observation.
  if (!overlay_.all_satisfied()) converged_ = false;
}

double AsyncEngine::run_for(SimTime duration) {
  const telemetry::PerfPhase perf_phase("construction");
  started_ = true;
  const SimTime horizon = sim_.now() + duration;
  while (sim_.step(horizon)) {
  }
  sim_.run_until(horizon);
  return overlay_.satisfied_fraction();
}

double AsyncEngine::draw_duration() {
  return rng_.uniform_real(timing_.min_interaction_time,
                           timing_.max_interaction_time);
}

double AsyncEngine::backoff_delay(NodeId id) {
  const int attempts = std::min(failed_attempts_[id], 16);
  const double base = std::min(
      timing_.backoff_base * static_cast<double>(1u << attempts),
      timing_.backoff_max);
  // Jitter desynchronizes retry storms after a window lifts.
  const double jitter =
      rng_.uniform_real(1.0 - timing_.backoff_jitter,
                        1.0 + timing_.backoff_jitter);
  return base * jitter;
}

void AsyncEngine::schedule_node(NodeId id, SimTime delay) {
  sim_.schedule_after(delay, [this, id] { on_wake(id); });
}

void AsyncEngine::crash_node(NodeId id, double downtime, const char* cause) {
  crash(id, static_cast<Round>(sim_.now()), cause);
  converged_ = false;
  sim_.schedule_after(std::max(downtime, 0.1), [this, id] {
    // A node churn already rejoined keeps its running wake chain.
    if (rejoin(id, static_cast<Round>(sim_.now()), TraceEventType::kRejoin))
      schedule_node(id, draw_duration());
  });
}

void AsyncEngine::on_wake(NodeId id) {
  TELEM_SCOPE("async.wake");
  telemetry::note_sim_time(sim_.now());
  TELEM_COUNT("async.wakes", 1);
  // Without churn, faults, or adversaries, a converged overlay is final
  // and the wake chains may die out; otherwise they must keep running
  // (convergence is transient).
  if ((converged_ && !churn_ && !config_.faults && !config_.adversary) ||
      !overlay_.online(id))
    return;
  // Flapper adversaries and correlated domain outages take the node
  // down deterministically (pure functions of id and time — no engine
  // RNG), checked before the probabilistic crash roll.
  if (config_.adversary != nullptr &&
      config_.adversary->flapping_down(id, sim_.now())) {
    crash_node(id, config_.adversary->flap_remaining(id, sim_.now()), "flap");
    return;
  }
  if (config_.faults != nullptr) {
    const double outage = config_.faults->domain_crash_outage(id, sim_.now());
    if (outage > 0.0) {
      crash_node(id, outage, "domain");
      return;
    }
  }
  // Crash fault: the node dies mid-action instead of proceeding —
  // attached nodes orphan their subtree, orphans just disappear.
  if (config_.faults != nullptr &&
      config_.faults->crash_roll(id, sim_.now())) {
    crash_node(id, config_.faults->crash_downtime(sim_.now()), "");
    return;
  }
  if (overlay_.has_parent(id)) {
    wake_attached(id);
  } else {
    wake_orphan(id);
  }
  if (overlay_.all_satisfied()) {
    converged_ = true;
    converged_at_ = sim_.now();
  }
}

void AsyncEngine::wake_attached(NodeId id) {
  // Each maintenance wake-up doubles as a poll of the parent.
  if (config_.faults != nullptr || defense_active()) {
    switch (poll_parent(id, sim_.now())) {
      case Poll::kKept:
        break;
      case Poll::kMissed:
        // Not yet suspicious: retry a full maintenance period later.
        schedule_node(id, timing_.maintenance_period);
        return;
      case Poll::kDetached:
        converged_ = false;
        schedule_node(id, draw_duration());
        return;
    }
  }
  // Under an adversary the self-check runs on the parent's reported
  // delay (believes_violated); the defense ladder's delay verification
  // in poll_parent measures actual arrival times, which the parent
  // cannot fake.
  std::optional<bool> believed_violated;
  if (config_.adversary != nullptr) believed_violated = believes_violated(id);
  core_->maintenance_step(id, protocol_->maintenance_patience(),
                          static_cast<Round>(sim_.now()), believed_violated);
  // Attached nodes only need periodic maintenance checks; detached
  // ones resume the construction loop at their own pace either way.
  schedule_node(id, overlay_.has_parent(id) ? timing_.maintenance_period
                                            : draw_duration());
}

void AsyncEngine::wake_orphan(NodeId id) {
  const Round label = static_cast<Round>(sim_.now());
  // Failover ladder: a node orphaned by a suspicion event gets one shot
  // at local recovery (grandparent hint, then cached partners) before
  // rejoining the Oracle-driven loop. Deterministic and only ever armed
  // by faults, so the fault-free path is untouched.
  if (failover_pending_[id] != 0) {
    failover_pending_[id] = 0;
    const NodeId hint = grandparent_hint_[id];
    grandparent_hint_[id] = kNoNode;
    if (core_->failover_step(id, hint, label)) {
      if (config_.faults != nullptr || admission_oracle_ != nullptr)
        failed_attempts_[id] = 0;
      schedule_node(id, timing_.maintenance_period);
      return;
    }
  }
  const StepOutcome outcome = core_->orphan_step(id, rng_, label);
  // Admission rejection: the Oracle told this node to come back later.
  // Honor retry-after through the same exponential backoff machinery
  // fault setbacks use (floored at the advised wait), so a flash crowd
  // of rejected orphans spreads out instead of re-stampeding in sync.
  // (Consume the flag unconditionally: the cached-partner fallback can
  // still attach the node after a breaker rejection, and a stale flag
  // must not misfire on a later, unrejected step.)
  if (admission_oracle_ != nullptr && admission_oracle_->consume_rejection() &&
      outcome.partner == kNoNode) {
    ++failed_attempts_[id];
    TELEM_COUNT("engine.admission_deferrals", 1);
    schedule_node(id,
                  std::max(config_.admission.retry_after, backoff_delay(id)));
    return;
  }
  const bool fault_setback =
      config_.faults != nullptr &&
      (!outcome.delivered ||
       (outcome.partner == kNoNode && config_.faults->active(sim_.now())));
  if (fault_setback) {
    ++failed_attempts_[id];
    schedule_node(id, backoff_delay(id));
    return;
  }
  if (config_.faults != nullptr || admission_oracle_ != nullptr)
    failed_attempts_[id] = 0;
  double duration = draw_duration();
  if (timing_.network_latency != nullptr && outcome.partner != kNoNode) {
    // The negotiation round-trips with the partner: far peers cost
    // more wall-clock before the next action can start.
    duration += timing_.rtt_weight * 2.0 *
                timing_.network_latency->latency(id, outcome.partner, rng_);
  }
  schedule_node(id, duration);
}

std::optional<SimTime> AsyncEngine::run_until_converged(SimTime horizon) {
  const telemetry::PerfPhase perf_phase("construction");
  started_ = true;
  if (overlay_.all_satisfied()) return sim_.now();
  while (!converged_ && sim_.step(horizon)) {
  }
  if (converged_) return converged_at_;
  return std::nullopt;
}

}  // namespace lagover
