#include "core/engine_kernel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/fanout_greedy.hpp"
#include "core/greedy.hpp"
#include "core/hybrid.hpp"
#include "fault/faulty_oracle.hpp"
#include "telemetry/health.hpp"

namespace lagover {

std::unique_ptr<Protocol> make_protocol(AlgorithmKind kind,
                                        SourceMode source_mode,
                                        int maintenance_patience) {
  switch (kind) {
    case AlgorithmKind::kGreedy:
      return std::make_unique<GreedyProtocol>(source_mode);
    case AlgorithmKind::kHybrid:
      return std::make_unique<HybridProtocol>(source_mode,
                                              maintenance_patience);
    case AlgorithmKind::kFanoutGreedy:
      return std::make_unique<FanoutGreedyProtocol>(source_mode);
  }
  throw InvalidArgument("unknown algorithm kind");
}

EngineKernel::EngineKernel(Population population, KernelConfig config,
                           int timeout_limit, Clock clock)
    : config_(std::move(config)),
      overlay_(std::move(population)),
      protocol_(make_protocol(config_.algorithm, config_.source_mode,
                              config_.maintenance_patience)),
      rng_(config_.seed),
      clock_(std::move(clock)),
      timeout_limit_(timeout_limit) {
  LAGOVER_EXPECTS(timeout_limit >= 1);
  LAGOVER_EXPECTS(config_.maintenance_patience >= 0);
  LAGOVER_EXPECTS(config_.parent_poll_miss_limit >= 1);
  // An adversary book with no adversarial nodes is indistinguishable
  // from no adversary: normalize it away so no hooks install and the
  // run stays byte-identical to an adversary-free engine.
  if (config_.adversary != nullptr && config_.adversary->empty())
    config_.adversary.reset();
  const std::size_t n = overlay_.node_count();
  epochs_.resize(n);
  detector_.resize(n, config_.health.phi);
  grandparent_hint_.assign(n, kNoNode);
  failover_pending_.assign(n, 0);
  // Sized unconditionally (pure memory, no RNG): the suspicion-detach
  // path touches the poll-miss counters even in adversary-only runs.
  parent_poll_misses_.assign(n, 0);
  {
    // The book's enabled flag tracks defense_active(): a defense config
    // without an adversary layer has nothing to defend against.
    health::DefenseConfig defense = config_.defense;
    defense.enabled = defense_active();
    suspicion_.resize(n, defense);
  }
  promised_delay_.assign(n, -1);
  // Lease bookkeeping rides on the overlay's edge observers: pure
  // record-keeping (no RNG, no scheduling), so the fault-free path is
  // untouched.
  overlay_.set_attach_observer([this](NodeId child, NodeId parent) {
    epochs_.record_attachment(child, parent);
    detector_.reset(child);
    // Record the delay the parent promised (its *claimed* delay + 1):
    // the child verifies it against reality on every maintenance poll.
    if (defense_active() && config_.defense.delay_verification)
      promised_delay_[child] =
          static_cast<Delay>(protocol_->claimed_delay(overlay_, parent) + 1);
  });
  overlay_.set_detach_observer([this](NodeId child, NodeId /*parent*/) {
    epochs_.clear_lease(child);
    detector_.reset(child);
    promised_delay_[child] = -1;
  });
  if (config_.adversary != nullptr) {
    // Every remote-delay admission decision in the protocol now runs on
    // the partner's *claimed* delay — a delay-liar passes checks it
    // would truthfully fail, which is exactly the attack surface.
    protocol_->set_delay_claim(
        [book = config_.adversary](NodeId node, Delay truth) {
          return book->claimed_delay(node, truth);
        });
  }
  build_oracle_stack(make_oracle(config_.oracle));
  register_health_run();
}

EngineKernel::~EngineKernel() {
  if (health_run_ == 0) return;
  if (auto* recorder = telemetry::OverlayHealthRecorder::active())
    recorder->end_run(health_run_);
}

void EngineKernel::build_oracle_stack(std::unique_ptr<Oracle> base) {
  oracle_ = std::move(base);
  if (config_.adversary != nullptr) {
    // The claim filter runs its own directory scan over claimed delays,
    // so it stands in for the base Oracle.
    auto byzantine = std::make_unique<fault::ByzantineOracle>(
        config_.oracle, config_.adversary);
    byzantine_oracle_ = byzantine.get();
    if (defense_active()) {
      byzantine->set_barred(
          [this](NodeId node) { return suspicion_.barred(node); });
      if (config_.defense.oracle_plausibility) {
        byzantine->enable_plausibility_filter(true);
        byzantine->set_plausibility_reporter(
            [this](NodeId suspect, const char* cause) {
              // report_once: the filter re-examines every candidate on
              // every query, so the same lie must not re-count.
              suspicion_.report_once(suspect, 3.0, epochs_.epoch(suspect),
                                     cause);
            });
      }
    }
    oracle_ = std::move(byzantine);
  }
  if (!config_.admission.empty()) {
    // Rate limiting is a property of the service itself, so admission
    // wraps the (possibly claim-filtered) Oracle before the fault layer
    // does; outages and stale answers apply on top of both.
    admission_ = std::make_shared<AdmissionController>(config_.admission);
    auto admitted = std::make_unique<AdmittedOracle>(std::move(oracle_),
                                                     admission_, clock_);
    admission_oracle_ = admitted.get();
    oracle_ = std::move(admitted);
  }
  oracle_ = fault::maybe_wrap_oracle(std::move(oracle_), config_.faults,
                                     clock_);

  core_ = std::make_unique<ConstructionCore>(overlay_, *protocol_, *oracle_,
                                             timeout_limit_);
  core_->set_trace_bus(&trace_bus_);
  core_->set_clock(clock_);
  if (config_.faults != nullptr)
    core_->set_delivery_probe([this](NodeId from, NodeId to) {
      return config_.faults->deliver(from, to, clock_());
    });
  // The epoch fence only guards construction state once a fault or
  // adversary layer can actually re-incarnate nodes out from under it
  // (crashes, flappers, domain outages); without either the probe stays
  // uninstalled and churn-only runs are byte-stable.
  if (config_.faults != nullptr || config_.adversary != nullptr)
    core_->set_epoch_probe([this](NodeId id) { return epochs_.epoch(id); });
  // A breaker-open Oracle reads as an outage: the cached-partner
  // fallback serves (stale but local) instead of hammering a service
  // that is already shedding load.
  if (config_.faults != nullptr || admission_ != nullptr)
    core_->set_oracle_outage_probe([this] {
      const SimTime now = clock_();
      if (config_.faults != nullptr && config_.faults->oracle_down(now))
        return true;
      return admission_ != nullptr && admission_->open(now);
    });
  if (config_.adversary == nullptr) return;
  core_->set_byzantine_reject_probe(
      [book = config_.adversary](NodeId partner) {
        return book->rejects_child(partner);
      });
  if (defense_active()) {
    core_->set_candidate_filter(
        [this](NodeId candidate) { return !suspicion_.barred(candidate); });
    core_->set_suspicion_reporter(
        [this](NodeId suspect, NodeId /*reporter*/, const char* cause) {
          suspicion_.report(suspect, 1.0, epochs_.epoch(suspect), cause);
        });
  }
}

void EngineKernel::register_health_run() {
  auto* recorder = telemetry::OverlayHealthRecorder::active();
  if (recorder == nullptr) return;
  // Flatten the constraints: telemetry/ sits below core/ and cannot see
  // Overlay. The mirror starts from the same everyone-online, everyone-
  // parentless state the overlay starts from.
  const std::size_t n = overlay_.node_count();
  std::vector<int> fanout(n, 0);
  std::vector<int> latency(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    fanout[id] = overlay_.fanout_of(id);
    latency[id] = overlay_.latency_of(id);
  }
  health_run_ = recorder->begin_run(fanout, latency);
}

void EngineKernel::note_health_round(SimTime now) {
  if (health_run_ == 0) return;
  if (auto* recorder = telemetry::OverlayHealthRecorder::active())
    recorder->note_round(health_run_, now);
}

void EngineKernel::audit(Round label) {
  InvariantReport report =
      audit_invariants(overlay_, config_.algorithm, &epochs_);
  if (health_run_ != 0) {
    // Cross-check the observatory's incremental mirror against this
    // audit's independent recompute; mismatches ride the same bus (and
    // the same zero-violation CI gates) as paper-invariant violations.
    if (auto* recorder = telemetry::OverlayHealthRecorder::active()) {
      InvariantReport health =
          crosscheck_health(overlay_, *recorder, health_run_);
      for (InvariantViolation& violation : health.violations)
        report.violations.push_back(std::move(violation));
    }
  }
  audit_violations_ += publish(report, audit_bus_, label);
}

void EngineKernel::set_oracle(std::unique_ptr<Oracle> oracle) {
  LAGOVER_EXPECTS(oracle != nullptr);
  LAGOVER_EXPECTS(!started_);
  // A replacement Oracle would bypass the Byzantine claim filter; the
  // adversary layer owns the Oracle stack.
  LAGOVER_EXPECTS(config_.adversary == nullptr);
  // Pre-run, so the fresh admission controller's counters lose nothing.
  // Trace consumers live on trace_bus_, which the rebuilt core is
  // pointed at, so subscriptions survive the swap.
  build_oracle_stack(std::move(oracle));
}

TraceBus::SubscriptionId EngineKernel::set_trace(
    std::function<void(const TraceEvent&)> trace) {
  if (trace_subscription_ != 0) {
    trace_bus_.unsubscribe(trace_subscription_);
    trace_subscription_ = 0;
  }
  if (trace) trace_subscription_ = trace_bus_.subscribe(std::move(trace));
  return trace_subscription_;
}

void EngineKernel::take_offline(NodeId id) {
  overlay_.set_offline(id);
  core_->reset_node(id);
  grandparent_hint_[id] = kNoNode;
  failover_pending_[id] = 0;
}

void EngineKernel::crash(NodeId id, Round label, const char* cause) {
  TraceEvent event{label, TraceEventType::kCrash, id, kNoNode, false};
  event.cause = cause;
  core_->emit(event);
  if (defense_active()) {
    // A crashing parent is instability evidence in proportion to the
    // children it strands. Honest-but-unreliable nodes accrue it too:
    // an unreliable parent is a poor parent regardless of intent.
    const double orphaned =
        static_cast<double>(overlay_.children(id).size());
    if (orphaned > 0.0)
      suspicion_.report(id, orphaned, epochs_.epoch(id), "unstable_parent");
  }
  if (config_.health.failover == health::FailoverPolicy::kLadder) {
    // The orphaned children's best local candidate is the crashed
    // parent's own parent.
    const NodeId grandparent = overlay_.parent(id);
    for (const NodeId child : overlay_.children(id)) {
      grandparent_hint_[child] = grandparent;
      failover_pending_[child] = 1;
    }
  }
  take_offline(id);
}

bool EngineKernel::rejoin(NodeId id, Round label, TraceEventType type) {
  if (overlay_.online(id)) return false;
  overlay_.set_online(id);
  core_->reset_node(id);
  // A new incarnation: state naming its previous life (referrals,
  // cached partners, hints, leases) is now fenced.
  epochs_.bump(id);
  if (defense_active()) suspicion_.note_epoch(id, epochs_.epoch(id));
  core_->emit({label, type, id, kNoNode, false});
  return true;
}

bool EngineKernel::suspect_parent(NodeId id, SimTime now) {
  if (config_.health.detection == health::DetectionPolicy::kPhiAccrual &&
      detector_.primed(id)) {
    // Adaptive rule: suspicion accrues with silence relative to the
    // link's own observed poll cadence. The miss counter still runs so
    // metrics stay comparable, but the verdict is phi's.
    ++parent_poll_misses_[id];
    return detector_.suspect(id, now);
  }
  // Fixed rule (and the fallback while the phi window is unprimed).
  return ++parent_poll_misses_[id] >= config_.parent_poll_miss_limit;
}

void EngineKernel::detach_suspected(NodeId id, NodeId parent, Round label,
                                    TraceEventType type) {
  parent_poll_misses_[id] = 0;
  // Losing a parent to silence or a stale lease is (mild) instability
  // evidence against it; kParentQuarantined is the ladder's own verdict
  // being executed, not new evidence.
  if (defense_active() && type != TraceEventType::kParentQuarantined)
    suspicion_.report(parent, 1.0, epochs_.epoch(parent), "unstable_parent");
  core_->detach_suspected(id, parent, label, type);
  if (config_.health.failover == health::FailoverPolicy::kLadder)
    failover_pending_[id] = 1;
}

EngineKernel::Poll EngineKernel::poll_parent(NodeId id, SimTime now) {
  const auto label = static_cast<Round>(now);
  const NodeId parent = overlay_.parent(id);
  if (config_.faults != nullptr) {
    // Epoch fence: a lease on a previous incarnation of the parent is
    // invalid no matter how healthy the link looks.
    if (!epochs_.lease_valid(id, parent)) {
      epochs_.note_fence();
      protocol_->note_stale_epoch();
      detach_suspected(id, parent, label, TraceEventType::kEpochFenced);
      return Poll::kDetached;
    }
    // Dead-parent detection: a poll the fault layer cannot deliver
    // (partition or message loss) is a miss; enough misses — fixed count
    // or phi-accrual suspicion, per the health config — and the node
    // concludes its parent is gone and re-orphans itself. Its subtree
    // stays with it and follows once it re-attaches.
    if (!config_.faults->deliver(id, parent, now)) {
      if (!suspect_parent(id, now)) return Poll::kMissed;
      detach_suspected(id, parent, label, TraceEventType::kParentLost);
      return Poll::kDetached;
    }
    parent_poll_misses_[id] = 0;
    detector_.heartbeat(id, now);
    // Poll replies piggy-back the parent's own parent: the first rung
    // of the failover ladder should the parent die.
    grandparent_hint_[id] = overlay_.parent(parent);
  }
  if (defense_active()) {
    // Child-side delay verification: compare the delay promised at the
    // last attach/poll against the chain as actually observed. The
    // promise is then refreshed to the parent's *current* claim, so an
    // honest parent whose upstream grew is charged once for the growth
    // while a liar (whose claim never matches reality) is charged on
    // every poll.
    if (config_.defense.delay_verification && overlay_.connected(id) &&
        promised_delay_[id] > 0) {
      const Delay observed = overlay_.delay_at(id);
      if (observed > promised_delay_[id])
        suspicion_.report(
            parent, std::min<double>(observed - promised_delay_[id], 3.0),
            epochs_.epoch(parent), "delay_misreport");
      promised_delay_[id] =
          static_cast<Delay>(protocol_->claimed_delay(overlay_, parent) + 1);
    }
    // Receipt audit: a free-riding parent relays no feed items, so its
    // children see no receipts over a full poll period. (Emulated via
    // the adversary book; the feed layer drops the actual pushes.)
    if (config_.defense.receipt_audit &&
        config_.adversary->withholds_feed(parent))
      suspicion_.report(parent, 1.0, epochs_.epoch(parent), "no_receipts");
    // Ladder consequence: children abandon a barred parent at once.
    if (suspicion_.barred(parent)) {
      ++quarantine_detaches_;
      detach_suspected(id, parent, label, TraceEventType::kParentQuarantined);
      return Poll::kDetached;
    }
  }
  return Poll::kKept;
}

}  // namespace lagover
