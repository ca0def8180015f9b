// The protocol body both LagOver construction engines share (paper
// Section 5.3: asynchrony changes the timing of the interactions, not
// the protocol). EngineKernel owns the overlay, the protocol, the Oracle
// stack and the ConstructionCore built on it, the trace and audit buses,
// the health-observatory run, and the health and defense state. It also
// defines the shared halves of crash, leave/rejoin and the parent poll.
// The two schedulers derive from it and keep only their loops:
//
//   Engine       rounds; its clock is the round number,
//   AsyncEngine  discrete events; its clock is Simulator::now().
//
// The kernel reads its clock only once a run is under way: the async
// clock reads a simulator that is constructed after the kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/admission.hpp"
#include "core/construction_core.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"
#include "core/protocol.hpp"
#include "core/types.hpp"
#include "core/validator.hpp"
#include "fault/byzantine.hpp"
#include "fault/fault_injector.hpp"
#include "health/health.hpp"
#include "health/suspicion.hpp"

namespace lagover {

/// Settings both schedulers share. EngineConfig and AsyncConfig derive
/// from it and add their scheduler's own fields.
struct KernelConfig {
  AlgorithmKind algorithm = AlgorithmKind::kHybrid;
  OracleKind oracle = OracleKind::kRandomDelay;
  SourceMode source_mode = SourceMode::kPullOnly;
  /// Hybrid maintenance damping: consecutive violated checks tolerated
  /// before discarding the parent (greedy always reacts immediately).
  int maintenance_patience = 1;
  /// Optional chaos layer, clocked by the scheduler's clock. Null or an
  /// empty FaultPlan leaves runs byte-identical to the fault-free
  /// engine: no hook fires and no extra engine-RNG draw happens.
  std::shared_ptr<fault::FaultInjector> faults;
  /// Consecutive undeliverable parent polls (partition / loss) an
  /// attached node tolerates before declaring the parent dead and
  /// re-orphaning itself. (The fixed fallback when health.detection
  /// selects phi-accrual.)
  int parent_poll_miss_limit = 3;
  /// Health layer: failure detection + failover policy. The defaults
  /// reproduce the legacy behavior byte-for-byte; epoch bookkeeping is
  /// always on but inert without faults.
  health::HealthConfig health;
  /// Byzantine adversary layer (liars, free-riders, flappers). Null or
  /// an empty book is normalized away: no hook installs, no RNG-stream
  /// change, runs stay byte-identical to an adversary-free engine.
  std::shared_ptr<fault::AdversaryBook> adversary;
  /// Defense ladder (suspicion scoring, quarantine, Oracle plausibility
  /// filter). Engaged only when both defense.enabled and an adversary
  /// layer are present.
  health::DefenseConfig defense;
  /// Oracle admission control (rate limiting + circuit breaker). An
  /// empty config (no rate limit) installs nothing: no wrapper, no
  /// RNG-stream change, runs stay byte-identical.
  AdmissionConfig admission;
  std::uint64_t seed = 1;
};

/// Membership-dynamics model: returns which nodes leave and which
/// (offline) nodes rejoin this round (or time unit).
class ChurnModel {
 public:
  virtual ~ChurnModel() = default;
  struct Decision {
    std::vector<NodeId> leave;
    std::vector<NodeId> join;
  };
  virtual Decision decide(Round round, const Overlay& overlay, Rng& rng) = 0;
};

/// Convenience: builds the protocol for an algorithm kind.
std::unique_ptr<Protocol> make_protocol(AlgorithmKind kind,
                                        SourceMode source_mode,
                                        int maintenance_patience);

class LAGOVER_THREAD_HOSTILE EngineKernel {
 public:
  using Clock = std::function<SimTime()>;

  // The construction core, the Oracle wrappers and the overlay
  // observers hold references into this object, so it is pinned in
  // place (heap-allocate an engine to hand it around).
  EngineKernel(const EngineKernel&) = delete;
  EngineKernel& operator=(const EngineKernel&) = delete;
  EngineKernel(EngineKernel&&) = delete;
  EngineKernel& operator=(EngineKernel&&) = delete;

  /// Replaces the base Oracle (e.g. with a DHT- or gossip-backed
  /// realization) and rebuilds the admission and fault layers around
  /// it. Must be called before the first run. Not allowed with an
  /// adversary layer: the replacement would bypass the claim filter.
  void set_oracle(std::unique_ptr<Oracle> oracle);

  /// Installs a trace observer (nullptr to disable). Legacy single
  /// -observer entry point, now a named subscription on trace_bus():
  /// calling it again releases the previous subscription (its slot and
  /// retention-ring config with it) before installing the replacement;
  /// additional consumers should subscribe to the bus directly. Returns
  /// the new subscription id (0 when disabling).
  TraceBus::SubscriptionId set_trace(
      std::function<void(const TraceEvent&)> trace);

  /// The engine's trace event bus. Subscriptions survive set_oracle()
  /// rebuilds — the rebuilt core is pointed at the same bus.
  TraceBus& trace_bus() noexcept { return trace_bus_; }

  /// Paper-invariant audit sink. LAGOVER_AUDIT builds publish one event
  /// per violation per round (or simulated time unit); the bus exists
  /// in every build so subscribers need no conditional compilation.
  AuditBus& audit_bus() noexcept { return audit_bus_; }

  /// Total invariant violations seen by the audit (always 0 in builds
  /// without LAGOVER_AUDIT).
  std::uint64_t audit_violations() const noexcept {
    return audit_violations_;
  }

  const Overlay& overlay() const noexcept { return overlay_; }
  Overlay& overlay() noexcept { return overlay_; }
  const Protocol& protocol() const noexcept { return *protocol_; }
  const Oracle& oracle() const noexcept { return *oracle_; }
  const ConstructionCore& core() const noexcept { return *core_; }
  std::uint64_t maintenance_detaches() const noexcept {
    return core_->maintenance_detaches();
  }

  /// Health-layer state, for validators and metrics.
  const health::EpochBook& epochs() const noexcept { return epochs_; }
  const health::PhiAccrualDetector& detector() const noexcept {
    return detector_;
  }

  const fault::FaultInjector* faults() const noexcept {
    return config_.faults.get();
  }
  const fault::AdversaryBook* adversary() const noexcept {
    return config_.adversary.get();
  }
  /// Defense-ladder state (empty book when defenses are off).
  const health::SuspicionBook& suspicion() const noexcept {
    return suspicion_;
  }
  /// The claim-filtered Oracle, when an adversary layer is installed
  /// (null otherwise); exposes barred/implausible skip counters.
  const fault::ByzantineOracle* byzantine_oracle() const noexcept {
    return byzantine_oracle_;
  }
  /// Children that abandoned a quarantined/blacklisted parent.
  std::uint64_t quarantine_detaches() const noexcept {
    return quarantine_detaches_;
  }

  /// Oracle admission controller, when admission control is configured
  /// (null otherwise); exposes rate/breaker counters.
  const AdmissionController* admission() const noexcept {
    return admission_.get();
  }
  /// The admission-wrapped Oracle (null without admission control);
  /// exposes the stale-served counter.
  const AdmittedOracle* admitted_oracle() const noexcept {
    return admission_oracle_;
  }
  /// Children the feed layer detached from a parent that starved them
  /// (graceful-degradation escalation; only the round engine has it).
  std::uint64_t starvation_detaches() const noexcept {
    return starvation_detaches_;
  }

 protected:
  /// `timeout_limit`: orphan steps before direct source contact.
  /// `clock`: the scheduler's time, read by the Oracle wrappers and the
  /// core's probes during a run, never during construction.
  EngineKernel(Population population, KernelConfig config, int timeout_limit,
               Clock clock);
  /// Closes the health-observatory run, when one was registered. Not
  /// virtual: an engine is never deleted through its kernel.
  ~EngineKernel();

  /// Verdict of one parent poll by an attached node.
  enum class Poll {
    kKept,      ///< parent kept: run maintenance
    kMissed,    ///< poll lost, parent not yet suspected: no maintenance
    kDetached,  ///< node re-orphaned (suspicion, epoch fence, quarantine)
  };
  /// The attached, online node `id` polls its parent at time `now`: the
  /// epoch fence and dead-parent detection (fault layer), then the
  /// child-side defense checks. Call only when a fault layer is
  /// installed or defense_active().
  Poll poll_parent(NodeId id, SimTime now);

  /// Does `id` believe its constraint violated? A node's DelayAt
  /// knowledge is piggy-backed down its chain, so under an adversary
  /// the self-check runs on the parent's *reported* delay: a
  /// delay-liar's direct children believe claim + 1 and stay put while
  /// truly violated — the lie hides the damage from its victims.
  bool believes_violated(NodeId id) const {
    return protocol_->claimed_delay(overlay_, overlay_.parent(id)) + 1 >
           overlay_.latency_of(id);
  }

  /// The shared half of a crash: emits kCrash (BEFORE the structural
  /// change, so observers still see the children it orphans), records
  /// the instability evidence, arms the failover ladder for the
  /// orphaned children, and takes the node offline. `cause` tags the
  /// event ("" = plain fault-plan crash, "flap" = adversarial flapper,
  /// "domain" = correlated domain outage).
  void crash(NodeId id, Round label, const char* cause);
  /// Takes `id` offline and erases its session state.
  void take_offline(NodeId id);
  /// Brings an offline node back as a new incarnation and emits `type`.
  /// Returns false (and does nothing) when it is already online.
  bool rejoin(NodeId id, Round label, TraceEventType type);

  /// Runs the paper-invariant audit against the current overlay state
  /// and publishes violations.
  void audit(Round label);
  /// Samples the health-observatory run, when one is registered.
  void note_health_round(SimTime now);

  bool defense_active() const noexcept {
    return config_.adversary != nullptr && config_.defense.enabled;
  }

  KernelConfig config_;
  Overlay overlay_;
  std::unique_ptr<Protocol> protocol_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<ConstructionCore> core_;
  std::unique_ptr<ChurnModel> churn_;
  TraceBus trace_bus_;
  AuditBus audit_bus_;
  std::uint64_t audit_violations_ = 0;
  /// Health-observatory run id (0 = no recorder active at construction).
  std::uint64_t health_run_ = 0;
  Rng rng_;
  bool started_ = false;
  /// Consecutive missed parent polls per attached node.
  std::vector<int> parent_poll_misses_;
  /// Health layer (always sized; pure bookkeeping without faults).
  health::EpochBook epochs_;
  health::PhiAccrualDetector detector_;
  /// Last known parent-of-parent per node, piggy-backed on successful
  /// polls — the first rung of the failover ladder.
  std::vector<NodeId> grandparent_hint_;
  /// Armed by a suspicion event (kParentLost / kEpochFenced / parent
  /// crash): the node's next orphan step tries the failover ladder
  /// before the Oracle. Never set on the fault-free path.
  std::vector<char> failover_pending_;
  /// Defense-ladder scores and trust states (sized always, inert unless
  /// defense_active()).
  health::SuspicionBook suspicion_;
  std::uint64_t quarantine_detaches_ = 0;
  /// Admission layer (null unless config_.admission is non-empty).
  std::shared_ptr<AdmissionController> admission_;
  /// Borrowed view of the admission decorator (owned by oracle_,
  /// possibly through the fault layer's wrapper).
  AdmittedOracle* admission_oracle_ = nullptr;
  std::uint64_t starvation_detaches_ = 0;

 private:
  /// Builds the Oracle stack over `base` in the documented order
  /// base ← Byzantine ← Admitted ← Faulty, then the one ConstructionCore
  /// over it, with every hook the installed layers need.
  void build_oracle_stack(std::unique_ptr<Oracle> base);
  /// Registers this run with the active OverlayHealthRecorder, if any
  /// (no recorder = no detour; default runs stay byte-identical).
  void register_health_run();
  /// One undeliverable poll from id to its parent: updates the active
  /// detection policy's state and reports whether the parent is now
  /// suspected dead.
  bool suspect_parent(NodeId id, SimTime now);
  /// Re-orphans id after a suspicion / epoch fence / quarantine, arming
  /// the failover ladder when configured.
  void detach_suspected(NodeId id, NodeId parent, Round label,
                        TraceEventType type);

  Clock clock_;
  int timeout_limit_;
  /// set_trace()'s subscription on trace_bus_ (0 = none installed).
  TraceBus::SubscriptionId trace_subscription_ = 0;
  /// Delay each attached node was promised at attach time (parent's
  /// claimed delay + 1); -1 = no active promise. Maintained only while
  /// the defense ladder runs delay verification.
  std::vector<Delay> promised_delay_;
  /// Borrowed view of the claim-filtering Oracle (owned by oracle_,
  /// possibly through the admission and fault wrappers). Null without
  /// an adversary layer.
  fault::ByzantineOracle* byzantine_oracle_ = nullptr;
};

}  // namespace lagover
