// Event-driven (asynchronous) LagOver construction (paper Section 5.3:
// "peers interacted asynchronously, i.e. different peers need different
// amount of time to complete the interactions. Asynchrony slowed down
// the overlay construction, but interestingly did not affect the
// eventual convergence").
//
// Each consumer runs its own action loop on the discrete-event kernel:
// while parentless it performs one construction step and then sleeps for
// an interaction duration drawn uniformly from
// [min_interaction_time, max_interaction_time]; while attached it wakes
// every maintenance_period to evaluate the maintenance condition.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/engine_kernel.hpp"
#include "core/types.hpp"
#include "net/latency_model.hpp"
#include "sim/simulator.hpp"

namespace lagover {

/// The event scheduler's own timing: interaction durations, the
/// maintenance period and the retry backoff.
struct AsyncTiming {
  /// Interaction duration bounds; the synchronous engine corresponds to
  /// every duration being exactly 1.0 (one round).
  double min_interaction_time = 0.5;
  double max_interaction_time = 2.5;
  /// Attached nodes poll their parent (and run maintenance) this often.
  double maintenance_period = 1.0;
  /// Optional network model: when set, an interaction with partner j
  /// additionally costs rtt_weight * 2 * latency(i, j) — geographically
  /// far partners take longer to negotiate with (the model must cover
  /// addresses [0, consumers]; address = NodeId, 0 = the source).
  std::shared_ptr<net::LatencyModel> network_latency;
  double rtt_weight = 1.0;
  /// Exponential backoff with jitter for failed interactions / source
  /// contacts (dropped request, partitioned peer, dead stale-Oracle
  /// partner, or a starved Oracle during an outage): the k-th
  /// consecutive failure reschedules the node after
  ///   min(backoff_base * 2^k, backoff_max) * (1 ± backoff_jitter).
  double backoff_base = 0.5;
  double backoff_max = 8.0;
  double backoff_jitter = 0.25;
};

/// Settings of an event-driven run: the shared KernelConfig plus the
/// event scheduler's own fields.
struct AsyncConfig : KernelConfig, AsyncTiming {
  int timeout_steps = 4;  ///< orphan actions before source contact
};

/// Runs construction on the event kernel and reports the simulated time
/// at which every online consumer became satisfied; the kernel's clock
/// is Simulator::now().
class LAGOVER_THREAD_HOSTILE AsyncEngine : public EngineKernel {
 public:
  AsyncEngine(Population population, AsyncConfig config);

  const Simulator& simulator() const noexcept { return sim_; }

  /// Installs a churn model, applied once per time unit (the same
  /// cadence as the synchronous engine's rounds). Must be called before
  /// the first run. Newly joined nodes re-enter the construction loop
  /// at their own pace.
  void set_churn(std::unique_ptr<ChurnModel> churn);

  /// Parks a consumer offline before the run starts — flash-crowd
  /// experiments hold part of the population back until a
  /// FlashCrowdChurn joins them all at once. Must be called before the
  /// first run (the node's initial wake dies at the offline check, and
  /// the churn join path restarts its action loop).
  void park_offline(NodeId id);

  /// Runs for exactly `duration` time units (under churn there is no
  /// stable "converged" endpoint) and reports the final satisfied
  /// fraction.
  double run_for(SimTime duration);

  /// Runs until convergence or `horizon` simulated time units. Returns
  /// the convergence time, or nullopt on timeout.
  std::optional<SimTime> run_until_converged(SimTime horizon);

  /// Installs a periodic observer (e.g. a metrics::RecoveryRecorder's
  /// sample method) invoked every `period` time units once the run
  /// starts. Must be called before the first run.
  void set_sampler(double period, std::function<void(SimTime)> sampler);

 private:
  void schedule_node(NodeId id, SimTime delay);
  void on_wake(NodeId id);
  void wake_attached(NodeId id);
  void wake_orphan(NodeId id);
  void apply_churn();
  /// Crashes `id` and schedules its rejoin as a new incarnation after
  /// `downtime` (floored at 0.1).
  void crash_node(NodeId id, double downtime, const char* cause);
  double draw_duration();
  double backoff_delay(NodeId id);

  AsyncTiming timing_;
  Simulator sim_;
  Round churn_ticks_ = 0;
  bool converged_ = false;
  SimTime converged_at_ = 0.0;
  /// Consecutive failed attempts per node (drives the backoff).
  std::vector<int> failed_attempts_;
};

}  // namespace lagover
