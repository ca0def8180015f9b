#include "feed/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "feed/feed.hpp"
#include "metrics/tree_metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/span.hpp"

namespace lagover::feed {

namespace {

class LossyDissemination {
 public:
  LossyDissemination(const Overlay& overlay, const LossyConfig& config)
      : overlay_(overlay),
        config_(config),
        source_(sim_, config.base.source),
        rng_(config.seed_mix()) {
    // An empty book holds no free-riders; normalize so the hot path has
    // a single null check.
    if (config_.adversary != nullptr && config_.adversary->empty())
      config_.adversary.reset();
    if (!config_.base.capacity.empty())
      sent_window_.assign(overlay_.node_count(), {-1, 0});
  }

  LossyReport run(SimTime duration) {
    source_.start();
    last_polled_.assign(overlay_.node_count(), 0);
    received_.assign(overlay_.node_count(), {});
    delivery_time_.assign(overlay_.node_count(), {});
    low_water_.assign(overlay_.node_count(), 1);
    high_water_.assign(overlay_.node_count(), 0);
    // Items the run publishes (exact for a periodic schedule, the mean
    // for a Poisson one): each node's receipt vectors are sized to it on
    // their first receipt instead of growing one sequence number at a
    // time.
    const double expected_items = duration / config_.base.source.publish_period;
    seq_capacity_ = std::isfinite(expected_items)
                        ? static_cast<std::size_t>(expected_items) + 2
                        : 0;

    for (NodeId poller : overlay_.children(kSourceId)) {
      if (!overlay_.online(poller)) continue;
      const double phase = rng_.uniform_real(0.0, config_.base.poll_period);
      sim_.schedule_after(phase, [this, poller] { poll(poller); });
    }
    if (config_.enable_recovery) {
      for (NodeId id = 1; id < overlay_.node_count(); ++id) {
        if (!overlay_.online(id) || !overlay_.connected(id)) continue;
        if (overlay_.parent(id) == kSourceId) continue;  // polls are reliable
        const double phase =
            rng_.uniform_real(0.0, config_.recovery_period);
        sim_.schedule_after(phase, [this, id] { recover(id); });
      }
    }
    sim_.run_until(duration);
    return build_report(duration);
  }

 private:
  bool has(NodeId node, std::uint64_t seq) const {
    const auto& got = received_[node];
    return seq < got.size() && got[seq] != 0;
  }

  void mark(NodeId node, std::uint64_t seq, SimTime when) {
    auto& got = received_[node];
    auto& times = delivery_time_[node];
    if (seq >= got.size()) {
      // A Poisson schedule can publish past the expected count: grow
      // geometrically beyond it.
      const std::size_t size = std::max<std::size_t>(
          {seq + 1, seq_capacity_, 2 * got.size()});
      got.resize(size, 0);
      times.resize(size, -1.0);
    }
    got[seq] = 1;
    times[seq] = when;
    high_water_[node] = std::max<std::uint64_t>(high_water_[node], seq + 1);
    auto& low = low_water_[node];
    while (has(node, low)) ++low;
  }

  /// Emits a receipt/drop/duplicate span; all identity comes from the
  /// threaded (from, hop, sent_at) so the exported chain is exact even
  /// under loss, duplication, and repair.
  void record_hop(telemetry::SpanKind kind, NodeId node, const FeedItem& item,
                  NodeId from, std::uint32_t hop, SimTime sent_at,
                  const char* cause) {
    if (!telemetry::enabled()) return;
    telemetry::ItemSpan span;
    span.item = item.seq;
    span.kind = kind;
    span.node = node;
    span.parent = from;
    span.hop = hop;
    span.published_at = item.published_at;
    span.start = sent_at;
    span.ts = sim_.now();
    if (kind == telemetry::SpanKind::kSourcePoll ||
        kind == telemetry::SpanKind::kDeliver ||
        kind == telemetry::SpanKind::kRepair)
      span.deadline = static_cast<double>(overlay_.latency_of(node));
    span.cause = cause;
    telemetry::record_span(span);
  }

  void deliver(NodeId node, FeedItem item, bool via_recovery, NodeId from,
               std::uint32_t hop, SimTime sent_at, const char* cause = "") {
    // Duplicate suppression: the sequence number is the identity, so a
    // copy of an already-applied item is dropped (and counted) here —
    // each consumer applies every item at most once.
    if (has(node, item.seq)) {
      ++suppressed_;
      record_hop(telemetry::SpanKind::kDuplicate, node, item, from, hop,
                 sent_at, cause[0] != '\0' ? cause : "suppressed");
      return;
    }
    mark(node, item.seq, sim_.now());
    if (via_recovery)
      ++recovered_;
    else
      ++pushed_;
    record_hop(via_recovery ? telemetry::SpanKind::kRepair
               : from == kSourceId ? telemetry::SpanKind::kSourcePoll
                                   : telemetry::SpanKind::kDeliver,
               node, item, from, hop, sent_at, cause);
    // First receipt: forward downstream (lossy), regardless of how the
    // item arrived — recovered items keep flowing.
    const SimTime forward_at = sim_.now();
    // Free-rider (adversary layer): the node applies the item for
    // itself but never relays it — its whole subtree starves on pushes
    // and must live off repair pulls from... this same node, which
    // ignores those too (see recover()).
    if (config_.adversary != nullptr &&
        config_.adversary->withholds_feed(node)) {
      for (NodeId child : overlay_.children(node)) {
        if (!overlay_.online(child)) continue;
        ++withheld_;
        record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                   forward_at, "free_ride");
      }
      return;
    }
    bool forwarded = false;
    // Capacity budget for this relay's unit-time window. The shed check
    // runs BEFORE the loss roll, so a shed child costs no RNG draw and
    // capacity-free runs stay byte-identical. Shed items are not gone:
    // the repair loop recovers them later — overload costs staleness,
    // not items (graceful degradation).
    const std::uint32_t budget = config_.base.capacity.empty()
                                     ? 0
                                     : config_.base.capacity.budget_at(
                                           sim_.now());
    for (NodeId child : forward_targets(node)) {
      if (budget != 0) {
        auto& state = sent_window_[node];
        const auto window = static_cast<std::int64_t>(sim_.now());
        if (state.first != window) state = {window, 0};
        if (state.second >= budget) {
          ++shed_pushes_;
          record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                     forward_at, "shed");
          continue;
        }
        ++state.second;
      }
      if (rng_.bernoulli(config_.push_loss)) {
        ++lost_;
        record_hop(telemetry::SpanKind::kDrop, child, item, node, hop + 1,
                   forward_at, "push_loss");
        continue;
      }
      forwarded = true;
      sim_.schedule_after(config_.base.hop_delay,
                          [this, child, item, node, hop, forward_at] {
        deliver(child, item, /*via_recovery=*/false, node, hop + 1,
                forward_at);
      });
      // Duplicate injection (at-least-once transport): the guard comes
      // first so duplicate_probability == 0 draws no extra RNG and
      // legacy runs stay byte-identical.
      if (config_.duplicate_probability > 0.0 &&
          rng_.bernoulli(config_.duplicate_probability)) {
        ++duplicate_pushes_;
        sim_.schedule_after(config_.base.hop_delay,
                            [this, child, item, node, hop, forward_at] {
          deliver(child, item, /*via_recovery=*/false, node, hop + 1,
                  forward_at, "duplicate_push");
        });
      }
    }
    if (forwarded)
      record_hop(telemetry::SpanKind::kRelay, node, item, from, hop,
                 forward_at, "");
  }

  /// Online children of `node`, in forwarding order. Mirrors the base
  /// dissemination: deadline-aware shedding serves the tightest latency
  /// constraints first, so an exhausted budget sheds the children with
  /// the most slack l_i; stable sort keeps id tie-breaks deterministic.
  /// With no capacity configured this is exactly the plain child walk.
  /// Fills and returns a member scratch vector; the caller's loop only
  /// schedules events, so nothing refills it while it is walked.
  const std::vector<NodeId>& forward_targets(NodeId node) {
    std::vector<NodeId>& order = targets_;
    order.clear();
    for (NodeId child : overlay_.children(node))
      if (overlay_.online(child)) order.push_back(child);
    if (!config_.base.capacity.empty() && config_.base.capacity.shedding &&
        order.size() > 1)
      std::stable_sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
        return overlay_.latency_of(a) < overlay_.latency_of(b);
      });
    return order;
  }

  void poll(NodeId poller) {
    for (const FeedItem& item : source_.pull(last_polled_[poller])) {
      last_polled_[poller] = item.seq;
      // The poll hop starts at publication: the item sat at the source
      // from then until this poll fired.
      deliver(poller, item, /*via_recovery=*/false, kSourceId, 1,
              item.published_at);
    }
    sim_.schedule_after(config_.base.poll_period,
                        [this, poller] { poll(poller); });
  }

  void recover(NodeId node) {
    const NodeId parent = overlay_.parent(node);
    LAGOVER_ASSERT(parent != kNoNode && parent != kSourceId);
    // A free-riding parent ignores repair requests as well: the pull is
    // sent (and counted) but never answered.
    if (config_.adversary != nullptr &&
        config_.adversary->withholds_feed(parent)) {
      ++recovery_pulls_;
      sim_.schedule_after(config_.recovery_period,
                          [this, node] { recover(node); });
      return;
    }
    const auto& parent_got = received_[parent];
    const std::uint64_t parent_high = high_water_[parent];
    if (config_.repair == RepairMode::kNack) {
      // Gap detection: scan the sequence space from the node's first
      // missing number up to the parent's high-water mark and NACK
      // exactly the missing numbers — but only when there is something
      // to ask for. Identical repair set to the blanket pull, strictly
      // fewer repair messages.
      std::vector<std::uint64_t>& gaps = gaps_;
      gaps.clear();
      for (std::uint64_t seq = low_water_[node]; seq < parent_high; ++seq)
        if (parent_got[seq] != 0 && !has(node, seq)) gaps.push_back(seq);
      if (!gaps.empty()) {
        ++recovery_pulls_;
        nacked_items_ += gaps.size();
        const std::uint32_t hop =
            static_cast<std::uint32_t>(overlay_.delay_at(node));
        const SimTime sent_at = sim_.now();
        for (const std::uint64_t seq : gaps) {
          const FeedItem item = source_.items()[seq - 1];
          sim_.schedule_after(config_.base.hop_delay,
                              [this, node, item, parent, hop, sent_at] {
            deliver(node, item, /*via_recovery=*/true, parent, hop, sent_at,
                    "nack");
          });
        }
      }
    } else {
      // Blanket anti-entropy: one pull per tick, the parent answers
      // with everything it has that we lack, after one hop delay.
      ++recovery_pulls_;
      const std::uint32_t hop =
          static_cast<std::uint32_t>(overlay_.delay_at(node));
      const SimTime sent_at = sim_.now();
      for (std::uint64_t seq = low_water_[node]; seq < parent_high; ++seq) {
        if (parent_got[seq] == 0 || has(node, seq)) continue;
        const FeedItem item = source_.items()[seq - 1];
        sim_.schedule_after(config_.base.hop_delay,
                            [this, node, item, parent, hop, sent_at] {
          deliver(node, item, /*via_recovery=*/true, parent, hop, sent_at,
                  "anti_entropy");
        });
      }
    }
    sim_.schedule_after(config_.recovery_period,
                        [this, node] { recover(node); });
  }

  LossyReport build_report(SimTime duration) const {
    LossyReport report;
    report.duration = duration;
    report.items_published = source_.published();
    report.push_deliveries = pushed_;
    report.recovered_deliveries = recovered_;
    report.lost_pushes = lost_;
    report.recovery_pulls = recovery_pulls_;
    report.applications = pushed_ + recovered_;
    report.duplicate_pushes = duplicate_pushes_;
    report.duplicates_suppressed = suppressed_;
    report.nacked_items = nacked_items_;
    report.withheld_pushes = withheld_;
    report.shed_pushes = shed_pushes_;

    // Exclude the tail window where deliveries may still be in flight.
    const TreeMetrics metrics = compute_tree_metrics(overlay_);
    const double settle = config_.base.poll_period +
                          metrics.max_depth * config_.base.hop_delay +
                          2.0 * config_.recovery_period;
    const double cutoff = duration - settle;

    std::uint64_t counted_items = 0;
    for (const FeedItem& item : source_.items())
      if (item.published_at <= cutoff) ++counted_items;

    std::uint64_t delivered = 0;
    for (NodeId id = 1; id < overlay_.node_count(); ++id) {
      if (!overlay_.online(id) || !overlay_.connected(id)) continue;
      ++report.connected_consumers;
      const double budget = static_cast<double>(overlay_.latency_of(id));
      for (const FeedItem& item : source_.items()) {
        if (item.published_at > cutoff) break;
        if (!has(id, item.seq)) continue;
        ++delivered;
        const double staleness =
            delivery_time_[id][item.seq] - item.published_at;
        if (staleness > budget + 1e-9) ++report.late_deliveries;
      }
    }
    report.expected_deliveries =
        counted_items * report.connected_consumers;
    report.delivery_ratio =
        report.expected_deliveries == 0
            ? 1.0
            : static_cast<double>(delivered) /
                  static_cast<double>(report.expected_deliveries);
    return report;
  }

  const Overlay& overlay_;
  LossyConfig config_;
  Simulator sim_;
  FeedSource source_;
  Rng rng_;
  std::vector<std::uint64_t> last_polled_;
  std::vector<std::vector<char>> received_;       // [node][seq]
  std::vector<std::vector<double>> delivery_time_;  // [node][seq]
  /// Per node, the first sequence number it lacks (it holds every
  /// smaller one): repair scans start here instead of at 1.
  std::vector<std::uint64_t> low_water_;
  /// Per node, one past the largest sequence number it holds: repair
  /// scans of a parent end here.
  std::vector<std::uint64_t> high_water_;
  std::size_t seq_capacity_ = 0;  // receipt vector size per node
  std::vector<NodeId> targets_;      // forward_targets() scratch
  std::vector<std::uint64_t> gaps_;  // recover() NACK scratch
  std::uint64_t pushed_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t recovery_pulls_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t duplicate_pushes_ = 0;
  std::uint64_t nacked_items_ = 0;
  std::uint64_t withheld_ = 0;
  /// Capacity bookkeeping (sized only when limits are configured):
  /// per-relay (window index, forwards in it).
  std::vector<std::pair<std::int64_t, std::uint32_t>> sent_window_;
  std::uint64_t shed_pushes_ = 0;
};

}  // namespace

LossyReport run_lossy_dissemination(const Overlay& overlay,
                                    const LossyConfig& config,
                                    SimTime duration) {
  const telemetry::PerfPhase perf_phase("dissemination");
  LAGOVER_EXPECTS(config.push_loss >= 0.0 && config.push_loss < 1.0);
  LAGOVER_EXPECTS(config.recovery_period > 0.0);
  LAGOVER_EXPECTS(config.duplicate_probability >= 0.0 &&
                  config.duplicate_probability < 1.0);
  LossyDissemination dissemination(overlay, config);
  return dissemination.run(duration);
}

}  // namespace lagover::feed
