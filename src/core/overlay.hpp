// The LagOver overlay state: a forest over {source} ∪ consumers that the
// construction algorithms evolve toward a single dissemination tree
// rooted at the source.
//
// Terminology (paper Section 2): each node has at most one parent;
// Parent()/Children()/Root()/DelayAt() mirror Table 1. A node whose
// chain root is the source actually receives the feed; detached groups
// report an *optimistic* delay (their depth within the group + 1,
// i.e. as if the group root were polling the source directly), which is
// the local knowledge a group has while bootstrapping.
//
// Every node's chain root and depth below that root, and the number of
// satisfied consumers, are kept as an index that attach/detach update in
// O(moved subtree), so the Table 1 queries and "all online consumers
// satisfied" are O(1) reads. A second index buckets the online consumers
// by (delay level, free fanout) so an Oracle draws a uniform partner in
// O(levels) instead of scanning the membership.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace lagover {

/// Structural counters maintained incrementally by Overlay.
struct OverlayCounters {
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
};

/// Mutable overlay (forest) state with structural enforcement of fanout
/// bounds and acyclicity. Algorithms mutate it only through
/// attach/detach/set_offline/set_online, so the invariants checked by
/// audit() hold at every step.
class Overlay {
 public:
  /// Constructs the overlay for a validated population; all consumers
  /// start online and parentless.
  explicit Overlay(Population population);

  /// Copies carry the structure but NOT the edge observers: observers
  /// are wiring installed by the owning engine (e.g. the health layer's
  /// lease book) and must not dangle into it from a snapshot copy.
  Overlay(const Overlay& other);
  Overlay& operator=(const Overlay& other);
  Overlay(Overlay&&) = default;
  Overlay& operator=(Overlay&&) = default;

  // --- population ---------------------------------------------------
  std::size_t consumer_count() const noexcept { return specs_.size() - 1; }
  /// Total node count including the source.
  std::size_t node_count() const noexcept { return specs_.size(); }
  const Population& population() const noexcept { return population_; }

  int fanout_of(NodeId id) const;
  Delay latency_of(NodeId id) const;
  const NodeSpec& spec_of(NodeId id) const;

  // --- structure queries ---------------------------------------------
  /// Parent(), or kNoNode for chain roots and the source.
  NodeId parent(NodeId id) const;
  const std::vector<NodeId>& children(NodeId id) const;
  bool has_parent(NodeId id) const { return parent(id) != kNoNode; }
  int free_fanout(NodeId id) const;

  /// Root(): the top of id's chain (the source if connected). Root of
  /// the source is the source itself. O(1).
  NodeId root(NodeId id) const;

  /// True iff Root(id) == source, i.e. the node actually receives the feed.
  bool connected(NodeId id) const { return root(id) == kSourceId; }

  /// DelayAt(): tree depth if connected; depth-within-group + 1
  /// (optimistic) for detached nodes. DelayAt(source) == 0. O(1).
  Delay delay_at(NodeId id) const;

  /// Depth of id below its chain root (root itself has depth 0). O(1).
  int depth_below_root(NodeId id) const;

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (a node is its own descendant). O(1) on a root or depth mismatch or
  /// when ancestor is a chain root, else walks up the depth difference.
  bool in_subtree(NodeId descendant, NodeId ancestor) const;

  /// All nodes in the subtree rooted at id (preorder), including id.
  std::vector<NodeId> subtree(NodeId id) const;

  // --- online state ----------------------------------------------------
  bool online(NodeId id) const;
  /// Takes a consumer offline: detaches it from its parent and orphans
  /// its children (they become chain roots). No-op if already offline.
  void set_offline(NodeId id);
  /// Brings a consumer back online as a fresh parentless node.
  void set_online(NodeId id);
  std::size_t online_count() const noexcept { return online_count_; }

  // --- mutation --------------------------------------------------------
  /// Attaches `child` (currently parentless, online) under `parent`
  /// (online or the source, with free fanout, not inside child's
  /// subtree). Precondition violations abort; callers use can_attach()
  /// to test first.
  void attach(NodeId child, NodeId parent);

  /// True iff attach(child, parent) would satisfy its preconditions.
  bool can_attach(NodeId child, NodeId parent) const;

  /// Removes `child` from its parent, making it a chain root (its own
  /// subtree stays with it). Precondition: has_parent(child).
  void detach(NodeId child);

  // --- edge observers ---------------------------------------------------
  /// Invoked after every successful attach / before every detach with
  /// (child, parent). Installed by the owning engine (the health layer
  /// records epoch leases through these); nullptr disables. Observers
  /// must not mutate the overlay. Not propagated by copies.
  using EdgeObserver = std::function<void(NodeId child, NodeId parent)>;
  void set_attach_observer(EdgeObserver observer) {
    attach_observer_ = std::move(observer);
  }
  void set_detach_observer(EdgeObserver observer) {
    detach_observer_ = std::move(observer);
  }

  // --- constraint satisfaction ------------------------------------------
  /// True iff id is online, connected, and DelayAt(id) <= l_id. O(1).
  bool satisfied(NodeId id) const;

  /// Number of online consumers currently satisfied. O(1).
  std::size_t satisfied_count() const noexcept { return satisfied_count_; }

  /// True iff every online consumer is satisfied ("the LagOver is
  /// constructed"). O(1).
  bool all_satisfied() const noexcept {
    return satisfied_count_ == online_count_;
  }

  /// Fraction of online consumers satisfied (1.0 when no one is online).
  double satisfied_fraction() const;

  const OverlayCounters& counters() const noexcept { return counters_; }

  // --- sampling index ----------------------------------------------------
  /// Every online consumer sits in exactly one bucket keyed by
  /// (level_of(id), free_fanout(id) > 0), at position level_slot(id).
  /// level_of(id) = min(DelayAt(id), max_level()), where max_level() is
  /// the largest consumer latency (capped at the consumer count, which
  /// no delay exceeds). So the delay filter "DelayAt < l" admits exactly
  /// the levels below min(l, max_level() + 1), and detached groups whose
  /// optimistic delay is max_level() or more sit where no delay filter
  /// reaches. Updated with the root/depth index; member order is an
  /// implementation detail. The buckets are consecutive ranges of one
  /// array of all consumers, sized at construction: moving a node
  /// between buckets shifts the boundaries in between, so the mutators
  /// never allocate.
  Delay max_level() const noexcept { return max_level_; }
  Delay level_of(NodeId id) const;
  std::span<const NodeId> level_members(Delay level, bool free) const;
  /// Position of online consumer id inside its level_members bucket.
  std::size_t level_slot(NodeId id) const;

  // --- diagnostics -----------------------------------------------------
  /// Verifies structural invariants (parent/child symmetry, fanout
  /// bounds, acyclicity, offline nodes detached) and that the stored
  /// root/depth index and satisfied count match a walk of every chain,
  /// and that every consumer sits at its recorded slot inside the range
  /// of its sampling bucket (offline ones in the last range); aborts
  /// with a message on violation. Cheap enough to call per round in
  /// tests.
  void audit() const;

  /// Checks the greedy ordering invariant i <- j ==> l_j <= l_i over all
  /// edges (source edges trivially hold); returns the first offending
  /// child id or kNoNode.
  NodeId first_greedy_order_violation() const;

  /// Multi-line ASCII rendering of the forest (for traces and examples).
  std::string to_ascii() const;

 private:
  void check_id(NodeId id) const;
  /// Moves node's subtree under chain root `root`, shifting every
  /// member's depth by `depth_delta` and keeping satisfied_count_.
  /// O(subtree); reuses walk_stack_.
  void shift_subtree(NodeId node, NodeId root, int depth_delta);
  /// Sampling-index bucket of consumer id under the current structure:
  /// 2 * level_of(id) + (free fanout > 0) when online, offline_bucket()
  /// when not.
  std::size_t bucket_of(NodeId id) const;
  std::size_t offline_bucket() const noexcept {
    return bucket_start_.size() - 2;
  }
  /// Moves id from bucket `from` to its current bucket_of(id), one
  /// boundary move per bucket in between: O(|from - to|) <= O(levels).
  void rebucket(NodeId id, std::size_t from);

  Population population_;
  std::vector<NodeSpec> specs_;       // index = id; [0] is the source
  std::vector<NodeId> parent_;        // kNoNode for roots
  std::vector<std::vector<NodeId>> children_;
  std::vector<char> online_;          // [0] always true
  std::size_t online_count_ = 0;      // consumers only
  // Index over the forest: chain root and depth below it per node.
  std::vector<NodeId> root_;
  std::vector<int> depth_;
  std::size_t satisfied_count_ = 0;   // consumers only
  // Sampling index: members_ holds every consumer, bucket b at
  // [bucket_start_[b], bucket_start_[b + 1]); the 2 * (max_level_ + 1)
  // online buckets come first, offline consumers last. slot_[id] is
  // id's position in members_.
  Delay max_level_ = 1;
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint32_t> slot_;
  std::vector<NodeId> walk_stack_;    // scratch for shift_subtree
  OverlayCounters counters_;
  EdgeObserver attach_observer_;
  EdgeObserver detach_observer_;
};

}  // namespace lagover
