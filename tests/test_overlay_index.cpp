// Differential tests for Overlay's incremental index (chain root, depth
// below root, satisfied flag, satisfied count). A naive reference forest
// answers every query by walking parent chains and scanning all nodes;
// seeded random attach/detach/offline/online sequences — including
// rejected attaches into the child's own subtree, offlining parents of
// deep subtrees, and copying/assigning/rewinding the Overlay mid-run —
// must agree with it after every op, down to the DirectoryOracle
// eligibility set of all four OracleKinds and the membership of every
// (delay level, free fanout) sampling bucket, whose admitted union must
// be exactly the eligible set a scan finds. A second test pins the
// mutators to zero steady-state heap allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/oracle.hpp"
#include "core/overlay.hpp"
#include "telemetry/perf.hpp"

namespace lagover {
namespace {

/// The chain-walking reference: the same forest kept as bare parent and
/// child lists, every query answered from scratch.
class ReferenceForest {
 public:
  explicit ReferenceForest(const Population& population)
      : parent_(population.size() + 1, kNoNode),
        children_(population.size() + 1),
        online_(population.size() + 1, 1),
        fanout_(population.size() + 1, population.source_fanout),
        latency_(population.size() + 1, 1) {
    for (const NodeSpec& spec : population.consumers) {
      fanout_[spec.id] = spec.constraints.fanout;
      latency_[spec.id] = spec.constraints.latency;
      max_level_ = std::max(max_level_, spec.constraints.latency);
    }
    // No delay exceeds the consumer count, so higher levels stay empty.
    max_level_ = std::min(
        max_level_, std::max<Delay>(1, static_cast<Delay>(population.size())));
  }

  std::size_t node_count() const { return parent_.size(); }
  NodeId parent(NodeId id) const { return parent_[id]; }
  bool online(NodeId id) const { return online_[id] != 0; }
  const std::vector<NodeId>& children(NodeId id) const {
    return children_[id];
  }

  NodeId root(NodeId id) const {
    while (parent_[id] != kNoNode) id = parent_[id];
    return id;
  }
  int depth(NodeId id) const {
    int depth = 0;
    for (; parent_[id] != kNoNode; id = parent_[id]) ++depth;
    return depth;
  }
  Delay delay_at(NodeId id) const {
    if (id == kSourceId) return 0;
    return root(id) == kSourceId ? depth(id) : depth(id) + 1;
  }
  bool in_subtree(NodeId descendant, NodeId ancestor) const {
    for (NodeId cur = descendant; cur != kNoNode; cur = parent_[cur])
      if (cur == ancestor) return true;
    return false;
  }
  bool satisfied(NodeId id) const {
    if (id == kSourceId) return true;
    return online_[id] && root(id) == kSourceId && depth(id) <= latency_[id];
  }
  std::size_t satisfied_count() const {
    std::size_t count = 0;
    for (NodeId id = 1; id < node_count(); ++id)
      if (online_[id] && satisfied(id)) ++count;
    return count;
  }
  bool all_satisfied() const {
    for (NodeId id = 1; id < node_count(); ++id)
      if (online_[id] && !satisfied(id)) return false;
    return true;
  }
  bool can_attach(NodeId child, NodeId parent) const {
    if (child == kSourceId || child == parent) return false;
    if (!online_[child] || !online_[parent]) return false;
    if (parent_[child] != kNoNode) return false;
    if (static_cast<int>(children_[parent].size()) >= fanout_[parent])
      return false;
    return !in_subtree(parent, child);
  }
  Delay max_level() const { return max_level_; }
  Delay latency(NodeId id) const { return latency_[id]; }
  bool has_room(NodeId id) const {
    return static_cast<int>(children_[id].size()) < fanout_[id];
  }

  /// Scan for the online consumers of sampling bucket (level, free).
  std::vector<NodeId> bucket(Delay level, bool free) const {
    std::vector<NodeId> members;
    for (NodeId id = 1; id < node_count(); ++id)
      if (online_[id] && std::min(delay_at(id), max_level_) == level &&
          has_room(id) == free)
        members.push_back(id);
    return members;
  }

  bool eligible(OracleKind kind, NodeId querier, NodeId candidate) const {
    if (candidate == querier || candidate == kSourceId) return false;
    if (!online_[candidate]) return false;
    const bool has_room =
        static_cast<int>(children_[candidate].size()) < fanout_[candidate];
    const bool low_delay = delay_at(candidate) < latency_[querier];
    switch (kind) {
      case OracleKind::kRandom:
        return true;
      case OracleKind::kRandomCapacity:
        return has_room;
      case OracleKind::kRandomDelayCapacity:
        return has_room && low_delay;
      case OracleKind::kRandomDelay:
        return low_delay;
    }
    return false;
  }

  void attach(NodeId child, NodeId parent) {
    parent_[child] = parent;
    children_[parent].push_back(child);
  }
  void detach(NodeId child) {
    auto& siblings = children_[parent_[child]];
    siblings.erase(std::find(siblings.begin(), siblings.end(), child));
    parent_[child] = kNoNode;
  }
  void set_offline(NodeId id) {
    if (parent_[id] != kNoNode) detach(id);
    while (!children_[id].empty()) detach(children_[id].back());
    online_[id] = 0;
  }
  void set_online(NodeId id) { online_[id] = 1; }

  /// Height of the subtree under id (a leaf has height 0).
  int height(NodeId id) const {
    int best = 0;
    for (NodeId child : children_[id]) best = std::max(best, height(child) + 1);
    return best;
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<char> online_;
  std::vector<int> fanout_;
  std::vector<Delay> latency_;
  Delay max_level_ = 1;
};

constexpr OracleKind kAllOracleKinds[] = {
    OracleKind::kRandom, OracleKind::kRandomCapacity,
    OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay};

Population random_population(Rng& rng, NodeId consumers, Delay max_latency) {
  Population population;
  population.source_fanout = static_cast<int>(rng.uniform_int(1, 3));
  for (NodeId id = 1; id <= consumers; ++id) {
    // Fanout 1 is common so long chains (deep subtrees) form.
    const int fanout = static_cast<int>(rng.uniform_int(0, 3));
    const Delay latency =
        static_cast<Delay>(rng.uniform_int(1, max_latency));
    population.consumers.push_back(NodeSpec{id, Constraints{fanout, latency}});
  }
  return population;
}

std::vector<NodeId> sorted(std::span<const NodeId> members) {
  std::vector<NodeId> ids(members.begin(), members.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The sampling buckets against a scan: each bucket's membership, and
/// for every querier and OracleKind, the buckets DirectoryOracle admits
/// (levels below min(l, max_level + 1) for the delay filters, the free
/// half for the capacity filters), minus the querier, are exactly the
/// scan's eligible set.
void compare_buckets(const Overlay& overlay, const ReferenceForest& ref) {
  ASSERT_EQ(overlay.max_level(), ref.max_level());
  const Delay top = ref.max_level();
  for (Delay level = 0; level <= top; ++level)
    for (const bool free : {false, true})
      EXPECT_EQ(sorted(overlay.level_members(level, free)),
                ref.bucket(level, free))
          << "bucket (" << level << ", " << free << ")";
  const NodeId n = static_cast<NodeId>(ref.node_count());
  for (NodeId querier = 1; querier < n; ++querier) {
    for (OracleKind kind : kAllOracleKinds) {
      const bool by_delay = kind == OracleKind::kRandomDelay ||
                            kind == OracleKind::kRandomDelayCapacity;
      const bool free_only = kind == OracleKind::kRandomCapacity ||
                             kind == OracleKind::kRandomDelayCapacity;
      const Delay levels =
          by_delay ? std::min(ref.latency(querier), top + 1) : top + 1;
      std::vector<NodeId> admitted;
      for (Delay level = 0; level < levels; ++level)
        for (const bool free : {false, true})
          if (free || !free_only)
            for (NodeId id : overlay.level_members(level, free))
              if (id != querier) admitted.push_back(id);
      std::vector<NodeId> scan;
      for (NodeId id = 1; id < n; ++id)
        if (ref.eligible(kind, querier, id)) scan.push_back(id);
      std::sort(admitted.begin(), admitted.end());
      EXPECT_EQ(admitted, scan)
          << "querier " << querier << " kind " << static_cast<int>(kind);
    }
  }
}

/// Every query the index answers, against the reference.
void compare(const Overlay& overlay, const ReferenceForest& ref) {
  overlay.audit();
  EXPECT_EQ(overlay.satisfied_count(), ref.satisfied_count());
  EXPECT_EQ(overlay.all_satisfied(), ref.all_satisfied());
  compare_buckets(overlay, ref);
  const NodeId n = static_cast<NodeId>(ref.node_count());
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(overlay.parent(a), ref.parent(a)) << "node " << a;
    EXPECT_EQ(overlay.root(a), ref.root(a)) << "node " << a;
    EXPECT_EQ(overlay.depth_below_root(a), ref.depth(a)) << "node " << a;
    EXPECT_EQ(overlay.delay_at(a), ref.delay_at(a)) << "node " << a;
    EXPECT_EQ(overlay.connected(a), ref.root(a) == kSourceId) << "node " << a;
    EXPECT_EQ(overlay.satisfied(a), ref.satisfied(a)) << "node " << a;
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(overlay.in_subtree(a, b), ref.in_subtree(a, b))
          << a << " under " << b;
      EXPECT_EQ(overlay.can_attach(a, b), ref.can_attach(a, b))
          << a << " onto " << b;
      if (a == kSourceId) continue;  // the source never queries
      for (OracleKind kind : kAllOracleKinds)
        EXPECT_EQ(DirectoryOracle::eligible(kind, a, b, overlay),
                  ref.eligible(kind, a, b))
            << "querier " << a << " candidate " << b << " kind "
            << static_cast<int>(kind);
    }
  }
}

/// Picks uniformly among ids in [first, n) passing `keep`; kNoNode if none.
template <typename Pred>
NodeId pick(Rng& rng, NodeId first, NodeId n, Pred keep) {
  std::vector<NodeId> pool;
  for (NodeId id = first; id < n; ++id)
    if (keep(id)) pool.push_back(id);
  return pool.empty() ? kNoNode : rng.pick(pool);
}

void run_sequence(std::uint64_t seed, NodeId consumers, int ops,
                  Delay max_latency = 7) {
  Rng rng(seed);
  const Population population =
      random_population(rng, consumers, max_latency);
  auto overlay = std::make_unique<Overlay>(population);
  ReferenceForest ref(population);
  // A rewind point: a saved (overlay, reference) pair assigned back over
  // a diverged state.
  Overlay saved_overlay = *overlay;
  ReferenceForest saved_ref = ref;
  const NodeId n = static_cast<NodeId>(ref.node_count());
  std::size_t rejected_cycles = 0;
  std::size_t deep_offlines = 0;

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 45) {
      // Attach a random parentless online consumer under a random node
      // when the reference allows it (compare() checks can_attach on
      // every pair, rejected ones included).
      const NodeId child = pick(rng, 1, n, [&](NodeId id) {
        return ref.online(id) && ref.parent(id) == kNoNode;
      });
      if (child == kNoNode) continue;
      const NodeId parent = static_cast<NodeId>(rng.next_below(n));
      if (ref.can_attach(child, parent)) {
        overlay->attach(child, parent);
        ref.attach(child, parent);
      }
    } else if (roll < 55) {
      // Rejected attach into the child's own subtree (a cycle).
      const NodeId child = pick(rng, 1, n, [&](NodeId id) {
        return ref.parent(id) == kNoNode && !ref.children(id).empty();
      });
      if (child == kNoNode) continue;
      const NodeId inside = pick(rng, 1, n, [&](NodeId id) {
        return id != child && ref.in_subtree(id, child);
      });
      ASSERT_NE(inside, kNoNode);
      ASSERT_FALSE(overlay->can_attach(child, inside));
      ++rejected_cycles;
    } else if (roll < 72) {
      const NodeId child = pick(rng, 1, n, [&](NodeId id) {
        return ref.parent(id) != kNoNode;
      });
      if (child == kNoNode) continue;
      overlay->detach(child);
      ref.detach(child);
    } else if (roll < 82) {
      // Offline, preferring the online consumer with the deepest subtree.
      NodeId victim = kNoNode;
      int best = -1;
      for (NodeId id = 1; id < n; ++id)
        if (ref.online(id) && ref.height(id) > best) {
          best = ref.height(id);
          victim = id;
        }
      if (rng.bernoulli(0.5))
        victim = pick(rng, 1, n, [&](NodeId id) { return ref.online(id); });
      if (victim == kNoNode) continue;
      if (ref.height(victim) >= 2) ++deep_offlines;
      overlay->set_offline(victim);
      ref.set_offline(victim);
    } else if (roll < 92) {
      const NodeId id =
          pick(rng, 1, n, [&](NodeId id) { return !ref.online(id); });
      if (id == kNoNode) continue;
      overlay->set_online(id);
      ref.set_online(id);
    } else if (roll < 95) {
      overlay = std::make_unique<Overlay>(*overlay);  // copy-construct
    } else if (roll < 97) {
      auto fresh = std::make_unique<Overlay>(population);
      *fresh = *overlay;  // copy-assign over a pristine overlay
      overlay = std::move(fresh);
    } else if (roll < 99) {
      saved_overlay = *overlay;
      saved_ref = ref;
    } else {
      *overlay = saved_overlay;  // rewind over a diverged state
      ref = saved_ref;
    }
    compare(*overlay, ref);
    if (::testing::Test::HasFailure()) return;  // stop at the first bad op
  }
  // The sequence really exercised the cases it exists for.
  EXPECT_GT(rejected_cycles, 0u);
  EXPECT_GT(deep_offlines, 0u);
}

TEST(OverlayIndexTest, MatchesChainWalkingReferenceOpByOp) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    run_sequence(seed, /*consumers=*/18, /*ops=*/400);
}

TEST(OverlayIndexTest, LatenciesAboveTheConsumerCountCapTheLevels) {
  // Latencies up to 40 over 14 consumers: max_level() is capped at 14,
  // the deepest delay any consumer can have, so no level is clamped and
  // every delay filter admits exactly the scan's set.
  Population lax;
  for (NodeId id = 1; id <= 5; ++id)
    lax.consumers.push_back(NodeSpec{id, Constraints{1, 100}});
  EXPECT_EQ(Overlay(lax).max_level(), 5);
  for (std::uint64_t seed = 21; seed <= 26; ++seed)
    run_sequence(seed, /*consumers=*/14, /*ops=*/300, /*max_latency=*/40);
}

TEST(OverlayIndexTest, DeepChainsReparentAsOneSubtree) {
  // A fanout-1 chain hanging off a detached group root, grafted onto the
  // source and cut mid-way: the whole tail moves with each edge.
  Population population;
  population.source_fanout = 1;
  for (NodeId id = 1; id <= 12; ++id)
    population.consumers.push_back(NodeSpec{id, Constraints{1, 6}});
  Overlay overlay(population);
  ReferenceForest ref(population);
  for (NodeId id = 2; id <= 12; ++id) {
    overlay.attach(id, id - 1);
    ref.attach(id, id - 1);
  }
  compare(overlay, ref);
  EXPECT_EQ(overlay.delay_at(12), 12);  // optimistic: 11 hops + 1
  overlay.attach(1, kSourceId);
  ref.attach(1, kSourceId);
  compare(overlay, ref);
  EXPECT_EQ(overlay.satisfied_count(), 6u);
  overlay.detach(5);
  ref.detach(5);
  compare(overlay, ref);
  EXPECT_EQ(overlay.root(12), 5u);
  EXPECT_EQ(overlay.depth_below_root(12), 7);
  overlay.set_offline(3);
  ref.set_offline(3);
  compare(overlay, ref);
  EXPECT_EQ(overlay.satisfied_count(), 2u);
  EXPECT_FALSE(overlay.all_satisfied());
}

// ------------------------------------------------- zero allocations

/// One pass of every mutator over a binary-heap tree: build, cut and
/// re-graft a subtree, offline and revive an inner node, tear down.
void mutate_cycle(Overlay& overlay, NodeId n) {
  for (NodeId id = 1; id < n; ++id) overlay.attach(id, (id - 1) / 2);
  overlay.detach(2);
  overlay.attach(2, 0);
  overlay.set_offline(1);
  overlay.set_online(1);
  overlay.attach(1, 0);
  for (NodeId id = 3; id <= 4; ++id) overlay.attach(id, 1);
  for (NodeId id = n - 1; id >= 1; --id) overlay.detach(id);
}

TEST(OverlayIndexTest, MutatorsDoNotAllocateAfterWarmUp) {
  if (!telemetry::alloc_hook_compiled()) GTEST_SKIP();
  constexpr NodeId kNodes = 255;
  Population population;
  population.source_fanout = 2;
  for (NodeId id = 1; id < kNodes; ++id)
    population.consumers.push_back(NodeSpec{id, Constraints{2, 8}});
  Overlay overlay(population);
  mutate_cycle(overlay, kNodes);  // warm-up: children/stack capacity
  telemetry::set_alloc_tracking(true);
  const telemetry::AllocStats before = telemetry::alloc_stats();
  mutate_cycle(overlay, kNodes);
  const telemetry::AllocStats after = telemetry::alloc_stats();
  telemetry::set_alloc_tracking(false);
  EXPECT_EQ(after.allocs - before.allocs, 0u);
  overlay.audit();
}

}  // namespace
}  // namespace lagover
