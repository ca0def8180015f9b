#include "core/overlay.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace lagover {

namespace {

// Structure-level telemetry: every edge/liveness mutation — including
// the protocol's displacement detaches and churn, which emit no
// TraceEvents — lands on the global event stream, so an offline
// consumer (the flight recorder, `lagover_inspect ancestry`) can replay
// the exact parent map at any sim time from a snapshot plus these
// events. No-ops while telemetry is off.
void record_edge_event(const char* name, NodeId subject, NodeId partner,
                       bool attached) {
  if (!telemetry::enabled()) return;
  telemetry::EventRecord record;
  record.ts = telemetry::sim_now();
  record.name = name;
  record.subject = subject;
  record.partner = partner;
  record.attached = attached;
  telemetry::event_bus().publish(record);
}

}  // namespace

Overlay::Overlay(Population population) : population_(std::move(population)) {
  validate(population_);
  const std::size_t n = population_.consumers.size() + 1;
  specs_.resize(n);
  specs_[kSourceId] = NodeSpec{
      kSourceId, Constraints{population_.source_fanout, /*latency=*/1}};
  for (const NodeSpec& spec : population_.consumers) specs_[spec.id] = spec;
  parent_.assign(n, kNoNode);
  children_.resize(n);
  online_.assign(n, 1);
  online_count_ = population_.consumers.size();
  root_.resize(n);
  std::iota(root_.begin(), root_.end(), kSourceId);
  depth_.assign(n, 0);
  Delay top = 1;
  for (const NodeSpec& spec : population_.consumers)
    top = std::max(top, spec.constraints.latency);
  const auto consumers = static_cast<Delay>(population_.consumers.size());
  max_level_ = std::min(top, std::max<Delay>(1, consumers));
  // Everyone starts online as a parentless group of one at optimistic
  // delay 1: bucket 2 (level 1, no free fanout) holds the consumers
  // with fanout 0, bucket 3 the rest; the other buckets start empty.
  const std::size_t buckets = 2 * static_cast<std::size_t>(max_level_ + 1);
  bucket_start_.assign(buckets + 2, 0);
  members_.reserve(n - 1);
  for (NodeId id = 1; id < n; ++id)
    if (specs_[id].constraints.fanout == 0) members_.push_back(id);
  bucket_start_[3] = static_cast<std::uint32_t>(members_.size());
  for (NodeId id = 1; id < n; ++id)
    if (specs_[id].constraints.fanout > 0) members_.push_back(id);
  std::fill(bucket_start_.begin() + 4, bucket_start_.end(),
            static_cast<std::uint32_t>(members_.size()));
  slot_.assign(n, 0);
  for (std::uint32_t at = 0; at < members_.size(); ++at)
    slot_[members_[at]] = at;
}

Overlay::Overlay(const Overlay& other)
    : population_(other.population_),
      specs_(other.specs_),
      parent_(other.parent_),
      children_(other.children_),
      online_(other.online_),
      online_count_(other.online_count_),
      root_(other.root_),
      depth_(other.depth_),
      satisfied_count_(other.satisfied_count_),
      max_level_(other.max_level_),
      members_(other.members_),
      bucket_start_(other.bucket_start_),
      slot_(other.slot_),
      counters_(other.counters_) {}

Overlay& Overlay::operator=(const Overlay& other) {
  if (this == &other) return *this;
  population_ = other.population_;
  specs_ = other.specs_;
  parent_ = other.parent_;
  children_ = other.children_;
  online_ = other.online_;
  online_count_ = other.online_count_;
  root_ = other.root_;
  depth_ = other.depth_;
  satisfied_count_ = other.satisfied_count_;
  max_level_ = other.max_level_;
  members_ = other.members_;
  bucket_start_ = other.bucket_start_;
  slot_ = other.slot_;
  counters_ = other.counters_;
  attach_observer_ = nullptr;
  detach_observer_ = nullptr;
  return *this;
}

void Overlay::check_id(NodeId id) const {
  LAGOVER_EXPECTS(id < specs_.size());
}

int Overlay::fanout_of(NodeId id) const {
  check_id(id);
  return specs_[id].constraints.fanout;
}

Delay Overlay::latency_of(NodeId id) const {
  check_id(id);
  return specs_[id].constraints.latency;
}

const NodeSpec& Overlay::spec_of(NodeId id) const {
  check_id(id);
  return specs_[id];
}

NodeId Overlay::parent(NodeId id) const {
  check_id(id);
  return parent_[id];
}

const std::vector<NodeId>& Overlay::children(NodeId id) const {
  check_id(id);
  return children_[id];
}

int Overlay::free_fanout(NodeId id) const {
  check_id(id);
  return fanout_of(id) - static_cast<int>(children_[id].size());
}

NodeId Overlay::root(NodeId id) const {
  check_id(id);
  return root_[id];
}

int Overlay::depth_below_root(NodeId id) const {
  check_id(id);
  return depth_[id];
}

Delay Overlay::delay_at(NodeId id) const {
  check_id(id);
  // Connected: depth already counts the hop onto the source (a direct
  // child is at depth 1 = poll period; the source itself is at 0).
  // Detached: optimistic +1 for the future hop from the group root onto
  // the source.
  return root_[id] == kSourceId ? depth_[id] : depth_[id] + 1;
}

bool Overlay::in_subtree(NodeId descendant, NodeId ancestor) const {
  check_id(descendant);
  check_id(ancestor);
  if (root_[descendant] != root_[ancestor]) return false;
  if (ancestor == root_[ancestor]) return true;  // a root holds its chain
  int steps = depth_[descendant] - depth_[ancestor];
  if (steps < 0) return false;
  NodeId cur = descendant;
  for (; steps > 0; --steps) cur = parent_[cur];
  return cur == ancestor;
}

std::vector<NodeId> Overlay::subtree(NodeId id) const {
  check_id(id);
  std::vector<NodeId> out;
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (NodeId child : children_[cur]) stack.push_back(child);
  }
  return out;
}

bool Overlay::online(NodeId id) const {
  check_id(id);
  return online_[id] != 0;
}

void Overlay::set_offline(NodeId id) {
  check_id(id);
  LAGOVER_EXPECTS(id != kSourceId);
  if (!online_[id]) return;
  if (parent_[id] != kNoNode) detach(id);
  // Orphan the children: each becomes the root of its own group.
  while (!children_[id].empty()) detach(children_[id].back());
  const std::size_t from = bucket_of(id);
  online_[id] = 0;
  rebucket(id, from);
  --online_count_;
  record_edge_event("node_offline", id, kNoNode, false);
}

void Overlay::set_online(NodeId id) {
  check_id(id);
  LAGOVER_EXPECTS(id != kSourceId);
  if (online_[id]) return;
  online_[id] = 1;
  ++online_count_;
  rebucket(id, offline_bucket());
  record_edge_event("node_online", id, kNoNode, false);
}

bool Overlay::can_attach(NodeId child, NodeId parent) const {
  check_id(child);
  check_id(parent);
  if (child == kSourceId || child == parent) return false;
  if (!online_[child] || !online_[parent]) return false;
  if (parent_[child] != kNoNode) return false;
  if (free_fanout(parent) <= 0) return false;
  // child is a chain root, so a cycle occurs exactly when parent lies in
  // child's subtree, i.e. when child is parent's chain root.
  return root_[parent] != child;
}

void Overlay::attach(NodeId child, NodeId parent) {
  LAGOVER_ASSERT_MSG(can_attach(child, parent),
                     "attach precondition violated");
  parent_[child] = parent;
  // The parent's last free slot may fill (the source is not indexed).
  const std::size_t parent_from = parent == kSourceId ? 0 : bucket_of(parent);
  children_[parent].push_back(child);
  if (parent != kSourceId) rebucket(parent, parent_from);
  shift_subtree(child, root_[parent], depth_[parent] + 1);
  ++counters_.attaches;
  record_edge_event("edge_attach", child, parent, true);
  if (attach_observer_) attach_observer_(child, parent);
}

void Overlay::detach(NodeId child) {
  check_id(child);
  const NodeId p = parent_[child];
  LAGOVER_EXPECTS(p != kNoNode);
  if (detach_observer_) detach_observer_(child, p);
  auto& siblings = children_[p];
  const auto it = std::find(siblings.begin(), siblings.end(), child);
  LAGOVER_ASSERT(it != siblings.end());
  // A saturated parent regains a free slot (the source is not indexed).
  const std::size_t parent_from = p == kSourceId ? 0 : bucket_of(p);
  siblings.erase(it);
  if (p != kSourceId) rebucket(p, parent_from);
  parent_[child] = kNoNode;
  shift_subtree(child, child, -depth_[child]);
  ++counters_.detaches;
  record_edge_event("edge_detach", child, p, false);
}

void Overlay::shift_subtree(NodeId node, NodeId root, int depth_delta) {
  walk_stack_.clear();
  walk_stack_.push_back(node);
  while (!walk_stack_.empty()) {
    const NodeId cur = walk_stack_.back();
    walk_stack_.pop_back();
    const std::size_t from = bucket_of(cur);
    if (satisfied(cur)) --satisfied_count_;
    root_[cur] = root;
    depth_[cur] += depth_delta;
    if (satisfied(cur)) ++satisfied_count_;
    rebucket(cur, from);
    for (NodeId child : children_[cur]) walk_stack_.push_back(child);
  }
}

Delay Overlay::level_of(NodeId id) const {
  return std::min(delay_at(id), max_level_);
}

std::span<const NodeId> Overlay::level_members(Delay level,
                                               bool free) const {
  LAGOVER_EXPECTS(level >= 0 && level <= max_level_);
  const std::size_t b = 2 * static_cast<std::size_t>(level) + (free ? 1 : 0);
  return {members_.data() + bucket_start_[b],
          bucket_start_[b + 1] - bucket_start_[b]};
}

std::size_t Overlay::level_slot(NodeId id) const {
  check_id(id);
  LAGOVER_EXPECTS(id != kSourceId && online_[id]);
  return slot_[id] - bucket_start_[bucket_of(id)];
}

std::size_t Overlay::bucket_of(NodeId id) const {
  if (!online_[id]) return offline_bucket();
  return 2 * static_cast<std::size_t>(level_of(id)) +
         (free_fanout(id) > 0 ? 1 : 0);
}

void Overlay::rebucket(NodeId id, std::size_t from) {
  const std::size_t to = bucket_of(id);
  if (to == from) return;
  // Rotate a hole from id's place to its new bucket. Upward, each bucket
  // in between moves its last member into the hole and cedes that place
  // to the next bucket; downward, its first member, ceding to the
  // previous one.
  std::uint32_t hole = slot_[id];
  const auto fill = [this, &hole](std::uint32_t from_place) {
    if (from_place == hole) return;  // an empty bucket: nothing moves
    const NodeId moved = members_[from_place];
    members_[hole] = moved;
    slot_[moved] = hole;
    hole = from_place;
  };
  for (std::size_t b = from; b < to; ++b) fill(--bucket_start_[b + 1]);
  for (std::size_t b = from; b > to; --b) fill(bucket_start_[b]++);
  members_[hole] = id;
  slot_[id] = hole;
}

bool Overlay::satisfied(NodeId id) const {
  check_id(id);
  // No online check needed: offline nodes hold no edges, so their chain
  // root is themselves, never the source.
  return id == kSourceId ||
         (root_[id] == kSourceId && depth_[id] <= latency_of(id));
}

double Overlay::satisfied_fraction() const {
  if (online_count_ == 0) return 1.0;
  return static_cast<double>(satisfied_count()) /
         static_cast<double>(online_count_);
}

void Overlay::audit() const {
  LAGOVER_ASSERT(parent_[kSourceId] == kNoNode);
  LAGOVER_ASSERT(online_[kSourceId] != 0);
  std::size_t observed_online = 0;
  std::size_t observed_satisfied = 0;
  for (NodeId id = 0; id < specs_.size(); ++id) {
    // Fanout bound.
    LAGOVER_ASSERT_MSG(
        static_cast<int>(children_[id].size()) <= fanout_of(id),
        "fanout exceeded at node " + std::to_string(id));
    // Parent/child symmetry.
    const NodeId p = parent_[id];
    if (p != kNoNode) {
      LAGOVER_ASSERT(p < specs_.size());
      const auto& siblings = children_[p];
      LAGOVER_ASSERT_MSG(
          std::count(siblings.begin(), siblings.end(), id) == 1,
          "parent/child asymmetry at node " + std::to_string(id));
    }
    for (NodeId child : children_[id])
      LAGOVER_ASSERT_MSG(parent_[child] == id,
                         "child/parent asymmetry at node " +
                             std::to_string(child));
    // Offline nodes are fully detached.
    if (!online_[id]) {
      LAGOVER_ASSERT(p == kNoNode);
      LAGOVER_ASSERT(children_[id].empty());
    } else if (id != kSourceId) {
      ++observed_online;
    }
    // Acyclicity: walking up from any node terminates within node_count
    // steps.
    NodeId cur = id;
    std::size_t steps = 0;
    while (parent_[cur] != kNoNode) {
      cur = parent_[cur];
      ++steps;
      LAGOVER_ASSERT_MSG(steps <= specs_.size(),
                         "cycle detected from node " + std::to_string(id));
    }
    // The index agrees with the walk.
    LAGOVER_ASSERT_MSG(
        root_[id] == cur && depth_[id] == static_cast<int>(steps),
        "stale root/depth index at node " + std::to_string(id));
    if (id != kSourceId && online_[id] && cur == kSourceId &&
        static_cast<int>(steps) <= latency_of(id))
      ++observed_satisfied;
  }
  LAGOVER_ASSERT(observed_online == online_count_);
  LAGOVER_ASSERT(observed_satisfied == satisfied_count_);
  // Sampling index: the buckets tile members_, which holds each
  // consumer once, at its slot, inside the range of its bucket.
  LAGOVER_ASSERT(bucket_start_.size() ==
                 2 * static_cast<std::size_t>(max_level_ + 1) + 2);
  LAGOVER_ASSERT(members_.size() == specs_.size() - 1);
  LAGOVER_ASSERT(bucket_start_.front() == 0 &&
                 bucket_start_.back() == members_.size());
  LAGOVER_ASSERT(std::is_sorted(bucket_start_.begin(), bucket_start_.end()));
  LAGOVER_ASSERT_MSG(bucket_start_[offline_bucket()] == online_count_,
                     "sampling index size drift");
  for (NodeId id = 1; id < specs_.size(); ++id) {
    const std::size_t b = bucket_of(id);
    LAGOVER_ASSERT_MSG(slot_[id] < members_.size() &&
                           members_[slot_[id]] == id &&
                           bucket_start_[b] <= slot_[id] &&
                           slot_[id] < bucket_start_[b + 1],
                       "stale sampling bucket at node " + std::to_string(id));
  }
}

NodeId Overlay::first_greedy_order_violation() const {
  for (NodeId id = 1; id < specs_.size(); ++id) {
    const NodeId p = parent_[id];
    if (p == kNoNode || p == kSourceId) continue;
    if (latency_of(p) > latency_of(id)) return id;
  }
  return kNoNode;
}

std::string Overlay::to_ascii() const {
  std::ostringstream out;
  // Print the source tree first, then detached groups by root id.
  std::vector<NodeId> roots;
  for (NodeId id = 0; id < specs_.size(); ++id)
    if (parent_[id] == kNoNode && online_[id]) roots.push_back(id);

  auto print_subtree = [&](NodeId node, auto&& self, int indent) -> void {
    out << std::string(static_cast<std::size_t>(indent) * 2, ' ');
    if (node == kSourceId) {
      out << "0 (source, fanout " << fanout_of(node) << ")\n";
    } else {
      out << to_notation(specs_[node]) << "  delay=" << delay_at(node)
          << (satisfied(node) ? "" : "  [unsatisfied]") << '\n';
    }
    for (NodeId child : children_[node]) self(child, self, indent + 1);
  };

  for (NodeId r : roots) {
    if (r == kSourceId)
      out << "-- source tree --\n";
    else
      out << "-- detached group (root " << r << ") --\n";
    print_subtree(r, print_subtree, 0);
  }
  return out.str();
}

}  // namespace lagover
