// Exact uniformity gate for the Oracles: on a small overlay with
// connected trees, detached groups, saturated and zero-fanout nodes, an
// offline node and chains past the top delay level, each sampler must
// return only eligible partners, and a chi-square test over the
// eligible set must pass at the p = 0.001 critical value. Seeds are
// fixed, so a pass is deterministic; a sampler that never returns one
// eligible node fails by hundreds. Covered: all four OracleKinds with
// the querier itself inside the eligible range, through FaultyOracle
// (outage pending, and serving a stale snapshot copy) and AdmittedOracle
// in pass-through mode, ByzantineOracle with the plausibility filter,
// and the scan reference the directory index replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/oracle.hpp"
#include "fault/byzantine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/faulty_oracle.hpp"
#include "reference_oracle.hpp"

namespace lagover {
namespace {

constexpr OracleKind kAllOracleKinds[] = {
    OracleKind::kRandom, OracleKind::kRandomCapacity,
    OracleKind::kRandomDelayCapacity, OracleKind::kRandomDelay};

/// Upper 0.001 quantiles of the chi-square distribution, indexed by
/// degrees of freedom (entry 0 unused).
constexpr double kChiSquare999[] = {
    0.0,    10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322,
    26.124, 27.877, 29.588, 31.264, 32.909, 34.528, 36.123, 37.697,
    39.252, 40.790, 42.312, 43.820, 45.315};

/// Draws per eligible candidate: a candidate that is never returned
/// adds at least this much to the statistic, far above every critical
/// value in the table.
constexpr int kDrawsPerCandidate = 400;

/// 16 consumers, max latency 6: two source trees (one with a chain
/// reaching optimistic levels past the top), a detached group, lone
/// detached nodes, saturated and zero-fanout nodes, one offline node.
Overlay mixed_overlay() {
  Population population;
  population.source_fanout = 2;
  const Constraints specs[] = {
      {2, 6}, {1, 3}, {2, 4}, {0, 5}, {3, 6}, {1, 2}, {2, 5}, {1, 6},
      {2, 3}, {0, 4}, {2, 6}, {1, 5}, {2, 6}, {1, 6}, {2, 4}, {3, 6}};
  NodeId id = 1;
  for (const Constraints& c : specs)
    population.consumers.push_back(NodeSpec{id++, c});
  Overlay overlay(population);
  overlay.attach(1, kSourceId);
  overlay.attach(2, kSourceId);
  overlay.attach(3, 2);   // 2 saturated
  overlay.attach(4, 1);   // zero fanout, delay 2
  overlay.attach(16, 1);  // 1 saturated
  overlay.attach(5, 3);
  overlay.attach(6, 5);
  overlay.attach(13, 6);  // 6 saturated
  overlay.attach(14, 13);
  overlay.attach(15, 14);  // delay 7: above the top level 6
  overlay.attach(8, 7);    // detached group rooted at 7
  overlay.attach(9, 8);    // 8 saturated
  overlay.set_offline(12);
  overlay.audit();
  return overlay;
}

/// Queriers inside every filter's eligible range: online, free fanout,
/// DelayAt below their own latency. 11 is a lone detached node, 5 sits
/// at depth 3 of a source tree.
constexpr NodeId kQueriers[] = {11, 5};

using Sampler = std::function<std::optional<NodeId>(NodeId, Rng&)>;

/// Samples kDrawsPerCandidate * |eligible| partners for `querier` and
/// checks support and the chi-square statistic against uniform.
void expect_uniform(const std::string& label, const Sampler& sample,
                    NodeId querier, const std::vector<NodeId>& eligible,
                    std::uint64_t seed, std::size_t node_count) {
  SCOPED_TRACE(label + ", querier " + std::to_string(querier));
  ASSERT_GE(eligible.size(), 2u);
  ASSERT_LT(eligible.size() - 1, std::size(kChiSquare999));
  std::vector<bool> allowed(node_count, false);
  for (NodeId id : eligible) allowed[id] = true;
  std::vector<std::uint64_t> counts(node_count, 0);
  const std::uint64_t draws = kDrawsPerCandidate * eligible.size();
  Rng rng(seed);
  for (std::uint64_t i = 0; i < draws; ++i) {
    const std::optional<NodeId> got = sample(querier, rng);
    ASSERT_TRUE(got.has_value());
    ASSERT_LT(*got, node_count);
    ASSERT_TRUE(allowed[*got]) << "ineligible partner " << *got;
    ++counts[*got];
  }
  const double expected = static_cast<double>(kDrawsPerCandidate);
  double statistic = 0.0;
  for (NodeId id : eligible) {
    const double diff = static_cast<double>(counts[id]) - expected;
    statistic += diff * diff / expected;
  }
  EXPECT_LT(statistic, kChiSquare999[eligible.size() - 1])
      << eligible.size() << " candidates";
}

std::vector<NodeId> directory_eligible(OracleKind kind, NodeId querier,
                                       const Overlay& overlay) {
  std::vector<NodeId> out;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    if (DirectoryOracle::eligible(kind, querier, id, overlay))
      out.push_back(id);
  return out;
}

Sampler through(Oracle& oracle, const Overlay& overlay) {
  return [&oracle, &overlay](NodeId querier, Rng& rng) {
    return oracle.sample(querier, overlay, rng);
  };
}

TEST(OracleUniformityTest, QueriersAreInsideEveryEligibleRange) {
  const Overlay overlay = mixed_overlay();
  for (NodeId querier : kQueriers) {
    EXPECT_TRUE(overlay.online(querier));
    EXPECT_GT(overlay.free_fanout(querier), 0);
    EXPECT_LT(overlay.delay_at(querier), overlay.latency_of(querier));
  }
  EXPECT_EQ(overlay.max_level(), 6);
  EXPECT_EQ(overlay.delay_at(15), 7);
}

TEST(OracleUniformityTest, DirectoryOracleIsExactlyUniform) {
  const Overlay overlay = mixed_overlay();
  std::uint64_t seed = 100;
  for (OracleKind kind : kAllOracleKinds) {
    for (NodeId querier : kQueriers) {
      DirectoryOracle oracle(kind);
      expect_uniform(std::string("directory ") + paper_label(kind),
                     through(oracle, overlay), querier,
                     directory_eligible(kind, querier, overlay), ++seed,
                     overlay.node_count());
    }
  }
}

TEST(OracleUniformityTest, ScanReferenceIsExactlyUniform) {
  const Overlay overlay = mixed_overlay();
  std::uint64_t seed = 200;
  for (OracleKind kind : kAllOracleKinds) {
    for (NodeId querier : kQueriers) {
      ScanReferenceOracle oracle(kind);
      expect_uniform(std::string("scan ") + paper_label(kind),
                     through(oracle, overlay), querier,
                     directory_eligible(kind, querier, overlay), ++seed,
                     overlay.node_count());
    }
  }
}

TEST(OracleUniformityTest, FaultyOraclePassThroughIsExactlyUniform) {
  const Overlay overlay = mixed_overlay();
  std::uint64_t seed = 300;
  for (OracleKind kind : kAllOracleKinds) {
    for (NodeId querier : kQueriers) {
      // An outage that has not started yet: every query passes through.
      auto pending = std::make_shared<fault::FaultInjector>(
          fault::FaultPlan{}.add(fault::FaultPlan::oracle_outage(50.0, 60.0)));
      fault::FaultyOracle live(make_oracle(kind), pending,
                               [] { return 0.0; });
      expect_uniform(std::string("faulty/live ") + paper_label(kind),
                     through(live, overlay), querier,
                     directory_eligible(kind, querier, overlay), ++seed,
                     overlay.node_count());
      // A staleness window: queries read a snapshot copy of the overlay,
      // so the copied sampling index serves them.
      auto stale = std::make_shared<fault::FaultInjector>(
          fault::FaultPlan{}.add(
              fault::FaultPlan::oracle_staleness(0.0, 100.0, /*age=*/50.0)));
      fault::FaultyOracle snapshot(make_oracle(kind), stale,
                                   [] { return 1.0; });
      expect_uniform(std::string("faulty/stale ") + paper_label(kind),
                     through(snapshot, overlay), querier,
                     directory_eligible(kind, querier, overlay), ++seed,
                     overlay.node_count());
      EXPECT_EQ(stale->stats().stale_oracle_refreshes, 1u);
    }
  }
}

TEST(OracleUniformityTest, AdmittedOraclePassThroughIsExactlyUniform) {
  const Overlay overlay = mixed_overlay();
  std::uint64_t seed = 400;
  for (OracleKind kind : kAllOracleKinds) {
    for (NodeId querier : kQueriers) {
      AdmissionConfig config;
      config.rate_limit = 1e12;  // never saturates: every query admitted
      auto control = std::make_shared<AdmissionController>(config);
      AdmittedOracle oracle(make_oracle(kind), control, [] { return 0.0; });
      expect_uniform(std::string("admitted ") + paper_label(kind),
                     through(oracle, overlay), querier,
                     directory_eligible(kind, querier, overlay), ++seed,
                     overlay.node_count());
      EXPECT_EQ(oracle.stale_served(), 0u);
    }
  }
}

/// ByzantineOracle's filter, restated: eligible by *claimed* delay and
/// free fanout, skipping candidates whose claim is below their parent's
/// claim + 1.
std::vector<NodeId> claimed_eligible(OracleKind kind, NodeId querier,
                                     const Overlay& overlay,
                                     const fault::AdversaryBook& book) {
  const auto claim = [&](NodeId id) {
    return book.claimed_delay(id, overlay.delay_at(id));
  };
  std::vector<NodeId> out;
  for (NodeId id = 1; id < overlay.node_count(); ++id) {
    if (id == querier || !overlay.online(id)) continue;
    if (overlay.connected(id)) {
      const NodeId parent = overlay.parent(id);
      const Delay floor = parent == kSourceId ? 1 : claim(parent) + 1;
      if (claim(id) < floor) continue;
    }
    const bool room =
        book.claimed_free_fanout(id, overlay.free_fanout(id)) > 0;
    const bool low = claim(id) < overlay.latency_of(querier);
    bool ok = true;
    if (kind == OracleKind::kRandomCapacity) ok = room;
    if (kind == OracleKind::kRandomDelayCapacity) ok = room && low;
    if (kind == OracleKind::kRandomDelay) ok = low;
    if (ok) out.push_back(id);
  }
  return out;
}

TEST(OracleUniformityTest, ByzantineOracleWithPlausibilityIsExactlyUniform) {
  const Overlay overlay = mixed_overlay();
  fault::ByzantineSpec spec;
  spec.delay_liar_fraction = 0.35;
  spec.fanout_liar_fraction = 0.2;
  // Makes delay liars of nodes 3 and 4, connected under honest claims,
  // so the plausibility filter has candidates to skip.
  spec.salt = 3;
  auto book = std::make_shared<const fault::AdversaryBook>(
      spec, overlay.node_count());
  std::uint64_t seed = 500;
  std::uint64_t implausible = 0;
  for (OracleKind kind : kAllOracleKinds) {
    for (NodeId querier : kQueriers) {
      fault::ByzantineOracle oracle(kind, book);
      oracle.enable_plausibility_filter(true);
      expect_uniform(std::string("byzantine ") + paper_label(kind),
                     through(oracle, overlay), querier,
                     claimed_eligible(kind, querier, overlay, *book), ++seed,
                     overlay.node_count());
      implausible += oracle.implausible_skips();
    }
  }
  // The filter really removed candidates, and liars really lied.
  EXPECT_GT(implausible, 0u);
  EXPECT_GT(book->count(fault::AdversaryClass::kDelayLiar), 0u);
  EXPECT_GT(book->count(fault::AdversaryClass::kFanoutLiar), 0u);
}

}  // namespace
}  // namespace lagover
