// Oracle admission-control tests: the windowed rate limiter's verdicts,
// the circuit breaker's trip / half-open / close hysteresis, the
// AdmittedOracle's stale-cache serving and rejection signalling, and the
// engine-level guarantees — an empty AdmissionConfig normalizes away
// (byte-identical run), a permissive one changes nothing either, and a
// tight one actually rations the Oracle — and the Oracle stack the
// engine kernel builds survives a set_oracle() swap unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/async_engine.hpp"
#include "core/engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "workload/constraints.hpp"

namespace lagover {
namespace {

using Verdict = AdmissionController::Verdict;

AdmissionConfig tight(double rate_limit = 1.0, bool serve_stale = false) {
  AdmissionConfig config;
  config.rate_limit = rate_limit;
  config.window = 1.0;
  config.retry_after = 2.0;
  config.breaker_trip_windows = 2;
  config.breaker_cooldown = 5.0;
  config.breaker_close_windows = 2;
  config.serve_stale = serve_stale;
  return config;
}

TEST(AdmissionControllerTest, AdmitsWithinBudgetThenServesStale) {
  AdmissionController control(tight(2.0, /*serve_stale=*/true));
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.2), Verdict::kStale);
  EXPECT_EQ(control.admitted(), 2u);
  EXPECT_EQ(control.stale_verdicts(), 1u);
  EXPECT_EQ(control.rejected(), 0u);
}

TEST(AdmissionControllerTest, RejectsOutrightWithoutStaleServing) {
  AdmissionController control(tight(1.0, /*serve_stale=*/false));
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kReject);
  EXPECT_EQ(control.rejected(), 1u);
  EXPECT_EQ(control.stale_verdicts(), 0u);
}

TEST(AdmissionControllerTest, WindowRollRestoresTheBudget) {
  AdmissionController control(tight());
  EXPECT_EQ(control.on_query(0.0), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(0.1), Verdict::kReject);
  // The next unit-time window starts with a fresh budget; one lone
  // saturated window must not trip a breaker that needs two.
  EXPECT_EQ(control.on_query(1.0), Verdict::kAdmit);
  EXPECT_EQ(control.breaker_trips(), 0u);
}

TEST(AdmissionControllerTest, BreakerTripsAfterConsecutiveSaturation) {
  AdmissionController control(tight());
  // Saturate windows [0,1) and [1,2): streak reaches trip threshold 2
  // when the roll into window 2 closes them.
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  EXPECT_EQ(control.breaker_trips(), 0u);
  EXPECT_EQ(control.on_query(2.0), Verdict::kReject);
  EXPECT_EQ(control.breaker_trips(), 1u);
  EXPECT_TRUE(control.open(2.5));
  EXPECT_EQ(control.on_query(2.5), Verdict::kReject);
}

TEST(AdmissionControllerTest, HalfOpenClosesAfterCleanWindows) {
  AdmissionController control(tight());
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  control.on_query(2.0);  // trips
  ASSERT_EQ(control.breaker_trips(), 1u);
  // Past the cooldown the breaker half-opens and probe traffic flows.
  EXPECT_FALSE(control.open(7.5));
  EXPECT_EQ(control.on_query(7.5), Verdict::kAdmit);
  // Two consecutive clean windows close it for good.
  EXPECT_EQ(control.on_query(8.5), Verdict::kAdmit);
  EXPECT_EQ(control.on_query(9.5), Verdict::kAdmit);
  EXPECT_EQ(control.breaker_closes(), 1u);
  EXPECT_FALSE(control.open(9.6));
}

TEST(AdmissionControllerTest, HalfOpenRetripsOnRenewedSaturation) {
  AdmissionController control(tight());
  control.on_query(0.0);
  control.on_query(0.1);
  control.on_query(1.0);
  control.on_query(1.1);
  control.on_query(2.0);  // trips, opened around t=2
  ASSERT_EQ(control.breaker_trips(), 1u);
  // The probe window saturates again: the crowd never left.
  control.on_query(7.2);
  control.on_query(7.4);
  control.on_query(8.5);  // roll closes the saturated probe window
  EXPECT_EQ(control.breaker_trips(), 2u);
  EXPECT_TRUE(control.open(8.6));
}

Population small_population(std::size_t peers, std::uint64_t seed) {
  WorkloadParams params;
  params.peers = peers;
  params.seed = seed;
  return generate_workload(WorkloadKind::kBiUnCorr, params);
}

TEST(AdmittedOracleTest, ServesStaleFromCacheWithoutRng) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/true));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng(5);
  const auto fresh = oracle.sample(1, overlay, rng);
  ASSERT_TRUE(fresh.has_value());
  // Over budget in the same window: the cached partner serves and the
  // inner Oracle is not consulted (the RNG claim is checked separately
  // in StaleVerdictDrawsNoRng). The querier must differ from the cached
  // partner — a node is never a plausible answer to itself.
  const NodeId stale_querier = *fresh == 2 ? 3 : 2;
  const auto stale = oracle.sample(stale_querier, overlay, rng);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, *fresh);
  EXPECT_EQ(oracle.stale_served(), 1u);
}

TEST(AdmittedOracleTest, StaleVerdictDrawsNoRng) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/true));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng_a(5);
  Rng rng_b(5);
  (void)oracle.sample(1, overlay, rng_a);  // admitted — draws
  (void)oracle.sample(2, overlay, rng_a);  // stale — must not draw
  // A twin stream that only performs the admitted draw stays in sync.
  AdmittedOracle twin(make_oracle(OracleKind::kRandom),
                      std::make_shared<AdmissionController>(
                          tight(1.0, /*serve_stale=*/true)),
                      [&now] { return now; });
  (void)twin.sample(1, overlay, rng_b);
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(AdmittedOracleTest, RejectionSetsPendingFlagOnce) {
  const Population population = small_population(10, 3);
  Overlay overlay(population);
  double now = 0.0;
  auto control = std::make_shared<AdmissionController>(
      tight(1.0, /*serve_stale=*/false));
  AdmittedOracle oracle(make_oracle(OracleKind::kRandom), control,
                        [&now] { return now; });
  Rng rng(5);
  EXPECT_TRUE(oracle.sample(1, overlay, rng).has_value());
  EXPECT_FALSE(oracle.consume_rejection());
  EXPECT_FALSE(oracle.sample(2, overlay, rng).has_value());
  EXPECT_TRUE(oracle.consume_rejection());
  EXPECT_FALSE(oracle.consume_rejection());  // reading clears it
}

std::vector<NodeId> parents_of(const Overlay& overlay) {
  std::vector<NodeId> parents;
  for (NodeId id = 1; id < overlay.node_count(); ++id)
    parents.push_back(overlay.has_parent(id) ? overlay.parent(id) : kNoNode);
  return parents;
}

TEST(EngineAdmissionTest, EmptyConfigInstallsNothing) {
  EngineConfig config;
  config.seed = 7;
  Engine engine(small_population(30, 7), config);
  EXPECT_EQ(engine.admission(), nullptr);
  EXPECT_EQ(engine.admitted_oracle(), nullptr);
}

TEST(EngineAdmissionTest, PermissiveAdmissionIsByteIdenticalSync) {
  EngineConfig plain;
  plain.seed = 7;
  Engine baseline(small_population(30, 7), plain);
  const auto base_round = baseline.run_until_converged(400);

  // A limit no real query stream reaches: every query admits and passes
  // straight through, so the run must be byte-identical anyway.
  EngineConfig wired = plain;
  wired.admission.rate_limit = 1e9;
  Engine admitted(small_population(30, 7), wired);
  const auto wired_round = admitted.run_until_converged(400);

  EXPECT_EQ(base_round, wired_round);
  EXPECT_EQ(parents_of(baseline.overlay()), parents_of(admitted.overlay()));
  ASSERT_NE(admitted.admission(), nullptr);
  EXPECT_EQ(admitted.admission()->rejected(), 0u);
  EXPECT_EQ(admitted.admission()->stale_verdicts(), 0u);
}

TEST(EngineAdmissionTest, PermissiveAdmissionIsByteIdenticalAsync) {
  AsyncConfig plain;
  plain.seed = 11;
  AsyncEngine baseline(small_population(30, 11), plain);
  const double base_fraction = baseline.run_for(120.0);

  AsyncConfig wired = plain;
  wired.admission.rate_limit = 1e9;
  AsyncEngine admitted(small_population(30, 11), wired);
  const double wired_fraction = admitted.run_for(120.0);

  EXPECT_DOUBLE_EQ(base_fraction, wired_fraction);
  EXPECT_EQ(parents_of(baseline.overlay()), parents_of(admitted.overlay()));
}

TEST(EngineAdmissionTest, TightAdmissionRationsTheOracle) {
  AsyncConfig config;
  config.seed = 13;
  config.admission.rate_limit = 2.0;
  config.admission.window = 5.0;
  config.admission.serve_stale = true;
  AsyncEngine engine(small_population(40, 13), config);
  engine.run_for(150.0);
  ASSERT_NE(engine.admission(), nullptr);
  EXPECT_GT(engine.admission()->admitted(), 0u);
  // Forty orphans against two admits per five time units must overflow
  // the window — degraded service (stale/reject), not free rein.
  EXPECT_GT(engine.admission()->stale_verdicts() +
                engine.admission()->rejected(),
            0u);
}

// set_oracle() rebuilds the Oracle stack (base <- Admitted <- Faulty)
// and the construction core over a replacement base Oracle. Swapping in
// an equal base before the run must change nothing: same trace stream,
// parents, admission counters and fault stats as an engine left alone,
// and a trace subscription made before the swap keeps receiving.
struct StackRun {
  std::vector<std::string> events;
  std::vector<NodeId> parents;
  std::vector<std::uint64_t> counters;
};

template <typename EngineT, typename Config, typename Run>
StackRun run_stack(Config config, bool swap_oracle, Run run) {
  fault::FaultPlan plan;
  plan.add(fault::FaultPlan::drop(5.0, 40.0, 0.2))
      .add(fault::FaultPlan::oracle_outage(20.0, 30.0))
      .add(fault::FaultPlan::crashes(10.0, 60.0, 0.02, 4.0));
  config.faults = std::make_shared<fault::FaultInjector>(plan, config.seed);
  config.admission = tight(3.0, /*serve_stale=*/true);
  EngineT engine(small_population(40, config.seed), config);
  StackRun out;
  engine.set_trace([&out](const TraceEvent& event) {
    std::ostringstream line;
    line << event.round << ' ' << to_string(event.type) << ' '
         << event.subject << ' ' << event.partner << ' ' << event.attached
         << ' ' << event.when << ' ' << event.epoch << ' ' << event.cause;
    out.events.push_back(line.str());
  });
  if (swap_oracle) engine.set_oracle(make_oracle(config.oracle));
  run(engine);
  out.parents = parents_of(engine.overlay());
  const AdmissionController& admission = *engine.admission();
  const fault::FaultStats& faults = engine.faults()->stats();
  out.counters = {admission.admitted(),
                  admission.rejected(),
                  admission.stale_verdicts(),
                  admission.breaker_trips(),
                  admission.breaker_closes(),
                  engine.admitted_oracle()->stale_served(),
                  faults.messages_dropped,
                  faults.partition_blocks,
                  faults.oracle_outage_queries,
                  faults.crashes};
  return out;
}

void expect_same_run(const StackRun& alone, const StackRun& swapped) {
  ASSERT_FALSE(alone.events.empty());
  EXPECT_EQ(alone.events, swapped.events);
  EXPECT_EQ(alone.parents, swapped.parents);
  EXPECT_EQ(alone.counters, swapped.counters);
  // The layers did work: admission rationed and the fault plan dropped
  // messages and crashed nodes.
  EXPECT_GT(alone.counters[1] + alone.counters[2], 0u);
  EXPECT_GT(alone.counters[6], 0u);
  EXPECT_GT(alone.counters[9], 0u);
}

TEST(EngineAdmissionTest, OracleSwapKeepsTheStackSync) {
  EngineConfig config;
  config.seed = 17;
  const auto run = [](Engine& engine) {
    for (int r = 0; r < 80; ++r) engine.run_round();
  };
  expect_same_run(run_stack<Engine>(config, false, run),
                  run_stack<Engine>(config, true, run));
}

TEST(EngineAdmissionTest, OracleSwapKeepsTheStackAsync) {
  AsyncConfig config;
  config.seed = 19;
  const auto run = [](AsyncEngine& engine) { engine.run_for(80.0); };
  expect_same_run(run_stack<AsyncEngine>(config, false, run),
                  run_stack<AsyncEngine>(config, true, run));
}

}  // namespace
}  // namespace lagover
