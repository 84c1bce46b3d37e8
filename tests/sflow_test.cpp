#include <gtest/gtest.h>

#include "check/validate.hpp"
#include "core/global_optimal.hpp"
#include "core/sflow_federation.hpp"
#include "core/sflow_node.hpp"
#include "graph/dag.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace sflow::core {
namespace {

using overlay::ServiceFlowGraph;
using overlay::ServiceRequirement;

/// Every node cuts its radius-hop neighbourhood out of `ov` and builds a
/// fresh database over the cut, even when the neighbourhood is the whole
/// overlay.
SFlowNodeConfig cut_view_config(const overlay::OverlayGraph& ov, int radius) {
  SFlowNodeConfig config;
  config.knowledge_radius = radius;
  config.view_provider = [&ov, radius](overlay::OverlayIndex self) {
    return ov.induced(graph::neighborhood(ov.graph(), self, radius));
  };
  return config;
}

void expect_same_decision(const LocalDecision& a, const LocalDecision& b) {
  EXPECT_EQ(a.new_pins, b.new_pins);
  EXPECT_EQ(a.new_edges, b.new_edges);
  EXPECT_EQ(a.forward, b.forward);
  EXPECT_EQ(a.global_fallbacks, b.global_fallbacks);
  EXPECT_EQ(a.infeasible, b.infeasible);
}

obs::Counter& view_cuts() {
  return obs::Registry::global().counter("federation_local_view_cuts_total");
}

TEST(SflowLocalCompute, SinkHasNothingToDo) {
  const Scenario scenario = make_scenario(testing::small_workload(12), 1);
  const auto sinks = scenario.requirement.sinks();
  const auto sink_instances = scenario.overlay().instances_of(sinks.front());
  ASSERT_FALSE(sink_instances.empty());
  const LocalDecision decision = sflow_local_compute(
      scenario.overlay(), scenario.overlay_routing(), sink_instances.front(),
      scenario.requirement, {});
  EXPECT_TRUE(decision.forward.empty());
  EXPECT_TRUE(decision.new_edges.empty());
}

TEST(SflowLocalCompute, SourceForwardsToEveryImmediateDownstream) {
  const Scenario scenario = make_scenario(testing::small_workload(12), 2);
  const auto source_pin = scenario.requirement.pinned(scenario.requirement.source());
  ASSERT_TRUE(source_pin);
  const auto self = scenario.overlay().instance_at(*source_pin);
  ASSERT_TRUE(self);

  const LocalDecision decision =
      sflow_local_compute(scenario.overlay(), scenario.overlay_routing(), *self,
                          scenario.requirement, {});
  const auto downstream =
      scenario.requirement.downstream(scenario.requirement.source());
  EXPECT_EQ(decision.forward.size(), downstream.size());
  EXPECT_EQ(decision.new_edges.size(), downstream.size());
  for (const auto& [sid, instance] : decision.forward) {
    EXPECT_EQ(scenario.overlay().instance(instance).sid, sid);
    EXPECT_TRUE(decision.new_pins.contains(sid));
  }
  // Realized edges carry real overlay paths.
  for (const overlay::FlowEdge& e : decision.new_edges) {
    const graph::PathQuality q =
        graph::path_quality(scenario.overlay().graph(), e.overlay_path);
    EXPECT_FALSE(q.is_unreachable());
  }
}

TEST(SflowLocalCompute, RespectsExistingPins) {
  const Scenario scenario = make_scenario(testing::small_workload(12), 3);
  const auto source_sid = scenario.requirement.source();
  const auto self =
      scenario.overlay().instance_at(*scenario.requirement.pinned(source_sid));
  const auto downstream = scenario.requirement.downstream(source_sid);
  ASSERT_FALSE(downstream.empty());
  const auto target_sid = downstream.front();
  const auto instances = scenario.overlay().instances_of(target_sid);
  ASSERT_FALSE(instances.empty());
  const auto forced = instances.back();

  std::map<overlay::Sid, net::Nid> pins{
      {target_sid, scenario.overlay().instance(forced).nid}};
  const LocalDecision decision = sflow_local_compute(
      scenario.overlay(), scenario.overlay_routing(), *self, scenario.requirement, pins);
  for (const auto& [sid, instance] : decision.forward)
    if (sid == target_sid) EXPECT_EQ(instance, forced);
  // A pinned service is not re-pinned.
  EXPECT_FALSE(decision.new_pins.contains(target_sid));
}

// A node whose neighbourhood covers the overlay reads the shared database;
// a node whose neighbourhood is partial cuts it.  Either way the decision
// equals the one taken on the cut view with its own fresh database.  At
// radius 2 these overlays are covered from every node; radius 1 leaves
// some neighbourhoods partial.
TEST(SflowLocalCompute, SharedDatabaseDecidesLikeTheCutView) {
  std::size_t full = 0;
  std::size_t partial = 0;
  for (const int radius : {1, 2}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const Scenario scenario = make_scenario(testing::small_workload(12), seed);
      const overlay::OverlayGraph& ov = scenario.overlay();
      SFlowNodeConfig shared_config;
      shared_config.knowledge_radius = radius;
      const SFlowNodeConfig cut_config = cut_view_config(ov, radius);
      for (std::size_t v = 0; v < ov.instance_count(); ++v) {
        const auto self = static_cast<overlay::OverlayIndex>(v);
        if (!scenario.requirement.contains(ov.instance(self).sid)) continue;
        const bool covers = graph::neighborhood(ov.graph(), self, radius).size() ==
                            ov.instance_count();
        ++(covers ? full : partial);
        SCOPED_TRACE("radius " + std::to_string(radius) + ", seed " +
                     std::to_string(seed) + ", node " + std::to_string(v));
        expect_same_decision(
            sflow_local_compute(ov, scenario.overlay_routing(), self,
                                scenario.requirement, {}, shared_config),
            sflow_local_compute(ov, scenario.overlay_routing(), self,
                                scenario.requirement, {}, cut_config));
      }
    }
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(partial, 0u);
}

TEST(SflowFederation, FullCoverageReadsTheWarmDatabase) {
  testing::DiamondFixture fx;  // every 2-hop neighbourhood is the overlay
  net::UnderlyingNetwork underlay;
  for (int i = 0; i < 6; ++i) underlay.add_node();
  for (int i = 0; i < 5; ++i) underlay.add_link(i, i + 1, 100.0, 1.0);
  const net::UnderlayRouting routing(underlay);
  const graph::AllPairsShortestWidest overlay_routing(fx.overlay.graph());
  overlay_routing.precompute_all();

  obs::Counter& misses =
      obs::Registry::global().counter("routing_cache_misses_total");
  const std::uint64_t misses_before = misses.value();
  const std::uint64_t cuts_before = view_cuts().value();
  const SFlowFederationResult result = run_sflow_federation(
      underlay, routing, fx.overlay, overlay_routing, fx.requirement);
  ASSERT_TRUE(result.flow_graph);
  EXPECT_EQ(result.node_computations, 4u);
  EXPECT_EQ(misses.value(), misses_before);
  EXPECT_EQ(view_cuts().value(), cuts_before);
}

TEST(SflowLocalCompute, PartialNeighbourhoodCutsAView) {
  testing::DiamondFixture fx;
  const graph::AllPairsShortestWidest routing(fx.overlay.graph());
  SFlowNodeConfig narrow;
  narrow.knowledge_radius = 1;  // node 0 sees 1..4 but not the sink 5
  const std::uint64_t cuts_before = view_cuts().value();
  const LocalDecision decision =
      sflow_local_compute(fx.overlay, routing, 0, fx.requirement, {}, narrow);
  EXPECT_EQ(view_cuts().value(), cuts_before + 1);
  EXPECT_EQ(decision.forward.size(), 2u);
  EXPECT_FALSE(decision.infeasible);
}

TEST(SflowLocalCompute, RejectsADatabaseOfAnotherOverlay) {
  testing::DiamondFixture fx;
  const overlay::OverlayGraph smaller = fx.overlay.induced({0, 1, 2, 5});
  const graph::AllPairsShortestWidest routing(smaller.graph());
  EXPECT_THROW(sflow_local_compute(fx.overlay, routing, 0, fx.requirement, {}),
               std::invalid_argument);
}

TEST(SflowFederation, DiamondFederatesToOptimal) {
  testing::DiamondFixture fx;
  // Host the overlay on a matching 6-node underlay (NIDs 0..5).
  net::UnderlyingNetwork underlay;
  for (int i = 0; i < 6; ++i) underlay.add_node();
  for (int i = 0; i < 5; ++i) underlay.add_link(i, i + 1, 100.0, 1.0);
  const net::UnderlayRouting routing(underlay);
  const graph::AllPairsShortestWidest overlay_routing(fx.overlay.graph());

  const SFlowFederationResult result = run_sflow_federation(
      underlay, routing, fx.overlay, overlay_routing, fx.requirement);
  ASSERT_TRUE(result.flow_graph);
  result.flow_graph->validate(fx.requirement, fx.overlay);
  // With everything within two hops, sFlow matches the global optimum.
  EXPECT_DOUBLE_EQ(result.flow_graph->bottleneck_bandwidth(), 40.0);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.federation_time_ms, 0.0);
  EXPECT_GT(result.compute_time_us, 0.0);
  EXPECT_EQ(result.node_computations, 4u);  // one per required service
}

class SflowFederationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SflowFederationSweep, ProducesCompleteValidFlowGraphs) {
  const Scenario scenario = make_scenario(testing::small_workload(16), GetParam());
  const SFlowFederationResult result = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), scenario.requirement);
  ASSERT_TRUE(result.flow_graph);
  EXPECT_TRUE(result.flow_graph->complete(scenario.requirement));
  result.flow_graph->validate(scenario.requirement, scenario.overlay());
  const check::ValidationReport report = check::validate_flow_graph(
      scenario.overlay(), scenario.requirement, *result.flow_graph);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Never better than the global optimum, and the source pin is honoured.
  const auto optimal = optimal_flow_graph(scenario.overlay(), scenario.requirement,
                                          scenario.overlay_routing());
  ASSERT_TRUE(optimal);
  EXPECT_LE(result.flow_graph->bottleneck_bandwidth(),
            optimal->bottleneck_bandwidth() + 1e-9);
  const auto source_pin =
      scenario.requirement.pinned(scenario.requirement.source());
  EXPECT_EQ(scenario.overlay().instance(
                *result.flow_graph->assignment(scenario.requirement.source())).nid,
            *source_pin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SflowFederationSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

class SflowKnowledgeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SflowKnowledgeSweep, FullKnowledgeMatchesOptimalBandwidthOnSpShapes) {
  // With unlimited knowledge and a series-parallel requirement, the local
  // solver sees the whole problem, so the bottleneck must be optimal.
  WorkloadParams params = testing::small_workload(14);
  params.requirement.shape = overlay::RequirementShape::kSplitMerge;
  params.requirement.service_count = 5;
  const Scenario scenario = make_scenario(params, GetParam());

  SFlowNodeConfig config;
  config.knowledge_radius = -1;  // full overlay
  const SFlowFederationResult result = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), scenario.requirement, config);
  ASSERT_TRUE(result.flow_graph);

  const auto optimal = optimal_flow_graph(scenario.overlay(), scenario.requirement,
                                          scenario.overlay_routing());
  ASSERT_TRUE(optimal);
  EXPECT_DOUBLE_EQ(result.flow_graph->bottleneck_bandwidth(),
                   optimal->bottleneck_bandwidth());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SflowKnowledgeSweep,
                         ::testing::Range<std::uint64_t>(20, 30));

TEST(SflowFederation, WiderKnowledgeNeverHurtsOnAverage) {
  // Ablation sanity: averaged across seeds, radius-3 bandwidth >= radius-1.
  double narrow_total = 0.0;
  double wide_total = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Scenario scenario = make_scenario(testing::small_workload(18), seed);
    SFlowNodeConfig narrow;
    narrow.knowledge_radius = 1;
    SFlowNodeConfig wide;
    wide.knowledge_radius = 3;
    const auto a = run_sflow_federation(scenario.underlay, *scenario.routing,
                                        scenario.overlay(), scenario.overlay_routing(),
                                        scenario.requirement, narrow);
    const auto b = run_sflow_federation(scenario.underlay, *scenario.routing,
                                        scenario.overlay(), scenario.overlay_routing(),
                                        scenario.requirement, wide);
    ASSERT_TRUE(a.flow_graph);
    ASSERT_TRUE(b.flow_graph);
    narrow_total += a.flow_graph->bottleneck_bandwidth();
    wide_total += b.flow_graph->bottleneck_bandwidth();
  }
  EXPECT_GE(wide_total, narrow_total * 0.95);
}

/// The merge-pinning rule (docs/protocol.md): a node must pin every unpinned
/// service reachable from >= 2 of its immediate branches.
TEST(SflowLocalCompute, SplitNodePinsTheMergeService) {
  testing::DiamondFixture fx;
  const graph::AllPairsShortestWidest routing(fx.overlay.graph());
  // Node 0 (service 0) splits into services 1 and 2; both reach service 3.
  const LocalDecision decision =
      sflow_local_compute(fx.overlay, routing, 0, fx.requirement, {});
  EXPECT_EQ(decision.forward.size(), 2u);
  ASSERT_TRUE(decision.new_pins.contains(3))
      << "the split must pin the merge service";
  // The pinned merge instance hosts service 3.
  const auto pinned = fx.overlay.instance_at(decision.new_pins.at(3));
  ASSERT_TRUE(pinned);
  EXPECT_EQ(fx.overlay.instance(*pinned).sid, 3);
}

TEST(SflowLocalCompute, BypassEdgeMergeIsPinnedToo) {
  // The subtle case from docs/protocol.md: u itself has edges to both m and a
  // path that reaches m, so m is reachable from two of u's branches even
  // though u's immediate post-dominator may lie beyond m.
  //   0 -> 1, 0 -> 2, 1 -> 2 (bypass), 2 -> 3
  overlay::OverlayGraph ov;
  util::Rng rng(6);
  net::Nid nid = 0;
  for (const overlay::Sid sid : {0, 1, 1, 2, 2, 3})
    ov.add_instance(sid, nid++);
  for (std::size_t a = 0; a < ov.instance_count(); ++a)
    for (std::size_t b = 0; b < ov.instance_count(); ++b)
      if (a != b && ov.instance(a).sid != ov.instance(b).sid)
        ov.add_link(static_cast<overlay::OverlayIndex>(a),
                    static_cast<overlay::OverlayIndex>(b),
                    {rng.uniform_real(10, 60), rng.uniform_real(1, 5)});

  ServiceRequirement r;
  r.add_edge(0, 1);
  r.add_edge(0, 2);
  r.add_edge(1, 2);
  r.add_edge(2, 3);

  const graph::AllPairsShortestWidest routing(ov.graph());
  const LocalDecision decision = sflow_local_compute(ov, routing, 0, r, {});
  // Service 2 (in-degree 2, reachable from both of node 0's branches) must be
  // pinned by node 0.
  EXPECT_TRUE(decision.new_pins.contains(2));

  // End to end, the federation must also complete and validate.
  net::UnderlyingNetwork underlay;
  for (int i = 0; i < 6; ++i) underlay.add_node();
  for (int i = 0; i < 5; ++i) underlay.add_link(i, i + 1, 100.0, 1.0);
  const net::UnderlayRouting underlay_routing(underlay);
  ServiceRequirement pinned_req = r;
  pinned_req.pin(0, 0);
  const SFlowFederationResult result = run_sflow_federation(
      underlay, underlay_routing, ov, routing, pinned_req);
  ASSERT_TRUE(result.flow_graph);
  result.flow_graph->validate(pinned_req, ov);
}

TEST(SflowLocalCompute, SequentialBranchConsistencyAcrossMerges) {
  // Two stacked diamonds: 0 -> {1,2} -> 3 -> {4,5} -> 6.  The first split
  // pins 3; node 3 (the second split) pins 6; every upstream of each merge
  // realizes its edge to the same pinned instance.
  overlay::OverlayGraph ov;
  util::Rng rng(9);
  net::Nid nid = 0;
  for (const overlay::Sid sid : {0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 6})
    ov.add_instance(sid, nid++);
  for (std::size_t a = 0; a < ov.instance_count(); ++a)
    for (std::size_t b = 0; b < ov.instance_count(); ++b)
      if (a != b && ov.instance(a).sid != ov.instance(b).sid)
        ov.add_link(static_cast<overlay::OverlayIndex>(a),
                    static_cast<overlay::OverlayIndex>(b),
                    {rng.uniform_real(10, 80), rng.uniform_real(1, 5)});

  ServiceRequirement r;
  r.add_edge(0, 1);
  r.add_edge(0, 2);
  r.add_edge(1, 3);
  r.add_edge(2, 3);
  r.add_edge(3, 4);
  r.add_edge(3, 5);
  r.add_edge(4, 6);
  r.add_edge(5, 6);
  r.pin(0, 0);

  net::UnderlyingNetwork underlay;
  for (std::size_t i = 0; i < ov.instance_count(); ++i) underlay.add_node();
  for (std::size_t i = 0; i + 1 < ov.instance_count(); ++i)
    underlay.add_link(static_cast<net::Nid>(i), static_cast<net::Nid>(i + 1),
                      100.0, 1.0);
  const net::UnderlayRouting underlay_routing(underlay);
  const graph::AllPairsShortestWidest routing(ov.graph());

  const SFlowFederationResult result =
      run_sflow_federation(underlay, underlay_routing, ov, routing, r);
  ASSERT_TRUE(result.flow_graph);
  result.flow_graph->validate(r, ov);
  // Both merges converged: exactly one instance each for services 3 and 6.
  EXPECT_TRUE(result.flow_graph->assignment(3).has_value());
  EXPECT_TRUE(result.flow_graph->assignment(6).has_value());
}

TEST(SflowFederation, SingleServiceRequirement) {
  const Scenario scenario = make_scenario(testing::small_workload(10), 5);
  ServiceRequirement single;
  const auto source_sid = scenario.requirement.source();
  single.add_service(source_sid);
  single.pin(source_sid, *scenario.requirement.pinned(source_sid));
  const SFlowFederationResult result = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), single);
  ASSERT_TRUE(result.flow_graph);
  EXPECT_TRUE(result.flow_graph->complete(single));
}

}  // namespace
}  // namespace sflow::core
