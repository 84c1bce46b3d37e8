// Equivalence suite for the federation hot-path rewrites: the table-driven
// bounded branch-and-bound (core/global_optimal.cpp) and the flat-arena
// abstract-graph DP (core/baseline.cpp) must be *bit-identical* to the legacy
// implementations they replaced — same assignments, same paths, same
// qualities, same tie-breaking — while exploring strictly less; the default
// search-node budget binds in none of them.  Plus unit tests for the
// dominance-pruning frontier the DP is built on and for the budget itself.
#include <gtest/gtest.h>

#include "check/validate.hpp"
#include "core/abstract_dp.hpp"
#include "core/baseline.hpp"
#include "core/comparators.hpp"
#include "core/global_optimal.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sflow::core {
namespace {

using overlay::OverlayGraph;
using overlay::ServiceRequirement;

// --- DominanceFrontier -------------------------------------------------------

TEST(DominanceFrontier, KeepsIncomparableLabelsSorted) {
  DominanceFrontier f;
  EXPECT_TRUE(f.insert({10.0, 5.0}));
  EXPECT_TRUE(f.insert({20.0, 9.0}));   // wider but slower: incomparable
  EXPECT_TRUE(f.insert({5.0, 1.0}));    // narrower but faster: incomparable
  ASSERT_EQ(f.labels().size(), 3u);
  // Strictly descending bandwidth implies strictly descending latency.
  EXPECT_DOUBLE_EQ(f.labels()[0].bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(f.labels()[1].bandwidth, 10.0);
  EXPECT_DOUBLE_EQ(f.labels()[2].bandwidth, 5.0);
  EXPECT_DOUBLE_EQ(f.best().bandwidth, 20.0);
  EXPECT_DOUBLE_EQ(f.best().latency, 9.0);
  EXPECT_EQ(f.pruned(), 0u);
}

TEST(DominanceFrontier, RejectsDominatedLabels) {
  DominanceFrontier f;
  EXPECT_TRUE(f.insert({10.0, 5.0}));
  EXPECT_FALSE(f.insert({10.0, 5.0}));  // duplicate: weakly dominated
  EXPECT_FALSE(f.insert({10.0, 7.0}));  // equal bandwidth, worse latency
  EXPECT_FALSE(f.insert({8.0, 5.0}));   // narrower, equal latency
  EXPECT_FALSE(f.insert({8.0, 9.0}));   // worse in both
  ASSERT_EQ(f.labels().size(), 1u);
  EXPECT_EQ(f.pruned(), 4u);
}

TEST(DominanceFrontier, EvictsLabelsTheNewcomerDominates) {
  DominanceFrontier f;
  EXPECT_TRUE(f.insert({10.0, 5.0}));
  EXPECT_TRUE(f.insert({8.0, 3.0}));
  EXPECT_TRUE(f.insert({6.0, 2.0}));
  // Dominates the 8.0 and 6.0 labels (wider-or-equal, faster-or-equal), is
  // itself incomparable with the 10.0 one.
  EXPECT_TRUE(f.insert({8.0, 1.0}));
  ASSERT_EQ(f.labels().size(), 2u);
  EXPECT_DOUBLE_EQ(f.labels()[0].bandwidth, 10.0);
  EXPECT_DOUBLE_EQ(f.labels()[1].bandwidth, 8.0);
  EXPECT_DOUBLE_EQ(f.labels()[1].latency, 1.0);
  EXPECT_EQ(f.pruned(), 2u);
}

TEST(DominanceFrontier, EqualBandwidthKeepsTheFaster) {
  DominanceFrontier f;
  EXPECT_TRUE(f.insert({10.0, 5.0}));
  EXPECT_TRUE(f.insert({10.0, 3.0}));  // same bandwidth, faster: evicts
  ASSERT_EQ(f.labels().size(), 1u);
  EXPECT_DOUBLE_EQ(f.labels()[0].latency, 3.0);
  EXPECT_EQ(f.pruned(), 1u);
}

TEST(AbstractArena, CellIndexingIsRowMajorPerLayerPair) {
  AbstractArena arena({2, 3, 2});
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      arena.cell(0, i, j) = {double(10 * i + j), 1.0};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      arena.cell(1, i, j) = {double(100 + 10 * i + j), 2.0};
  EXPECT_DOUBLE_EQ(arena.cell(0, 1, 2).bandwidth, 12.0);
  EXPECT_DOUBLE_EQ(arena.cell(1, 2, 1).bandwidth, 121.0);
  EXPECT_EQ(arena.layer_count(), 3u);
  EXPECT_EQ(arena.layer_width(1), 3u);
  EXPECT_GT(arena.memory_bytes(), 0u);
}

// --- Tie-heavy handcrafted cases --------------------------------------------
//
// Every link identical: many optima with the same quality, so any deviation
// in tie-breaking between new and legacy implementations shows up as a
// different chosen instance or path.

OverlayGraph tie_overlay() {
  OverlayGraph ov;
  ov.add_instance(0, 0);               // source
  for (int k = 0; k < 3; ++k) ov.add_instance(1, 1 + k);
  for (int k = 0; k < 3; ++k) ov.add_instance(2, 4 + k);
  ov.add_instance(3, 7);               // sink
  for (overlay::OverlayIndex a = 1; a <= 3; ++a) {
    ov.add_link(0, a, {10.0, 1.0});
    for (overlay::OverlayIndex b = 4; b <= 6; ++b) ov.add_link(a, b, {10.0, 1.0});
  }
  for (overlay::OverlayIndex b = 4; b <= 6; ++b) ov.add_link(b, 7, {10.0, 1.0});
  return ov;
}

TEST(FederationEquivalence, TieHeavyChainMatchesLegacyExactly) {
  const OverlayGraph ov = tie_overlay();
  const graph::AllPairsShortestWidest routing(ov.graph());
  ServiceRequirement req;
  req.add_edge(0, 1);
  req.add_edge(1, 2);
  req.add_edge(2, 3);

  const auto legacy = baseline_single_path_legacy(ov, req, routing);
  BaselineStats stats;
  const auto fresh = baseline_single_path(ov, req, routing, &stats);
  ASSERT_TRUE(legacy);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(*fresh, *legacy);
  EXPECT_GT(stats.arena_bytes, 0u);
  EXPECT_GT(stats.dp_labels, 0u);
}

TEST(FederationEquivalence, TieHeavyDagMatchesLegacyExactly) {
  const OverlayGraph ov = tie_overlay();
  const graph::AllPairsShortestWidest routing(ov.graph());
  ServiceRequirement req;  // split-merge through the tied middle layers
  req.add_edge(0, 1);
  req.add_edge(0, 2);
  req.add_edge(1, 3);
  req.add_edge(2, 3);

  OptimalStats legacy_stats, fresh_stats;
  const auto legacy = optimal_flow_graph_legacy(ov, req, routing, &legacy_stats);
  const auto fresh = optimal_flow_graph(ov, req, routing, &fresh_stats);
  ASSERT_TRUE(legacy);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(*fresh, *legacy);
  EXPECT_LE(fresh_stats.nodes_explored, legacy_stats.nodes_explored);
  EXPECT_GT(fresh_stats.table_bytes, 0u);
}

// A quality source that itself solves, on the same thread, while the outer
// solve holds its workspace: the nested solve must get scratch of its own, or
// it would overwrite the outer search's shape and tables mid-fill.
TEST(FederationEquivalence, ReentrantSolveKeepsTheOuterWorkspaceIntact) {
  const OverlayGraph ov = tie_overlay();
  const graph::AllPairsShortestWidest routing(ov.graph());
  ServiceRequirement outer;  // the tie-heavy diamond
  outer.add_edge(0, 1);
  outer.add_edge(0, 2);
  outer.add_edge(1, 3);
  outer.add_edge(2, 3);
  ServiceRequirement inner;  // a chain of another shape
  inner.add_edge(0, 2);
  inner.add_edge(2, 3);
  const auto inner_alone = optimal_flow_graph(ov, inner, routing);
  ASSERT_TRUE(inner_alone);

  std::size_t nested = 0;
  const EdgeQualityFn solving_quality = [&](overlay::Sid, overlay::OverlayIndex u,
                                            overlay::Sid, overlay::OverlayIndex v) {
    EXPECT_EQ(optimal_flow_graph(ov, inner, routing), inner_alone);
    ++nested;
    return routing.quality(u, v);
  };
  const auto fresh = optimal_flow_graph_custom(ov, outer, solving_quality,
                                               routing_edge_path(routing));
  const auto legacy = optimal_flow_graph_legacy(ov, outer, routing);
  ASSERT_TRUE(fresh);
  ASSERT_TRUE(legacy);
  EXPECT_EQ(*fresh, *legacy);
  EXPECT_GT(nested, 0u);
}

// --- Property sweeps: ~200 fuzzer-seeded Waxman scenarios -------------------
//
// Each seed draws its own workload dimensions (network size, chain length)
// so the sweep covers the parameter space rather than one point.  The two
// suites — chains for the baseline DP, generic DAGs for the bounded search —
// together run 200 scenarios.

WorkloadParams fuzzed_params(std::uint64_t seed, overlay::RequirementShape shape) {
  util::Rng rng(util::derive_seed(seed, 0xE9));
  WorkloadParams params;
  params.network_size = 10 + rng.uniform_index(15);
  params.service_type_count = 4 + rng.uniform_index(3);
  // At most one service per catalog type.
  params.requirement.service_count =
      4 + rng.uniform_index(params.service_type_count - 3);
  params.requirement.shape = shape;
  return params;
}

class BaselineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineEquivalence, FlatDpMatchesLegacyBitForBit) {
  const WorkloadParams params =
      fuzzed_params(GetParam(), overlay::RequirementShape::kSinglePath);
  const Scenario scenario = make_scenario(params, GetParam());

  const auto legacy = baseline_single_path_legacy(
      scenario.overlay(), scenario.requirement, scenario.overlay_routing());
  BaselineStats stats;
  const auto fresh = baseline_single_path(scenario.overlay(), scenario.requirement,
                                          scenario.overlay_routing(), &stats);

  ASSERT_EQ(fresh.has_value(), legacy.has_value());
  if (!fresh) return;
  EXPECT_EQ(*fresh, *legacy);
  const check::ValidationReport report = check::validate_flow_graph(
      scenario.overlay(), scenario.requirement, *fresh);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineEquivalence,
                         ::testing::Range<std::uint64_t>(0, 100));

class OptimalEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalEquivalence, BoundedSearchMatchesLegacyBitForBit) {
  const WorkloadParams params =
      fuzzed_params(GetParam(), overlay::RequirementShape::kGenericDag);
  const Scenario scenario = make_scenario(params, GetParam());

  OptimalStats legacy_stats, fresh_stats;
  const auto legacy =
      optimal_flow_graph_legacy(scenario.overlay(), scenario.requirement,
                                scenario.overlay_routing(), &legacy_stats);
  const auto fresh = optimal_flow_graph(scenario.overlay(), scenario.requirement,
                                        scenario.overlay_routing(), &fresh_stats);

  ASSERT_EQ(fresh.has_value(), legacy.has_value());
  // The future-bandwidth bound only removes subtrees that cannot win: never
  // more work than the incumbent-only legacy search.
  EXPECT_LE(fresh_stats.nodes_explored, legacy_stats.nodes_explored);
  if (!fresh) return;
  EXPECT_EQ(*fresh, *legacy);
  const check::ValidationReport report = check::validate_flow_graph(
      scenario.overlay(), scenario.requirement, *fresh);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalEquivalence,
                         ::testing::Range<std::uint64_t>(0, 100));

// --- Residual-view oracle ----------------------------------------------------
//
// The served setting: a seeded stream solved request by request on one
// ResidualOverlay that every admit depletes, so most solves read routing
// trees an admit left stale (repaired on first touch) and overlay links that
// admits narrowed or dropped.  The production search must match the legacy
// search graph for graph on every request, and the stream's summed search
// statistics are pinned to the values the per-pair table fill produced, so a
// kernel rewrite that changes the amount of search shows here.

TEST(ResidualViewEquivalence, DepletedStreamMatchesLegacyRequestForRequest) {
  WorkloadParams params = testing::small_workload(30);
  params.service_type_count = 6;
  const Scenario scenario = make_scenario(params, 29);
  std::vector<overlay::Sid> sids;
  for (std::size_t t = 0; t < params.service_type_count; ++t)
    sids.push_back(static_cast<overlay::Sid>(t));

  const auto repairs = [] {
    return obs::Registry::global().counter("routing_lazy_repairs_total").value();
  };
  const std::uint64_t repairs_before = repairs();
  overlay::ResidualOverlay view = scenario.view;
  std::size_t solved = 0, admitted = 0, explored = 0, pruned = 0, incumbent = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    util::Rng rng(util::derive_seed(0x5E7u, i));
    ServiceRequirement r =
        overlay::generate_requirement(params.requirement, sids, rng);
    const auto sources = view.graph().instances_of(r.source());
    ASSERT_FALSE(sources.empty());
    r.pin(r.source(),
          view.graph().instance(sources[rng.uniform_index(sources.size())]).nid);

    // Production first, so it is the search that meets the stale trees.
    OptimalStats fresh_stats, legacy_stats;
    const auto fresh =
        optimal_flow_graph(view.graph(), r, view.routing(), &fresh_stats);
    const auto legacy =
        optimal_flow_graph_legacy(view.graph(), r, view.routing(), &legacy_stats);
    ASSERT_EQ(fresh.has_value(), legacy.has_value()) << "request " << i;
    explored += fresh_stats.nodes_explored;
    pruned += fresh_stats.nodes_pruned;
    incumbent += fresh_stats.incumbent_node;
    if (!fresh) continue;
    ++solved;
    ASSERT_EQ(*fresh, *legacy) << "request " << i;

    // Grant an eighth of the flow's bandwidth, clamped to physical headroom:
    // links narrow over several admits before they drop.
    const double rate =
        std::min(fresh->bottleneck_bandwidth() / 8.0,
                 view.underlay_headroom(*fresh, *scenario.routing,
                                        scenario.underlay));
    if (rate > 0.0) {
      view.admit(*fresh, rate, scenario.routing.get());
      ++admitted;
    }
  }
  EXPECT_GT(repairs(), repairs_before);  // stale trees were repaired mid-stream
  EXPECT_EQ(solved, 400u);
  EXPECT_EQ(admitted, 46u);
  EXPECT_EQ(explored, 21418u);
  EXPECT_EQ(pruned, 72718u);
  EXPECT_EQ(incumbent, 10647u);
}

// --- Search-node budget ------------------------------------------------------
//
// A 40-node scenario whose 8-service DAG needs several hundred search nodes:
// the optimum turns up late, and the search keeps expanding after it to
// prove it optimal, so small budgets bind at every stage of the search.

Scenario deep_search_scenario() {
  WorkloadParams params = testing::small_workload(40);
  params.service_type_count = 8;
  params.requirement.service_count = 8;
  return make_scenario(params, 38);
}

std::uint64_t budget_exhaustions() {
  return obs::Registry::global()
      .counter("federation_budget_exhausted_total")
      .value();
}

graph::PathQuality quality_of(const overlay::ServiceFlowGraph& graph,
                              const ServiceRequirement& requirement) {
  return {graph.bottleneck_bandwidth(), graph.end_to_end_latency(requirement)};
}

TEST(SearchNodeBudget, StopsAtTheIncumbentTheUnbudgetedSearchHeld) {
  const Scenario scenario = deep_search_scenario();
  const auto solve = [&](std::size_t budget, OptimalStats& stats) {
    return optimal_flow_graph(scenario.overlay(), scenario.requirement,
                              scenario.overlay_routing(), &stats, budget);
  };
  const std::uint64_t before = budget_exhaustions();
  OptimalStats full;
  const auto optimum = solve(kSearchNodeBudget, full);
  ASSERT_TRUE(optimum);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_EQ(budget_exhaustions(), before);
  ASSERT_GT(full.incumbent_node, 64u);
  ASSERT_LT(full.incumbent_node, full.nodes_explored);

  // Budget 64: the search stops after 64 expansions with the incumbent it
  // held then — valid, and strictly worse than the optimum found later.
  OptimalStats at64;
  const auto early = solve(64, at64);
  ASSERT_TRUE(early);
  EXPECT_TRUE(at64.budget_exhausted);
  EXPECT_EQ(at64.nodes_explored, 64u);
  EXPECT_EQ(budget_exhaustions(), before + 1);
  const check::ValidationReport report = check::validate_flow_graph(
      scenario.overlay(), scenario.requirement, *early);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_GT(at64.incumbent_node, 0u);
  EXPECT_TRUE(quality_of(*optimum, scenario.requirement)
                  .better_than(quality_of(*early, scenario.requirement)));

  // Every budget returns the incumbent the unbudgeted search held after as
  // many expansions: from the node an incumbent was found at until the next
  // improvement, the result does not move.
  OptimalStats found_early;
  EXPECT_EQ(solve(at64.incumbent_node, found_early), early);
  for (const std::size_t budget :
       {full.incumbent_node, full.nodes_explored - 1}) {
    OptimalStats stats;
    EXPECT_EQ(solve(budget, stats), optimum) << "budget " << budget;
    EXPECT_TRUE(stats.budget_exhausted);
    EXPECT_EQ(stats.incumbent_node, full.incumbent_node);
  }
  // A budget the search fits in exactly does not bind.
  OptimalStats exact;
  EXPECT_EQ(solve(full.nodes_explored, exact), optimum);
  EXPECT_FALSE(exact.budget_exhausted);
  EXPECT_EQ(budget_exhaustions(), before + 4);
}

TEST(SearchNodeBudget, WithoutAnIncumbentReturnsTheFixedSolve) {
  const Scenario scenario = deep_search_scenario();
  // One expansion per service position comes before the first complete
  // assignment, so this budget runs out with no incumbent.
  const std::size_t budget = scenario.requirement.service_count();
  const std::uint64_t before = budget_exhaustions();
  OptimalStats stats;
  const auto graph =
      optimal_flow_graph(scenario.overlay(), scenario.requirement,
                         scenario.overlay_routing(), &stats, budget);
  const auto fixed = fixed_federation(scenario.overlay(), scenario.requirement,
                                      scenario.overlay_routing());
  ASSERT_TRUE(fixed);
  ASSERT_TRUE(graph);
  EXPECT_EQ(*graph, fixed->graph);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.incumbent_node, 0u);
  EXPECT_EQ(stats.nodes_explored, budget);
  EXPECT_EQ(budget_exhaustions(), before + 1);
}

}  // namespace
}  // namespace sflow::core
