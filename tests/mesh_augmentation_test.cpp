#include <gtest/gtest.h>

#include "core/global_optimal.hpp"
#include "core/mesh_augmentation.hpp"
#include "test_helpers.hpp"

namespace sflow::core {
namespace {

using overlay::OverlayGraph;
using overlay::Sid;

/// A sparse overlay on a line underlay: chain links only, so augmentation has
/// obvious shortcuts to add.
struct SparseFixture {
  net::UnderlyingNetwork underlay;
  std::unique_ptr<net::UnderlayRouting> routing;
  OverlayGraph overlay;

  SparseFixture() {
    for (int i = 0; i < 6; ++i) underlay.add_node({double(i) * 10.0, 0.0});
    for (int i = 0; i < 5; ++i) underlay.add_link(i, i + 1, 100.0, 1.0);
    routing = std::make_unique<net::UnderlayRouting>(underlay);
    for (int i = 0; i < 6; ++i)
      overlay.add_instance(static_cast<Sid>(i % 3), static_cast<net::Nid>(i));
    // Only a couple of service links to start with.
    overlay.add_link(0, 1, {50.0, 2.0});
    overlay.add_link(1, 2, {50.0, 2.0});
  }
};

overlay::CompatibilityFn any_pair() {
  return [](Sid a, Sid b) { return a != b; };
}

TEST(MeshAugmentation, AddsLinksWithinBudgetAndImprovesProbes) {
  SparseFixture fx;
  AugmentationParams params;
  params.link_budget = 6;
  params.probe_pairs = 16;
  util::Rng rng(3);
  AugmentationReport report;
  const OverlayGraph augmented =
      augment_mesh(fx.overlay, *fx.routing, any_pair(), params, rng, &report);

  EXPECT_LE(report.links_added, params.link_budget);
  EXPECT_GT(report.links_added, 0u);
  EXPECT_EQ(augmented.graph().edge_count(),
            fx.overlay.graph().edge_count() + report.links_added);
  EXPECT_GE(report.probe_bandwidth_after, report.probe_bandwidth_before);
  // Original links survive untouched.
  EXPECT_TRUE(augmented.graph().has_edge(0, 1));
  EXPECT_TRUE(augmented.graph().has_edge(1, 2));
}

TEST(MeshAugmentation, RespectsCompatibilityAndLatencyCut) {
  SparseFixture fx;
  AugmentationParams params;
  params.link_budget = 20;
  params.max_link_latency_ms = 1.5;  // only direct 1-hop routes qualify
  util::Rng rng(5);
  const OverlayGraph augmented =
      augment_mesh(fx.overlay, *fx.routing, any_pair(), params, rng);
  for (const graph::Edge& e : augmented.graph().edges()) {
    EXPECT_NE(augmented.instance(e.from).sid, augmented.instance(e.to).sid);
    if (!fx.overlay.graph().has_edge(e.from, e.to)) {
      EXPECT_LE(e.metrics.latency, 1.5);
    }
  }
}

TEST(MeshAugmentation, ZeroBudgetIsIdentity) {
  SparseFixture fx;
  AugmentationParams params;
  params.link_budget = 0;
  util::Rng rng(1);
  AugmentationReport report;
  const OverlayGraph augmented =
      augment_mesh(fx.overlay, *fx.routing, any_pair(), params, rng, &report);
  EXPECT_EQ(report.links_added, 0u);
  EXPECT_EQ(augmented.graph().edge_count(), fx.overlay.graph().edge_count());
  EXPECT_THROW(augment_mesh(fx.overlay, *fx.routing, any_pair(),
                            AugmentationParams{1, 0, 0, 10.0}, rng),
               std::invalid_argument);
}

TEST(MeshAugmentation, NoCompatiblePairsMeansNoLinks) {
  SparseFixture fx;
  AugmentationParams params;
  util::Rng rng(2);
  AugmentationReport report;
  const OverlayGraph augmented = augment_mesh(
      fx.overlay, *fx.routing, [](Sid, Sid) { return false; }, params, rng,
      &report);
  EXPECT_EQ(report.links_added, 0u);
  EXPECT_EQ(augmented.graph().edge_count(), fx.overlay.graph().edge_count());
}

/// Property: augmentation never hurts the exact federation optimum (more
/// links = weakly better selections).
class AugmentationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugmentationSweep, FederationQualityIsMonotone) {
  WorkloadParams workload = testing::small_workload(14);
  workload.type_compatibility = 0.15;  // sparse: room to augment
  const Scenario scenario = make_scenario(workload, GetParam());

  const auto before = optimal_flow_graph(scenario.overlay(), scenario.requirement,
                                         scenario.overlay_routing());
  ASSERT_TRUE(before);

  AugmentationParams params;
  params.link_budget = 10;
  params.probe_pairs = 12;
  params.candidate_sample = 24;
  util::Rng rng(GetParam() ^ 0xafff);
  const OverlayGraph augmented = augment_mesh(
      scenario.overlay(), *scenario.routing,
      [](Sid a, Sid b) { return a != b; }, params, rng);

  const graph::AllPairsShortestWidest routing(augmented.graph());
  const auto after = optimal_flow_graph(augmented, scenario.requirement, routing);
  ASSERT_TRUE(after);
  EXPECT_GE(after->bottleneck_bandwidth() + 1e-9, before->bottleneck_bandwidth());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentationSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace sflow::core
