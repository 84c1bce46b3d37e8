#include <gtest/gtest.h>

#include "core/global_optimal.hpp"
#include "overlay/requirement_parser.hpp"
#include "overlay/serialization.hpp"
#include "test_helpers.hpp"

namespace sflow::overlay {
namespace {

TEST(RequirementRoundTrip, FormatThenParseIsIdentity) {
  ServiceCatalog catalog;
  const ServiceRequirement original = parse_requirement(
      "Engine -> Hotel, Map\n"
      "Hotel -> Agency\n"
      "Map -> Agency\n"
      "pin Engine @ 7\n",
      catalog);
  const std::string text = format_requirement(original, catalog);
  const ServiceRequirement reparsed = parse_requirement(text, catalog);
  EXPECT_EQ(original, reparsed);
}

TEST(RequirementRoundTrip, PreservesServiceInsertionOrder) {
  // Insertion order is the DAG node index (downstream tie-breaking depends on
  // it), and it is NOT derivable from the edge list: declaring C first makes
  // the order [C, A, B], which an edge-only emission would silently
  // "normalize" back to [A, B, C].  The `service` declaration lines are what
  // carry it across a round trip.
  ServiceCatalog catalog;
  ServiceRequirement original;
  original.add_service(catalog.intern("C"));
  original.add_edge(catalog.intern("A"), catalog.intern("B"));
  original.add_edge(catalog.intern("B"), catalog.intern("C"));
  original.validate();

  const std::string text = format_requirement(original, catalog);
  const ServiceRequirement reparsed = parse_requirement(text, catalog);
  ASSERT_EQ(reparsed.services(), original.services());
  EXPECT_EQ(reparsed, original);  // order-sensitive equality
}

TEST(ScenarioRoundTrip, FormatThenParseIsIdentity) {
  core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(14), 24);
  ScenarioFile file{
      {scenario.underlay, scenario.overlay()}, scenario.requirement, {}, {}};

  ServiceCatalog catalog = scenario.catalog;
  const std::string text = format_scenario(file, catalog);
  const ScenarioFile reparsed = parse_scenario(text, catalog);

  // Same catalog, so SIDs line up and requirement equality is exact —
  // including pins and service order.
  EXPECT_EQ(reparsed.requirement, file.requirement);
  EXPECT_EQ(reparsed.bundle.underlay.node_count(),
            file.bundle.underlay.node_count());
  EXPECT_EQ(reparsed.bundle.underlay.link_count(),
            file.bundle.underlay.link_count());
  ASSERT_EQ(reparsed.bundle.overlay.instance_count(),
            file.bundle.overlay.instance_count());
  EXPECT_EQ(reparsed.bundle.overlay.instances(),
            file.bundle.overlay.instances());
  ASSERT_EQ(reparsed.bundle.overlay.graph().edge_count(),
            file.bundle.overlay.graph().edge_count());
  for (std::size_t i = 0; i < file.bundle.overlay.graph().edges().size(); ++i) {
    const graph::Edge& a = file.bundle.overlay.graph().edges()[i];
    const graph::Edge& b = reparsed.bundle.overlay.graph().edges()[i];
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_DOUBLE_EQ(a.metrics.bandwidth, b.metrics.bandwidth);
    EXPECT_DOUBLE_EQ(a.metrics.latency, b.metrics.latency);
  }
}

TEST(ScenarioRoundTrip, PreservesBatchRequestsAndAdmittedFlows) {
  // Multi-request admission state: K extra requirements plus already-granted
  // flows must survive the text format bit-for-bit (the fuzzer's --contention
  // reproducers depend on this).
  core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(14), 25);
  const auto flow = core::optimal_flow_graph(
      scenario.overlay(), scenario.requirement, scenario.overlay_routing());
  ASSERT_TRUE(flow);

  ScenarioFile file{{scenario.underlay, scenario.overlay()},
                    scenario.requirement, {}, {}};
  file.requests.push_back(scenario.requirement);
  file.requests.push_back(scenario.requirement);
  file.admitted.push_back({*flow, 3.25});
  file.admitted.push_back({*flow, 0.5});

  ServiceCatalog catalog = scenario.catalog;
  const std::string text = format_scenario(file, catalog);
  const ScenarioFile reparsed = parse_scenario(text, catalog);

  EXPECT_EQ(reparsed.requirement, file.requirement);
  ASSERT_EQ(reparsed.requests.size(), file.requests.size());
  for (std::size_t i = 0; i < file.requests.size(); ++i)
    EXPECT_EQ(reparsed.requests[i], file.requests[i]);
  ASSERT_EQ(reparsed.admitted.size(), file.admitted.size());
  for (std::size_t i = 0; i < file.admitted.size(); ++i) {
    EXPECT_DOUBLE_EQ(reparsed.admitted[i].rate, file.admitted[i].rate);
    EXPECT_EQ(reparsed.admitted[i].flow.assignments(),
              file.admitted[i].flow.assignments());
    EXPECT_EQ(reparsed.admitted[i].flow.edges().size(),
              file.admitted[i].flow.edges().size());
  }

  // A second round trip is the fixed point.
  EXPECT_EQ(format_scenario(reparsed, catalog), text);
}

TEST(ScenarioParser, RejectsMalformedAdmittedSections) {
  core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(12), 26);
  ScenarioFile file{{scenario.underlay, scenario.overlay()},
                    scenario.requirement, {}, {}};
  ServiceCatalog catalog = scenario.catalog;
  const std::string text = format_scenario(file, catalog);

  // An [admitted] section needs exactly one rate line.
  EXPECT_THROW(parse_scenario(text + "[admitted]\n", catalog),
               std::invalid_argument);
  EXPECT_THROW(
      parse_scenario(text + "[admitted]\nrate 1\nrate 2\n", catalog),
      std::invalid_argument);
  // Duplicate bundles are ambiguous.
  EXPECT_THROW(parse_scenario(text + "[bundle]\n", catalog),
               std::invalid_argument);
}

TEST(ScenarioParser, RequiresBothSections) {
  ServiceCatalog catalog;
  EXPECT_THROW(parse_scenario("[bundle]\nnode 0 0 0\n", catalog),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("[requirement]\nA -> B\n", catalog),
               std::invalid_argument);
}

TEST(BundleRoundTrip, PreservesTopologyAndMetrics) {
  core::Scenario scenario = core::make_scenario(
      sflow::testing::small_workload(14), 21);
  OverlayBundle bundle{std::move(scenario.underlay), std::move(scenario.overlay())};

  const std::string text = format_bundle(bundle, scenario.catalog);
  ServiceCatalog fresh;
  const OverlayBundle reparsed = parse_bundle(text, fresh);

  EXPECT_EQ(reparsed.underlay.node_count(), bundle.underlay.node_count());
  EXPECT_EQ(reparsed.underlay.link_count(), bundle.underlay.link_count());
  for (const graph::Edge& e : bundle.underlay.graph().edges()) {
    ASSERT_TRUE(reparsed.underlay.has_link(e.from, e.to));
    EXPECT_DOUBLE_EQ(reparsed.underlay.link_metrics(e.from, e.to).bandwidth,
                     e.metrics.bandwidth);
    EXPECT_DOUBLE_EQ(reparsed.underlay.link_metrics(e.from, e.to).latency,
                     e.metrics.latency);
  }

  EXPECT_EQ(reparsed.overlay.instance_count(), bundle.overlay.instance_count());
  EXPECT_EQ(reparsed.overlay.graph().edge_count(),
            bundle.overlay.graph().edge_count());
  for (const ServiceInstance& inst : bundle.overlay.instances()) {
    const auto mapped = reparsed.overlay.instance_at(inst.nid);
    ASSERT_TRUE(mapped);
    // Service identity survives via the (new) catalog's names.
    EXPECT_EQ(fresh.name(reparsed.overlay.instance(*mapped).sid),
              scenario.catalog.name(inst.sid));
  }
}

TEST(BundleParser, RejectsMalformedDocuments) {
  ServiceCatalog catalog;
  EXPECT_THROW(parse_bundle("frob 1 2\n", catalog), std::invalid_argument);
  EXPECT_THROW(parse_bundle("node 1 0 0\n", catalog), std::invalid_argument);
  EXPECT_THROW(parse_bundle("node 0 0 0\nlink 0 5 1 1\n", catalog),
               std::invalid_argument);
  EXPECT_THROW(parse_bundle("node 0 0 0\ninstance A @ 9\n", catalog),
               std::invalid_argument);
  EXPECT_THROW(
      parse_bundle("node 0 0 0\nnode 1 0 0\nslink 0 -> 1 5 1\n", catalog),
      std::invalid_argument);  // no instances on the endpoints
  EXPECT_THROW(parse_bundle("node 0 0 x\n", catalog), std::invalid_argument);
}

TEST(FlowGraphRoundTrip, PreservesAssignmentsEdgesAndQuality) {
  const core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(14), 22);
  const auto flow = core::optimal_flow_graph(
      scenario.overlay(), scenario.requirement, scenario.overlay_routing());
  ASSERT_TRUE(flow);

  ServiceCatalog catalog = scenario.catalog;
  const std::string text = format_flow_graph(*flow, scenario.overlay(), catalog);
  const ServiceFlowGraph reparsed =
      parse_flow_graph(text, scenario.overlay(), catalog);

  EXPECT_EQ(reparsed.assignments(), flow->assignments());
  ASSERT_EQ(reparsed.edges().size(), flow->edges().size());
  // The reparsed graph still validates bit-for-bit against the overlay.
  reparsed.validate(scenario.requirement, scenario.overlay());
}

TEST(FlowGraphParser, RejectsInconsistentDocuments) {
  const core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(12), 23);
  ServiceCatalog catalog = scenario.catalog;
  EXPECT_THROW(parse_flow_graph("assign S0 @ 9999\n", scenario.overlay(), catalog),
               std::invalid_argument);
  EXPECT_THROW(parse_flow_graph("bogus\n", scenario.overlay(), catalog),
               std::invalid_argument);
  EXPECT_THROW(
      parse_flow_graph("edge A -> B via 0 bw 1 lat 1\n", scenario.overlay(),
                       catalog),
      std::invalid_argument);
  // Assigning a service to a node hosting a different service.
  const net::Nid nid0 = scenario.overlay().instance(0).nid;
  const Sid hosted = scenario.overlay().instance(0).sid;
  const std::string wrong_service =
      "assign " + catalog.name((hosted + 1) % 5) + " @ " + std::to_string(nid0) +
      "\n";
  // Only throws when the named service differs from the hosted one.
  if (catalog.name((hosted + 1) % 5) != catalog.name(hosted)) {
    EXPECT_THROW(parse_flow_graph(wrong_service, scenario.overlay(), catalog),
                 std::invalid_argument);
  }
}

class SerializationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationSweep, ScenarioBundlesRoundTripAndStaySolvable) {
  core::Scenario scenario =
      core::make_scenario(sflow::testing::small_workload(14), GetParam());
  const auto before = core::optimal_flow_graph(
      scenario.overlay(), scenario.requirement, scenario.overlay_routing());
  ASSERT_TRUE(before);

  OverlayBundle bundle{scenario.underlay, scenario.overlay()};
  ServiceCatalog fresh;
  const OverlayBundle reparsed =
      parse_bundle(format_bundle(bundle, scenario.catalog), fresh);

  // Rebuild the requirement against the *fresh* catalog so its service names
  // resolve to the reparsed overlay's SIDs (intern order differs from the
  // original catalog's).
  const ServiceRequirement requirement = parse_requirement(
      format_requirement(scenario.requirement, scenario.catalog), fresh);

  const graph::AllPairsShortestWidest routing(reparsed.overlay.graph());
  const auto after =
      core::optimal_flow_graph(reparsed.overlay, requirement, routing);
  ASSERT_TRUE(after);
  EXPECT_DOUBLE_EQ(after->bottleneck_bandwidth(), before->bottleneck_bandwidth());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace sflow::overlay
