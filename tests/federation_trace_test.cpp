#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/sflow_federation.hpp"
#include "test_helpers.hpp"

namespace sflow::core {
namespace {

using Kind = TraceEvent::Kind;

TEST(FederationTrace, RecordsTheWholeTimeline) {
  const Scenario scenario = make_scenario(testing::small_workload(16), 4);
  FederationTrace trace;
  const SFlowFederationResult result = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), scenario.requirement, {}, {}, &trace);
  ASSERT_TRUE(result.flow_graph);

  // One computed + one reported event per computing node, one assembly.
  EXPECT_EQ(trace.count(Kind::kComputed), result.node_computations);
  EXPECT_EQ(trace.count(Kind::kReported), result.node_computations);
  EXPECT_EQ(trace.count(Kind::kAssembled), 1u);
  // Every non-source computation is preceded by a delivery; the source's
  // kick-off counts too.
  EXPECT_GE(trace.count(Kind::kDelivered), trace.count(Kind::kComputed));
  // One dispatch per requirement edge (no faults, no retries).
  EXPECT_EQ(trace.count(Kind::kDispatched),
            scenario.requirement.dag().edge_count());
  EXPECT_EQ(trace.count(Kind::kFailover), 0u);

  // Timestamps are monotone.
  for (std::size_t i = 1; i < trace.events().size(); ++i)
    EXPECT_LE(trace.events()[i - 1].at_ms, trace.events()[i].at_ms);

  // Every pin precedes the first dispatch of that service.
  for (const TraceEvent& pin : trace.events()) {
    if (pin.kind != Kind::kPinned) continue;
    for (const TraceEvent& dispatch : trace.events()) {
      if (dispatch.kind != Kind::kDispatched || dispatch.subject != pin.subject)
        continue;
      if (dispatch.node == pin.node) {
        EXPECT_LE(pin.at_ms, dispatch.at_ms);
      }
    }
  }
}

TEST(FederationTrace, RecordsFailovers) {
  const Scenario scenario = make_scenario(testing::small_workload(18), 6);
  const SFlowFederationResult healthy = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), scenario.requirement);
  ASSERT_TRUE(healthy.flow_graph);

  // Crash a replaceable chosen instance.
  FederationFaultOptions faults;
  for (const auto& [sid, instance] : healthy.flow_graph->assignments()) {
    if (sid == scenario.requirement.source()) continue;
    if (scenario.overlay().instances_of(sid).size() >= 2) {
      faults.crashed.insert(scenario.overlay().instance(instance).nid);
      break;
    }
  }
  if (faults.crashed.empty()) GTEST_SKIP() << "no replaceable choice";

  FederationTrace trace;
  const SFlowFederationResult result = run_sflow_federation(
      scenario.underlay, *scenario.routing, scenario.overlay(),
      scenario.overlay_routing(), scenario.requirement, {}, faults, &trace);
  ASSERT_TRUE(result.flow_graph);
  EXPECT_EQ(trace.count(Kind::kFailover), result.failovers);
  EXPECT_GE(result.failovers, 1u);
}

TEST(FederationTrace, RendersReadableTimeline) {
  const Scenario scenario = make_scenario(testing::small_workload(12), 8);
  FederationTrace trace;
  ASSERT_TRUE(run_sflow_federation(scenario.underlay, *scenario.routing,
                                   scenario.overlay(), scenario.overlay_routing(),
                                   scenario.requirement, {}, {}, &trace)
                  .flow_graph);
  const std::string text = trace.to_string(&scenario.catalog);
  EXPECT_NE(text.find("computed"), std::string::npos);
  EXPECT_NE(text.find("dispatched"), std::string::npos);
  EXPECT_NE(text.find("assembled"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
  // Catalog names appear instead of raw SIDs.
  EXPECT_NE(text.find("S0"), std::string::npos);
}

TEST(FederationTrace, ChromeTraceJsonCoversEveryEvent) {
  const Scenario scenario = make_scenario(testing::small_workload(12), 8);
  FederationTrace trace;
  ASSERT_TRUE(run_sflow_federation(scenario.underlay, *scenario.routing,
                                   scenario.overlay(), scenario.overlay_routing(),
                                   scenario.requirement, {}, {}, &trace)
                  .flow_graph);

  const std::string json = trace.to_chrome_trace_json(&scenario.catalog);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0),
            0u);
  // Process/thread metadata so Perfetto labels the node tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"sflow federation\""), std::string::npos);
  // One instant event per recorded TraceEvent.
  std::size_t instants = 0;
  for (std::size_t pos = json.find("\"ph\": \"i\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"i\"", pos + 1))
    ++instants;
  EXPECT_EQ(instants, trace.events().size());
  // Instant events carry thread scope; catalog names label them.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("S0"), std::string::npos);
  // Cheap structural sanity: braces and brackets balance.
  const auto occurrences = [&](char c) {
    return std::count(json.begin(), json.end(), c);
  };
  EXPECT_EQ(occurrences('{'), occurrences('}'));
  EXPECT_EQ(occurrences('['), occurrences(']'));
}

TEST(FederationTrace, ChromeTraceJsonScalesTimestampsToMicroseconds) {
  FederationTrace trace;
  TraceEvent event;
  event.at_ms = 1.5;
  event.node = 3;
  event.kind = Kind::kComputed;
  event.subject = 2;
  event.peer = 7;
  trace.record(event);

  const std::string json = trace.to_chrome_trace_json();
  EXPECT_NE(json.find("\"ts\": 1500.000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  // Without a catalog the S<sid> fallback names the service.
  EXPECT_NE(json.find("\"service\": \"S2\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\": 7"), std::string::npos);
}

}  // namespace
}  // namespace sflow::core
