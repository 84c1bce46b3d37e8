#include <gtest/gtest.h>

#include "overlay/flow_graph.hpp"
#include "test_helpers.hpp"

namespace sflow::overlay {
namespace {

using testing::DiamondFixture;

class FlowGraphTest : public ::testing::Test {
 protected:
  FlowGraphTest() {
    // The optimal diamond selection: wide instances 2 and 4.
    flow_.set_edge(0, 1, {0, 2}, routing_.quality(0, 2));
    flow_.set_edge(0, 2, {0, 4}, routing_.quality(0, 4));
    flow_.set_edge(1, 3, {2, 5}, routing_.quality(2, 5));
    flow_.set_edge(2, 3, {4, 5}, routing_.quality(4, 5));
  }

  DiamondFixture fixture_;
  graph::AllPairsShortestWidest routing_{fixture_.overlay.graph()};
  ServiceFlowGraph flow_;
};

TEST_F(FlowGraphTest, AssignmentsFollowEdges) {
  EXPECT_EQ(flow_.assignment(0), 0);
  EXPECT_EQ(flow_.assignment(1), 2);
  EXPECT_EQ(flow_.assignment(2), 4);
  EXPECT_EQ(flow_.assignment(3), 5);
  EXPECT_EQ(flow_.assignment(9), std::nullopt);
  EXPECT_TRUE(flow_.complete(fixture_.requirement));
}

TEST_F(FlowGraphTest, ConflictingAssignmentThrows) {
  EXPECT_THROW(flow_.assign(1, 1), std::logic_error);
  EXPECT_NO_THROW(flow_.assign(1, 2));  // re-assigning the same is a no-op
}

TEST_F(FlowGraphTest, QualityIsBottleneckAndCriticalPath) {
  // Bottleneck: min(50, 45, 40, 60) = 40; critical path: max(2+2, 3+3) = 6.
  EXPECT_DOUBLE_EQ(flow_.bottleneck_bandwidth(), 40.0);
  EXPECT_DOUBLE_EQ(flow_.end_to_end_latency(fixture_.requirement), 6.0);
  const graph::PathQuality q = flow_.quality(fixture_.requirement);
  EXPECT_DOUBLE_EQ(q.bandwidth, 40.0);
  EXPECT_DOUBLE_EQ(q.latency, 6.0);
}

TEST_F(FlowGraphTest, ValidatePassesAndCatchesCorruption) {
  EXPECT_NO_THROW(flow_.validate(fixture_.requirement, fixture_.overlay));

  ServiceFlowGraph incomplete;
  incomplete.set_edge(0, 1, {0, 2}, routing_.quality(0, 2));
  EXPECT_THROW(incomplete.validate(fixture_.requirement, fixture_.overlay),
               std::logic_error);

  ServiceFlowGraph wrong_quality = flow_;
  wrong_quality.erase_edge(1, 3);
  wrong_quality.set_edge(1, 3, {2, 5}, graph::PathQuality{999.0, 0.0});
  EXPECT_THROW(wrong_quality.validate(fixture_.requirement, fixture_.overlay),
               std::logic_error);
}

TEST_F(FlowGraphTest, EraseEdge) {
  EXPECT_TRUE(flow_.erase_edge(1, 3));
  EXPECT_FALSE(flow_.erase_edge(1, 3));
  EXPECT_EQ(flow_.find_edge(1, 3), nullptr);
  EXPECT_FALSE(flow_.complete(fixture_.requirement));
}

TEST_F(FlowGraphTest, MergeCombinesPartials) {
  ServiceFlowGraph left;
  left.set_edge(0, 1, {0, 2}, routing_.quality(0, 2));
  ServiceFlowGraph right;
  right.set_edge(1, 3, {2, 5}, routing_.quality(2, 5));
  left.merge_from(right);
  EXPECT_EQ(left.assignment(3), 5);
  EXPECT_NE(left.find_edge(1, 3), nullptr);

  ServiceFlowGraph conflicting;
  conflicting.assign(1, 1);  // disagrees with instance 2
  EXPECT_THROW(left.merge_from(conflicting), std::logic_error);
}

TEST_F(FlowGraphTest, CorrectnessCoefficient) {
  ServiceFlowGraph computed;
  computed.assign(0, 0);
  computed.assign(1, 2);
  computed.assign(2, 3);  // differs from optimal (4)
  computed.assign(3, 5);
  EXPECT_DOUBLE_EQ(ServiceFlowGraph::correctness_coefficient(computed, flow_), 0.75);
  EXPECT_DOUBLE_EQ(ServiceFlowGraph::correctness_coefficient(flow_, flow_), 1.0);
  EXPECT_THROW(
      ServiceFlowGraph::correctness_coefficient(flow_, ServiceFlowGraph{}),
      std::invalid_argument);
}

TEST_F(FlowGraphTest, SetEdgeRejectsEmptyAndConflictingPaths) {
  EXPECT_THROW(flow_.set_edge(0, 1, {}, graph::PathQuality{1, 1}),
               std::invalid_argument);
  // Same requirement edge realized along a different path conflicts.
  EXPECT_THROW(flow_.set_edge(0, 1, {0, 1}, routing_.quality(0, 1)),
               std::logic_error);
}

TEST_F(FlowGraphTest, ToStringListsAssignments) {
  const std::string text = flow_.to_string();
  EXPECT_NE(text.find("S0 := overlay#0"), std::string::npos);
  EXPECT_NE(text.find("S1 -> S3"), std::string::npos);
}

}  // namespace
}  // namespace sflow::overlay
