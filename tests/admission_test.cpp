// Tests for the residual-overlay view (overlay/residual.hpp), the
// multi-request admission sequence (core/admission.hpp), and the conservation
// oracle (check/validate.hpp).
//
// The two headline pins:
//  * single-request equivalence — every algorithm solved through a
//    generation-0 ResidualOverlay view is deterministically_equal to the same
//    algorithm solved on an independently rebuilt overlay + routing database,
//    across 200+ fuzzer-seeded scenarios;
//  * ordering-policy soundness — no admission ordering policy ever beats the
//    joint brute-force oracle, checked exactly (each policy's run is one of
//    the permutations the oracle enumerates).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "check/validate.hpp"
#include "core/admission.hpp"
#include "core/federator.hpp"
#include "core/global_optimal.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "overlay/residual.hpp"
#include "test_helpers.hpp"

namespace sflow {
namespace {

using core::Algorithm;

overlay::ResidualOverlay diamond_view() {
  testing::DiamondFixture fx;
  return overlay::ResidualOverlay(
      std::make_shared<const overlay::OverlayGraph>(std::move(fx.overlay)));
}

/// A flow graph on the diamond taking the wide branches: S0@0 -> S1@2 and
/// S0@0 -> S2@4 -> (merge) S3@5 is not a diamond edge set; instead realize
/// the fixture's own requirement 0->{1,2}->3 on the wide instances.
overlay::ServiceFlowGraph wide_diamond_flow() {
  overlay::ServiceFlowGraph flow;
  flow.set_edge(0, 1, {0, 2}, {50.0, 2.0});
  flow.set_edge(0, 2, {0, 4}, {45.0, 3.0});
  flow.set_edge(1, 3, {2, 5}, {40.0, 2.0});
  flow.set_edge(2, 3, {4, 5}, {60.0, 3.0});
  return flow;
}

TEST(ResidualOverlay, GenerationZeroIsTheBaseSnapshot) {
  overlay::ResidualOverlay view = diamond_view();
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.generation(), 0u);
  // Copy-on-write: at generation 0 the residual graph IS the base pointer —
  // the structural guarantee behind the single-request equivalence pin.
  EXPECT_EQ(view.graph_ptr().get(), view.base_ptr().get());
  EXPECT_EQ(view.overlay_consumed(0, 2), 0.0);
  EXPECT_EQ(view.overlay_residual(0, 2), 50.0);

  // Copies share the snapshot.
  overlay::ResidualOverlay copy = view;
  EXPECT_EQ(copy.base_ptr().get(), view.base_ptr().get());
}

TEST(ResidualOverlay, InvalidByDefaultAndOnNullBase) {
  overlay::ResidualOverlay view;
  EXPECT_FALSE(view.valid());
  EXPECT_THROW(overlay::ResidualOverlay(nullptr), std::invalid_argument);
}

TEST(ResidualOverlay, AdmitDepletesEveryTraversedLink) {
  overlay::ResidualOverlay view = diamond_view();
  view.admit(wide_diamond_flow(), 15.0);

  EXPECT_EQ(view.generation(), 1u);
  EXPECT_NE(view.graph_ptr().get(), view.base_ptr().get());
  EXPECT_EQ(view.overlay_consumed(0, 2), 15.0);
  EXPECT_EQ(view.overlay_residual(0, 2), 35.0);
  EXPECT_EQ(view.overlay_residual(2, 5), 25.0);
  EXPECT_EQ(view.overlay_residual(4, 5), 45.0);
  // Untraversed links keep full capacity; the base stays pristine.
  EXPECT_EQ(view.overlay_residual(0, 1), 10.0);
  const graph::EdgeIndex e = view.base().graph().find_edge(0, 2);
  EXPECT_EQ(view.base().graph().edge(e).metrics.bandwidth, 50.0);

  // The residual graph keeps the base's edge order (indices line up).
  ASSERT_EQ(view.graph().graph().edges().size(),
            view.base().graph().edges().size());
  for (std::size_t i = 0; i < view.base().graph().edges().size(); ++i) {
    EXPECT_EQ(view.graph().graph().edges()[i].from,
              view.base().graph().edges()[i].from);
    EXPECT_EQ(view.graph().graph().edges()[i].to,
              view.base().graph().edges()[i].to);
  }
}

TEST(ResidualOverlay, AdmitChargesDistinctLinksOnce) {
  // Tiny chain: Sa@0 -> Sb@1 -> Sc@2.  A requirement a->b, a->c realizes
  // a->c through the bridging instance 1, so link (0,1) is traversed by both
  // flow edges — but a flow's rate is one stream, charged once per distinct
  // link.
  overlay::OverlayGraph ov;
  ov.add_instance(0, 0);
  ov.add_instance(1, 1);
  ov.add_instance(2, 2);
  ov.add_link(0, 1, {10.0, 1.0});
  ov.add_link(1, 2, {10.0, 1.0});
  overlay::ResidualOverlay view(
      std::make_shared<const overlay::OverlayGraph>(std::move(ov)));

  overlay::ServiceFlowGraph flow;
  flow.set_edge(0, 1, {0, 1}, {10.0, 1.0});
  flow.set_edge(0, 2, {0, 1, 2}, {10.0, 2.0});

  const auto links = overlay::distinct_overlay_links(flow);
  ASSERT_EQ(links.size(), 2u);  // (0,1) deduped, first-traversal order
  EXPECT_EQ(links[0], (std::pair<overlay::OverlayIndex, overlay::OverlayIndex>{0, 1}));
  EXPECT_EQ(links[1], (std::pair<overlay::OverlayIndex, overlay::OverlayIndex>{1, 2}));

  view.admit(flow, 4.0);
  EXPECT_EQ(view.overlay_consumed(0, 1), 4.0);  // once, not twice
  EXPECT_EQ(view.overlay_consumed(1, 2), 4.0);
}

TEST(ResidualOverlay, AdmitRejectsNonPositiveRate) {
  overlay::ResidualOverlay view = diamond_view();
  EXPECT_THROW(view.admit(wide_diamond_flow(), 0.0), std::invalid_argument);
  EXPECT_THROW(view.admit(wide_diamond_flow(), -1.0), std::invalid_argument);
  overlay::ResidualOverlay invalid;
  EXPECT_THROW(invalid.admit(wide_diamond_flow(), 1.0), std::invalid_argument);
}

TEST(ResidualOverlay, UnderlayLedgerChargesRoutesBeneathOverlayHops) {
  const core::Scenario scenario =
      core::make_scenario(testing::small_workload(14), 11);
  util::Rng rng(11);
  const core::FederationOutcome outcome =
      core::run_algorithm(Algorithm::kGlobalOptimal, scenario, rng);
  ASSERT_TRUE(outcome.success);

  overlay::ResidualOverlay view = scenario.view;
  const double rate = outcome.bandwidth / 2.0;
  view.admit(outcome.graph, rate, scenario.routing.get());

  const auto links = overlay::distinct_underlay_links(
      outcome.graph, view.base(), *scenario.routing);
  ASSERT_FALSE(links.empty());
  for (const auto& [from, to] : links) {
    EXPECT_EQ(view.underlay_consumed(from, to), rate);
    EXPECT_EQ(view.underlay_residual(from, to, scenario.underlay),
              scenario.underlay.link_metrics(from, to).bandwidth - rate);
  }
  // Headroom shrank by exactly the consumed rate on the tightest route link.
  const double headroom =
      view.underlay_headroom(outcome.graph, *scenario.routing, scenario.underlay);
  double expect = std::numeric_limits<double>::infinity();
  for (const auto& [from, to] : links)
    expect = std::min(expect,
                      scenario.underlay.link_metrics(from, to).bandwidth - rate);
  EXPECT_EQ(headroom, expect);
}

/// Every pair of `view`'s routing database answers exactly like a fresh
/// database over the view's residual graph — qualities and paths.
void expect_routing_matches_fresh_build(const overlay::ResidualOverlay& view) {
  const graph::AllPairsShortestWidest fresh(view.graph().graph());
  const auto n = static_cast<graph::NodeIndex>(fresh.node_count());
  ASSERT_EQ(view.routing().node_count(), fresh.node_count());
  for (graph::NodeIndex from = 0; from < n; ++from)
    for (graph::NodeIndex to = 0; to < n; ++to) {
      EXPECT_EQ(view.routing().quality(from, to), fresh.quality(from, to))
          << from << " -> " << to;
      EXPECT_EQ(view.routing().path(from, to), fresh.path(from, to))
          << from << " -> " << to;
    }
}

// A copied view shares the warm routing database; its first admission clones
// it (copy-on-write) instead of building a fresh one, so every tree the
// admission's link events left clean stays cached on the copy, and the
// original never sees the database mutate.
TEST(ResidualOverlay, AdmitOnCopiedWarmViewClonesTheRoutingDatabase) {
  // A scenario whose admission leaves some source trees clean (on denser
  // ones every tree is dirtied), so the cached-tree check below has teeth.
  const core::Scenario scenario =
      core::make_scenario(testing::small_workload(16), 7);
  overlay::ResidualOverlay warm = scenario.view;
  warm.routing().precompute_all();
  overlay::ResidualOverlay copy = warm;

  util::Rng rng(7);
  const core::FederationOutcome outcome = core::run_algorithm(
      Algorithm::kGlobalOptimal,
      core::admission_view(scenario, copy, scenario.requirement), rng);
  ASSERT_TRUE(outcome.success);

  obs::Counter& full_rebuilds =
      obs::Registry::global().counter("routing_full_rebuilds_total");
  const std::uint64_t full_rebuilds_before = full_rebuilds.value();
  copy.admit(outcome.graph, outcome.bandwidth / 2.0, scenario.routing.get());
  EXPECT_EQ(full_rebuilds.value(), full_rebuilds_before);

  std::size_t clean = 0;
  for (graph::NodeIndex s = 0;
       s < static_cast<graph::NodeIndex>(copy.routing().node_count()); ++s) {
    EXPECT_TRUE(warm.routing().tree_cached(s)) << "source " << s;
    if (copy.routing().tree_stale(s)) continue;
    EXPECT_TRUE(copy.routing().tree_cached(s)) << "source " << s;
    ++clean;
  }
  EXPECT_GT(clean, 0u);

  EXPECT_EQ(warm.generation(), 0u);
  EXPECT_EQ(copy.generation(), 1u);
  expect_routing_matches_fresh_build(warm);
  expect_routing_matches_fresh_build(copy);
}

// ---------------------------------------------------------------------------
// The single-request equivalence pin: >= 200 fuzzer-seeded scenarios, all six
// algorithm variants, view path vs independently rebuilt overlay + routing.
// ---------------------------------------------------------------------------

TEST(SingleRequestEquivalence, ViewPathMatchesHandBuiltApsw) {
  constexpr std::size_t kScenarios = 200;
  std::size_t built = 0;
  for (std::uint64_t s = 0; s < kScenarios; ++s) {
    const std::uint64_t case_seed = util::derive_seed(0xE0u, s);
    util::Rng workload_rng(util::derive_seed(case_seed, 0xF00D));
    const core::WorkloadParams params = bench::fuzz_workload(workload_rng);
    core::Scenario scenario;
    try {
      scenario = core::make_scenario(params, util::derive_seed(case_seed, 1));
    } catch (const std::runtime_error&) {
      continue;  // infeasible workload draw — not what this pin is about
    }
    ++built;

    // The independent path: a structurally identical overlay copied link by
    // link, with a freshly built routing database — no sharing with the view.
    overlay::OverlayGraph rebuilt;
    for (const overlay::ServiceInstance& inst : scenario.overlay().instances())
      rebuilt.add_instance(inst.sid, inst.nid);
    for (const graph::Edge& e : scenario.overlay().graph().edges())
      rebuilt.add_link(e.from, e.to, e.metrics);
    const graph::AllPairsShortestWidest hand_routing(rebuilt.graph());

    core::FederationView hand;
    hand.underlay = &scenario.underlay;
    hand.routing = scenario.routing.get();
    hand.overlay = &rebuilt;
    hand.overlay_routing = &hand_routing;
    hand.requirement = &scenario.requirement;

    for (const Algorithm algorithm : core::all_algorithms()) {
      util::Rng view_rng(util::derive_seed(case_seed, 7));
      util::Rng hand_rng(util::derive_seed(case_seed, 7));
      const core::FederationOutcome via_view =
          core::run_algorithm(algorithm, scenario, view_rng);
      const core::FederationOutcome via_hand =
          core::run_algorithm(algorithm, hand, hand_rng);
      EXPECT_TRUE(via_view.deterministically_equal(via_hand))
          << "seed " << s << ", " << core::algorithm_name(algorithm);
    }
  }
  // The workload space must actually exercise the pin.
  EXPECT_GE(built, 150u);
}

// ---------------------------------------------------------------------------
// Admission sequences.
// ---------------------------------------------------------------------------

std::vector<overlay::ServiceRequirement> batch_for(
    const core::Scenario& scenario, const core::WorkloadParams& params,
    std::size_t total, std::uint64_t seed) {
  std::vector<overlay::Sid> sids;
  for (std::size_t t = 0; t < params.service_type_count; ++t)
    sids.push_back(static_cast<overlay::Sid>(t));
  std::vector<overlay::ServiceRequirement> requests{scenario.requirement};
  while (requests.size() < total) {
    util::Rng rng(util::derive_seed(seed, 0xBA7C + requests.size()));
    overlay::ServiceRequirement r =
        overlay::generate_requirement(params.requirement, sids, rng);
    const auto sources = scenario.overlay().instances_of(r.source());
    if (sources.empty()) continue;
    r.pin(r.source(),
          scenario.overlay()
              .instance(sources[rng.uniform_index(sources.size())])
              .nid);
    requests.push_back(std::move(r));
  }
  return requests;
}

/// Bit pattern of a double, so headroom comparisons are exact (they also
/// tell +inf and a saturated 0.0 apart from anything near them).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The reference headroom: the min of underlay_residual over the distinct
/// underlay links beneath the flow.
double min_over_distinct_links(const overlay::ResidualOverlay& view,
                               const overlay::ServiceFlowGraph& flow,
                               const core::Scenario& scenario) {
  double min = std::numeric_limits<double>::infinity();
  for (const auto& [from, to] :
       overlay::distinct_underlay_links(flow, view.base(), *scenario.routing))
    min = std::min(min, view.underlay_residual(from, to, scenario.underlay));
  return min;
}

TEST(ResidualOverlay, UnderlayHeadroomIsTheMinOverDistinctLinks) {
  const core::WorkloadParams params = testing::small_workload(14);
  const core::Scenario scenario = core::make_scenario(params, 11);
  overlay::ResidualOverlay view = scenario.view;
  const auto headroom = [&](const overlay::ServiceFlowGraph& flow) {
    return view.underlay_headroom(flow, *scenario.routing, scenario.underlay);
  };

  // A flow that crosses no link has unbounded headroom.
  overlay::ServiceFlowGraph lone;
  lone.assign(scenario.requirement.source(), 0);
  EXPECT_EQ(bits(headroom(lone)),
            bits(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(bits(headroom(lone)), bits(min_over_distinct_links(view, lone, scenario)));

  std::size_t shared = 0, saturated = 0;
  const auto requests = batch_for(scenario, params, 60, 11);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto flow =
        core::optimal_flow_graph(view.graph(), requests[i], view.routing());
    if (!flow) continue;
    std::size_t crossings = 0;
    for (const overlay::FlowEdge& edge : flow->edges())
      for (std::size_t h = 0; h + 1 < edge.overlay_path.size(); ++h)
        crossings += scenario.routing
                         ->route_view(view.base().instance(edge.overlay_path[h]).nid,
                                      view.base().instance(edge.overlay_path[h + 1]).nid)
                         .size() - 1;
    if (crossings >
        overlay::distinct_underlay_links(*flow, view.base(), *scenario.routing).size())
      ++shared;  // some underlay link lies beneath two hops

    const double before = headroom(*flow);
    EXPECT_EQ(bits(before), bits(min_over_distinct_links(view, *flow, scenario)))
        << "request " << i;
    if (before == 0.0) {
      ++saturated;
      continue;
    }
    // Alternately grant half and all of the headroom: a full grant saturates
    // the tightest link, so the same flow then stops at it.
    view.admit(*flow, i % 2 == 0 ? before / 2.0 : before, scenario.routing.get());
    const double after = headroom(*flow);
    EXPECT_EQ(bits(after), bits(min_over_distinct_links(view, *flow, scenario)))
        << "request " << i;
    if (i % 2 == 1) {
      EXPECT_EQ(after, 0.0) << "request " << i;
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(saturated, 0u);
}

std::pair<std::size_t, double> batch_value(const core::AdmissionResult& r) {
  return {r.admitted_count(), r.total_rate()};
}

TEST(AdmissionSequence, FcfsIsTheIdentityOrder) {
  const core::WorkloadParams params = testing::small_workload(14);
  const core::Scenario scenario = core::make_scenario(params, 23);
  const auto requests = batch_for(scenario, params, 3, 23);
  core::AdmissionConfig config;
  config.algorithm = Algorithm::kGlobalOptimal;

  const core::AdmissionResult fcfs =
      core::run_admission_sequence(scenario, requests, config, 23);
  const core::AdmissionResult explicit_order =
      core::run_admission_in_order(scenario, requests, {0, 1, 2}, config, 23);
  ASSERT_EQ(fcfs.decisions.size(), explicit_order.decisions.size());
  for (std::size_t i = 0; i < fcfs.decisions.size(); ++i) {
    EXPECT_EQ(fcfs.decisions[i].request_index,
              explicit_order.decisions[i].request_index);
    EXPECT_EQ(fcfs.decisions[i].admitted, explicit_order.decisions[i].admitted);
    EXPECT_EQ(fcfs.decisions[i].rate, explicit_order.decisions[i].rate);
    EXPECT_TRUE(fcfs.decisions[i].outcome.deterministically_equal(
        explicit_order.decisions[i].outcome));
  }
  EXPECT_TRUE(fcfs.view.admitted() == explicit_order.view.admitted());
}

TEST(AdmissionSequence, RngStreamsArePositionStable) {
  // Request i draws from derive_seed(seed, i) no matter when it is served:
  // served first under the order {1, 0}, request 1 must solve exactly as a
  // standalone federation with its own stream.
  const core::WorkloadParams params = testing::small_workload(14);
  const core::Scenario scenario = core::make_scenario(params, 31);
  const auto requests = batch_for(scenario, params, 2, 31);
  core::AdmissionConfig config;
  config.algorithm = Algorithm::kRandom;  // actually consumes the rng

  const core::AdmissionResult swapped =
      core::run_admission_in_order(scenario, requests, {1, 0}, config, 31);
  ASSERT_EQ(swapped.decisions.front().request_index, 1u);

  util::Rng standalone_rng(util::derive_seed(31, 1));
  const core::FederationOutcome standalone = core::run_algorithm(
      Algorithm::kRandom,
      core::FederationView::of(scenario).with_requirement(requests[1]),
      standalone_rng);
  EXPECT_TRUE(
      swapped.decisions.front().outcome.deterministically_equal(standalone));
}

TEST(AdmissionSequence, PoliciesValidateAndNeverBeatTheOracle) {
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    const core::WorkloadParams params = testing::small_workload(12);
    const core::Scenario scenario = core::make_scenario(params, seed);
    const auto requests = batch_for(scenario, params, 3, seed);

    for (const Algorithm algorithm :
         {Algorithm::kGlobalOptimal, Algorithm::kRandom}) {
      core::AdmissionConfig config;
      config.algorithm = algorithm;
      const core::AdmissionResult oracle =
          core::brute_force_admission(scenario, requests, config, seed);
      const check::ValidationReport oracle_report =
          check::validate_admission_sequence(scenario, requests, oracle, config);
      EXPECT_TRUE(oracle_report.ok()) << oracle_report.to_string();

      for (const core::AdmissionOrder order : core::all_admission_orders()) {
        config.order = order;
        const core::AdmissionResult result =
            core::run_admission_sequence(scenario, requests, config, seed);
        const check::ValidationReport report =
            check::validate_admission_sequence(scenario, requests, result,
                                               config);
        EXPECT_TRUE(report.ok())
            << core::admission_order_name(order) << ": " << report.to_string();
        EXPECT_LE(batch_value(result), batch_value(oracle))
            << core::algorithm_name(algorithm) << " / "
            << core::admission_order_name(order);
      }
    }
  }
}

TEST(AdmissionSequence, BruteForceRejectsLargeBatches) {
  const core::WorkloadParams params = testing::small_workload(12);
  const core::Scenario scenario = core::make_scenario(params, 5);
  std::vector<overlay::ServiceRequirement> nine(9, scenario.requirement);
  EXPECT_THROW(
      core::brute_force_admission(scenario, nine, core::AdmissionConfig{}, 5),
      std::invalid_argument);
}

TEST(AdmissionSequence, ChargedUnderlayClampsGrantedRates) {
  // With underlay charging on, every granted rate respects physical headroom
  // at its decision time; the conservation oracle would flag any breach.
  const core::WorkloadParams params = testing::small_workload(14);
  const core::Scenario scenario = core::make_scenario(params, 41);
  const auto requests = batch_for(scenario, params, 4, 41);
  core::AdmissionConfig config;
  config.algorithm = Algorithm::kGlobalOptimal;

  const core::AdmissionResult result =
      core::run_admission_sequence(scenario, requests, config, 41);
  const check::ValidationReport conservation = check::validate_conservation(
      scenario.view.base(), scenario.underlay, scenario.routing.get(),
      result.view.admitted());
  EXPECT_TRUE(conservation.ok()) << conservation.to_string();
  for (const core::AdmissionDecision& d : result.decisions) {
    if (d.admitted) {
      EXPECT_LE(d.rate, d.outcome.bandwidth);
    }
  }
}

// ---------------------------------------------------------------------------
// The conservation oracle itself must catch violations.
// ---------------------------------------------------------------------------

TEST(ConservationOracle, FlagsOversubscriptionAndExcessRates) {
  overlay::OverlayGraph ov;
  ov.add_instance(0, 0);
  ov.add_instance(1, 1);
  ov.add_link(0, 1, {10.0, 1.0});
  net::UnderlyingNetwork underlay;

  overlay::ServiceFlowGraph flow;
  flow.set_edge(0, 1, {0, 1}, {10.0, 1.0});

  // Two flows at 8 on a 10-capacity link: each individually fine, jointly
  // oversubscribed.
  const std::vector<overlay::AdmittedFlow> oversubscribed = {{flow, 8.0},
                                                             {flow, 8.0}};
  const check::ValidationReport joint =
      check::validate_conservation(ov, underlay, nullptr, oversubscribed);
  EXPECT_TRUE(joint.has("conservation-overlay")) << joint.to_string();

  // A single flow above the pristine bottleneck.
  const std::vector<overlay::AdmittedFlow> excessive = {{flow, 12.0}};
  const check::ValidationReport above =
      check::validate_conservation(ov, underlay, nullptr, excessive);
  EXPECT_TRUE(above.has("rate-above-bottleneck")) << above.to_string();

  // Non-positive rates are flagged, not charged.
  const std::vector<overlay::AdmittedFlow> nonpositive = {{flow, 0.0}};
  const check::ValidationReport zero =
      check::validate_conservation(ov, underlay, nullptr, nonpositive);
  EXPECT_TRUE(zero.has("rate-nonpositive")) << zero.to_string();

  // Exactly at capacity is conserving.
  const std::vector<overlay::AdmittedFlow> tight = {{flow, 6.0}, {flow, 4.0}};
  EXPECT_TRUE(check::validate_conservation(ov, underlay, nullptr, tight).ok());
}

TEST(ConservationOracle, SequenceReplayFlagsTamperedResults) {
  const core::WorkloadParams params = testing::small_workload(12);
  const core::Scenario scenario = core::make_scenario(params, 51);
  const auto requests = batch_for(scenario, params, 2, 51);
  core::AdmissionConfig config;
  config.algorithm = Algorithm::kGlobalOptimal;
  core::AdmissionResult result =
      core::run_admission_sequence(scenario, requests, config, 51);
  ASSERT_TRUE(
      check::validate_admission_sequence(scenario, requests, result, config)
          .ok());

  // Inflate an admitted decision's rate past its solved bandwidth.
  bool tampered = false;
  for (core::AdmissionDecision& d : result.decisions) {
    if (d.admitted) {
      d.rate = d.outcome.bandwidth * 3.0;
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered) << "batch admitted nothing; pick another seed";
  const check::ValidationReport report =
      check::validate_admission_sequence(scenario, requests, result, config);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has("admission-rate") ||
              report.has("admission-view-mismatch"))
      << report.to_string();
}

}  // namespace
}  // namespace sflow
