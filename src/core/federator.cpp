#include "core/federator.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/comparators.hpp"
#include "core/global_optimal.hpp"
#include "core/sflow_federation.hpp"
#include "util/timer.hpp"

namespace sflow::core {

bool FederationOutcome::deterministically_equal(
    const FederationOutcome& other) const {
  return success == other.success && graph == other.graph &&
         effective_requirement == other.effective_requirement &&
         bandwidth == other.bandwidth && latency == other.latency &&
         messages == other.messages && bytes == other.bytes &&
         federation_time_ms == other.federation_time_ms &&
         global_fallbacks == other.global_fallbacks;
}

FederationView FederationView::of(const Scenario& scenario) {
  FederationView view;
  view.underlay = &scenario.underlay;
  view.routing = scenario.routing.get();
  view.overlay = &scenario.overlay();
  view.overlay_routing = &scenario.overlay_routing();
  view.requirement = &scenario.requirement;
  return view;
}

namespace {

/// Runs the solver `algorithm` names and returns its graph with the
/// requirement it realizes (nullopt on failure).  The distributed algorithm
/// also reports its protocol accounting and compute time into `outcome`.
std::optional<FederationResult> solve(Algorithm algorithm,
                                      const FederationView& view,
                                      util::Rng& rng,
                                      const SFlowNodeConfig& config,
                                      FederationOutcome& outcome) {
  const overlay::OverlayGraph& overlay = *view.overlay;
  const overlay::ServiceRequirement& requirement = *view.requirement;
  const graph::AllPairsShortestWidest& overlay_routing = *view.overlay_routing;
  std::optional<overlay::ServiceFlowGraph> graph;
  switch (algorithm) {
    case Algorithm::kSflow: {
      SFlowFederationResult result =
          run_sflow_federation(*view.underlay, *view.routing, overlay,
                               overlay_routing, requirement, config);
      outcome.compute_time_us = result.compute_time_us;
      outcome.messages = result.messages;
      outcome.bytes = result.bytes;
      outcome.federation_time_ms = result.federation_time_ms;
      outcome.global_fallbacks = result.global_fallbacks;
      graph = std::move(result.flow_graph);
      break;
    }
    case Algorithm::kGlobalOptimal:
      // Budgeted: a search that runs out before its first complete
      // assignment returns the fixed solve of the same view.
      graph = optimal_flow_graph(overlay, requirement, overlay_routing);
      break;
    case Algorithm::kFixed:
      return fixed_federation(overlay, requirement, overlay_routing);
    case Algorithm::kRandom:
      return random_federation(overlay, requirement, overlay_routing, rng);
    case Algorithm::kServicePath:
      return service_path_federation(overlay, requirement, overlay_routing,
                                     /*serialize_dags=*/true);
    case Algorithm::kServicePathStrict:
      return service_path_federation(overlay, requirement, overlay_routing,
                                     /*serialize_dags=*/false);
    default:
      throw std::invalid_argument("run_algorithm: unknown algorithm");
  }
  if (!graph) return std::nullopt;
  return FederationResult{std::move(*graph), requirement};
}

}  // namespace

FederationOutcome run_algorithm(Algorithm algorithm, const FederationView& view,
                                util::Rng& rng, const SFlowNodeConfig& config) {
  FederationOutcome outcome;
  const util::Stopwatch watch;
  std::optional<FederationResult> result =
      solve(algorithm, view, rng, config, outcome);
  if (result) {
    outcome.success = true;
    outcome.graph = std::move(result->graph);
    outcome.effective_requirement = std::move(result->effective_requirement);
    outcome.bandwidth = outcome.graph.bottleneck_bandwidth();
    outcome.latency =
        outcome.graph.end_to_end_latency(outcome.effective_requirement);
  } else {
    outcome.effective_requirement = *view.requirement;
  }
  // The distributed algorithm reports the nodes' summed compute time; the
  // centralized ones are timed here, solve through quality.
  if (algorithm != Algorithm::kSflow) outcome.compute_time_us = watch.elapsed_us();
  return outcome;
}

FederationOutcome run_algorithm(Algorithm algorithm, const Scenario& scenario,
                                util::Rng& rng, const SFlowNodeConfig& config) {
  return run_algorithm(algorithm, FederationView::of(scenario), rng, config);
}

}  // namespace sflow::core
