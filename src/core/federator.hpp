// The unified federation API: one entry point over the paper's five
// algorithms, one result struct for all of them.
//
// The algorithms are five unrelated solvers with incompatible result types;
// run_algorithm normalizes each into a FederationOutcome carrying the flow
// graph, its quality, the compute time, and — for the distributed algorithm
// — the protocol's message/byte accounting.  It holds no state, so any
// number of threads may call it concurrently; all per-trial randomness
// enters through `rng`.
//
// Solvers read the overlay and its link-state database through a
// FederationView — a window assembled from a ResidualOverlay (pristine at
// generation 0, capacity-depleted after admissions) — never from mutable
// OverlayGraph state.  The Scenario overload is the single-request
// convenience: it views the scenario's own residual state, so a fresh
// scenario solves on the base snapshot.
#pragma once

#include "core/scenario.hpp"
#include "core/sflow_node.hpp"
#include "overlay/flow_graph.hpp"
#include "util/rng.hpp"

namespace sflow::core {

/// Uniform per-trial result of any federation algorithm.
struct FederationOutcome {
  bool success = false;
  overlay::ServiceFlowGraph graph;
  /// The requirement the graph realizes — the scenario requirement except for
  /// the service-path algorithm, which serializes it into a chain.
  overlay::ServiceRequirement effective_requirement;
  double bandwidth = 0.0;      // bottleneck, Mbps
  double latency = 0.0;        // end-to-end critical path, ms
  double compute_time_us = 0.0;

  // Distributed-protocol accounting (sFlow only).
  std::size_t messages = 0;
  std::size_t bytes = 0;
  double federation_time_ms = 0.0;
  std::size_t global_fallbacks = 0;

  /// Equality over every seed-determined field — everything except
  /// compute_time_us, which is wall-clock measurement noise.  This is the
  /// contract the parallel evaluation engine is tested against: identical
  /// (scenario, rng) input must give deterministically_equal outcomes at any
  /// thread count.
  bool deterministically_equal(const FederationOutcome& other) const;
};

/// A solver's read-only window onto one federation problem.  All pointers
/// are non-owning; the referenced state must outlive the run_algorithm call.
/// Assemble one per request from a ResidualOverlay (FederationView::of, or
/// by hand for custom residual state) — this is how K concurrent requests
/// share one immutable base snapshot while each sees the capacity its
/// predecessors left behind.
struct FederationView {
  const net::UnderlyingNetwork* underlay = nullptr;
  const net::UnderlayRouting* routing = nullptr;
  const overlay::OverlayGraph* overlay = nullptr;
  const graph::AllPairsShortestWidest* overlay_routing = nullptr;
  const overlay::ServiceRequirement* requirement = nullptr;

  /// The scenario's own view: its residual overlay state (the base snapshot
  /// for a fresh scenario) and its requirement.
  static FederationView of(const Scenario& scenario);

  /// The same network/overlay window solving a different requirement.
  FederationView with_requirement(const overlay::ServiceRequirement& r) const {
    FederationView v = *this;
    v.requirement = &r;
    return v;
  }
};

/// Runs one federation of `algorithm` on the view.  `rng` feeds stochastic
/// selection (only the random algorithm draws from it); `config`
/// parameterizes the distributed algorithm (knowledge radius, reduction
/// toggles) and is ignored by the centralized ones.  Throws
/// std::invalid_argument for an unknown algorithm.
FederationOutcome run_algorithm(Algorithm algorithm, const FederationView& view,
                                util::Rng& rng,
                                const SFlowNodeConfig& config = {});

/// Single-request convenience: federates the scenario's own view.
FederationOutcome run_algorithm(Algorithm algorithm, const Scenario& scenario,
                                util::Rng& rng,
                                const SFlowNodeConfig& config = {});

}  // namespace sflow::core
