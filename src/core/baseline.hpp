// The baseline algorithm of the paper's Table 1: the exact polynomial-time
// construction of an optimal service flow graph for a *single-path* service
// requirement.
//
//   1. all-pairs shortest-widest paths over the overlay (Wang–Crowcroft);
//   2. build the service abstract graph of the chain requirement;
//   3. shortest-widest abstract path from the source layer to the sink layer;
//   4. expand each abstract edge back into the real overlay path.
//
// The production path builds the abstract graph once into a flat arena
// (core/abstract_dp.hpp) and solves step 3 with a layer-sequential DP that
// carries Pareto frontiers of (bottleneck, latency) prefix labels per
// candidate — dominance pruning between same-layer labels keeps the DP exact
// (a label worse in both dimensions is dead); the chosen path replicates the
// shortest-widest kernel's tie-breaking, so results are bit-identical to the
// pre-arena implementation, which is kept verbatim as
// `baseline_single_path_legacy` / `baseline_single_path_custom_legacy` (the
// equivalence oracle of tests/federation_equiv_test.cpp and the before/after
// baseline of bench/federation_kernel.cpp).  The chain result is optimal —
// the property the reduction heuristics of §3.4 build on.
//
// The *_custom variant lets the caller override how an abstract edge's
// quality and expansion are obtained; the split-and-merge reduction uses this
// to splice in "virtual edges" that stand for already-solved blocks.
#pragma once

#include <functional>
#include <optional>

#include "graph/qos_routing.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement.hpp"

namespace sflow::core {

/// Quality of the abstract edge between instance `u` of service `from` and
/// instance `v` of service `to`; PathQuality::unreachable() when absent.
using EdgeQualityFn = std::function<graph::PathQuality(
    overlay::Sid from, overlay::OverlayIndex u, overlay::Sid to,
    overlay::OverlayIndex v)>;

/// Overlay expansion of that abstract edge (node sequence u..v inclusive);
/// nullopt when absent.
using EdgePathFn = std::function<std::optional<std::vector<overlay::OverlayIndex>>(
    overlay::Sid from, overlay::OverlayIndex u, overlay::Sid to,
    overlay::OverlayIndex v)>;

/// EdgeQualityFn / EdgePathFn backed by an all-pairs shortest-widest database.
EdgeQualityFn routing_edge_quality(const graph::AllPairsShortestWidest& routing);
EdgePathFn routing_edge_path(const graph::AllPairsShortestWidest& routing);

/// Candidate instances of a required service, honouring pins: a pinned
/// service contributes exactly its pinned instance (empty when the pin does
/// not name a hosting node — the requirement is unsatisfiable there).
std::vector<overlay::OverlayIndex> candidate_instances(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, overlay::Sid sid);

/// Appends candidate_instances(overlay, requirement, sid) to `out` without a
/// temporary vector; returns how many it appended.
std::size_t append_candidate_instances(const overlay::OverlayGraph& overlay,
                                       const overlay::ServiceRequirement& requirement,
                                       overlay::Sid sid,
                                       std::vector<overlay::OverlayIndex>& out);

/// Observability of one abstract-graph DP solve (0 for the legacy path).
struct BaselineStats {
  /// Flat abstract-graph arena footprint.
  std::size_t arena_bytes = 0;
  /// Pareto labels kept across all (layer, candidate) frontiers.
  std::size_t dp_labels = 0;
  /// Labels dropped by dominance pruning (rejected or evicted).
  std::size_t dp_labels_pruned = 0;
};

/// Solves a single-path requirement optimally (Table 1).  Respects pins.
/// Returns nullopt when no feasible flow graph exists.
/// Precondition: requirement.is_single_path().
std::optional<overlay::ServiceFlowGraph> baseline_single_path(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, BaselineStats* stats = nullptr);

/// As above with caller-supplied edge quality/expansion.
std::optional<overlay::ServiceFlowGraph> baseline_single_path_custom(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, BaselineStats* stats = nullptr);

/// The pre-arena implementation, kept verbatim: node-at-a-time Digraph
/// construction plus the full shortest-widest kernel.  Bit-identical results
/// to the production DP (pinned by tests/federation_equiv_test.cpp).
std::optional<overlay::ServiceFlowGraph> baseline_single_path_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing);

/// As above with caller-supplied edge quality/expansion.
std::optional<overlay::ServiceFlowGraph> baseline_single_path_custom_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand);

}  // namespace sflow::core
