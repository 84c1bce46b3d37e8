// Per-node computation of the distributed sFlow algorithm (paper §4).
//
// A service node receiving an sfederate message knows (a) the original
// requirement, (b) the pins accumulated upstream, and (c) its own local view —
// the overlay within a two-hop vicinity ("all service nodes are aware of the
// portion of the overall overlay graph within a two-hop vicinity").  It
// computes its locally optimal partial service flow graph with the same
// baseline + reduction machinery used centrally, but restricted to the local
// view, then decides which downstream instances to use and pins them.
//
// A cut view gets its own fresh shortest-widest database.  A node whose
// neighbourhood holds every instance (or with knowledge_radius < 0) and no
// view provider reads `overlay` and `global_routing` directly instead: the
// full cut would reproduce the overlay's instances and links in order, so
// the answers are bit-identical and the shared, warm database saves the
// per-computation rebuild.
//
// Merge pinning (DESIGN.md): any unpinned service reachable from two or more
// of this node's immediate downstream branches *must* be pinned here —
// otherwise independent branches could select different instances of it and
// the streams would never rejoin.  This realizes the paper's observation that
// split-and-merge optimization "is generally assumed by the splitting node."
// When a service to pin has no instance in the local view, the node falls
// back to the best choice by its link-state database (global shortest-widest
// qualities) — a documented substitution modeling an on-demand link-state
// query; the fallback is counted so experiments can report how rare it is.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "core/reduction.hpp"
#include "graph/qos_routing.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement.hpp"

namespace sflow::core {

/// Supplies a node's local view of the overlay (NIDs preserved).  Used to
/// plug in views assembled by the link-state protocol (core/link_state.hpp)
/// instead of the default omniscient neighbourhood cut.
using LocalViewProvider =
    std::function<overlay::OverlayGraph(overlay::OverlayIndex self)>;

struct SFlowNodeConfig {
  /// Overlay hops of local knowledge; < 0 means the full overlay (ablation).
  int knowledge_radius = 2;
  RequirementSolver::Options solver;
  /// When set, overrides the default neighbourhood view.
  LocalViewProvider view_provider;
};

/// What one node contributes to the federation.
struct LocalDecision {
  /// Pins this node created (immediate downstream choices + forced merges).
  std::map<overlay::Sid, net::Nid> new_pins;
  /// Edges realized from this node to its chosen downstream instances.
  std::vector<overlay::FlowEdge> new_edges;
  /// (service, chosen instance) for every immediate downstream — the
  /// sfederate forwarding targets.
  std::vector<std::pair<overlay::Sid, overlay::OverlayIndex>> forward;
  /// How often the global link-state fallback was needed.
  std::size_t global_fallbacks = 0;
  /// Set when the node could not complete its decision (a required service
  /// with no reachable instance, or a chosen edge with no realizable path).
  /// The federation must treat the branch as failed — the decision's pins,
  /// edges, and forwards are partial and must not be applied.
  bool infeasible = false;
  RequirementSolver::Trace solver_trace;
};

/// Runs one node's sFlow computation.
///
/// `self` is this node's instance; `original` the full requirement; `pins`
/// the accumulated upstream pins (by NID).  `global_routing` is the overlay
/// link-state database: the local view's database under full coverage, and
/// otherwise used for realizing paths that leave the local view and as the
/// pin fallback described above.  Throws std::invalid_argument when
/// `global_routing` does not describe `overlay` (node counts differ).
LocalDecision sflow_local_compute(const overlay::OverlayGraph& overlay,
                                  const graph::AllPairsShortestWidest& global_routing,
                                  overlay::OverlayIndex self,
                                  const overlay::ServiceRequirement& original,
                                  const std::map<overlay::Sid, net::Nid>& pins,
                                  const SFlowNodeConfig& config = {});

}  // namespace sflow::core
