// Churn and agile re-federation.
//
// The paper's title promises *agile* service federation; overlays churn —
// link qualities drift and service instances leave.  This module provides the
// machinery to exercise that claim end to end:
//
//  * apply_churn     — derives a post-churn overlay: link metrics jittered,
//                      a fraction of instances failed (their links vanish).
//  * diagnose_flow   — re-evaluates an existing service flow graph against
//                      the post-churn overlay and reports, per requirement
//                      edge, whether its realized path is broken (an instance
//                      or link disappeared) or degraded (bandwidth fell below
//                      a threshold fraction of what was promised).
//  * refederate      — repairs the flow graph *incrementally*: every service
//                      untouched by a violation keeps its instance (pinned),
//                      and only the damaged region is re-solved.  This is the
//                      cheap agile path; the bench compares it against a full
//                      re-federation from scratch.
//
// Flow graphs reference instances by overlay index, which is only meaningful
// relative to the overlay that produced them; across churn, identity is
// carried by NIDs (stable node identifiers), so the old overlay participates
// in every diagnosis.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/reduction.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement.hpp"
#include "util/rng.hpp"

namespace sflow::core {

struct ChurnParams {
  /// Fraction of service links whose metrics are re-drawn.
  double link_churn_fraction = 0.3;
  /// Re-drawn bandwidth is scaled by a factor in [1-jitter, 1+jitter].
  double bandwidth_jitter = 0.6;
  /// Re-drawn latency is scaled by a factor in [1, 1+jitter].
  double latency_jitter = 0.6;
  /// Probability that any given instance fails (never the instances pinned
  /// in `protected_nids`).
  double instance_failure_probability = 0.0;
};

struct ChurnReport {
  std::size_t links_rewritten = 0;
  std::vector<net::Nid> failed_instances;
};

/// Returns the post-churn overlay (NIDs preserved, failed instances and
/// their links dropped).  `protected_nids` lists nodes that must survive —
/// typically the pinned source and any consumer-designated endpoints.
overlay::OverlayGraph apply_churn(const overlay::OverlayGraph& overlay,
                                  const ChurnParams& params, util::Rng& rng,
                                  ChurnReport* report = nullptr,
                                  const std::vector<net::Nid>& protected_nids = {});

struct EdgeViolation {
  enum class Kind { kBroken, kDegraded };
  overlay::Sid from = overlay::kInvalidSid;
  overlay::Sid to = overlay::kInvalidSid;
  Kind kind = Kind::kBroken;
  graph::PathQuality promised = graph::PathQuality::unreachable();
  graph::PathQuality observed = graph::PathQuality::unreachable();
};

/// Re-evaluates `flow` (built on `old_overlay`) against `new_overlay`.
/// An edge is kBroken when an endpoint instance or a path link disappeared,
/// kDegraded when its bandwidth dropped below degrade_threshold * promised.
std::vector<EdgeViolation> diagnose_flow(const overlay::OverlayGraph& old_overlay,
                                         const overlay::OverlayGraph& new_overlay,
                                         const overlay::ServiceRequirement& requirement,
                                         const overlay::ServiceFlowGraph& flow,
                                         double degrade_threshold = 0.5);

struct RefederationResult {
  std::optional<overlay::ServiceFlowGraph> graph;
  /// Services kept on their pre-churn instances.
  std::size_t services_kept = 0;
  /// Services whose assignment was re-decided.
  std::size_t services_resolved = 0;
  std::size_t violations = 0;
};

/// Incremental repair (see file comment).  `new_routing` must belong to
/// `new_overlay`.  Falls back to re-deciding everything when damage touches
/// every service.
RefederationResult refederate(const overlay::OverlayGraph& old_overlay,
                              const overlay::OverlayGraph& new_overlay,
                              const graph::AllPairsShortestWidest& new_routing,
                              const overlay::ServiceRequirement& requirement,
                              const overlay::ServiceFlowGraph& old_flow,
                              double degrade_threshold = 0.5);

/// A post-churn routing database derived from a warm pre-churn one.
struct RetargetedRouting {
  std::unique_ptr<graph::AllPairsShortestWidest> routing;
  /// Per-event dirty-set accounting (all zero when `incremental` is false).
  graph::GraphDiffStats diff;
  /// True when the warm database was cloned and diffed link-by-link; false
  /// when the instance set changed (failed instances re-number the overlay)
  /// and the database had to be built from scratch.
  bool incremental = false;
};

/// Converts a warm routing database for `warm_overlay` into one for `target`
/// without a full rebuild when possible: link-only churn preserves the
/// instance roster, so the database is clone()d (built trees carried over by
/// value) and the link diff applied as incremental events, invalidating only
/// the source trees each event can touch.  When the roster changed — any
/// index hosts a different (sid, nid) — overlay indices are not comparable
/// and a fresh lazy database over target.graph() is returned instead.  The
/// diff only stamps invalidated trees stale, so it costs O(predicate) and
/// queries pay only for the sources they touch.  The result answers every
/// query bit-identically to a from-scratch build (asserted by
/// bench/churn_refederation --smoke).
RetargetedRouting retarget_routing(
    const graph::AllPairsShortestWidest& warm,
    const overlay::OverlayGraph& warm_overlay,
    const overlay::OverlayGraph& target);

}  // namespace sflow::core
