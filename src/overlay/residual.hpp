// Residual-capacity overlays: one immutable base snapshot shared by every
// request, plus a cheap copy-on-write delta tracking what admitted flows
// have consumed.
//
// Every federation used to see a pristine network; contention is the
// defining feature of real service overlays.  A ResidualOverlay is the view
// the solver stack reads instead of mutable OverlayGraph state:
//
//  * the *base* is an immutable OverlayGraph snapshot (shared_ptr, shared
//    across requests and across view copies — copying a ResidualOverlay
//    never copies the graph);
//  * each admitted flow charges its granted rate against every distinct
//    overlay link it traverses and — via the underlay routes of its overlay
//    hops — every distinct physical link beneath them;
//  * the *residual* graph is materialized once per admission (copy-on-write:
//    at generation 0 the residual graph IS the base pointer, so a pristine
//    view is bit-identical to solving on the base directly);
//  * the all-pairs shortest-widest database is *retargeted*: each link the
//    admitted flow charged becomes one apply_link_reweight (capacity shrank)
//    or apply_link_remove (saturated) on the incremental database,
//    invalidating only the source trees the event can touch instead of
//    rebuilding all of them.  The database is copy-on-write: a copied view
//    shares it until its first admission, which first clones it (every
//    built tree comes along) so no other owner sees it mutate.  The query
//    results are bit-identical to a fresh build over the residual graph —
//    pinned by the admission and churn-fuzz suites.
//
// A link is charged once per admitted flow, not once per traversal: a flow's
// rate is a single stream fanned through its realized edges, and charging
// the bottleneck once per distinct link is what makes the conservation
// invariant (sum of granted rates <= capacity on every link) provable —
// every distinct link of a candidate flow bounds its bottleneck from above.
// Intra-flow multiplicity (the same physical link crossed by two differently
// processed sub-streams) is the max-min contention model's domain
// (net/contention.hpp), not the admission ledger's.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/qos_routing.hpp"
#include "net/topology.hpp"
#include "net/underlay_routing.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"

namespace sflow::overlay {

/// One admitted federation: the flow graph that was granted capacity and the
/// rate it was granted (its bottleneck on the residual overlay it was solved
/// against, possibly clamped down to physical headroom).
struct AdmittedFlow {
  ServiceFlowGraph flow;
  double rate = 0.0;

  friend bool operator==(const AdmittedFlow&, const AdmittedFlow&) = default;
};

class ResidualOverlay {
 public:
  /// An invalid view; assign a real one before use (Scenario's default
  /// constructor needs this).
  ResidualOverlay() = default;

  /// Wraps an immutable base snapshot.  The all-pairs shortest-widest
  /// database over the base is built eagerly (per-source trees stay lazy
  /// inside it), so a freshly wrapped view is immediately shareable across
  /// threads for const queries.
  explicit ResidualOverlay(std::shared_ptr<const OverlayGraph> base);

  bool valid() const noexcept { return base_ != nullptr; }

  /// The pristine snapshot (full capacities).
  const OverlayGraph& base() const { return *base_; }
  std::shared_ptr<const OverlayGraph> base_ptr() const noexcept { return base_; }

  /// The residual overlay the solvers read: the base itself at generation 0,
  /// a materialized copy with depleted bandwidths afterwards.  Latencies are
  /// untouched — consuming bandwidth does not slow a link here.
  const OverlayGraph& graph() const { return *graph_; }
  std::shared_ptr<const OverlayGraph> graph_ptr() const noexcept { return graph_; }

  /// Shortest-widest link-state database over the residual graph.
  const graph::AllPairsShortestWidest& routing() const { return *routing_; }

  /// Number of admissions applied to this view.
  std::uint64_t generation() const noexcept { return admitted_.size(); }
  const std::vector<AdmittedFlow>& admitted() const noexcept { return admitted_; }

  /// Rate already granted on overlay link (from, to) / its residual capacity
  /// (base bandwidth minus consumption, clamped at zero).
  double overlay_consumed(OverlayIndex from, OverlayIndex to) const;
  double overlay_residual(OverlayIndex from, OverlayIndex to) const;

  /// Same ledger for directed physical links.  Capacity lives in the
  /// network, so the residual query takes it as a parameter (the view does
  /// not tie itself to the network's lifetime).
  double underlay_consumed(net::Nid from, net::Nid to) const;
  double underlay_residual(net::Nid from, net::Nid to,
                           const net::UnderlyingNetwork& network) const;

  /// The largest rate `flow` could be granted given current *physical*
  /// consumption: the minimum residual over the distinct underlay links its
  /// overlay hops route across (+infinity when it crosses none).  Overlay
  /// headroom needs no such query — a flow solved on the residual graph has
  /// bottleneck <= residual on every overlay link it uses by construction.
  double underlay_headroom(const ServiceFlowGraph& flow,
                           const net::UnderlayRouting& routing,
                           const net::UnderlyingNetwork& network) const;

  /// Admits `flow` at `rate`: charges `rate` against every distinct overlay
  /// link the flow traverses and, when `routing` is given, every distinct
  /// underlay link beneath its overlay hops; then rematerializes the
  /// residual graph and retargets the routing database (cloning it first
  /// when shared — see the file comment).  Throws std::invalid_argument on
  /// a non-positive rate or an invalid view.
  void admit(const ServiceFlowGraph& flow, double rate,
             const net::UnderlayRouting* routing = nullptr);

  /// No-op kept only for the frozen sflowbench replica; repair is always lazy.
  void set_routing_repair_mode(graph::AllPairsShortestWidest::RepairMode) {}

 private:
  void rebuild(
      const std::vector<std::pair<OverlayIndex, OverlayIndex>>& changed_links);

  std::shared_ptr<const OverlayGraph> base_;
  std::shared_ptr<const OverlayGraph> graph_;
  /// Non-const so the sole owner can retarget it; exposed const-only.
  /// Shared between copied views until one of them admits.
  std::shared_ptr<graph::AllPairsShortestWidest> routing_;
  /// Consumption ledgers, keyed by the packed (from, to) pair.
  std::unordered_map<std::uint64_t, double> overlay_used_;
  std::unordered_map<std::uint64_t, double> underlay_used_;
  std::vector<AdmittedFlow> admitted_;
};

/// The distinct directed overlay links `flow` traverses, in first-traversal
/// order (deterministic).  Shared by the admission ledger and the
/// conservation oracle so the two can never drift on what "traverses" means.
std::vector<std::pair<OverlayIndex, OverlayIndex>> distinct_overlay_links(
    const ServiceFlowGraph& flow);

/// The distinct directed underlay links beneath `flow`'s overlay hops
/// (lowest-latency routes), in first-traversal order.  `overlay` maps
/// instances to their hosts.  Throws std::invalid_argument when a hop is
/// unroutable.
std::vector<std::pair<net::Nid, net::Nid>> distinct_underlay_links(
    const ServiceFlowGraph& flow, const OverlayGraph& overlay,
    const net::UnderlayRouting& routing);

}  // namespace sflow::overlay
