#include "core/sflow_node.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/baseline.hpp"
#include "graph/dag.hpp"
#include "obs/metrics.hpp"

namespace sflow::core {

using overlay::OverlayGraph;
using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::ServiceRequirement;
using overlay::Sid;

namespace {

/// Best instance of `sid` by global shortest-widest quality from `self`
/// (the link-state fallback).  kInvalidNode when none is reachable.
OverlayIndex best_global_instance(const OverlayGraph& overlay,
                                  const graph::AllPairsShortestWidest& routing,
                                  OverlayIndex self, Sid sid) {
  OverlayIndex best = graph::kInvalidNode;
  graph::PathQuality best_quality = graph::PathQuality::unreachable();
  for (const OverlayIndex c : overlay.instances_of(sid)) {
    const graph::PathQuality& q = routing.quality(self, c);
    if (q.is_unreachable()) continue;
    if (best == graph::kInvalidNode || q.better_than(best_quality)) {
      best = c;
      best_quality = q;
    }
  }
  return best;
}

}  // namespace

LocalDecision sflow_local_compute(const OverlayGraph& overlay,
                                  const graph::AllPairsShortestWidest& global_routing,
                                  OverlayIndex self,
                                  const ServiceRequirement& original,
                                  const std::map<Sid, net::Nid>& pins,
                                  const SFlowNodeConfig& config) {
  static obs::Counter& view_cuts = obs::Registry::global().counter(
      "federation_local_view_cuts_total",
      "local computations that cut a partial view and built its database");
  if (global_routing.graph().node_count() != overlay.instance_count())
    throw std::invalid_argument(
        "sflow_local_compute: routing database does not match the overlay");
  LocalDecision decision;
  const Sid self_sid = overlay.instance(self).sid;
  const net::Nid self_nid = overlay.instance(self).nid;

  // Requirement rooted at this node's service, with accumulated pins.
  ServiceRequirement rooted = original.subrequirement_from(self_sid);
  for (const auto& [sid, nid] : pins)
    if (rooted.contains(sid)) rooted.pin(sid, nid);
  rooted.pin(self_sid, self_nid);

  const std::vector<Sid> downstream = rooted.downstream(self_sid);
  if (downstream.empty()) return decision;  // sink: nothing to extend

  // Local view: supplied (e.g. assembled by the link-state protocol), cut
  // from the overlay as the radius-hop neighbourhood, or — when that
  // neighbourhood is every instance — the overlay itself with the shared
  // database.  The full cut would reproduce the overlay's instances and links
  // in order, so its fresh database would answer bit-identically.
  std::optional<OverlayGraph> cut;
  if (config.view_provider) {
    cut = config.view_provider(self);
    if (!cut->instance_at(self_nid))
      throw std::invalid_argument(
          "sflow_local_compute: provided view does not contain this node");
  } else if (config.knowledge_radius >= 0) {
    const std::vector<OverlayIndex> view_nodes =
        graph::neighborhood(overlay.graph(), self, config.knowledge_radius);
    if (view_nodes.size() < overlay.instance_count())
      cut = overlay.induced(view_nodes);
  }
  std::optional<graph::AllPairsShortestWidest> cut_routing;
  if (cut) {
    view_cuts.increment();
    cut_routing.emplace(cut->graph());
  }
  const OverlayGraph& local = cut ? *cut : overlay;
  const graph::AllPairsShortestWidest& local_routing =
      cut ? *cut_routing : global_routing;

  // Services visible in the local view (pins narrow visibility to the pinned
  // instance).
  const auto visible = [&](Sid sid) {
    return !candidate_instances(local, rooted, sid).empty();
  };

  // Local sub-requirement: visible services reachable from self.
  std::set<Sid> visible_set;
  for (const Sid sid : rooted.services())
    if (visible(sid)) visible_set.insert(sid);
  ServiceRequirement local_req;
  {
    ServiceRequirement induced;
    for (const Sid sid : rooted.services())
      if (visible_set.contains(sid)) induced.add_service(sid);
    for (const graph::Edge& e : rooted.dag().edges()) {
      const Sid from = rooted.sid_of(e.from);
      const Sid to = rooted.sid_of(e.to);
      if (visible_set.contains(from) && visible_set.contains(to))
        induced.add_edge(from, to);
    }
    for (const auto& [sid, nid] : rooted.pins())
      if (induced.contains(sid)) induced.pin(sid, nid);
    local_req = induced.subrequirement_from(self_sid);
  }

  // Locally optimal partial flow graph over the local view (LOCAL indices).
  std::optional<ServiceFlowGraph> local_solution;
  if (local_req.service_count() >= 1 && local_req.is_valid()) {
    const RequirementSolver solver(local, local_routing, config.solver);
    local_solution = solver.solve(local_req, &decision.solver_trace);
  }

  // Maps a local solution assignment back to a global instance.
  const auto local_assignment = [&](Sid sid) -> OverlayIndex {
    if (!local_solution) return graph::kInvalidNode;
    const auto inst = local_solution->assignment(sid);
    if (!inst) return graph::kInvalidNode;
    const auto global = overlay.instance_at(local.instance(*inst).nid);
    return global ? *global : graph::kInvalidNode;
  };

  // Chooses (and records) the instance for a service this node must decide.
  const auto decide = [&](Sid sid) -> OverlayIndex {
    if (const auto pin = rooted.pinned(sid)) {
      const auto inst = overlay.instance_at(*pin);
      if (!inst || overlay.instance(*inst).sid != sid)
        throw std::logic_error("sflow_local_compute: dangling pin");
      return *inst;
    }
    OverlayIndex choice = local_assignment(sid);
    if (choice == graph::kInvalidNode) {
      choice = best_global_instance(overlay, global_routing, self, sid);
      ++decision.global_fallbacks;
    }
    if (choice == graph::kInvalidNode) {
      // No reachable instance even with full link-state knowledge: the
      // federation is infeasible from this node.  Flag it instead of
      // throwing — an exception escaping mid-protocol would tear down the
      // whole simulation rather than failing this federation.
      decision.infeasible = true;
      return graph::kInvalidNode;
    }
    decision.new_pins[sid] = overlay.instance(choice).nid;
    rooted.pin(sid, overlay.instance(choice).nid);
    return choice;
  };

  // (a) Immediate downstream services.
  std::map<Sid, OverlayIndex> chosen;
  for (const Sid d : downstream) {
    chosen[d] = decide(d);
    if (decision.infeasible) return decision;
  }

  // (b) Forced merge pins: any unpinned service reachable from >= 2 of this
  // node's branches must be fixed here, or the branches would diverge.
  if (downstream.size() >= 2) {
    std::map<Sid, std::size_t> branch_hits;
    for (const Sid d : downstream) {
      const auto reach = graph::reachable_from(rooted.dag(), rooted.index_of(d));
      for (std::size_t v = 0; v < reach.size(); ++v)
        if (reach[v]) ++branch_hits[rooted.sid_of(static_cast<graph::NodeIndex>(v))];
    }
    for (const auto& [sid, hits] : branch_hits) {
      if (hits < 2 || rooted.pinned(sid)) continue;
      decide(sid);
      if (decision.infeasible) return decision;
    }
  }

  // Realize the edges self -> chosen(d), preferring local-view paths.
  for (const Sid d : downstream) {
    const OverlayIndex target = chosen.at(d);
    std::vector<OverlayIndex> path;
    graph::PathQuality quality = graph::PathQuality::unreachable();

    const auto local_target = local.instance_at(overlay.instance(target).nid);
    const auto local_self = local.instance_at(self_nid);
    if (local_target && local_self) {
      // View, not copy: the hops are remapped into `path` element-wise.
      const graph::RoutingTree::PathView local_path =
          local_routing.path_view(*local_self, *local_target);
      if (!local_path.empty()) {
        for (const OverlayIndex lv : local_path) {
          const auto global = overlay.instance_at(local.instance(lv).nid);
          path.push_back(*global);
        }
        quality = local_routing.quality(*local_self, *local_target);
      }
    }
    if (path.empty()) {
      const auto global_path = global_routing.path(self, target);
      if (!global_path) {
        // The chosen instance was reachable when decided but no concrete
        // path materializes (possible when the choice came from a pin on a
        // node this instance cannot reach).  Same contract as decide():
        // fail the branch, never throw mid-protocol.
        decision.infeasible = true;
        return decision;
      }
      path = *global_path;
      quality = global_routing.quality(self, target);
      ++decision.global_fallbacks;
    }
    decision.new_edges.push_back(overlay::FlowEdge{self_sid, d, path, quality});
    decision.forward.emplace_back(d, target);
  }

  return decision;
}

}  // namespace sflow::core
