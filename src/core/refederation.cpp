#include "core/refederation.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace sflow::core {

using overlay::OverlayGraph;
using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::ServiceRequirement;
using overlay::Sid;

OverlayGraph apply_churn(const OverlayGraph& overlay, const ChurnParams& params,
                         util::Rng& rng, ChurnReport* report,
                         const std::vector<net::Nid>& protected_nids) {
  if (params.link_churn_fraction < 0.0 || params.link_churn_fraction > 1.0 ||
      params.instance_failure_probability < 0.0 ||
      params.instance_failure_probability > 1.0)
    throw std::invalid_argument("apply_churn: fractions must be within [0, 1]");

  ChurnReport local_report;
  ChurnReport& out = report != nullptr ? *report : local_report;
  out = ChurnReport{};

  const std::set<net::Nid> protected_set(protected_nids.begin(),
                                         protected_nids.end());

  // Survivors keep their NIDs; overlay indices are re-assigned.
  std::vector<bool> survives(overlay.instance_count(), true);
  for (std::size_t v = 0; v < overlay.instance_count(); ++v) {
    const net::Nid nid = overlay.instance(static_cast<OverlayIndex>(v)).nid;
    if (protected_set.contains(nid)) continue;
    if (rng.chance(params.instance_failure_probability)) {
      survives[v] = false;
      out.failed_instances.push_back(nid);
    }
  }

  OverlayGraph result;
  std::vector<OverlayIndex> remap(overlay.instance_count(), graph::kInvalidNode);
  for (std::size_t v = 0; v < overlay.instance_count(); ++v) {
    if (!survives[v]) continue;
    const overlay::ServiceInstance& inst =
        overlay.instance(static_cast<OverlayIndex>(v));
    remap[v] = result.add_instance(inst.sid, inst.nid);
  }

  for (const graph::Edge& e : overlay.graph().edges()) {
    if (!survives[static_cast<std::size_t>(e.from)] ||
        !survives[static_cast<std::size_t>(e.to)])
      continue;
    graph::LinkMetrics metrics = e.metrics;
    if (rng.chance(params.link_churn_fraction)) {
      ++out.links_rewritten;
      const double bw_scale = rng.uniform_real(1.0 - params.bandwidth_jitter,
                                               1.0 + params.bandwidth_jitter);
      const double lat_scale = rng.uniform_real(1.0, 1.0 + params.latency_jitter);
      metrics.bandwidth = std::max(0.1, metrics.bandwidth * bw_scale);
      metrics.latency = metrics.latency * lat_scale;
    }
    result.add_link(remap[static_cast<std::size_t>(e.from)],
                    remap[static_cast<std::size_t>(e.to)], metrics);
  }
  return result;
}

namespace {

/// Re-resolves an old-overlay path (by NID) in the new overlay; empty when
/// any node vanished or changed service.
std::vector<OverlayIndex> remap_path(const OverlayGraph& old_overlay,
                                     const OverlayGraph& new_overlay,
                                     const std::vector<OverlayIndex>& old_path) {
  std::vector<OverlayIndex> path;
  path.reserve(old_path.size());
  for (const OverlayIndex old_index : old_path) {
    const overlay::ServiceInstance& inst = old_overlay.instance(old_index);
    const auto mapped = new_overlay.instance_at(inst.nid);
    if (!mapped || new_overlay.instance(*mapped).sid != inst.sid) return {};
    path.push_back(*mapped);
  }
  return path;
}

}  // namespace

std::vector<EdgeViolation> diagnose_flow(const OverlayGraph& old_overlay,
                                         const OverlayGraph& new_overlay,
                                         const ServiceRequirement& requirement,
                                         const ServiceFlowGraph& flow,
                                         double degrade_threshold) {
  if (degrade_threshold < 0.0 || degrade_threshold > 1.0)
    throw std::invalid_argument("diagnose_flow: threshold must be within [0, 1]");
  std::vector<EdgeViolation> violations;
  for (const graph::Edge& e : requirement.dag().edges()) {
    const Sid from = requirement.sid_of(e.from);
    const Sid to = requirement.sid_of(e.to);
    const overlay::FlowEdge* fe = flow.find_edge(from, to);
    if (fe == nullptr)
      throw std::invalid_argument("diagnose_flow: flow graph incomplete");

    EdgeViolation violation;
    violation.from = from;
    violation.to = to;
    violation.promised = fe->quality;

    const std::vector<OverlayIndex> path =
        remap_path(old_overlay, new_overlay, fe->overlay_path);
    const graph::PathQuality observed =
        path.empty() ? graph::PathQuality::unreachable()
                     : graph::path_quality(new_overlay.graph(), path);
    violation.observed = observed;
    if (observed.is_unreachable()) {
      violation.kind = EdgeViolation::Kind::kBroken;
      violations.push_back(violation);
    } else if (observed.bandwidth < degrade_threshold * fe->quality.bandwidth) {
      violation.kind = EdgeViolation::Kind::kDegraded;
      violations.push_back(violation);
    }
  }
  return violations;
}

RefederationResult refederate(const OverlayGraph& old_overlay,
                              const OverlayGraph& new_overlay,
                              const graph::AllPairsShortestWidest& new_routing,
                              const ServiceRequirement& requirement,
                              const ServiceFlowGraph& old_flow,
                              double degrade_threshold) {
  requirement.validate();
  RefederationResult result;

  const std::vector<EdgeViolation> violations = diagnose_flow(
      old_overlay, new_overlay, requirement, old_flow, degrade_threshold);
  result.violations = violations.size();

  // Services touched by a violation, or whose instance is gone, must be
  // re-decided; everyone else keeps their seat.
  std::set<Sid> affected;
  for (const EdgeViolation& violation : violations) {
    affected.insert(violation.from);
    affected.insert(violation.to);
  }
  for (const Sid sid : requirement.services()) {
    const auto old_assignment = old_flow.assignment(sid);
    if (!old_assignment) {
      affected.insert(sid);
      continue;
    }
    const overlay::ServiceInstance& inst = old_overlay.instance(*old_assignment);
    const auto mapped = new_overlay.instance_at(inst.nid);
    if (!mapped || new_overlay.instance(*mapped).sid != sid) affected.insert(sid);
  }

  ServiceRequirement pinned = requirement;
  for (const Sid sid : requirement.services()) {
    if (affected.contains(sid)) continue;
    // Keep the consumer's own pins authoritative; add ours elsewhere.
    if (!pinned.pinned(sid)) {
      const overlay::ServiceInstance& inst =
          old_overlay.instance(*old_flow.assignment(sid));
      pinned.pin(sid, inst.nid);
    }
    ++result.services_kept;
  }
  result.services_resolved = requirement.service_count() - result.services_kept;

  const RequirementSolver solver(new_overlay, new_routing);
  result.graph = solver.solve(pinned);
  if (!result.graph && result.services_kept > 0) {
    // The damaged region may be unsolvable under the kept pins (e.g. a kept
    // instance lost all usable links to the re-decided region).  Retry from
    // scratch, keeping only the consumer's own pins.
    result.services_kept = 0;
    result.services_resolved = requirement.service_count();
    result.graph = solver.solve(requirement);
  }
  return result;
}

RetargetedRouting retarget_routing(
    const graph::AllPairsShortestWidest& warm,
    const overlay::OverlayGraph& warm_overlay,
    const overlay::OverlayGraph& target) {
  RetargetedRouting result;

  // Overlay indices are only comparable across the two overlays when every
  // index hosts the same (sid, nid) — exactly the link-only-churn case.
  // Failed instances re-number everything after them; a diff of link events
  // would relate unrelated endpoints, so build fresh instead.
  bool roster_unchanged =
      warm_overlay.instance_count() == target.instance_count() &&
      warm.node_count() == warm_overlay.instance_count();
  if (roster_unchanged) {
    for (std::size_t v = 0; v < target.instance_count(); ++v) {
      const overlay::ServiceInstance& a =
          warm_overlay.instance(static_cast<overlay::OverlayIndex>(v));
      const overlay::ServiceInstance& b =
          target.instance(static_cast<overlay::OverlayIndex>(v));
      if (a.sid != b.sid || a.nid != b.nid) {
        roster_unchanged = false;
        break;
      }
    }
  }

  if (!roster_unchanged) {
    result.routing =
        std::make_unique<graph::AllPairsShortestWidest>(target.graph());
    obs::Registry::global()
        .counter("routing_full_rebuilds_total",
                 "routing database rebuilds forced by a roster change")
        .increment();
    return result;
  }

  result.routing = warm.clone();
  result.diff = graph::apply_graph_diff(*result.routing, target.graph());
  result.incremental = true;
  return result;
}

}  // namespace sflow::core
