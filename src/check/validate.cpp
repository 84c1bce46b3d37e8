#include "check/validate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace sflow::check {

using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::ServiceRequirement;
using overlay::Sid;

namespace {

void add(std::vector<Violation>& out, std::string code, std::string detail) {
  out.push_back(Violation{std::move(code), std::move(detail)});
}

std::string sid_label(Sid sid) { return "S" + std::to_string(sid); }

/// Re-measures an overlay path hop by hop: bottleneck = min link bandwidth,
/// latency accumulated front to back (the same association order the routing
/// kernels use, so exact agreement is well-defined).  Reports structural
/// problems (out-of-range node, missing link, NaN/negative metrics) as
/// violations and returns nullopt when the path cannot be measured.
std::optional<graph::PathQuality> remeasure_path(
    const overlay::OverlayGraph& overlay, const std::vector<OverlayIndex>& path,
    const std::string& edge_label, std::vector<Violation>& out) {
  const graph::Digraph& g = overlay.graph();
  for (const OverlayIndex v : path) {
    if (!g.has_node(v)) {
      add(out, "bad-instance",
          edge_label + ": path node " + std::to_string(v) + " out of range");
      return std::nullopt;
    }
  }
  graph::PathQuality quality = graph::PathQuality::source();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const graph::EdgeIndex e = g.find_edge(path[i], path[i + 1]);
    if (e == graph::kInvalidEdge) {
      std::ostringstream os;
      os << edge_label << ": no overlay link " << path[i] << " -> " << path[i + 1];
      add(out, "missing-link", os.str());
      return std::nullopt;
    }
    const graph::LinkMetrics& m = g.edge(e).metrics;
    if (std::isnan(m.bandwidth) || std::isnan(m.latency) || m.bandwidth < 0.0 ||
        m.latency < 0.0) {
      std::ostringstream os;
      os << edge_label << ": link " << path[i] << " -> " << path[i + 1]
         << " has bad metrics (bw=" << m.bandwidth << ", lat=" << m.latency << ")";
      add(out, "bad-metric", os.str());
      return std::nullopt;
    }
    quality.bandwidth = std::min(quality.bandwidth, m.bandwidth);
    quality.latency = quality.latency + m.latency;
  }
  return quality;
}

}  // namespace

bool ValidationReport::has(const std::string& code) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.code == code; });
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const Violation& v : violations) os << v.code << ": " << v.detail << "\n";
  return os.str();
}

ValidationReport validate_flow_graph(const overlay::OverlayGraph& overlay,
                                     const ServiceRequirement& requirement,
                                     const ServiceFlowGraph& graph) {
  ValidationReport report;
  std::vector<Violation>& out = report.violations;

  if (!requirement.is_valid()) {
    add(out, "invalid-requirement",
        "requirement fails its own structural validation");
    return report;
  }

  // Assignment completeness, SID compatibility, and pin adherence.
  for (const Sid sid : requirement.services()) {
    const auto instance = graph.assignment(sid);
    if (!instance) {
      add(out, "unassigned-service", sid_label(sid) + " has no chosen instance");
      continue;
    }
    if (!overlay.graph().has_node(*instance)) {
      add(out, "bad-instance",
          sid_label(sid) + " assigned to out-of-range instance " +
              std::to_string(*instance));
      continue;
    }
    const overlay::ServiceInstance& inst = overlay.instance(*instance);
    if (inst.sid != sid) {
      add(out, "sid-mismatch",
          sid_label(sid) + " assigned to instance " + std::to_string(*instance) +
              " which hosts " + sid_label(inst.sid));
    }
    if (const auto pin = requirement.pinned(sid); pin && inst.nid != *pin) {
      std::ostringstream os;
      os << sid_label(sid) << " pinned to node " << *pin
         << " but assigned instance sits at node " << inst.nid;
      add(out, "pin-violated", os.str());
    }
  }
  for (const auto& [sid, instance] : graph.assignments()) {
    if (!requirement.contains(sid)) {
      add(out, "extra-assignment",
          sid_label(sid) + " assigned (instance " + std::to_string(instance) +
              ") but not required");
    }
  }

  // Every requirement edge realized as a real overlay path with exact quality.
  std::set<std::pair<Sid, Sid>> required_edges;
  for (const graph::Edge& e : requirement.dag().edges()) {
    const Sid from = requirement.sid_of(e.from);
    const Sid to = requirement.sid_of(e.to);
    required_edges.emplace(from, to);
    const std::string edge_label = sid_label(from) + "->" + sid_label(to);

    const overlay::FlowEdge* fe = graph.find_edge(from, to);
    if (fe == nullptr) {
      add(out, "unrealized-edge", edge_label + " has no realized overlay path");
      continue;
    }
    if (fe->overlay_path.empty()) {
      add(out, "empty-path", edge_label + " realized by an empty path");
      continue;
    }
    const auto from_instance = graph.assignment(from);
    const auto to_instance = graph.assignment(to);
    if ((from_instance && fe->overlay_path.front() != *from_instance) ||
        (to_instance && fe->overlay_path.back() != *to_instance)) {
      add(out, "endpoint-mismatch",
          edge_label + " path endpoints disagree with the assignments");
    }
    if (std::isnan(fe->quality.bandwidth) || std::isnan(fe->quality.latency)) {
      add(out, "nan-quality", edge_label + " stores a NaN quality");
      continue;
    }
    const auto measured =
        remeasure_path(overlay, fe->overlay_path, edge_label, out);
    if (!measured) continue;
    if (measured->bandwidth != fe->quality.bandwidth ||
        measured->latency != fe->quality.latency) {
      std::ostringstream os;
      os << edge_label << " stored quality (bw=" << fe->quality.bandwidth
         << ", lat=" << fe->quality.latency << ") != re-measured (bw="
         << measured->bandwidth << ", lat=" << measured->latency << ")";
      add(out, "edge-quality-mismatch", os.str());
    }
  }
  for (const overlay::FlowEdge& fe : graph.edges()) {
    if (!required_edges.contains({fe.from_sid, fe.to_sid})) {
      add(out, "extra-edge",
          sid_label(fe.from_sid) + "->" + sid_label(fe.to_sid) +
              " realized but not part of the requirement");
    }
  }
  return report;
}

double critical_path_latency(
    const ServiceRequirement& requirement,
    const std::vector<std::pair<std::pair<Sid, Sid>, double>>& edge_latencies) {
  // Independent longest-path DP: Kahn topological order over the requirement
  // DAG, dist[v] = max over predecessors of dist[u] + latency(u, v).  The
  // per-path sums accumulate front to back, matching how the flow graph's
  // own critical-path computation associates additions, so exact comparison
  // is meaningful.
  const std::size_t n = requirement.service_count();
  const auto latency_of = [&](Sid from, Sid to) {
    for (const auto& [key, latency] : edge_latencies)
      if (key.first == from && key.second == to) return latency;
    return std::numeric_limits<double>::quiet_NaN();
  };

  std::vector<std::size_t> in_degree(n, 0);
  for (const graph::Edge& e : requirement.dag().edges())
    ++in_degree[static_cast<std::size_t>(e.to)];

  std::vector<graph::NodeIndex> frontier;
  for (std::size_t v = 0; v < n; ++v)
    if (in_degree[v] == 0) frontier.push_back(static_cast<graph::NodeIndex>(v));

  std::vector<double> dist(n, 0.0);
  double best = 0.0;
  while (!frontier.empty()) {
    const graph::NodeIndex u = frontier.back();
    frontier.pop_back();
    // Not std::max: max(best, NaN) would silently drop a NaN distance, and a
    // missing edge latency must surface as a NaN critical path.
    const double d = dist[static_cast<std::size_t>(u)];
    if (std::isnan(d) || std::isnan(best))
      best = std::numeric_limits<double>::quiet_NaN();
    else
      best = std::max(best, d);
    for (const graph::EdgeIndex ei : requirement.dag().out_edges(u)) {
      const graph::Edge& e = requirement.dag().edge(ei);
      const double w =
          latency_of(requirement.sid_of(e.from), requirement.sid_of(e.to));
      const double candidate = dist[static_cast<std::size_t>(u)] + w;
      auto& slot = dist[static_cast<std::size_t>(e.to)];
      if (!(candidate <= slot)) slot = candidate;  // NaN propagates upward
      if (--in_degree[static_cast<std::size_t>(e.to)] == 0)
        frontier.push_back(e.to);
    }
  }
  return best;
}

namespace {

/// Absolute-plus-relative slack for comparisons involving summed rates; the
/// per-flow math is exact but a sum of K doubles is not.
double conservation_tolerance(double scale) {
  return 1e-9 * std::max(1.0, std::abs(scale));
}

}  // namespace

ValidationReport validate_conservation(
    const overlay::OverlayGraph& base_overlay,
    const net::UnderlyingNetwork& underlay, const net::UnderlayRouting* routing,
    const std::vector<overlay::AdmittedFlow>& admitted) {
  ValidationReport report;
  std::vector<Violation>& out = report.violations;

  // Deliberately independent of the ResidualOverlay ledgers: consumption is
  // re-accumulated here from the flow graphs via the shared distinct-link
  // walks, then compared against *base* capacities.
  std::map<std::pair<OverlayIndex, OverlayIndex>, double> overlay_sum;
  std::map<std::pair<net::Nid, net::Nid>, double> underlay_sum;

  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const overlay::AdmittedFlow& a = admitted[i];
    const std::string label = "admitted[" + std::to_string(i) + "]";
    if (!(a.rate > 0.0)) {
      std::ostringstream os;
      os << label << " granted non-positive rate " << a.rate;
      add(out, "rate-nonpositive", os.str());
      continue;
    }
    const auto links = overlay::distinct_overlay_links(a.flow);
    double bottleneck = std::numeric_limits<double>::infinity();
    for (const auto& [from, to] : links) {
      const graph::EdgeIndex e = base_overlay.graph().find_edge(from, to);
      if (e == graph::kInvalidEdge) {
        std::ostringstream os;
        os << label << ": no overlay link " << from << " -> " << to;
        add(out, "missing-link", os.str());
        continue;
      }
      bottleneck =
          std::min(bottleneck, base_overlay.graph().edge(e).metrics.bandwidth);
      overlay_sum[{from, to}] += a.rate;
    }
    if (a.rate > bottleneck + conservation_tolerance(bottleneck)) {
      std::ostringstream os;
      os << label << " granted " << a.rate
         << " above its base-overlay bottleneck " << bottleneck;
      add(out, "rate-above-bottleneck", os.str());
    }
    if (routing != nullptr) {
      for (const auto& [from, to] :
           overlay::distinct_underlay_links(a.flow, base_overlay, *routing))
        underlay_sum[{from, to}] += a.rate;
    }
  }

  for (const auto& [link, sum] : overlay_sum) {
    const graph::EdgeIndex e =
        base_overlay.graph().find_edge(link.first, link.second);
    if (e == graph::kInvalidEdge) continue;  // reported above
    const double capacity = base_overlay.graph().edge(e).metrics.bandwidth;
    if (sum > capacity + conservation_tolerance(capacity)) {
      std::ostringstream os;
      os << "overlay link " << link.first << " -> " << link.second
         << " oversubscribed: granted " << sum << " of " << capacity;
      add(out, "conservation-overlay", os.str());
    }
  }
  for (const auto& [link, sum] : underlay_sum) {
    if (!underlay.has_link(link.first, link.second)) {
      std::ostringstream os;
      os << "underlay link " << link.first << " -> " << link.second
         << " charged but absent from the network";
      add(out, "conservation-underlay", os.str());
      continue;
    }
    const double capacity =
        underlay.link_metrics(link.first, link.second).bandwidth;
    if (sum > capacity + conservation_tolerance(capacity)) {
      std::ostringstream os;
      os << "underlay link " << link.first << " -> " << link.second
         << " oversubscribed: granted " << sum << " of " << capacity;
      add(out, "conservation-underlay", os.str());
    }
  }
  return report;
}

ValidationReport validate_admission_sequence(
    const core::Scenario& scenario,
    const std::vector<ServiceRequirement>& requests,
    const core::AdmissionResult& result, const core::AdmissionConfig& config) {
  ValidationReport report;
  std::vector<Violation>& out = report.violations;

  // The decisions must be a permutation of the batch.
  std::vector<std::size_t> seen(requests.size(), 0);
  bool order_ok = result.decisions.size() == requests.size();
  for (const core::AdmissionDecision& d : result.decisions) {
    if (d.request_index >= requests.size() || ++seen[d.request_index] > 1)
      order_ok = false;
  }
  if (!order_ok) {
    add(out, "admission-order",
        "decisions are not a permutation of the request batch");
    return report;
  }

  const net::UnderlayRouting* routing = scenario.routing.get();

  // Replay each decision against the residual state at its decision time.
  overlay::ResidualOverlay view = scenario.view;
  for (const core::AdmissionDecision& d : result.decisions) {
    const std::string label = "request " + std::to_string(d.request_index);
    if (!d.admitted) {
      if (d.rate != 0.0) {
        std::ostringstream os;
        os << label << " rejected but carries rate " << d.rate;
        add(out, "admission-rejected-rate", os.str());
      }
      continue;
    }
    if (!d.outcome.success) {
      add(out, "admission-rate", label + " admitted without a successful outcome");
      continue;
    }
    // Structural + exact-quality validation on the overlay the request was
    // actually solved against (the residual graph at this generation).
    ValidationReport structural = validate_flow_graph(
        view.graph(), requests[d.request_index], d.outcome);
    for (Violation v : structural.violations) {
      v.detail = label + ": " + v.detail;
      out.push_back(std::move(v));
    }
    if (d.rate > d.outcome.bandwidth + conservation_tolerance(d.outcome.bandwidth)) {
      std::ostringstream os;
      os << label << " granted " << d.rate << " above its solved bandwidth "
         << d.outcome.bandwidth;
      add(out, "admission-rate", os.str());
    }
    if (routing != nullptr) {
      const double headroom =
          view.underlay_headroom(d.outcome.graph, *routing, scenario.underlay);
      if (d.rate > headroom + conservation_tolerance(headroom)) {
        std::ostringstream os;
        os << label << " granted " << d.rate << " above physical headroom "
           << headroom;
        add(out, "admission-rate", os.str());
      }
    }
    if (d.rate < config.bandwidth_floor) {
      std::ostringstream os;
      os << label << " admitted at rate " << d.rate
         << " below the configured floor " << config.bandwidth_floor;
      add(out, "admission-floor", os.str());
    }
    if (d.rate > 0.0) view.admit(d.outcome.graph, d.rate, routing);
  }

  if (!(view.admitted() == result.view.admitted())) {
    add(out, "admission-view-mismatch",
        "replayed admitted set disagrees with the result's view");
  }

  ValidationReport conservation = validate_conservation(
      view.base(), scenario.underlay, routing, result.view.admitted());
  out.insert(out.end(), conservation.violations.begin(),
             conservation.violations.end());
  return report;
}

ValidationReport validate_flow_graph(const overlay::OverlayGraph& overlay,
                                     const ServiceRequirement& requirement,
                                     const core::FederationOutcome& outcome) {
  ValidationReport report;
  if (!outcome.success) return report;  // failure reports nothing to validate
  std::vector<Violation>& out = report.violations;

  const ServiceRequirement& effective = outcome.effective_requirement;
  if (!effective.is_valid()) {
    add(out, "effective-invalid",
        "outcome's effective requirement fails validation");
    return report;
  }
  // The effective requirement may restructure the DAG (the service-path
  // algorithm serializes it into a chain) but must cover exactly the same
  // services and keep every pin of the original requirement.
  const auto service_set = [](const ServiceRequirement& r) {
    return std::set<Sid>(r.services().begin(), r.services().end());
  };
  if (service_set(effective) != service_set(requirement)) {
    add(out, "effective-service-set",
        "effective requirement covers a different service set than the "
        "scenario requirement");
  }
  for (const auto& [sid, nid] : requirement.pins()) {
    const auto kept = effective.pinned(sid);
    if (!kept || *kept != nid) {
      std::ostringstream os;
      os << "pin " << sid_label(sid) << "@" << nid
         << " missing from the effective requirement";
      add(out, "effective-pin-dropped", os.str());
    }
  }

  ValidationReport structural = validate_flow_graph(overlay, effective, outcome.graph);
  out.insert(out.end(), structural.violations.begin(), structural.violations.end());
  if (!structural.ok()) return report;  // quality recheck needs a sound graph

  // Re-derive the end-to-end quality from re-measured edges and demand exact
  // agreement with the outcome's self-reported numbers.
  double bottleneck = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::pair<Sid, Sid>, double>> latencies;
  for (const overlay::FlowEdge& fe : outcome.graph.edges()) {
    std::vector<Violation> scratch;
    const auto measured = remeasure_path(
        overlay, fe.overlay_path,
        sid_label(fe.from_sid) + "->" + sid_label(fe.to_sid), scratch);
    if (!measured) continue;  // already reported structurally
    bottleneck = std::min(bottleneck, measured->bandwidth);
    latencies.push_back({{fe.from_sid, fe.to_sid}, measured->latency});
  }
  if (bottleneck != outcome.bandwidth) {
    std::ostringstream os;
    os << "self-reported bandwidth " << outcome.bandwidth
       << " != re-derived bottleneck " << bottleneck;
    add(out, "bandwidth-mismatch", os.str());
  }
  const double latency = critical_path_latency(effective, latencies);
  if (latency != outcome.latency) {
    std::ostringstream os;
    os << "self-reported latency " << outcome.latency
       << " != re-derived critical path " << latency;
    add(out, "latency-mismatch", os.str());
  }
  return report;
}

}  // namespace sflow::check
