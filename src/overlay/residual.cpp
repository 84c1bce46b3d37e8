#include "overlay/residual.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace sflow::overlay {

namespace {

/// Packed directed-pair key, same layout as Digraph's edge index.
std::uint64_t pair_key(std::int64_t from, std::int64_t to) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

double ledger_get(const std::unordered_map<std::uint64_t, double>& ledger,
                  std::uint64_t key) {
  const auto it = ledger.find(key);
  return it == ledger.end() ? 0.0 : it->second;
}

}  // namespace

std::vector<std::pair<OverlayIndex, OverlayIndex>> distinct_overlay_links(
    const ServiceFlowGraph& flow) {
  std::vector<std::pair<OverlayIndex, OverlayIndex>> links;
  std::unordered_set<std::uint64_t> seen;
  for (const FlowEdge& edge : flow.edges()) {
    for (std::size_t i = 0; i + 1 < edge.overlay_path.size(); ++i) {
      const OverlayIndex a = edge.overlay_path[i];
      const OverlayIndex b = edge.overlay_path[i + 1];
      if (seen.insert(pair_key(a, b)).second) links.emplace_back(a, b);
    }
  }
  return links;
}

std::vector<std::pair<net::Nid, net::Nid>> distinct_underlay_links(
    const ServiceFlowGraph& flow, const OverlayGraph& overlay,
    const net::UnderlayRouting& routing) {
  std::vector<std::pair<net::Nid, net::Nid>> links;
  std::unordered_set<std::uint64_t> seen;
  for (const FlowEdge& edge : flow.edges()) {
    for (std::size_t i = 0; i + 1 < edge.overlay_path.size(); ++i) {
      const net::Nid from = overlay.instance(edge.overlay_path[i]).nid;
      const net::Nid to = overlay.instance(edge.overlay_path[i + 1]).nid;
      const graph::RoutingTree::PathView route = routing.route_view(from, to);
      if (route.empty())
        throw std::invalid_argument(
            "distinct_underlay_links: overlay hop unroutable");
      for (std::size_t h = 0; h + 1 < route.size(); ++h)
        if (seen.insert(pair_key(route[h], route[h + 1])).second)
          links.emplace_back(route[h], route[h + 1]);
    }
  }
  return links;
}

ResidualOverlay::ResidualOverlay(std::shared_ptr<const OverlayGraph> base)
    : base_(std::move(base)) {
  if (!base_) throw std::invalid_argument("ResidualOverlay: null base snapshot");
  graph_ = base_;  // generation 0: the residual graph IS the base
  routing_ = std::make_shared<graph::AllPairsShortestWidest>(base_->graph());
}

double ResidualOverlay::overlay_consumed(OverlayIndex from, OverlayIndex to) const {
  return ledger_get(overlay_used_, pair_key(from, to));
}

double ResidualOverlay::overlay_residual(OverlayIndex from, OverlayIndex to) const {
  const graph::EdgeIndex e = base().graph().find_edge(from, to);
  if (e == graph::kInvalidEdge) return 0.0;
  return std::max(0.0, base().graph().edge(e).metrics.bandwidth -
                           overlay_consumed(from, to));
}

double ResidualOverlay::underlay_consumed(net::Nid from, net::Nid to) const {
  return ledger_get(underlay_used_, pair_key(from, to));
}

double ResidualOverlay::underlay_residual(
    net::Nid from, net::Nid to, const net::UnderlyingNetwork& network) const {
  if (!network.has_link(from, to)) return 0.0;
  return std::max(0.0, network.link_metrics(from, to).bandwidth -
                           underlay_consumed(from, to));
}

double ResidualOverlay::underlay_headroom(
    const ServiceFlowGraph& flow, const net::UnderlayRouting& routing,
    const net::UnderlyingNetwork& network) const {
  double headroom = std::numeric_limits<double>::infinity();
  for (const auto& [from, to] : distinct_underlay_links(flow, base(), routing))
    headroom = std::min(headroom, underlay_residual(from, to, network));
  return headroom;
}

void ResidualOverlay::admit(const ServiceFlowGraph& flow, double rate,
                            const net::UnderlayRouting* routing) {
  if (!valid()) throw std::invalid_argument("ResidualOverlay::admit: invalid view");
  if (!(rate > 0.0))
    throw std::invalid_argument("ResidualOverlay::admit: non-positive rate");
  const auto changed_links = distinct_overlay_links(flow);
  for (const auto& [from, to] : changed_links)
    overlay_used_[pair_key(from, to)] += rate;
  if (routing != nullptr)
    for (const auto& [from, to] : distinct_underlay_links(flow, base(), *routing))
      underlay_used_[pair_key(from, to)] += rate;
  admitted_.push_back({flow, rate});
  rebuild(changed_links);
}

void ResidualOverlay::rebuild(
    const std::vector<std::pair<OverlayIndex, OverlayIndex>>& changed_links) {
  // Materialize the residual graph: same instances, surviving links in the
  // base's insertion order (so order-dependent tie-breaks downstream stay
  // deterministic), bandwidths depleted.  A fully consumed link is dropped
  // rather than kept at zero width — it cannot carry any further flow, and
  // dropping it is what makes a saturated branch register as unreachable in
  // the residual routing database instead of as an absurd zero-width path.
  OverlayGraph residual;
  for (const ServiceInstance& instance : base_->instances())
    residual.add_instance(instance.sid, instance.nid);
  for (const graph::Edge& e : base_->graph().edges()) {
    graph::LinkMetrics metrics = e.metrics;
    const auto it = overlay_used_.find(pair_key(e.from, e.to));
    if (it != overlay_used_.end())
      metrics.bandwidth = std::max(0.0, metrics.bandwidth - it->second);
    if (metrics.bandwidth > 0.0) residual.add_link(e.from, e.to, metrics);
  }
  graph_ = std::make_shared<const OverlayGraph>(std::move(residual));

  // Routing database: apply the admission as per-link events — consumption
  // only shrinks capacities, so a charged link either re-weights (still has
  // headroom) or drops (saturated).  The retargeted database answers every
  // query bit-identically to a fresh build over the residual graph (its
  // internal Digraph differs only in edge numbering, which the sweep provably
  // never observes).  A database shared with a copied view must not mutate
  // under its other owner, so this view takes a private clone first — built
  // trees included, so the copy stays warm.
  if (routing_.use_count() > 1) routing_ = routing_->clone();
  for (const auto& [from, to] : changed_links) {
    const graph::EdgeIndex e = routing_->graph().find_edge(from, to);
    if (e == graph::kInvalidEdge) continue;  // saturated by an earlier admit
    const double residual_bw = overlay_residual(from, to);
    if (residual_bw > 0.0) {
      graph::LinkMetrics metrics = routing_->graph().edge(e).metrics;
      metrics.bandwidth = residual_bw;
      routing_->apply_link_reweight(from, to, metrics);
    } else {
      routing_->apply_link_remove(from, to);
    }
  }
}

}  // namespace sflow::overlay
