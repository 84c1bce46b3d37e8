#include "overlay/overlay_graph.hpp"

#include <sstream>
#include <stdexcept>

namespace sflow::overlay {

OverlayIndex OverlayGraph::add_instance(Sid sid, net::Nid nid) {
  if (sid < 0) throw std::invalid_argument("OverlayGraph::add_instance: bad SID");
  if (nid < 0) throw std::invalid_argument("OverlayGraph::add_instance: bad NID");
  if (by_nid_.contains(nid))
    throw std::invalid_argument(
        "OverlayGraph::add_instance: underlay node already hosts an instance");
  const OverlayIndex v = graph_.add_node();
  instances_.push_back(ServiceInstance{sid, nid});
  by_nid_.emplace(nid, v);
  by_sid_[sid].push_back(v);
  return v;
}

void OverlayGraph::add_link(OverlayIndex from, OverlayIndex to,
                            graph::LinkMetrics metrics) {
  if (metrics.bandwidth <= 0.0)
    throw std::invalid_argument("OverlayGraph::add_link: bandwidth <= 0");
  if (metrics.latency < 0.0)
    throw std::invalid_argument("OverlayGraph::add_link: negative latency");
  graph_.add_edge(from, to, metrics);
}

void OverlayGraph::connect_via_underlay(const net::UnderlayRouting& routing,
                                        const CompatibilityFn& compatible) {
  for (std::size_t a = 0; a < instances_.size(); ++a) {
    for (std::size_t b = 0; b < instances_.size(); ++b) {
      if (a == b) continue;
      const ServiceInstance& from = instances_[a];
      const ServiceInstance& to = instances_[b];
      if (!compatible(from.sid, to.sid)) continue;
      const graph::PathQuality& q = routing.route_quality(from.nid, to.nid);
      if (q.is_unreachable()) continue;
      add_link(static_cast<OverlayIndex>(a), static_cast<OverlayIndex>(b),
               graph::LinkMetrics{q.bandwidth, q.latency});
    }
  }
}

OverlayGraph OverlayGraph::induced(const std::vector<OverlayIndex>& nodes) const {
  OverlayGraph sub;
  for (const OverlayIndex v : nodes) {
    const ServiceInstance& inst = instance(v);
    sub.add_instance(inst.sid, inst.nid);
  }
  std::vector<graph::NodeIndex> mapping;
  const graph::Digraph induced_graph = graph_.induced_subgraph(nodes, &mapping);
  for (const graph::Edge& e : induced_graph.edges())
    sub.add_link(e.from, e.to, e.metrics);
  return sub;
}

const std::vector<OverlayIndex>& OverlayGraph::instances_of(Sid sid) const {
  static const std::vector<OverlayIndex> kNone;
  const auto it = by_sid_.find(sid);
  return it == by_sid_.end() ? kNone : it->second;
}

std::optional<OverlayIndex> OverlayGraph::instance_at(net::Nid nid) const {
  const auto it = by_nid_.find(nid);
  if (it == by_nid_.end()) return std::nullopt;
  return it->second;
}

std::string OverlayGraph::to_dot(const ServiceCatalog* catalog) const {
  std::ostringstream os;
  os << "digraph overlay {\n";
  for (std::size_t v = 0; v < instances_.size(); ++v) {
    const ServiceInstance& inst = instances_[v];
    os << "  n" << v << " [label=\"";
    if (catalog != nullptr)
      os << catalog->name(inst.sid);
    else
      os << "S" << inst.sid;
    os << "@" << inst.nid << "\"];\n";
  }
  for (const graph::Edge& e : graph_.edges())
    os << "  n" << e.from << " -> n" << e.to << " [label=\"" << e.metrics.bandwidth
       << "/" << e.metrics.latency << "\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace sflow::overlay
