// The service overlay graph G(V, E) of the paper (§2.2, Fig. 4).
//
// Each overlay node is a service instance (SID at an underlay NID); a directed
// service link joins two instances when their services are compatible and a
// physical route exists between their hosts.  Link metrics are either taken
// from the underlay route (the normal construction) or assigned directly
// (hand-built fixtures mirroring the paper's figures).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/digraph.hpp"
#include "net/underlay_routing.hpp"
#include "overlay/service.hpp"

namespace sflow::overlay {

/// Index of a service instance within an OverlayGraph.
using OverlayIndex = graph::NodeIndex;

/// Directed compatibility relation: returns true when the output of `from`
/// feeds the input of `to`.
using CompatibilityFn = std::function<bool(Sid from, Sid to)>;

class OverlayGraph {
 public:
  OverlayGraph() = default;

  /// Registers a service instance.  At most one instance per underlay node
  /// (one NID hosts one service), matching the paper's figures.
  OverlayIndex add_instance(Sid sid, net::Nid nid);

  /// Adds (or updates) a directed service link with explicit metrics.
  void add_link(OverlayIndex from, OverlayIndex to, graph::LinkMetrics metrics);

  /// Connects every compatible instance pair routed through the underlay:
  /// the service link (a, b) exists when compatible(sid_a, sid_b) and the
  /// hosts are connected; its metrics are those of the physical route.
  void connect_via_underlay(const net::UnderlayRouting& routing,
                            const CompatibilityFn& compatible);

  std::size_t instance_count() const noexcept { return instances_.size(); }
  const ServiceInstance& instance(OverlayIndex v) const {
    return instances_.at(static_cast<std::size_t>(v));
  }
  const std::vector<ServiceInstance>& instances() const noexcept { return instances_; }

  /// All instances of a given service (possibly empty), in hosting order.
  const std::vector<OverlayIndex>& instances_of(Sid sid) const;

  /// Instance hosted at `nid`, or nullopt.
  std::optional<OverlayIndex> instance_at(net::Nid nid) const;

  /// The weighted digraph view used by routing and the algorithms.
  const graph::Digraph& graph() const noexcept { return graph_; }

  /// Induced sub-overlay on the given instances (a node's *local view* in the
  /// distributed algorithm).  NIDs are preserved, so results computed on the
  /// sub-overlay map back to this overlay through instance_at().
  OverlayGraph induced(const std::vector<OverlayIndex>& nodes) const;

  std::string to_dot(const ServiceCatalog* catalog = nullptr) const;

 private:
  graph::Digraph graph_;
  std::vector<ServiceInstance> instances_;
  std::unordered_map<net::Nid, OverlayIndex> by_nid_;
  std::unordered_map<Sid, std::vector<OverlayIndex>> by_sid_;
};

}  // namespace sflow::overlay
