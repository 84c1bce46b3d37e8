#include "core/baseline.hpp"

#include <limits>
#include <stdexcept>

#include "core/abstract_dp.hpp"

namespace sflow::core {

using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::Sid;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

EdgeQualityFn routing_edge_quality(const graph::AllPairsShortestWidest& routing) {
  return [&routing](Sid, OverlayIndex u, Sid, OverlayIndex v) {
    return routing.quality(u, v);
  };
}

EdgePathFn routing_edge_path(const graph::AllPairsShortestWidest& routing) {
  return [&routing](Sid, OverlayIndex u, Sid, OverlayIndex v) {
    return routing.path(u, v);
  };
}

std::vector<OverlayIndex> candidate_instances(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, Sid sid) {
  std::vector<OverlayIndex> candidates;
  append_candidate_instances(overlay, requirement, sid, candidates);
  return candidates;
}

std::size_t append_candidate_instances(const overlay::OverlayGraph& overlay,
                                       const overlay::ServiceRequirement& requirement,
                                       Sid sid, std::vector<OverlayIndex>& out) {
  if (const auto pin = requirement.pinned(sid)) {
    const auto inst = overlay.instance_at(*pin);
    if (!inst || overlay.instance(*inst).sid != sid) return 0;
    out.push_back(*inst);
    return 1;
  }
  const std::vector<OverlayIndex>& all = overlay.instances_of(sid);
  out.insert(out.end(), all.begin(), all.end());
  return all.size();
}

std::optional<ServiceFlowGraph> baseline_single_path(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, BaselineStats* stats) {
  return baseline_single_path_custom(overlay, requirement,
                                     routing_edge_quality(routing),
                                     routing_edge_path(routing), stats);
}

std::optional<ServiceFlowGraph> baseline_single_path_custom(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, BaselineStats* stats) {
  if (!requirement.is_single_path())
    throw std::invalid_argument("baseline_single_path: requirement is not a chain");
  const std::vector<Sid> chain = requirement.as_path();

  // Candidate layers.
  std::vector<std::vector<OverlayIndex>> layers;
  layers.reserve(chain.size());
  for (const Sid sid : chain) {
    layers.push_back(candidate_instances(overlay, requirement, sid));
    if (layers.back().empty()) return std::nullopt;
  }

  // Degenerate chain: a single service, no edges to optimize.
  if (chain.size() == 1) {
    ServiceFlowGraph result;
    result.assign(chain.front(), layers.front().front());
    return result;
  }

  const std::size_t num_layers = layers.size();
  std::vector<std::size_t> widths(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) widths[l] = layers[l].size();

  // The abstract graph, materialized once into the flat arena: every
  // layer-pair quality matrix in one contiguous buffer.
  AbstractArena arena(widths);
  for (std::size_t l = 0; l + 1 < num_layers; ++l)
    for (std::size_t i = 0; i < widths[l]; ++i)
      for (std::size_t j = 0; j < widths[l + 1]; ++j)
        arena.cell(l, i, j) =
            quality(chain[l], layers[l][i], chain[l + 1], layers[l + 1][j]);

  // Forward Pareto DP.  Layer-0 candidates carry the super-source label
  // (infinite bandwidth, zero latency); every later frontier merges each
  // reachable predecessor label extended over the connecting abstract edge,
  // with dominance pruning dropping dead labels on insert.
  std::vector<std::vector<DominanceFrontier>> front(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) front[l].resize(widths[l]);
  for (std::size_t i = 0; i < widths[0]; ++i)
    front[0][i].insert(DpLabel{kInf, 0.0});
  for (std::size_t l = 0; l + 1 < num_layers; ++l) {
    for (std::size_t j = 0; j < widths[l + 1]; ++j) {
      for (std::size_t i = 0; i < widths[l]; ++i) {
        const graph::PathQuality& q = arena.cell(l, i, j);
        if (q.is_unreachable()) continue;
        for (const DpLabel& label : front[l][i].labels())
          front[l + 1][j].insert(DpLabel{std::min(label.bandwidth, q.bandwidth),
                                         label.latency + q.latency});
      }
    }
  }
  if (stats != nullptr) {
    stats->arena_bytes += arena.memory_bytes();
    for (std::size_t l = 0; l < num_layers; ++l) {
      for (std::size_t i = 0; i < widths[l]; ++i) {
        stats->dp_labels += front[l][i].labels().size();
        stats->dp_labels_pruned += front[l][i].pruned();
      }
    }
  }

  // Best sink.  A sink frontier's widest label is exactly the sink's
  // shortest-widest quality (maximum bottleneck, then the minimum latency
  // achievable at that bottleneck), so this selection — first strictly
  // better candidate wins — matches the kernel-based implementation.
  const std::size_t last = num_layers - 1;
  std::size_t best_sink = widths[last];
  graph::PathQuality best_quality = graph::PathQuality::unreachable();
  for (std::size_t j = 0; j < widths[last]; ++j) {
    if (front[last][j].empty()) continue;
    const DpLabel& top = front[last][j].best();
    const graph::PathQuality q{top.bandwidth, top.latency};
    if (best_sink == widths[last] || q.better_than(best_quality)) {
      best_sink = j;
      best_quality = q;
    }
  }
  if (best_sink == widths[last]) return std::nullopt;

  // Path materialization: one latency DP restricted to abstract edges of
  // bandwidth >= the winning bottleneck.  Predecessor choice replicates the
  // width-class Dijkstra round of graph::shortest_widest_tree — pop order
  // there is (distance, node index) ascending and only strict improvements
  // re-assign predecessors, so a candidate's surviving predecessor is the
  // one minimizing the arrival latency, ties broken by the smallest (own
  // distance, candidate index).  This keeps chosen paths bit-identical to
  // the legacy implementation.
  const double bottleneck = best_quality.bandwidth;
  std::vector<std::vector<double>> dist(num_layers);
  std::vector<std::vector<std::size_t>> pred(num_layers);
  std::vector<std::vector<char>> reached(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    dist[l].assign(widths[l], kInf);
    pred[l].assign(widths[l], 0);
    reached[l].assign(widths[l], 0);
  }
  for (std::size_t i = 0; i < widths[0]; ++i) {
    dist[0][i] = 0.0;
    reached[0][i] = 1;
  }
  for (std::size_t l = 0; l + 1 < num_layers; ++l) {
    for (std::size_t j = 0; j < widths[l + 1]; ++j) {
      for (std::size_t i = 0; i < widths[l]; ++i) {
        if (!reached[l][i]) continue;
        const graph::PathQuality& q = arena.cell(l, i, j);
        if (q.is_unreachable() || q.bandwidth < bottleneck) continue;
        const double total = dist[l][i] + q.latency;
        const std::size_t cur = pred[l + 1][j];
        if (!reached[l + 1][j] || total < dist[l + 1][j] ||
            (total == dist[l + 1][j] &&
             (dist[l][i] < dist[l][cur] ||
              (dist[l][i] == dist[l][cur] && i < cur)))) {
          reached[l + 1][j] = 1;
          dist[l + 1][j] = total;
          pred[l + 1][j] = i;
        }
      }
    }
  }
  if (!reached[last][best_sink] || dist[last][best_sink] != best_quality.latency)
    throw std::logic_error("baseline: abstract DP path/label disagreement");

  // Decode the chosen candidate per layer.
  std::vector<std::size_t> chosen_index(num_layers);
  chosen_index[last] = best_sink;
  for (std::size_t l = last; l > 0; --l)
    chosen_index[l - 1] = pred[l][chosen_index[l]];
  std::vector<OverlayIndex> chosen(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l)
    chosen[l] = layers[l][chosen_index[l]];

  // Expand abstract edges into overlay paths (qualities come straight from
  // the arena — the same values the DP selected on).
  ServiceFlowGraph result;
  result.assign(chain.front(), chosen.front());
  for (std::size_t l = 0; l + 1 < chain.size(); ++l) {
    const auto path = expand(chain[l], chosen[l], chain[l + 1], chosen[l + 1]);
    if (!path) throw std::logic_error("baseline: chosen abstract edge not expandable");
    result.set_edge(chain[l], chain[l + 1], *path,
                    arena.cell(l, chosen_index[l], chosen_index[l + 1]));
  }
  return result;
}

// --- Legacy reference implementation ---------------------------------------
//
// The pre-arena path, kept verbatim: node-at-a-time Digraph construction of
// the abstract graph plus the full shortest-widest kernel.  Equivalence
// oracle for the flat DP (tests/federation_equiv_test.cpp) and the
// before/after baseline of bench/federation_kernel.cpp.

std::optional<ServiceFlowGraph> baseline_single_path_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing) {
  return baseline_single_path_custom_legacy(overlay, requirement,
                                            routing_edge_quality(routing),
                                            routing_edge_path(routing));
}

std::optional<ServiceFlowGraph> baseline_single_path_custom_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand) {
  if (!requirement.is_single_path())
    throw std::invalid_argument("baseline_single_path: requirement is not a chain");
  const std::vector<Sid> chain = requirement.as_path();

  // Candidate layers.
  std::vector<std::vector<OverlayIndex>> layers;
  layers.reserve(chain.size());
  for (const Sid sid : chain) {
    layers.push_back(candidate_instances(overlay, requirement, sid));
    if (layers.back().empty()) return std::nullopt;
  }

  // Degenerate chain: a single service, no edges to optimize.
  if (chain.size() == 1) {
    ServiceFlowGraph result;
    result.assign(chain.front(), layers.front().front());
    return result;
  }

  // Abstract digraph: node 0 is a super-source over the first layer; node
  // 1 + offset(l) + i is candidate i of layer l.
  graph::Digraph abstract(1);
  std::vector<std::size_t> offset(layers.size(), 0);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    if (l > 0) offset[l] = offset[l - 1] + layers[l - 1].size();
    for (std::size_t i = 0; i < layers[l].size(); ++i) abstract.add_node();
  }
  const auto abstract_node = [&](std::size_t l, std::size_t i) {
    return static_cast<graph::NodeIndex>(1 + offset[l] + i);
  };

  for (std::size_t i = 0; i < layers[0].size(); ++i)
    abstract.add_edge(
        0, abstract_node(0, i),
        graph::LinkMetrics{std::numeric_limits<double>::infinity(), 0.0});

  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    for (std::size_t i = 0; i < layers[l].size(); ++i) {
      for (std::size_t j = 0; j < layers[l + 1].size(); ++j) {
        const graph::PathQuality q =
            quality(chain[l], layers[l][i], chain[l + 1], layers[l + 1][j]);
        if (q.is_unreachable()) continue;
        abstract.add_edge(abstract_node(l, i), abstract_node(l + 1, j),
                          graph::LinkMetrics{q.bandwidth, q.latency});
      }
    }
  }

  // Exact shortest-widest path through the layered abstract graph.
  const graph::RoutingTree tree = graph::shortest_widest_tree(abstract, 0);
  const std::size_t last = layers.size() - 1;
  graph::NodeIndex best_sink = graph::kInvalidNode;
  for (std::size_t i = 0; i < layers[last].size(); ++i) {
    const graph::NodeIndex v = abstract_node(last, i);
    if (!tree.reachable(v)) continue;
    if (best_sink == graph::kInvalidNode ||
        tree.quality_to(v).better_than(tree.quality_to(best_sink)))
      best_sink = v;
  }
  if (best_sink == graph::kInvalidNode) return std::nullopt;

  // abstract_path = [super-source, layer0 candidate, ..., sink candidate].
  // Iteration only, so the non-allocating view suffices (`tree` is local).
  const graph::RoutingTree::PathView abstract_path = tree.path_view(best_sink);
  if (abstract_path.size() != layers.size() + 1)
    throw std::logic_error("baseline: malformed abstract path");

  // Decode the chosen candidate per layer.
  std::vector<OverlayIndex> chosen(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const auto node = static_cast<std::size_t>(abstract_path[l + 1]);
    chosen[l] = layers[l][node - 1 - offset[l]];
  }

  // Expand abstract edges into overlay paths.
  ServiceFlowGraph result;
  result.assign(chain.front(), chosen.front());
  for (std::size_t l = 0; l + 1 < chain.size(); ++l) {
    const auto path = expand(chain[l], chosen[l], chain[l + 1], chosen[l + 1]);
    if (!path) throw std::logic_error("baseline: chosen abstract edge not expandable");
    const graph::PathQuality q =
        quality(chain[l], chosen[l], chain[l + 1], chosen[l + 1]);
    result.set_edge(chain[l], chain[l + 1], *path, q);
  }
  return result;
}

}  // namespace sflow::core
