#include "core/global_optimal.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/comparators.hpp"
#include "graph/dag.hpp"
#include "obs/metrics.hpp"

namespace sflow::core {

using overlay::OverlayIndex;
using overlay::ServiceFlowGraph;
using overlay::Sid;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Search metrics (docs/observability.md): explored/pruned node counts are
/// accumulated per solve and added once, so the search loop touches no
/// atomics; a solve that runs out of node budget counts once.  The legacy
/// oracle does not report here — the counters describe the production path
/// only.
struct SearchMetrics {
  obs::Counter& nodes = obs::Registry::global().counter(
      "federation_search_nodes_total",
      "instance-selection search nodes expanded by the optimal solver");
  obs::Counter& pruned = obs::Registry::global().counter(
      "federation_search_pruned_total",
      "instance-selection branches cut by incumbent or future-bandwidth bound");
  obs::Counter& budget_exhausted = obs::Registry::global().counter(
      "federation_budget_exhausted_total",
      "optimal solves stopped by the search-node budget");
};

SearchMetrics& search_metrics() {
  static SearchMetrics instance;
  return instance;
}

/// Requirement structure shared by both searches: services in topological
/// order, candidate instances and predecessor positions per topo position.
struct SearchShape {
  std::vector<Sid> topo;
  std::vector<std::vector<OverlayIndex>> cand;
  std::vector<std::vector<std::size_t>> preds;
  std::map<Sid, std::size_t> position;

  /// False when some service has no candidate (requirement unsatisfiable).
  bool build(const overlay::OverlayGraph& overlay,
             const overlay::ServiceRequirement& requirement) {
    const auto order = graph::topological_order(requirement.dag());
    for (const graph::NodeIndex v : *order) topo.push_back(requirement.sid_of(v));
    for (std::size_t k = 0; k < topo.size(); ++k) position[topo[k]] = k;
    cand.resize(topo.size());
    preds.resize(topo.size());
    for (std::size_t k = 0; k < topo.size(); ++k) {
      cand[k] = candidate_instances(overlay, requirement, topo[k]);
      if (cand[k].empty()) return false;
      for (const Sid up : requirement.upstream(topo[k]))
        preds[k].push_back(position.at(up));
    }
    return true;
  }
};

/// Assembles the flow graph of a winning assignment (per topo position).
ServiceFlowGraph materialize(const overlay::ServiceRequirement& requirement,
                             const SearchShape& shape,
                             const std::vector<OverlayIndex>& chosen,
                             const EdgeQualityFn& quality,
                             const EdgePathFn& expand) {
  ServiceFlowGraph result;
  for (std::size_t k = 0; k < shape.topo.size(); ++k)
    result.assign(shape.topo[k], chosen[k]);
  for (const graph::Edge& e : requirement.dag().edges()) {
    const Sid from = requirement.sid_of(e.from);
    const Sid to = requirement.sid_of(e.to);
    const OverlayIndex u = chosen[shape.position.at(from)];
    const OverlayIndex v = chosen[shape.position.at(to)];
    const auto path = expand(from, u, to, v);
    if (!path) throw std::logic_error("optimal_flow_graph: chosen edge vanished");
    result.set_edge(from, to, *path, quality(from, u, to, v));
  }
  return result;
}

// --- Production search: dense quality tables + future-bandwidth bound -------

struct TableSearchContext {
  const SearchShape& shape;
  OptimalStats& stats;

  /// tables[k][pi] is the dense quality matrix of the requirement edge from
  /// predecessor position shape.preds[k][pi] into position k, laid out row-
  /// major by predecessor candidate: entry [ip * cand[k].size() + ic] is the
  /// abstract-edge quality between candidate ip of the predecessor and
  /// candidate ic of position k.  Materialized once; the search touches no
  /// std::function after construction.
  std::vector<std::vector<std::vector<graph::PathQuality>>> tables;

  std::vector<std::size_t> chosen;  // candidate index per topo position
  std::vector<double> dist;         // critical-path latency at each position

  graph::PathQuality best = graph::PathQuality::unreachable();
  std::vector<std::size_t> best_chosen;

  std::size_t budget;      // expansions left
  bool exhausted = false;  // a search() call found the budget spent

  TableSearchContext(const SearchShape& s, OptimalStats& st, std::size_t b)
      : shape(s), stats(st), budget(b) {}

  void materialize_tables(const EdgeQualityFn& quality) {
    const std::size_t n = shape.topo.size();
    tables.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t nk = shape.cand[k].size();
      tables[k].resize(shape.preds[k].size());
      for (std::size_t pi = 0; pi < shape.preds[k].size(); ++pi) {
        const std::size_t p = shape.preds[k][pi];
        const std::size_t np = shape.cand[p].size();
        auto& table = tables[k][pi];
        table.resize(np * nk);
        for (std::size_t ip = 0; ip < np; ++ip)
          for (std::size_t ic = 0; ic < nk; ++ic)
            table[ip * nk + ic] = quality(shape.topo[p], shape.cand[p][ip],
                                          shape.topo[k], shape.cand[k][ic]);
        stats.table_bytes += table.size() * sizeof(graph::PathQuality);
      }
    }
  }

  /// Admissible future-bandwidth bound, conditioned on the partial assignment
  /// chosen[0..k]: true when some remaining position j > k has no candidate
  /// whose incoming bandwidth from the already-assigned predecessors reaches
  /// `threshold`.  Every completion routes through such a position, so its
  /// bottleneck is strictly below `threshold` and the subtree cannot produce
  /// the incumbent's bandwidth — not even a latency tie.  (A static,
  /// assignment-independent cap is provably useless here: any incumbent from
  /// a full assignment already fits under every per-position static cap.)
  /// Candidate scans short-circuit at the first witness that reaches the
  /// threshold, so the common no-prune case costs about one table row.
  bool future_bandwidth_below(std::size_t k, double threshold) const {
    const std::size_t n = shape.topo.size();
    for (std::size_t j = k + 1; j < n; ++j) {
      const std::size_t nj = shape.cand[j].size();
      bool reachable = shape.preds[j].empty();
      for (std::size_t ic = 0; ic < nj && !reachable; ++ic) {
        double incoming = kInf;
        for (std::size_t pi = 0; pi < shape.preds[j].size(); ++pi) {
          const std::size_t p = shape.preds[j][pi];
          if (p > k) continue;  // unassigned predecessor: no constraint yet
          incoming =
              std::min(incoming, tables[j][pi][chosen[p] * nj + ic].bandwidth);
          if (incoming < threshold) break;
        }
        reachable = incoming >= threshold;
      }
      if (!reachable) return true;
    }
    return false;
  }

  /// Expands position k.  With the budget spent it stops instead, and every
  /// caller up the stack returns at once: the incumbent is then exactly the
  /// one an unbudgeted search holds after the same number of expansions.
  void search(std::size_t k, double bottleneck, double latency_bound) {
    if (budget == 0) {
      exhausted = true;
      return;
    }
    --budget;
    ++stats.nodes_explored;
    if (k == shape.topo.size()) {
      // Full assignment; latency_bound is now the exact critical-path latency
      // (edge latencies are non-negative, so the max over all positions
      // equals the max over sinks).
      const graph::PathQuality candidate{bottleneck, latency_bound};
      if (best.is_unreachable() || candidate.better_than(best)) {
        best = candidate;
        best_chosen = chosen;
        stats.incumbent_node = stats.nodes_explored;
      }
      return;
    }

    struct Move {
      std::size_t index;
      double bottleneck;
      double dist;
    };
    const std::size_t nk = shape.cand[k].size();
    std::vector<Move> moves;
    moves.reserve(nk);
    for (std::size_t ic = 0; ic < nk; ++ic) {
      double b = bottleneck;
      double d = 0.0;
      bool feasible = true;
      for (std::size_t pi = 0; pi < shape.preds[k].size(); ++pi) {
        const std::size_t p = shape.preds[k][pi];
        const graph::PathQuality& q = tables[k][pi][chosen[p] * nk + ic];
        if (q.is_unreachable()) {
          feasible = false;
          break;
        }
        b = std::min(b, q.bandwidth);
        d = std::max(d, dist[p] + q.latency);
      }
      if (feasible) moves.push_back(Move{ic, b, d});
    }
    // Best-first: widest (then shortest) candidates explored before others,
    // improving bound quality early.  Same comparator (and the same pre-sort
    // element order) as the legacy search, so both sorts produce the same
    // permutation and the incumbent trajectories match move for move.
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      if (a.bottleneck != b.bottleneck) return a.bottleneck > b.bottleneck;
      return a.dist < b.dist;
    });

    for (const Move& move : moves) {
      const double bound_latency = std::max(latency_bound, move.dist);
      chosen[k] = move.index;
      if (!best.is_unreachable()) {
        // Bottleneck only shrinks and critical-path latency only grows as
        // more services are assigned, so an incumbent at least as good kills
        // the whole subtree.
        if (move.bottleneck < best.bandwidth ||
            (move.bottleneck == best.bandwidth && bound_latency >= best.latency)) {
          ++stats.nodes_pruned;
          continue;
        }
        // Future-bandwidth bound: with this move in place, a remaining
        // position that cannot reach the incumbent's bandwidth through its
        // already-assigned predecessors kills the subtree before expansion —
        // the legacy search only discovers the dead-end when it gets there.
        // Only strictly-narrower completions are cut, so the incumbent (and
        // the returned assignment) is unchanged.
        if (future_bandwidth_below(k, best.bandwidth)) {
          ++stats.nodes_pruned;
          continue;
        }
      }
      dist[k] = move.dist;
      search(k + 1, move.bottleneck, bound_latency);
      if (exhausted) return;
    }
  }
};

/// The production search with at most `budget` expansions.
std::optional<ServiceFlowGraph> table_search(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, OptimalStats& stats, std::size_t budget) {
  requirement.validate();
  stats.budget_exhausted = false;
  SearchShape shape;
  if (!shape.build(overlay, requirement)) return std::nullopt;

  TableSearchContext ctx(shape, stats, budget);
  ctx.materialize_tables(quality);
  ctx.chosen.assign(shape.topo.size(), 0);
  ctx.dist.assign(shape.topo.size(), 0.0);
  ctx.search(0, kInf, 0.0);
  stats.budget_exhausted = ctx.exhausted;

  SearchMetrics& metrics = search_metrics();
  metrics.nodes.add(stats.nodes_explored);
  metrics.pruned.add(stats.nodes_pruned);
  if (ctx.exhausted) metrics.budget_exhausted.increment();

  if (ctx.best.is_unreachable()) return std::nullopt;

  std::vector<OverlayIndex> chosen(shape.topo.size());
  for (std::size_t k = 0; k < shape.topo.size(); ++k)
    chosen[k] = shape.cand[k][ctx.best_chosen[k]];
  return materialize(requirement, shape, chosen, quality, expand);
}

// --- Legacy reference search -------------------------------------------------
//
// The pre-table implementation, kept verbatim: per-(pred,candidate)
// EdgeQualityFn dispatch and incumbent-only pruning.  It is the equivalence
// oracle for the table search and the before/after baseline of
// bench/federation_kernel.cpp.

struct LegacySearchContext {
  const EdgeQualityFn& quality;
  OptimalStats& stats;

  std::vector<Sid> topo;                        // services in topological order
  std::vector<std::vector<OverlayIndex>> cand;  // candidates per topo position
  std::vector<std::vector<std::size_t>> preds;  // topo positions of predecessors

  std::vector<OverlayIndex> chosen;  // per topo position
  std::vector<double> dist;          // critical-path latency at each position

  graph::PathQuality best = graph::PathQuality::unreachable();
  std::vector<OverlayIndex> best_chosen;

  void search(std::size_t k, double bottleneck, double latency_bound) {
    ++stats.nodes_explored;
    if (k == topo.size()) {
      // Full assignment; latency_bound is now the exact critical-path latency
      // (edge latencies are non-negative, so the max over all positions
      // equals the max over sinks).
      const graph::PathQuality candidate{bottleneck, latency_bound};
      if (best.is_unreachable() || candidate.better_than(best)) {
        best = candidate;
        best_chosen = chosen;
      }
      return;
    }

    struct Move {
      OverlayIndex instance;
      double bottleneck;
      double dist;
    };
    std::vector<Move> moves;
    moves.reserve(cand[k].size());
    for (const OverlayIndex c : cand[k]) {
      double b = bottleneck;
      double d = 0.0;
      bool feasible = true;
      for (const std::size_t p : preds[k]) {
        const graph::PathQuality q = quality(topo[p], chosen[p], topo[k], c);
        if (q.is_unreachable()) {
          feasible = false;
          break;
        }
        b = std::min(b, q.bandwidth);
        d = std::max(d, dist[p] + q.latency);
      }
      if (feasible) moves.push_back(Move{c, b, d});
    }
    // Best-first: widest (then shortest) candidates explored before others,
    // improving bound quality early.
    std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
      if (a.bottleneck != b.bottleneck) return a.bottleneck > b.bottleneck;
      return a.dist < b.dist;
    });

    for (const Move& move : moves) {
      const double bound_latency = std::max(latency_bound, move.dist);
      // Bottleneck only shrinks and critical-path latency only grows as more
      // services are assigned, so an incumbent at least as good kills the
      // whole subtree.
      if (!best.is_unreachable()) {
        if (move.bottleneck < best.bandwidth ||
            (move.bottleneck == best.bandwidth && bound_latency >= best.latency)) {
          ++stats.nodes_pruned;
          continue;
        }
      }
      chosen[k] = move.instance;
      dist[k] = move.dist;
      search(k + 1, move.bottleneck, bound_latency);
    }
  }
};

}  // namespace

std::optional<ServiceFlowGraph> optimal_flow_graph(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, OptimalStats* stats,
    std::size_t node_budget) {
  OptimalStats local_stats;
  OptimalStats& out = stats != nullptr ? *stats : local_stats;
  std::optional<ServiceFlowGraph> graph =
      table_search(overlay, requirement, routing_edge_quality(routing),
                   routing_edge_path(routing), out, node_budget);
  if (graph || !out.budget_exhausted) return graph;
  std::optional<FederationResult> fixed =
      fixed_federation(overlay, requirement, routing);
  if (!fixed) return std::nullopt;
  return std::move(fixed->graph);
}

std::optional<ServiceFlowGraph> optimal_flow_graph_custom(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, OptimalStats* stats) {
  OptimalStats local_stats;
  return table_search(overlay, requirement, quality, expand,
                      stats != nullptr ? *stats : local_stats,
                      std::numeric_limits<std::size_t>::max());
}

std::optional<ServiceFlowGraph> optimal_flow_graph_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, OptimalStats* stats) {
  return optimal_flow_graph_custom_legacy(overlay, requirement,
                                          routing_edge_quality(routing),
                                          routing_edge_path(routing), stats);
}

std::optional<ServiceFlowGraph> optimal_flow_graph_custom_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, OptimalStats* stats) {
  requirement.validate();
  OptimalStats local_stats;
  LegacySearchContext ctx{quality, stats != nullptr ? *stats : local_stats,
                          {}, {}, {}, {}, {},
                          graph::PathQuality::unreachable(), {}};

  SearchShape shape;
  if (!shape.build(overlay, requirement)) return std::nullopt;
  ctx.topo = shape.topo;
  ctx.cand = shape.cand;
  ctx.preds = shape.preds;

  ctx.chosen.assign(ctx.topo.size(), graph::kInvalidNode);
  ctx.dist.assign(ctx.topo.size(), 0.0);
  ctx.search(0, kInf, 0.0);

  if (ctx.best.is_unreachable()) return std::nullopt;
  return materialize(requirement, shape, ctx.best_chosen, quality, expand);
}

}  // namespace sflow::core
