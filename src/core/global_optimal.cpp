#include "core/global_optimal.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
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

// --- Production search: dense quality tables + future-bandwidth bound -------

// Row sources of the table fill: fill_row writes the abstract-edge qualities
// from instance `u` of `from` to every candidate of `to` in `row`; path
// expands one chosen abstract edge.

/// A routing database: one tree() lookup per row, then direct reads across
/// the row.
struct RoutingRows {
  const graph::AllPairsShortestWidest& routing;

  void fill_row(Sid, OverlayIndex u, Sid, std::span<const OverlayIndex> row,
                graph::PathQuality* out) const {
    const graph::RoutingTree& tree = routing.tree(u);
    for (std::size_t i = 0; i < row.size(); ++i) out[i] = tree.quality_to(row[i]);
  }
  std::optional<std::vector<OverlayIndex>> path(Sid, OverlayIndex u, Sid,
                                                OverlayIndex v) const {
    return routing.path(u, v);
  }
};

/// Caller-supplied per-pair quality and expansion.
struct FunctionRows {
  const EdgeQualityFn& quality;
  const EdgePathFn& expand;

  void fill_row(Sid from, OverlayIndex u, Sid to,
                std::span<const OverlayIndex> row, graph::PathQuality* out) const {
    for (std::size_t i = 0; i < row.size(); ++i) out[i] = quality(from, u, to, row[i]);
  }
  std::optional<std::vector<OverlayIndex>> path(Sid from, OverlayIndex u, Sid to,
                                                OverlayIndex v) const {
    return expand(from, u, to, v);
  }
};

/// Scratch of one production search, kept per thread and reused: the
/// requirement's shape, the quality tables and the per-depth move buffers,
/// all flat.  Vectors only grow, so a warm solve allocates nothing here and
/// the footprint is bounded by the largest requirement the thread solved.
struct SearchWorkspace {
  struct Move {
    std::size_t index;  // candidate index at this position
    double bottleneck;
    double dist;
  };

  std::vector<graph::NodeIndex> topo;  // requirement DAG node per position
  std::vector<std::size_t> position;   // position per requirement DAG node
  /// Candidates of position k: cand[cand_begin[k] .. cand_begin[k + 1]).
  /// Depth k's moves use the same slice of `moves`.
  std::vector<OverlayIndex> cand;
  std::vector<std::size_t> cand_begin;
  /// Predecessor positions of position k: preds[pred_begin[k] ..
  /// pred_begin[k + 1]), in requirement in-edge order.  Predecessor slot s
  /// owns the quality table at tables[table_begin[s]], row-major by
  /// predecessor candidate: entry [ip * width(k) + ic] is the abstract-edge
  /// quality between candidate ip of the predecessor and candidate ic of k.
  std::vector<std::size_t> preds;
  std::vector<std::size_t> pred_begin;
  std::vector<std::size_t> table_begin;
  std::vector<graph::PathQuality> tables;
  std::vector<Move> moves;

  std::vector<std::size_t> chosen;  // candidate index per position
  std::vector<double> dist;         // critical-path latency at each position
  std::vector<std::size_t> best_chosen;

  bool busy = false;  // a solve on this thread holds it
};

struct TableSearchContext {
  SearchWorkspace& ws;
  OptimalStats& stats;

  graph::PathQuality best = graph::PathQuality::unreachable();

  std::size_t budget;      // expansions left
  bool exhausted = false;  // a search() call found the budget spent

  TableSearchContext(SearchWorkspace& w, OptimalStats& st, std::size_t b)
      : ws(w), stats(st), budget(b) {}

  std::size_t positions() const { return ws.topo.size(); }
  std::size_t width(std::size_t k) const {
    return ws.cand_begin[k + 1] - ws.cand_begin[k];
  }
  std::span<const OverlayIndex> candidates(std::size_t k) const {
    return {ws.cand.data() + ws.cand_begin[k], width(k)};
  }

  /// Services in topological order with their candidates and predecessor
  /// positions.  False when some service has no candidate (requirement
  /// unsatisfiable).
  bool build_shape(const overlay::OverlayGraph& overlay,
                   const overlay::ServiceRequirement& requirement) {
    const graph::Digraph& dag = requirement.dag();
    const auto order = graph::topological_order(dag);
    ws.topo.assign(order->begin(), order->end());
    const std::size_t n = ws.topo.size();
    ws.position.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      ws.position[static_cast<std::size_t>(ws.topo[k])] = k;
    ws.cand.clear();
    ws.cand_begin.assign(1, 0);
    ws.preds.clear();
    ws.pred_begin.assign(1, 0);
    for (std::size_t k = 0; k < n; ++k) {
      if (append_candidate_instances(overlay, requirement,
                                     requirement.sid_of(ws.topo[k]), ws.cand) == 0)
        return false;
      ws.cand_begin.push_back(ws.cand.size());
      for (const graph::EdgeIndex e : dag.in_edges(ws.topo[k]))
        ws.preds.push_back(ws.position[static_cast<std::size_t>(dag.edge(e).from)]);
      ws.pred_begin.push_back(ws.preds.size());
    }
    return true;
  }

  /// Fills every quality table, one source row per predecessor candidate, in
  /// the order the per-pair fill touched them (position, predecessor slot,
  /// predecessor candidate), so a routing database repairs its stale trees
  /// in the same order.  The search touches no quality source afterwards.
  template <typename Rows>
  void fill_tables(const Rows& rows, const overlay::ServiceRequirement& requirement) {
    ws.table_begin.clear();
    ws.tables.clear();
    for (std::size_t k = 0; k < positions(); ++k) {
      const Sid to = requirement.sid_of(ws.topo[k]);
      const std::span<const OverlayIndex> row = candidates(k);
      for (std::size_t s = ws.pred_begin[k]; s < ws.pred_begin[k + 1]; ++s) {
        const std::size_t p = ws.preds[s];
        const Sid from = requirement.sid_of(ws.topo[p]);
        ws.table_begin.push_back(ws.tables.size());
        for (const OverlayIndex u : candidates(p)) {
          const std::size_t at = ws.tables.size();
          ws.tables.resize(at + row.size());
          rows.fill_row(from, u, to, row, ws.tables.data() + at);
        }
      }
    }
    stats.table_bytes += ws.tables.size() * sizeof(graph::PathQuality);
  }

  /// Quality of the abstract edge from predecessor slot s's chosen candidate
  /// to candidate ic of position k.
  const graph::PathQuality& edge_quality(std::size_t k, std::size_t s,
                                         std::size_t ic) const {
    return ws.tables[ws.table_begin[s] + ws.chosen[ws.preds[s]] * width(k) + ic];
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
    const std::size_t n = positions();
    for (std::size_t j = k + 1; j < n; ++j) {
      const std::size_t nj = width(j);
      bool reachable = ws.pred_begin[j] == ws.pred_begin[j + 1];
      for (std::size_t ic = 0; ic < nj && !reachable; ++ic) {
        double incoming = kInf;
        for (std::size_t s = ws.pred_begin[j]; s < ws.pred_begin[j + 1]; ++s) {
          if (ws.preds[s] > k) continue;  // unassigned predecessor: no constraint yet
          incoming = std::min(incoming, edge_quality(j, s, ic).bandwidth);
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
    if (k == positions()) {
      // Full assignment; latency_bound is now the exact critical-path latency
      // (edge latencies are non-negative, so the max over all positions
      // equals the max over sinks).
      const graph::PathQuality candidate{bottleneck, latency_bound};
      if (best.is_unreachable() || candidate.better_than(best)) {
        best = candidate;
        ws.best_chosen.assign(ws.chosen.begin(), ws.chosen.end());
        stats.incumbent_node = stats.nodes_explored;
      }
      return;
    }

    using Move = SearchWorkspace::Move;
    const std::size_t nk = width(k);
    Move* const moves = ws.moves.data() + ws.cand_begin[k];
    std::size_t count = 0;
    for (std::size_t ic = 0; ic < nk; ++ic) {
      double b = bottleneck;
      double d = 0.0;
      bool feasible = true;
      for (std::size_t s = ws.pred_begin[k]; s < ws.pred_begin[k + 1]; ++s) {
        const graph::PathQuality& q = edge_quality(k, s, ic);
        if (q.is_unreachable()) {
          feasible = false;
          break;
        }
        b = std::min(b, q.bandwidth);
        d = std::max(d, ws.dist[ws.preds[s]] + q.latency);
      }
      if (feasible) moves[count++] = Move{ic, b, d};
    }
    // Best-first: widest (then shortest) candidates explored before others,
    // improving bound quality early.  Same comparator (and the same pre-sort
    // element order) as the legacy search, so both sorts produce the same
    // permutation and the incumbent trajectories match move for move.
    std::sort(moves, moves + count, [](const Move& a, const Move& b) {
      if (a.bottleneck != b.bottleneck) return a.bottleneck > b.bottleneck;
      return a.dist < b.dist;
    });

    for (std::size_t m = 0; m < count; ++m) {
      const Move& move = moves[m];
      const double bound_latency = std::max(latency_bound, move.dist);
      ws.chosen[k] = move.index;
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
      ws.dist[k] = move.dist;
      search(k + 1, move.bottleneck, bound_latency);
      if (exhausted) return;
    }
  }

  /// Assembles the flow graph of the incumbent.  Edge qualities come from the
  /// tables the search read; paths from the row source.
  template <typename Rows>
  ServiceFlowGraph materialize(const Rows& rows,
                               const overlay::ServiceRequirement& requirement) {
    ws.chosen.assign(ws.best_chosen.begin(), ws.best_chosen.end());
    ServiceFlowGraph result;
    for (std::size_t k = 0; k < positions(); ++k)
      result.assign(requirement.sid_of(ws.topo[k]), candidates(k)[ws.chosen[k]]);
    for (const graph::Edge& e : requirement.dag().edges()) {
      const std::size_t p = ws.position[static_cast<std::size_t>(e.from)];
      const std::size_t k = ws.position[static_cast<std::size_t>(e.to)];
      std::size_t s = ws.pred_begin[k];
      while (ws.preds[s] != p) ++s;
      const Sid from = requirement.sid_of(e.from);
      const Sid to = requirement.sid_of(e.to);
      const auto path = rows.path(from, candidates(p)[ws.chosen[p]], to,
                                  candidates(k)[ws.chosen[k]]);
      if (!path) throw std::logic_error("optimal_flow_graph: chosen edge vanished");
      result.set_edge(from, to, *path, edge_quality(k, s, ws.chosen[k]));
    }
    return result;
  }
};

/// Hands out the calling thread's workspace, or a private one when a solve
/// on this thread already holds it (a quality source that solves).
class WorkspaceLease {
 public:
  WorkspaceLease() {
    thread_local SearchWorkspace workspace;
    if (!workspace.busy) held_ = &workspace;
    ws().busy = true;
  }
  ~WorkspaceLease() { ws().busy = false; }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  SearchWorkspace& ws() { return held_ != nullptr ? *held_ : private_; }

 private:
  SearchWorkspace* held_ = nullptr;
  SearchWorkspace private_;
};

/// The production search with at most `budget` expansions.
template <typename Rows>
std::optional<ServiceFlowGraph> table_search(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const Rows& rows,
    OptimalStats& stats, std::size_t budget) {
  requirement.validate();
  stats.budget_exhausted = false;
  WorkspaceLease lease;
  SearchWorkspace& ws = lease.ws();
  TableSearchContext ctx(ws, stats, budget);
  if (!ctx.build_shape(overlay, requirement)) return std::nullopt;

  ctx.fill_tables(rows, requirement);
  ws.moves.resize(ws.cand.size());
  ws.chosen.assign(ctx.positions(), 0);
  ws.dist.assign(ctx.positions(), 0.0);
  ctx.search(0, kInf, 0.0);
  stats.budget_exhausted = ctx.exhausted;

  SearchMetrics& metrics = search_metrics();
  metrics.nodes.add(stats.nodes_explored);
  metrics.pruned.add(stats.nodes_pruned);
  if (ctx.exhausted) metrics.budget_exhausted.increment();

  if (ctx.best.is_unreachable()) return std::nullopt;
  return ctx.materialize(rows, requirement);
}

// --- Legacy reference search -------------------------------------------------
//
// The pre-table implementation, kept verbatim: per-(pred,candidate)
// EdgeQualityFn dispatch and incumbent-only pruning.  It is the equivalence
// oracle for the table search and the before/after baseline of
// bench/federation_kernel.cpp.

/// Requirement structure of the legacy search: services in topological
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

/// Assembles the flow graph of the legacy search's winning assignment (per
/// topo position).
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
      table_search(overlay, requirement, RoutingRows{routing}, out, node_budget);
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
  return table_search(overlay, requirement, FunctionRows{quality, expand},
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
