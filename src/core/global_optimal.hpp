// Exact construction of the globally optimal service flow graph.
//
// The Maximum Service Flow Graph Problem is NP-complete (paper §3.2), so this
// solver is exponential in the worst case; the paper nevertheless computes
// "the global optimal resource-efficient service flow graph" as the
// evaluation benchmark (§5), which is feasible at evaluation scale.  We use
// branch-and-bound over instance assignments in topological requirement
// order: the running bottleneck bandwidth is monotone non-increasing and the
// running critical-path latency monotone non-decreasing, so a partial
// assignment that cannot beat the incumbent is pruned.
//
// The production search (docs/algorithms.md, "Complexity & pruning") works
// off dense per-position quality tables materialized once up front, one
// routing-tree row per predecessor candidate, in a per-thread workspace it
// reuses across solves — the inner loop is array indexing, not
// std::function dispatch — and prunes with
// an admissible future-bandwidth bound conditioned on the partial
// assignment: after tentatively placing a move, a remaining topological
// position where no candidate can reach the incumbent's bandwidth through
// its already-assigned predecessors proves every completion strictly
// narrower, so the branch is cut before expansion instead of being
// discovered as a dead-end several levels deeper.  The
// pre-table implementation is kept verbatim as `optimal_flow_graph_legacy` /
// `optimal_flow_graph_custom_legacy`: the equivalence oracle
// (tests/federation_equiv_test.cpp) and the before/after baseline of
// bench/federation_kernel.cpp.  Outcomes are bit-identical by construction —
// the bound only removes subtrees that cannot strictly beat the incumbent,
// and tie-breaking (move order, incumbent updates) is unchanged.
//
// The same solver doubles as the exhaustive fallback of the heuristic
// requirement solver on the small 2-hop local views of the distributed
// algorithm.
//
// optimal_flow_graph runs under a search-node budget (kSearchNodeBudget by
// default) so no single solve takes unbounded time: a search that runs out
// stops and returns its incumbent, or the fixed solve of the same view when
// it has none yet.  Both depend only on the view and the requirement, so a
// budgeted solve is as deterministic as an unbudgeted one.
#pragma once

#include <cstddef>
#include <optional>

#include "core/baseline.hpp"
#include "graph/qos_routing.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement.hpp"

namespace sflow::core {

/// Search-node budget of optimal_flow_graph: TableSearchContext::search
/// expansions per solve.  The benchmark streams need at most a few hundred.
inline constexpr std::size_t kSearchNodeBudget = std::size_t{1} << 16;

struct OptimalStats {
  /// search() invocations (partial assignments expanded, full ones included).
  std::size_t nodes_explored = 0;
  /// Moves cut before recursion (incumbent check or future-bandwidth bound).
  std::size_t nodes_pruned = 0;
  /// Footprint of the materialized quality tables (0 for the legacy search).
  std::size_t table_bytes = 0;
  /// nodes_explored when the returned assignment became the incumbent (0 when
  /// the search found none).
  std::size_t incumbent_node = 0;
  /// The search ran out of node budget: the result is its incumbent, or the
  /// fixed solve when it had none (federation_budget_exhausted_total).
  bool budget_exhausted = false;
};

/// Finds the optimal flow graph (maximum bottleneck bandwidth, then minimum
/// end-to-end latency) for an arbitrary DAG requirement.  Respects pins.
/// Returns nullopt when the requirement is unsatisfiable on this overlay.
/// A search that would expand more than `node_budget` nodes stops there and
/// returns its incumbent, or fixed_federation's graph when it has none.
std::optional<overlay::ServiceFlowGraph> optimal_flow_graph(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, OptimalStats* stats = nullptr,
    std::size_t node_budget = kSearchNodeBudget);

/// As above with caller-supplied abstract-edge quality/expansion (used by the
/// heuristic solver on requirements containing virtual block edges), and
/// without a node budget.
std::optional<overlay::ServiceFlowGraph> optimal_flow_graph_custom(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, OptimalStats* stats = nullptr);

/// The pre-table branch-and-bound search, kept verbatim as the equivalence
/// oracle: per-(pred,candidate) EdgeQualityFn dispatch, incumbent-only
/// pruning.  Bit-identical results to the production search; its explored
/// node count is an upper bound on the production search's.
std::optional<overlay::ServiceFlowGraph> optimal_flow_graph_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement,
    const graph::AllPairsShortestWidest& routing, OptimalStats* stats = nullptr);

/// As above with caller-supplied quality/expansion.
std::optional<overlay::ServiceFlowGraph> optimal_flow_graph_custom_legacy(
    const overlay::OverlayGraph& overlay,
    const overlay::ServiceRequirement& requirement, const EdgeQualityFn& quality,
    const EdgePathFn& expand, OptimalStats* stats = nullptr);

}  // namespace sflow::core
