// QoS routing: the Wang–Crowcroft shortest-widest path algorithm [4] and
// supporting queries.
//
// The paper adopts shortest-widest paths as the link-state quality measure for
// all overlay hops (§2.2): among all paths the *widest* (maximum bottleneck
// bandwidth) wins; ties are broken by the *shortest* (minimum additive
// latency).
//
// A single-label lexicographic Dijkstra is NOT exact for the latency
// tie-break: a narrower-but-shorter prefix may be discarded even though a
// later bottleneck link would have equalized the widths.  We therefore follow
// the original two-stage scheme: (1) a widest-path Dijkstra fixes the maximum
// width W(v) per destination, then (2) for each distinct width class B the
// graph is pruned to links of bandwidth >= B and a plain latency Dijkstra
// yields the shortest path among the widest ones for every destination with
// W(v) == B.  Paths are materialized eagerly because predecessor pointers from
// different pruning rounds cannot be mixed.
//
// The production kernel runs the class rounds as a *descending width-class
// sweep* over a CsrView snapshot: one scratch workspace (labels + heap
// storage) is reused across every round via epoch stamping, each round's
// Dijkstra scans only the bandwidth-descending prefix of a node's arcs
// (everything past the first arc narrower than B is pruned by construction),
// and a round stops as soon as all of its class's destinations are finalized.
// This is an optimization only — results are bit-identical to the plain
// two-stage scheme, pinned by the legacy-equivalence tests; see
// docs/algorithms.md for the argument.
#pragma once

#include <atomic>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/digraph.hpp"

namespace sflow::util {
class ThreadPool;
}

namespace sflow::graph {

/// Result of a single-source shortest-widest computation.
///
/// Paths live in one contiguous arena (node buffer + per-destination
/// offset/length) instead of a vector per destination: an all-pairs database
/// over N sources holds N of these, and the arena removes ~N heap blocks and
/// ~3 pointers of header per destination from the resident footprint.
class RoutingTree {
 public:
  /// Non-owning view of a stored path (empty when unreachable).  Valid for
  /// the lifetime of the RoutingTree it came from.
  using PathView = std::span<const NodeIndex>;

  /// One width-class round boundary of the sweep that built this tree: the
  /// round ran at class `width` and its materialized paths end at
  /// arena[arena_end).  The table is ordered widest class first — exactly the
  /// order the descending sweep appends to the arena, so the paths of the
  /// first k rounds are the contiguous prefix arena[0, rounds[k-1].arena_end)
  /// (arena[0] is always the source's 1-node path).  The incremental salvage
  /// copies retained rounds wholesale through this table; trees built by the
  /// compatibility constructor or the latency kernel carry an empty table and
  /// simply never salvage.
  struct ClassRound {
    double width = 0.0;
    std::uint32_t arena_end = 0;

    friend bool operator==(const ClassRound&, const ClassRound&) = default;
  };

  /// Arena form: `paths[v]` is arena[offset[v] .. offset[v]+length[v]).
  RoutingTree(NodeIndex source, std::vector<PathQuality> qualities,
              std::vector<NodeIndex> path_arena,
              std::vector<std::uint32_t> path_offsets,
              std::vector<std::uint32_t> path_lengths,
              std::vector<ClassRound> class_rounds = {})
      : source_(source),
        qualities_(std::move(qualities)),
        arena_(std::move(path_arena)),
        offsets_(std::move(path_offsets)),
        lengths_(std::move(path_lengths)),
        class_rounds_(std::move(class_rounds)) {
    min_positive_width_ = compute_min_positive_width();
  }

  /// Compatibility form: flattens per-destination vectors into the arena
  /// (legacy kernel and hand-built trees in tests).
  RoutingTree(NodeIndex source, std::vector<PathQuality> qualities,
              const std::vector<std::vector<NodeIndex>>& paths);

  NodeIndex source() const noexcept { return source_; }

  bool reachable(NodeIndex v) const {
    return !qualities_.at(static_cast<std::size_t>(v)).is_unreachable();
  }

  /// Best quality from source to v (PathQuality::unreachable() if none).
  const PathQuality& quality_to(NodeIndex v) const {
    return qualities_.at(static_cast<std::size_t>(v));
  }

  /// Non-allocating view of the best path source..v; empty if unreachable.
  PathView path_view(NodeIndex v) const {
    qualities_.at(static_cast<std::size_t>(v));  // bounds check
    const auto vi = static_cast<std::size_t>(v);
    return {arena_.data() + offsets_[vi], lengths_[vi]};
  }

  /// The node sequence source..v of the best path, or nullopt if unreachable.
  /// Allocates a fresh vector per call; prefer path_view() when only
  /// iterating.
  std::optional<std::vector<NodeIndex>> path_to(NodeIndex v) const {
    const PathView view = path_view(v);
    if (view.empty()) return std::nullopt;
    return std::vector<NodeIndex>(view.begin(), view.end());
  }

  /// Resident heap footprint of this tree (labels + arena + offsets).
  std::size_t memory_bytes() const noexcept;

  /// Smallest positive path width over reachable non-source destinations —
  /// the lowest width class the sweep that built this tree ran (0.0 when no
  /// destination is reachable).  Cached at construction; the incremental
  /// dirty-set predicate uses it to decide whether a link event can touch
  /// any class round of this tree (see AllPairsShortestWidest::apply_link_*).
  double min_positive_width() const noexcept { return min_positive_width_; }

  /// The width-class round table (see ClassRound); empty when the tree was
  /// not built by the descending sweep.
  std::span<const ClassRound> class_rounds() const noexcept {
    return class_rounds_;
  }
  /// Raw arena layout accessors for the salvage fast path: the whole path
  /// arena and a destination's offset into it.  Only meaningful together with
  /// class_rounds() — ordinary consumers should use path_view().
  std::span<const NodeIndex> arena() const noexcept { return arena_; }
  std::uint32_t path_offset(NodeIndex v) const {
    return offsets_.at(static_cast<std::size_t>(v));
  }

 private:
  double compute_min_positive_width() const noexcept;

  NodeIndex source_;
  std::vector<PathQuality> qualities_;
  std::vector<NodeIndex> arena_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> lengths_;
  std::vector<ClassRound> class_rounds_;
  double min_positive_width_ = 0.0;
};

/// Reusable scratch space for the routing kernels: Dijkstra labels, epoch
/// stamps (so per-round resets are O(touched) instead of O(N)), heap storage,
/// and the path-materialization buffer.  One workspace serves any number of
/// sequential kernel calls; it is not thread-safe — use one per thread.
struct RoutingWorkspace {
  std::vector<double> width;   // widest-path labels
  std::vector<double> dist;    // latency labels
  std::vector<double> band;    // bottleneck labels (shortest_latency_tree)
  std::vector<NodeIndex> pred;
  std::vector<std::uint32_t> visit_epoch;  // dist/pred/band valid markers
  std::vector<std::uint32_t> done_epoch;   // finalized markers
  std::uint32_t epoch = 0;
  std::vector<std::pair<double, NodeIndex>> heap;
  std::vector<NodeIndex> scratch_path;
  std::vector<NodeIndex> order;  // destinations grouped by width class

  void prepare(std::size_t node_count);
  std::uint32_t next_epoch();
};

/// Wang–Crowcroft single-source shortest-widest paths (exact).  The CsrView
/// overload is the production kernel; the Digraph overload snapshots the
/// graph first and is intended for one-off calls.  Passing a workspace reuses
/// its storage; nullptr uses a per-thread scratch workspace.
RoutingTree shortest_widest_tree(const CsrView& csr, NodeIndex source,
                                 RoutingWorkspace* workspace = nullptr);
RoutingTree shortest_widest_tree(const Digraph& g, NodeIndex source);

/// The pre-sweep reference implementation: one full pruned latency Dijkstra
/// per width class over the Digraph adjacency, with per-class label
/// allocation.  Kept verbatim as the equivalence oracle for the sweep kernel
/// (tests/qos_routing_test.cpp) and the before/after baseline of
/// bench/routing_kernel.cpp.  Bit-identical results to shortest_widest_tree.
RoutingTree shortest_widest_tree_legacy(const Digraph& g, NodeIndex source);

/// Plain Dijkstra minimizing latency only (used for underlay hop routing,
/// where a flow follows the lowest-latency physical route).  Path qualities
/// come from the Dijkstra labels themselves (bottleneck tracked alongside
/// distance), not from re-walking each materialized path.
RoutingTree shortest_latency_tree(const CsrView& csr, NodeIndex source,
                                  RoutingWorkspace* workspace = nullptr);
RoutingTree shortest_latency_tree(const Digraph& g, NodeIndex source);

/// Quality of an explicit node sequence (PathQuality::unreachable() if any
/// consecutive pair lacks an edge; PathQuality::source() for a 1-node path).
PathQuality path_quality(const Digraph& g, std::span<const NodeIndex> path);
inline PathQuality path_quality(const Digraph& g,
                                std::initializer_list<NodeIndex> path) {
  return path_quality(g, std::span<const NodeIndex>(path.begin(), path.size()));
}

/// All-pairs shortest-widest paths — the paper's Table 1 step 1 (the overlay
/// link-state database every algorithm consults).
///
/// Per-source trees are computed lazily on first query and cached, so a
/// consumer that only touches a few sources (e.g. a node's local-view solve
/// in the distributed algorithm) pays only for what it uses; call
/// precompute_all() to force the eager O(N^3)-ish behaviour.  The graph is
/// copied (and snapshotted into a CsrView shared by every per-source solve),
/// so the database stays valid independent of the source's lifetime.
///
/// Thread safety: const queries are safe from any number of threads.  Each
/// cache slot publishes its tree through an acquire/release atomic pointer
/// behind a per-slot build mutex (double-checked), so concurrent first
/// touches of the same source block until one thread has built the tree and
/// subsequent reads are wait-free.  The apply_link_* update API requires
/// *exclusive* access — no concurrent queries or updates — like any non-const
/// container operation.  (The class is neither copyable nor movable — a
/// shared database outliving its queries is the intended use; clone() gives
/// an explicit deep copy.)
///
/// Incremental maintenance: apply_link_insert/remove/reweight mutate the
/// stored graph and CSR snapshot in place, then invalidate only the source
/// trees a conservative *dirty-set* predicate cannot prove untouched (see
/// docs/algorithms.md).  Clean trees are retained by pointer.  An event only
/// stamps an invalidated tree *stale* and records the changed arc in the
/// slot's pending-event list; the first tree() query that touches the slot
/// repairs it (double-checked under the slot's build mutex, so concurrent
/// queries repair it exactly once), salvaging — by arena copies through the
/// tree's class-round table — every class round the pending events provably
/// cannot have touched (docs/algorithms.md).  A consumer that queries only a
/// few sources per event pays O(queried) re-sweeps instead of O(dirty);
/// precompute_all(pool) repairs every stale slot in parallel.
///
/// Results after any update are bit-identical — qualities and paths — to a
/// from-scratch build of the mutated graph, at any thread count, pinned by
/// tests and the churn fuzz battery.
class AllPairsShortestWidest {
 public:
  explicit AllPairsShortestWidest(Digraph g)
      : graph_(std::move(g)),
        csr_(graph_),
        slots_(std::make_unique<Slot[]>(graph_.node_count())) {}

  AllPairsShortestWidest(const AllPairsShortestWidest&) = delete;
  AllPairsShortestWidest& operator=(const AllPairsShortestWidest&) = delete;

  const PathQuality& quality(NodeIndex from, NodeIndex to) const {
    return tree(from).quality_to(to);
  }
  std::optional<std::vector<NodeIndex>> path(NodeIndex from, NodeIndex to) const {
    return tree(from).path_to(to);
  }
  /// Non-allocating path view; empty when unreachable.  Valid as long as the
  /// database is alive and the source's tree is not invalidated by an update.
  RoutingTree::PathView path_view(NodeIndex from, NodeIndex to) const {
    return tree(from).path_view(to);
  }
  const RoutingTree& tree(NodeIndex from) const;

  /// True when the source's tree is currently cached (no build on query).
  bool tree_cached(NodeIndex from) const noexcept {
    return from >= 0 && static_cast<std::size_t>(from) < graph_.node_count() &&
           slots_[static_cast<std::size_t>(from)].published.load(
               std::memory_order_acquire) != nullptr;
  }

  std::size_t node_count() const noexcept { return graph_.node_count(); }

  /// The shared adjacency snapshot (descending-bandwidth CSR).
  const CsrView& csr() const noexcept { return csr_; }
  /// The graph this database currently describes (mutated by apply_link_*).
  const Digraph& graph() const noexcept { return graph_; }

  /// Builds every unbuilt source tree and repairs every stale one.
  void precompute_all() const;
  /// Same, but builds and repairs the source trees concurrently on `pool`.
  void precompute_all(util::ThreadPool& pool) const;

  // --- Incremental maintenance (exclusive access required) -----------------

  /// Only for the frozen sflowbench replica's set_routing_repair_mode call.
  enum class RepairMode { kLazy };

  /// One link event as a stale slot remembers it: the changed arc (via,
  /// head) with its metrics before the first and after the last event on
  /// that arc (an absent endpoint — insert's before, remove's after — is
  /// {bandwidth 0, latency inf}).  Only the two endpoint states matter:
  /// repair compares the stale tree's graph against the current one, never
  /// the intermediate graphs.  At repair time each class round classifies
  /// the arc as pruned (untouched), identical (untouched), pessimized
  /// (untouched unless a stored path in the round traverses it), or
  /// possibly-improving (re-run) — see resweep_source.
  struct PendingEvent {
    NodeIndex via = kInvalidNode;   // changed arc's tail u
    NodeIndex head = kInvalidNode;  // changed arc's head v
    double bw_old = 0.0;
    double bw_new = 0.0;
    double lat_old = 0.0;
    double lat_new = 0.0;

    /// Widest class the arc can touch from either endpoint graph.
    double cap() const noexcept { return bw_old < bw_new ? bw_new : bw_old; }
  };

  /// How one apply_link_* event split the slots, for observability and
  /// tests.  Repair work runs later, on query, and is reported through the
  /// routing metrics (docs/observability.md).
  struct UpdateStats {
    std::size_t invalidated_sources = 0;  // built trees the predicate dirtied
    std::size_t stale_sources = 0;        // slots already stale entering event
    std::size_t retained_sources = 0;     // built trees kept by pointer
    std::size_t unbuilt_sources = 0;      // never-built slots, untouched
    std::vector<NodeIndex> dirty;         // the newly invalidated sources
  };

  /// Adds the directed link (from, to) and updates the database.  Throws
  /// std::invalid_argument when the edge already exists (use
  /// apply_link_reweight) or a node is unknown.
  UpdateStats apply_link_insert(NodeIndex from, NodeIndex to, LinkMetrics metrics);
  /// Removes the directed link (from, to) and updates the database.  Throws
  /// std::invalid_argument when the edge does not exist.
  UpdateStats apply_link_remove(NodeIndex from, NodeIndex to);
  /// Replaces the metrics of the existing link (from, to) and updates the
  /// database.  Throws std::invalid_argument when the edge does not exist.
  UpdateStats apply_link_reweight(NodeIndex from, NodeIndex to, LinkMetrics metrics);

  /// True when the source's slot holds a stale tree awaiting repair.  Takes
  /// the slot's build mutex, so it is safe against concurrent queries.
  bool tree_stale(NodeIndex from) const noexcept;

  /// Deep copy: graph, CSR snapshot, every *built* tree (no sweeps run), and
  /// all staleness bookkeeping — a stale slot stays stale in the copy, with
  /// its pending events, and repairs on first query exactly as the original
  /// would.
  std::unique_ptr<AllPairsShortestWidest> clone() const;

 private:
  /// One lazily-initialized source tree.  `published` carries the
  /// release/acquire ordering: non-null means `owned` holds a fully built,
  /// current tree.  The mutex serializes builders and repairers
  /// (double-checked locking); updates (exclusive access) may reset any
  /// field.  Staleness invariant: `stale` implies published == nullptr and
  /// `owned` still holds the pre-event tree (the salvage donor), with
  /// `pending` listing every event applied since it was current — unless
  /// `pending_overflow`, which forgets the list and forces a floorless
  /// (full) re-sweep at repair time.
  struct Slot {
    std::mutex build_mutex;
    std::atomic<const RoutingTree*> published{nullptr};
    std::unique_ptr<const RoutingTree> owned;
    bool stale = false;
    bool pending_overflow = false;
    std::vector<PendingEvent> pending;
  };

  AllPairsShortestWidest(const Digraph& g, const CsrView& csr)
      : graph_(g), csr_(csr), slots_(std::make_unique<Slot[]>(g.node_count())) {}

  /// Shared tail of the three public events: computes the dirty set for a
  /// change of link (u, v) from old_metrics to new_metrics (an absent
  /// endpoint is {0, inf}) against the *already mutated* graph/CSR and
  /// stamps dirty slots stale for repair on first query.
  UpdateStats apply_link_event(NodeIndex u, NodeIndex v,
                               const LinkMetrics& old_metrics,
                               const LinkMetrics& new_metrics);

  /// Records one event on an already-stale slot: dedupes by arc (keeping the
  /// first event's old metrics and the last event's new metrics — only the
  /// endpoint graphs matter to repair) and collapses to pending_overflow
  /// past the bookkeeping cap.
  static void note_pending(Slot& slot, NodeIndex via, NodeIndex head,
                           const LinkMetrics& old_metrics,
                           const LinkMetrics& new_metrics);

  Digraph graph_;
  CsrView csr_;
  std::unique_ptr<Slot[]> slots_;
};

/// Aggregate outcome of apply_graph_diff.
struct GraphDiffStats {
  std::size_t events = 0;      // individual link events applied
  std::size_t removed = 0;
  std::size_t reweighted = 0;
  std::size_t inserted = 0;
  std::size_t invalidated_sources = 0;  // summed over events
};

/// Diffs db.graph() against `target` (same node count required) and applies
/// the difference as incremental link events — removals, then re-weights,
/// then inserts.  Afterwards db describes `target` exactly, with every
/// still-clean tree retained.  This is how a consumer holding a warm
/// database for the pre-churn overlay converts it into a post-churn database
/// without a full rebuild (core::refederation's detect→repair path).
GraphDiffStats apply_graph_diff(AllPairsShortestWidest& db, const Digraph& target);

/// Exhaustive oracle for tests: enumerates every simple path and returns the
/// best by shortest-widest ordering.  Exponential; small graphs only.
std::optional<std::pair<PathQuality, std::vector<NodeIndex>>>
brute_force_shortest_widest(const Digraph& g, NodeIndex from, NodeIndex to,
                            std::size_t max_paths = 100000);

}  // namespace sflow::graph
