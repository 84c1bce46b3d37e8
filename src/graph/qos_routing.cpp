#include "graph/qos_routing.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <span>
#include <stdexcept>

#include "graph/dag.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace sflow::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Routing metrics.  Under concurrent first touches of one source, every
/// contender counts a miss though only one builds — an accepted overcount;
/// the counters are observational and never feed back into routing decisions.
/// `relaxations` counts every arc examined by a Dijkstra scan (both kernels,
/// batched once per tree build, so the hot loop touches no atomics).
struct RoutingMetrics {
  obs::Counter& hits = obs::Registry::global().counter(
      "routing_cache_hits_total", "routing-tree queries served from cache");
  obs::Counter& misses = obs::Registry::global().counter(
      "routing_cache_misses_total", "routing-tree queries that built a tree");
  obs::Histogram& precompute_ms = obs::Registry::global().histogram(
      "routing_precompute_ms", obs::default_duration_buckets_ms(),
      "wall clock of AllPairsShortestWidest::precompute_all calls");
  obs::Counter& relaxations = obs::Registry::global().counter(
      "routing_edge_relaxations_total",
      "arcs examined by routing Dijkstra scans (sweep and legacy kernels)");
  obs::Gauge& tree_peak_bytes = obs::Registry::global().gauge(
      "routing_tree_peak_bytes",
      "largest single routing tree footprint built so far");
  obs::Counter& incremental_updates = obs::Registry::global().counter(
      "routing_incremental_updates_total",
      "link events applied to a routing database in place");
  obs::Counter& dirty_sources = obs::Registry::global().counter(
      "routing_dirty_sources_total",
      "source trees invalidated by incremental link events");
  obs::Counter& rounds_salvaged = obs::Registry::global().counter(
      "routing_class_rounds_salvaged_total",
      "width-class rounds copied wholesale by incremental re-sweeps");
  obs::Counter& lazy_repairs = obs::Registry::global().counter(
      "routing_lazy_repairs_total",
      "stale source trees repaired on first query");
  obs::Histogram& resweep_us = obs::Registry::global().histogram(
      "routing_resweep_us",
      {10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
       25000.0, 50000.0, 100000.0, 250000.0},
      "wall clock per incremental source-tree re-sweep (microseconds)");
};

RoutingMetrics& routing_metrics() {
  static RoutingMetrics instance;
  return instance;
}

/// Per-thread scratch for callers that do not manage a workspace themselves.
RoutingWorkspace& thread_workspace() {
  thread_local RoutingWorkspace ws;
  return ws;
}

using HeapEntry = std::pair<double, NodeIndex>;

/// Walks the predecessor chain source..v (set during the current epoch) into
/// the arena, recording the destination's offset/length.
void append_pred_path(RoutingWorkspace& ws, NodeIndex source, NodeIndex v,
                      std::vector<NodeIndex>& arena,
                      std::vector<std::uint32_t>& offsets,
                      std::vector<std::uint32_t>& lengths) {
  std::vector<NodeIndex>& chain = ws.scratch_path;
  chain.clear();
  for (NodeIndex cur = v;;) {
    chain.push_back(cur);
    if (cur == source) break;
    cur = ws.pred[static_cast<std::size_t>(cur)];
    if (cur == kInvalidNode || chain.size() > ws.pred.size())
      throw std::logic_error("qos_routing: broken predecessor chain");
  }
  const auto vi = static_cast<std::size_t>(v);
  offsets[vi] = static_cast<std::uint32_t>(arena.size());
  lengths[vi] = static_cast<std::uint32_t>(chain.size());
  arena.insert(arena.end(), chain.rbegin(), chain.rend());
}

/// Widest-path Dijkstra over the CSR snapshot: fills ws.width with the
/// maximum achievable bottleneck bandwidth from `source` to every node
/// (0 when unreachable, +inf for the source).  Returns arcs examined.
std::uint64_t widest_pass(const CsrView& csr, NodeIndex source,
                          RoutingWorkspace& ws) {
  std::uint64_t scanned = 0;
  std::fill(ws.width.begin(), ws.width.end(), 0.0);
  ws.width[static_cast<std::size_t>(source)] = kInf;

  const std::uint32_t epoch = ws.next_epoch();
  auto& heap = ws.heap;  // max-heap under std::less (default heap order)
  heap.clear();
  heap.push_back({kInf, source});

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const auto [w, v] = heap.back();
    heap.pop_back();
    const auto vi = static_cast<std::size_t>(v);
    if (ws.done_epoch[vi] == epoch) continue;
    ws.done_epoch[vi] = epoch;
    for (const CsrView::Arc& arc : csr.out_arcs(v)) {
      ++scanned;
      const auto ti = static_cast<std::size_t>(arc.to);
      const double cand = std::min(w, arc.bandwidth);
      if (cand > ws.width[ti]) {
        ws.width[ti] = cand;
        heap.push_back({cand, arc.to});
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
  return scanned;
}

/// Stage 2 of the Wang–Crowcroft scheme: the descending width-class sweep.
/// `ws.order` must hold the destinations to materialize, grouped by width
/// class (ws.width, filled by widest_pass), widest class first, ties by node
/// index.  One pruned latency Dijkstra per class, over reused epoch-stamped
/// labels, scanning only the bandwidth >= b prefix of each node's arcs,
/// stopping as soon as every destination of the class is finalized.  Nodes
/// with width < b are unreachable through >= b arcs by construction, so no
/// explicit filter is needed for them.  Shared verbatim between the full
/// kernel and the incremental partial re-sweep so both stay bit-identical.
/// Every finished round appends its {width, arena end} boundary to `rounds` —
/// the table the salvage fast path copies retained rounds through.
/// One round of the sweep: a pruned latency Dijkstra at class `b`,
/// materializing the `remaining` destinations whose width equals `b`.  The
/// settle order (lexicographic on (dist, node index) via the heap's pair
/// comparison) and the first-achiever predecessor rule make the result — and
/// the order members land in the arena — a function of the bandwidth >= b
/// arc *set* alone, independent of arc numbering; that invariance (pinned by
/// the fuzzer's edge-renumbering oracle) is what the band salvage below
/// leans on.
std::uint64_t sweep_round(const CsrView& csr, NodeIndex source, double b,
                          std::size_t remaining, RoutingWorkspace& ws,
                          std::vector<PathQuality>& qualities,
                          std::vector<std::uint32_t>& offsets,
                          std::vector<std::uint32_t>& lengths,
                          std::vector<NodeIndex>& arena) {
  std::uint64_t scanned = 0;
  const std::uint32_t epoch = ws.next_epoch();
  ws.visit_epoch[static_cast<std::size_t>(source)] = epoch;
  ws.dist[static_cast<std::size_t>(source)] = 0.0;
  ws.pred[static_cast<std::size_t>(source)] = kInvalidNode;
  auto& heap = ws.heap;  // min-heap under std::greater
  heap.clear();
  heap.push_back({0.0, source});

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    const auto vi = static_cast<std::size_t>(v);
    if (ws.done_epoch[vi] == epoch) continue;
    ws.done_epoch[vi] = epoch;

    // A finalized label is exact; class members can be materialized
    // immediately (their whole predecessor chain is already finalized).
    if (v != source && ws.width[vi] == b) {
      qualities[vi] = PathQuality{b, d};
      append_pred_path(ws, source, v, arena, offsets, lengths);
      if (--remaining == 0) break;
    }

    for (const CsrView::Arc& arc : csr.out_arcs(v)) {
      ++scanned;
      if (arc.bandwidth < b) break;  // descending prefix exhausted
      const auto ti = static_cast<std::size_t>(arc.to);
      const double cand = d + arc.latency;
      if (ws.visit_epoch[ti] != epoch || cand < ws.dist[ti]) {
        ws.visit_epoch[ti] = epoch;
        ws.dist[ti] = cand;
        ws.pred[ti] = v;
        heap.push_back({cand, arc.to});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  if (remaining != 0)
    throw std::logic_error("shortest_widest_tree: width class unreachable");
  return scanned;
}

std::uint64_t sweep_class_rounds(const CsrView& csr, NodeIndex source,
                                 RoutingWorkspace& ws,
                                 std::vector<PathQuality>& qualities,
                                 std::vector<std::uint32_t>& offsets,
                                 std::vector<std::uint32_t>& lengths,
                                 std::vector<NodeIndex>& arena,
                                 std::vector<RoutingTree::ClassRound>& rounds) {
  std::uint64_t scanned = 0;
  const std::vector<NodeIndex>& order = ws.order;
  std::size_t i = 0;
  while (i < order.size()) {
    const double b = ws.width[static_cast<std::size_t>(order[i])];
    std::size_t j = i;
    while (j < order.size() && ws.width[static_cast<std::size_t>(order[j])] == b)
      ++j;
    scanned += sweep_round(csr, source, b, j - i, ws, qualities, offsets,
                           lengths, arena);
    rounds.push_back({b, static_cast<std::uint32_t>(arena.size())});
    i = j;
  }
  return scanned;
}

}  // namespace

RoutingTree::RoutingTree(NodeIndex source, std::vector<PathQuality> qualities,
                         const std::vector<std::vector<NodeIndex>>& paths)
    : source_(source),
      qualities_(std::move(qualities)),
      offsets_(qualities_.size(), 0),
      lengths_(qualities_.size(), 0) {
  std::size_t total = 0;
  for (const auto& path : paths) total += path.size();
  arena_.reserve(total);
  for (std::size_t v = 0; v < qualities_.size() && v < paths.size(); ++v) {
    offsets_[v] = static_cast<std::uint32_t>(arena_.size());
    lengths_[v] = static_cast<std::uint32_t>(paths[v].size());
    arena_.insert(arena_.end(), paths[v].begin(), paths[v].end());
  }
  min_positive_width_ = compute_min_positive_width();
}

double RoutingTree::compute_min_positive_width() const noexcept {
  double min_width = 0.0;
  for (std::size_t v = 0; v < qualities_.size(); ++v) {
    if (static_cast<NodeIndex>(v) == source_) continue;
    const double w = qualities_[v].bandwidth;
    if (w > 0.0 && (min_width == 0.0 || w < min_width)) min_width = w;
  }
  return min_width;
}

std::size_t RoutingTree::memory_bytes() const noexcept {
  return sizeof(*this) + qualities_.capacity() * sizeof(PathQuality) +
         arena_.capacity() * sizeof(NodeIndex) +
         (offsets_.capacity() + lengths_.capacity()) * sizeof(std::uint32_t);
}

void RoutingWorkspace::prepare(std::size_t node_count) {
  if (width.size() != node_count) {
    width.assign(node_count, 0.0);
    dist.assign(node_count, 0.0);
    band.assign(node_count, 0.0);
    pred.assign(node_count, kInvalidNode);
    visit_epoch.assign(node_count, 0);
    done_epoch.assign(node_count, 0);
    epoch = 0;
  }
  heap.clear();
  scratch_path.clear();
  order.clear();
}

std::uint32_t RoutingWorkspace::next_epoch() {
  if (epoch == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(visit_epoch.begin(), visit_epoch.end(), 0);
    std::fill(done_epoch.begin(), done_epoch.end(), 0);
    epoch = 0;
  }
  return ++epoch;
}

RoutingTree shortest_widest_tree(const CsrView& csr, NodeIndex source,
                                 RoutingWorkspace* workspace) {
  if (!csr.has_node(source))
    throw std::invalid_argument("shortest_widest_tree: unknown source node");
  RoutingWorkspace& ws = workspace != nullptr ? *workspace : thread_workspace();
  const std::size_t n = csr.node_count();
  ws.prepare(n);

  // Stage 1: per-destination maximum widths.
  std::uint64_t scanned = widest_pass(csr, source, ws);

  // Destinations grouped by width class, widest class first.  Processing
  // order across classes does not affect results (each round restarts from
  // fresh labels); descending keeps the rounds aligned with the legacy
  // kernel's std::set<double, greater<>> iteration for easy tracing.
  std::vector<NodeIndex>& order = ws.order;
  for (std::size_t v = 0; v < n; ++v)
    if (static_cast<NodeIndex>(v) != source && ws.width[v] > 0.0)
      order.push_back(static_cast<NodeIndex>(v));
  std::sort(order.begin(), order.end(), [&ws](NodeIndex a, NodeIndex b) {
    const double wa = ws.width[static_cast<std::size_t>(a)];
    const double wb = ws.width[static_cast<std::size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });

  std::vector<PathQuality> qualities(n, PathQuality::unreachable());
  std::vector<std::uint32_t> offsets(n, 0);
  std::vector<std::uint32_t> lengths(n, 0);
  std::vector<NodeIndex> arena;
  std::vector<RoutingTree::ClassRound> rounds;
  qualities[static_cast<std::size_t>(source)] = PathQuality::source();
  lengths[static_cast<std::size_t>(source)] = 1;
  arena.push_back(source);

  // Stage 2: descending width-class sweep over ws.order (see
  // sweep_class_rounds, shared with the incremental partial re-sweep).
  scanned += sweep_class_rounds(csr, source, ws, qualities, offsets, lengths,
                                arena, rounds);

  RoutingTree tree(source, std::move(qualities), std::move(arena),
                   std::move(offsets), std::move(lengths), std::move(rounds));
  RoutingMetrics& metrics = routing_metrics();
  metrics.relaxations.add(scanned);
  metrics.tree_peak_bytes.update_max(static_cast<double>(tree.memory_bytes()));
  return tree;
}

RoutingTree shortest_widest_tree(const Digraph& g, NodeIndex source) {
  if (!g.has_node(source))
    throw std::invalid_argument("shortest_widest_tree: unknown source node");
  return shortest_widest_tree(CsrView(g), source);
}

RoutingTree shortest_latency_tree(const CsrView& csr, NodeIndex source,
                                  RoutingWorkspace* workspace) {
  if (!csr.has_node(source))
    throw std::invalid_argument("shortest_latency_tree: unknown source node");
  RoutingWorkspace& ws = workspace != nullptr ? *workspace : thread_workspace();
  const std::size_t n = csr.node_count();
  ws.prepare(n);

  std::uint64_t scanned = 0;
  const std::uint32_t epoch = ws.next_epoch();
  ws.visit_epoch[static_cast<std::size_t>(source)] = epoch;
  ws.dist[static_cast<std::size_t>(source)] = 0.0;
  ws.band[static_cast<std::size_t>(source)] = kInf;
  ws.pred[static_cast<std::size_t>(source)] = kInvalidNode;
  auto& heap = ws.heap;
  heap.clear();
  heap.push_back({0.0, source});

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    const auto vi = static_cast<std::size_t>(v);
    if (ws.done_epoch[vi] == epoch) continue;
    ws.done_epoch[vi] = epoch;
    for (const CsrView::Arc& arc : csr.out_arcs(v)) {
      ++scanned;
      const auto ti = static_cast<std::size_t>(arc.to);
      const double cand = d + arc.latency;
      if (ws.visit_epoch[ti] != epoch || cand < ws.dist[ti]) {
        ws.visit_epoch[ti] = epoch;
        ws.dist[ti] = cand;
        // Track the bottleneck along the chosen predecessor chain so path
        // quality needs no re-walk: ws.band[vi] is final once v is popped.
        ws.band[ti] = std::min(ws.band[vi], arc.bandwidth);
        ws.pred[ti] = v;
        heap.push_back({cand, arc.to});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }

  std::vector<PathQuality> qualities(n, PathQuality::unreachable());
  std::vector<std::uint32_t> offsets(n, 0);
  std::vector<std::uint32_t> lengths(n, 0);
  std::vector<NodeIndex> arena;
  qualities[static_cast<std::size_t>(source)] = PathQuality::source();
  lengths[static_cast<std::size_t>(source)] = 1;
  arena.push_back(source);
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<NodeIndex>(v) == source || ws.done_epoch[v] != epoch)
      continue;
    qualities[v] = PathQuality{ws.band[v], ws.dist[v]};
    append_pred_path(ws, source, static_cast<NodeIndex>(v), arena, offsets,
                     lengths);
  }

  routing_metrics().relaxations.add(scanned);
  return RoutingTree(source, std::move(qualities), std::move(arena),
                     std::move(offsets), std::move(lengths));
}

RoutingTree shortest_latency_tree(const Digraph& g, NodeIndex source) {
  if (!g.has_node(source))
    throw std::invalid_argument("shortest_latency_tree: unknown source node");
  return shortest_latency_tree(CsrView(g), source);
}

// --- Legacy reference kernel -------------------------------------------------
//
// The pre-sweep implementation, kept verbatim (plus relaxation counting):
// per-class label allocation, full Dijkstra per class, eager path vectors.
// It is the equivalence oracle for the sweep kernel and the before/after
// baseline of bench/routing_kernel.cpp.

namespace {

std::vector<double> legacy_widest_widths(const Digraph& g, NodeIndex source,
                                         std::uint64_t& scanned) {
  std::vector<double> width(g.node_count(), 0.0);
  width[static_cast<std::size_t>(source)] = kInf;

  using Entry = std::pair<double, NodeIndex>;  // (width, node), max-heap
  std::priority_queue<Entry> heap;
  heap.push({kInf, source});
  std::vector<bool> done(g.node_count(), false);

  while (!heap.empty()) {
    const auto [w, v] = heap.top();
    heap.pop();
    const auto vi = static_cast<std::size_t>(v);
    if (done[vi]) continue;
    done[vi] = true;
    for (const EdgeIndex e : g.out_edges(v)) {
      ++scanned;
      const Edge& edge = g.edge(e);
      const auto ti = static_cast<std::size_t>(edge.to);
      const double cand = std::min(w, edge.metrics.bandwidth);
      if (cand > width[ti]) {
        width[ti] = cand;
        heap.push({cand, edge.to});
      }
    }
  }
  return width;
}

std::pair<std::vector<double>, std::vector<NodeIndex>>
legacy_pruned_latency_dijkstra(const Digraph& g, NodeIndex source,
                               double min_bandwidth, std::uint64_t& scanned) {
  std::vector<double> dist(g.node_count(), kInf);
  std::vector<NodeIndex> pred(g.node_count(), kInvalidNode);
  dist[static_cast<std::size_t>(source)] = 0.0;

  using Entry = std::pair<double, NodeIndex>;  // (latency, node), min-heap
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.push({0.0, source});
  std::vector<bool> done(g.node_count(), false);

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    const auto vi = static_cast<std::size_t>(v);
    if (done[vi]) continue;
    done[vi] = true;
    for (const EdgeIndex e : g.out_edges(v)) {
      ++scanned;
      const Edge& edge = g.edge(e);
      if (edge.metrics.bandwidth < min_bandwidth) continue;
      const auto ti = static_cast<std::size_t>(edge.to);
      const double cand = d + edge.metrics.latency;
      if (cand < dist[ti]) {
        dist[ti] = cand;
        pred[ti] = v;
        heap.push({cand, edge.to});
      }
    }
  }
  return {std::move(dist), std::move(pred)};
}

std::vector<NodeIndex> legacy_materialize_path(const std::vector<NodeIndex>& pred,
                                               NodeIndex source, NodeIndex v) {
  std::vector<NodeIndex> path;
  for (NodeIndex cur = v; cur != kInvalidNode;) {
    path.push_back(cur);
    if (cur == source) break;
    cur = pred[static_cast<std::size_t>(cur)];
    if (path.size() > pred.size())
      throw std::logic_error("qos_routing: predecessor cycle");
  }
  if (path.back() != source)
    throw std::logic_error("qos_routing: broken predecessor chain");
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

RoutingTree shortest_widest_tree_legacy(const Digraph& g, NodeIndex source) {
  if (!g.has_node(source))
    throw std::invalid_argument("shortest_widest_tree: unknown source node");

  std::uint64_t scanned = 0;
  const std::vector<double> width = legacy_widest_widths(g, source, scanned);

  std::vector<PathQuality> qualities(g.node_count(), PathQuality::unreachable());
  std::vector<std::vector<NodeIndex>> paths(g.node_count());
  qualities[static_cast<std::size_t>(source)] = PathQuality::source();
  paths[static_cast<std::size_t>(source)] = {source};

  // Distinct finite positive width classes among destinations.
  std::set<double, std::greater<>> classes;
  for (std::size_t v = 0; v < g.node_count(); ++v)
    if (static_cast<NodeIndex>(v) != source && width[v] > 0.0) classes.insert(width[v]);

  for (const double b : classes) {
    const auto [dist, pred] =
        legacy_pruned_latency_dijkstra(g, source, b, scanned);
    for (std::size_t v = 0; v < g.node_count(); ++v) {
      if (static_cast<NodeIndex>(v) == source || width[v] != b) continue;
      if (dist[v] == kInf)
        throw std::logic_error("shortest_widest_tree: width class unreachable");
      qualities[v] = PathQuality{b, dist[v]};
      paths[v] = legacy_materialize_path(pred, source, static_cast<NodeIndex>(v));
    }
  }
  routing_metrics().relaxations.add(scanned);
  return RoutingTree(source, std::move(qualities), paths);
}

PathQuality path_quality(const Digraph& g, std::span<const NodeIndex> path) {
  if (path.empty()) return PathQuality::unreachable();
  PathQuality q = PathQuality::source();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeIndex e = g.find_edge(path[i], path[i + 1]);
    if (e == kInvalidEdge) return PathQuality::unreachable();
    q = q.extended_by(g.edge(e).metrics);
  }
  return q;
}

namespace {

using PendingEvent = AllPairsShortestWidest::PendingEvent;

/// Most pending events a stale slot keeps before collapsing to
/// pending_overflow (forget the list, full re-sweep at repair time).
constexpr std::size_t kPendingEventCap = 64;

/// Metrics of an arc endpoint state where the arc does not exist — insert's
/// "before", remove's "after".  Zero bandwidth keeps it out of every class
/// round's pruned arc set.
constexpr LinkMetrics kAbsentArc{0.0, std::numeric_limits<double>::infinity()};

/// Re-sweeps one stale source tree after the link events in `events` (each
/// a changed arc (via, head) with its endpoint metrics — see PendingEvent;
/// an empty span means "unknown events" and disables salvage).  Runs the
/// widest pass on the mutated snapshot, then salvages through the old
/// tree's class-round table:
///
///   * widths changed somewhere — prefix salvage: copy every round strictly
///     above the joint salvage floor
///       P = max_i min(max(W_old(s,u_i), W_new(s,u_i)), cap_i)
///     in one contiguous arena copy and re-run the rounds <= P.
///   * every width intact — band salvage: class structure is exactly the
///     old tree's, so rounds are salvaged individually by classifying each
///     event's arc against each round's pruned arc set (pruned / identical
///     / pessimized-and-unused / possibly-improving — see the branch body);
///     only possibly-improving or pessimized-but-used rounds re-run, the
///     rest are copied segment by segment with offsets shifted.
///
/// Soundness (docs/algorithms.md): a round's canonical result — paths,
/// membership, arena segment — is a function of its pruned arc set plus the
/// settle-order tie-breaks (see sweep_round).  A round whose arc set is
/// unchanged (pruned both sides, or identical metrics) copies verbatim; a
/// round where the arc only got worse and no stored path traverses it keeps
/// every stored path feasible at its stored latency while rivals through
/// the arc cannot beat them, and the first-achiever predecessor choices are
/// stable under dist increases confined off the stored tree.  Copied rounds
/// are therefore bit-identical to what a fresh build would produce, which
/// is what keeps a re-swept tree indistinguishable from a from-scratch one
/// and lets later events salvage through it in turn.  Old trees without a
/// round table (compatibility constructor) simply re-run everything.
RoutingTree resweep_source(const CsrView& csr, const RoutingTree& old,
                           std::span<const PendingEvent> events,
                           RoutingWorkspace& ws) {
  const util::Stopwatch resweep_watch;
  const NodeIndex source = old.source();
  const std::size_t n = csr.node_count();
  ws.prepare(n);
  std::uint64_t scanned = widest_pass(csr, source, ws);

  // Joint salvage floor over the pending events.  W_old comes from the stale
  // tree's labels (exact for the graph it was built on), W_new from the
  // widest pass just run on the current graph; intermediate graphs never
  // matter — only the two endpoint sweeps are compared.
  double salvage_floor = events.empty() ? kInf : 0.0;
  for (const PendingEvent& event : events) {
    const double w_old =
        event.via == source ? kInf : old.quality_to(event.via).bandwidth;
    const double w_new =
        event.via == source ? kInf
                            : ws.width[static_cast<std::size_t>(event.via)];
    salvage_floor =
        std::max(salvage_floor, std::min(std::max(w_old, w_new), event.cap()));
  }

  // Band salvage (below) needs every width label intact.
  bool widths_unchanged = true;
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<NodeIndex>(v) == source) continue;
    if (ws.width[v] != old.quality_to(static_cast<NodeIndex>(v)).bandwidth) {
      widths_unchanged = false;
      break;
    }
  }

  // Salvageable prefix of the old round table: rounds strictly above the
  // floor.  The cross-check below asserts the soundness theorem's conclusion
  // — widths above the floor coincide exactly — so a bookkeeping bug in the
  // pending-event lists fails loudly instead of salvaging garbage.
  const std::span<const RoutingTree::ClassRound> old_rounds = old.class_rounds();
  std::size_t salvaged_rounds = 0;
  while (salvaged_rounds < old_rounds.size() &&
         old_rounds[salvaged_rounds].width > salvage_floor)
    ++salvaged_rounds;
  if (!old_rounds.empty()) {
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<NodeIndex>(v) == source) continue;
      const double w_old = old.quality_to(static_cast<NodeIndex>(v)).bandwidth;
      if ((ws.width[v] > salvage_floor || w_old > salvage_floor) &&
          ws.width[v] != w_old)
        throw std::logic_error(
            "resweep_source: width above the salvage floor changed — "
            "pending-event bookkeeping is unsound");
    }
  }
  std::vector<PathQuality> qualities(n, PathQuality::unreachable());
  std::vector<std::uint32_t> offsets(n, 0);
  std::vector<std::uint32_t> lengths(n, 0);
  std::vector<NodeIndex> arena;
  std::vector<RoutingTree::ClassRound> rounds;
  qualities[static_cast<std::size_t>(source)] = PathQuality::source();
  lengths[static_cast<std::size_t>(source)] = 1;

  if (widths_unchanged && !old_rounds.empty() && !events.empty()) {
    // Band salvage: with every width label intact the class structure —
    // round set, membership, order — is exactly the old tree's, so rounds
    // can be salvaged *individually*, not just as the prefix above the
    // floor.  Per event, round b classifies the changed arc (u, v) by its
    // presence in the round's pruned (bandwidth >= b) arc set before and
    // after — "before" uses the stale tree's graph, "after" the current one;
    // b > W(s, u) means u is outside the round's pruned node set in both:
    //   * in neither, or u unreached   — arc never relaxable: untouched.
    //   * in both, latency equal      — identical arc set: untouched.
    //   * pessimized (dropped out, or in both with latency worsened) —
    //     untouched *unless some stored path of the round traverses (u, v)*:
    //     unused means every stored path stays feasible at its stored
    //     latency, rival paths through the arc only got worse, and the
    //     canonical tie-breaks (settle order by (dist, node), predecessor =
    //     first achiever) are stable when the only dist changes are
    //     increases off the stored tree — so the round's canonical result is
    //     bit-identical.
    //   * possibly improving (appeared, or latency dropped) — re-run.
    // A round must be untouched under *every* event to be salvaged; copied
    // rounds shift offsets by the running delta, re-run rounds rebuild their
    // single-class Dijkstra in place, keeping the assembled arena
    // layout-identical to a fresh build's.
    const std::size_t round_count = old_rounds.size();

    // Round membership, recovered from the (unchanged) width labels.
    std::vector<std::vector<NodeIndex>> members(round_count);
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<NodeIndex>(v) == source || ws.width[v] <= 0.0) continue;
      const auto it = std::lower_bound(
          old_rounds.begin(), old_rounds.end(), ws.width[v],
          [](const RoutingTree::ClassRound& r, double w) { return r.width > w; });
      if (it == old_rounds.end() || it->width != ws.width[v])
        throw std::logic_error(
            "resweep_source: no class round for an unchanged width — the old "
            "round table is inconsistent with its labels");
      members[static_cast<std::size_t>(it - old_rounds.begin())].push_back(
          static_cast<NodeIndex>(v));
    }

    const auto round_uses_arc = [&](std::size_t r, NodeIndex u, NodeIndex v) {
      for (const NodeIndex dest : members[r]) {
        const std::span<const NodeIndex> path = old.path_view(dest);
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
          if (path[i] == u && path[i + 1] == v) return true;
      }
      return false;
    };

    // Two passes so the usage scans (O(stored paths) each) only run for
    // rounds that no event already condemned outright.
    std::vector<char> affected(round_count, 0);
    for (const bool pessimizing_pass : {false, true}) {
      for (const PendingEvent& event : events) {
        const double w_u =
            event.via == source ? kInf
                                : ws.width[static_cast<std::size_t>(event.via)];
        for (std::size_t r = 0; r < round_count; ++r) {
          const double b = old_rounds[r].width;
          if (affected[r] || b > w_u) continue;
          const bool in_old = event.bw_old >= b;
          const bool in_new = event.bw_new >= b;
          if (!in_old && !in_new) continue;
          if (in_old && in_new && event.lat_old == event.lat_new) continue;
          const bool pessimized =
              in_old && (!in_new || event.lat_new >= event.lat_old);
          if (pessimized != pessimizing_pass) continue;
          if (!pessimized || round_uses_arc(r, event.via, event.head))
            affected[r] = 1;
        }
      }
    }

    const std::span<const NodeIndex> old_arena = old.arena();
    arena.push_back(source);
    std::uint32_t old_seg_begin = 1;  // old arena slot 0 is the source path
    std::size_t copied = 0;
    for (std::size_t r = 0; r < round_count; ++r) {
      const std::uint32_t old_seg_end = old_rounds[r].arena_end;
      const double b = old_rounds[r].width;
      if (affected[r]) {
        scanned += sweep_round(csr, source, b, members[r].size(), ws,
                               qualities, offsets, lengths, arena);
      } else {
        const std::int64_t delta = static_cast<std::int64_t>(arena.size()) -
                                   static_cast<std::int64_t>(old_seg_begin);
        arena.insert(arena.end(), old_arena.begin() + old_seg_begin,
                     old_arena.begin() + old_seg_end);
        for (const NodeIndex dest : members[r]) {
          const auto v = static_cast<std::size_t>(dest);
          qualities[v] = old.quality_to(dest);
          offsets[v] = static_cast<std::uint32_t>(
              static_cast<std::int64_t>(old.path_offset(dest)) + delta);
          lengths[v] = static_cast<std::uint32_t>(old.path_view(dest).size());
        }
        ++copied;
      }
      rounds.push_back({b, static_cast<std::uint32_t>(arena.size())});
      old_seg_begin = old_seg_end;
    }
    salvaged_rounds = copied;
  } else {
    const bool salvage = salvaged_rounds > 0;

    // Salvaged rounds first — the arena prefix copy keeps the re-swept
    // tree's layout identical to a fresh build's (descending rounds, source
    // at slot 0), so a later event can salvage through this tree's table in
    // turn.
    if (salvage) {
      const std::uint32_t prefix_end = old_rounds[salvaged_rounds - 1].arena_end;
      const std::span<const NodeIndex> old_arena = old.arena();
      arena.assign(old_arena.begin(), old_arena.begin() + prefix_end);
      rounds.assign(old_rounds.begin(), old_rounds.begin() + salvaged_rounds);
      for (std::size_t v = 0; v < n; ++v) {
        if (static_cast<NodeIndex>(v) == source || ws.width[v] <= salvage_floor)
          continue;
        const auto dest = static_cast<NodeIndex>(v);
        qualities[v] = old.quality_to(dest);
        offsets[v] = old.path_offset(dest);
        lengths[v] = static_cast<std::uint32_t>(old.path_view(dest).size());
      }
    } else {
      arena.push_back(source);
    }

    // Destinations to re-sweep, grouped by width class, widest first (same
    // comparator as the full kernel so shared classes keep one round).
    // Without a usable round table everything reachable re-runs, floor or
    // not.
    std::vector<NodeIndex>& order = ws.order;
    for (std::size_t v = 0; v < n; ++v) {
      if (static_cast<NodeIndex>(v) == source || ws.width[v] <= 0.0) continue;
      if (salvage && ws.width[v] > salvage_floor) continue;
      order.push_back(static_cast<NodeIndex>(v));
    }
    std::sort(order.begin(), order.end(), [&ws](NodeIndex a, NodeIndex b) {
      const double wa = ws.width[static_cast<std::size_t>(a)];
      const double wb = ws.width[static_cast<std::size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });

    scanned += sweep_class_rounds(csr, source, ws, qualities, offsets, lengths,
                                  arena, rounds);
  }

  RoutingTree tree(source, std::move(qualities), std::move(arena),
                   std::move(offsets), std::move(lengths), std::move(rounds));
  RoutingMetrics& metrics = routing_metrics();
  metrics.relaxations.add(scanned);
  metrics.rounds_salvaged.add(salvaged_rounds);
  metrics.tree_peak_bytes.update_max(static_cast<double>(tree.memory_bytes()));
  metrics.resweep_us.observe(resweep_watch.elapsed_us());
  return tree;
}

}  // namespace

const RoutingTree& AllPairsShortestWidest::tree(NodeIndex from) const {
  const auto index = static_cast<std::size_t>(from);
  if (from < 0 || index >= graph_.node_count())
    throw std::out_of_range("AllPairsShortestWidest::tree: unknown source");
  Slot& slot = slots_[index];
  RoutingMetrics& metrics = routing_metrics();
  if (const RoutingTree* published = slot.published.load(std::memory_order_acquire)) {
    metrics.hits.increment();
    return *published;
  }
  metrics.misses.increment();
  const std::lock_guard<std::mutex> lock(slot.build_mutex);
  if (const RoutingTree* published = slot.published.load(std::memory_order_relaxed))
    return *published;  // lost the build race; the winner published under the lock
  if (slot.stale) {
    // Repair on first touch, salvage floor taken jointly over every event
    // pending on this slot.  Concurrent queries of the same stale source
    // serialize on the build mutex and the loser returns through the
    // double-check above.
    const std::span<const PendingEvent> events =
        slot.pending_overflow ? std::span<const PendingEvent>()
                              : std::span<const PendingEvent>(slot.pending);
    slot.owned = std::make_unique<const RoutingTree>(
        resweep_source(csr_, *slot.owned, events, thread_workspace()));
    slot.stale = false;
    slot.pending_overflow = false;
    slot.pending.clear();
    metrics.lazy_repairs.increment();
  } else {
    slot.owned =
        std::make_unique<const RoutingTree>(shortest_widest_tree(csr_, from));
  }
  slot.published.store(slot.owned.get(), std::memory_order_release);
  return *slot.owned;
}

void AllPairsShortestWidest::note_pending(Slot& slot, NodeIndex via,
                                          NodeIndex head,
                                          const LinkMetrics& old_metrics,
                                          const LinkMetrics& new_metrics) {
  if (slot.pending_overflow) return;
  // Dedupe by arc: repair only ever compares the stale tree's graph against
  // the current one, so a chain of events on the same (via, head) folds to
  // "first old metrics -> last new metrics" exactly — a remove followed by a
  // re-insert, say, is indistinguishable from one reweight.
  for (PendingEvent& event : slot.pending) {
    if (event.via == via && event.head == head) {
      event.bw_new = new_metrics.bandwidth;
      event.lat_new = new_metrics.latency;
      return;
    }
  }
  if (slot.pending.size() >= kPendingEventCap) {
    // Bookkeeping cap reached: forget the list and fall back to a floorless
    // (full) re-sweep at repair time.  Bounds per-slot memory under
    // arbitrarily long query-free churn.
    slot.pending_overflow = true;
    slot.pending.clear();
    slot.pending.shrink_to_fit();
    return;
  }
  slot.pending.push_back({via, head, old_metrics.bandwidth,
                          new_metrics.bandwidth, old_metrics.latency,
                          new_metrics.latency});
}

bool AllPairsShortestWidest::tree_stale(NodeIndex from) const noexcept {
  if (from < 0 || static_cast<std::size_t>(from) >= graph_.node_count())
    return false;
  Slot& slot = slots_[static_cast<std::size_t>(from)];
  const std::lock_guard<std::mutex> lock(slot.build_mutex);
  return slot.stale;
}

AllPairsShortestWidest::UpdateStats AllPairsShortestWidest::apply_link_event(
    NodeIndex u, NodeIndex v, const LinkMetrics& old_metrics,
    const LinkMetrics& new_metrics) {
  UpdateStats stats;
  const std::size_t n = graph_.node_count();
  const double old_bandwidth = old_metrics.bandwidth;
  const double new_bandwidth = new_metrics.bandwidth;

  // Conservative dirty-set predicate against each *current* tree (still
  // cached; graph_/csr_ already describe the new state).  See
  // docs/algorithms.md for the soundness argument; the short form: a source s
  // stays clean when
  //   - s == v: arcs into the source never join a tree, or
  //   - u is unreachable from s: no path from s can contain (u, v), and no
  //     (u, v) change can alter u's reachability, or
  //   - the event neither creates a wider way into v (cap_new <= W(s,v)) nor
  //     touches any class round the old sweep ran (min positive width >
  //     max(cap_old, cap_new), so the arc is pruned or u unreached in every
  //     round of both the old and the new sweep).
  // Already-stale slots cannot run the predicate — their labels describe an
  // older graph — so they unconditionally note the event and stay stale.
  std::size_t built_current = 0;
  for (std::size_t s = 0; s < n; ++s) {
    Slot& slot = slots_[s];
    const auto source = static_cast<NodeIndex>(s);
    if (slot.stale) {
      ++stats.stale_sources;
      if (source != v) note_pending(slot, u, v, old_metrics, new_metrics);
      continue;
    }
    const RoutingTree* old_tree = slot.published.load(std::memory_order_relaxed);
    if (old_tree == nullptr) continue;
    ++built_current;
    if (source == v) continue;
    const double width_to_u =
        source == u ? kInf : old_tree->quality_to(u).bandwidth;
    if (width_to_u <= 0.0) continue;
    const double cap_old = std::min(width_to_u, old_bandwidth);
    const double cap_new = std::min(width_to_u, new_bandwidth);
    const double min_class = old_tree->min_positive_width();
    const bool widens_v = cap_new > old_tree->quality_to(v).bandwidth;
    const bool touches_round =
        min_class > 0.0 && min_class <= std::max(cap_old, cap_new);
    if (widens_v || touches_round) stats.dirty.push_back(source);
  }
  stats.invalidated_sources = stats.dirty.size();
  stats.retained_sources = built_current - stats.dirty.size();
  stats.unbuilt_sources = n - built_current - stats.stale_sources;

  RoutingMetrics& metrics = routing_metrics();
  metrics.incremental_updates.increment();
  metrics.dirty_sources.add(stats.dirty.size());

  // Stamp the newly dirty slots stale: unpublish (queries must not see the
  // outdated tree), keep the old tree owned as the salvage donor, record the
  // event for the floor computation.  The first query repairs the slot.
  for (const NodeIndex source : stats.dirty) {
    Slot& slot = slots_[static_cast<std::size_t>(source)];
    slot.published.store(nullptr, std::memory_order_relaxed);
    slot.stale = true;
    note_pending(slot, u, v, old_metrics, new_metrics);
  }
  return stats;
}

AllPairsShortestWidest::UpdateStats AllPairsShortestWidest::apply_link_insert(
    NodeIndex from, NodeIndex to, LinkMetrics metrics) {
  if (!graph_.has_node(from) || !graph_.has_node(to))
    throw std::invalid_argument(
        "AllPairsShortestWidest::apply_link_insert: unknown node");
  if (graph_.has_edge(from, to))
    throw std::invalid_argument(
        "AllPairsShortestWidest::apply_link_insert: edge already exists");
  graph_.add_edge(from, to, metrics);
  csr_ = CsrView(graph_);  // structural change shifts later arc slices
  return apply_link_event(from, to, kAbsentArc, metrics);
}

AllPairsShortestWidest::UpdateStats AllPairsShortestWidest::apply_link_remove(
    NodeIndex from, NodeIndex to) {
  const EdgeIndex e = graph_.find_edge(from, to);
  if (e == kInvalidEdge)
    throw std::invalid_argument(
        "AllPairsShortestWidest::apply_link_remove: no such edge");
  const LinkMetrics old_metrics = graph_.edge(e).metrics;
  graph_.remove_edge(from, to);
  csr_ = CsrView(graph_);  // structural change shifts later arc slices
  return apply_link_event(from, to, old_metrics, kAbsentArc);
}

AllPairsShortestWidest::UpdateStats AllPairsShortestWidest::apply_link_reweight(
    NodeIndex from, NodeIndex to, LinkMetrics metrics) {
  const EdgeIndex e = graph_.find_edge(from, to);
  if (e == kInvalidEdge)
    throw std::invalid_argument(
        "AllPairsShortestWidest::apply_link_reweight: no such edge");
  const LinkMetrics old_metrics = graph_.edge(e).metrics;
  graph_.add_edge(from, to, metrics);  // existing pair: metrics replaced in place
  csr_.apply_reweight(from, to, metrics.bandwidth, metrics.latency);
  return apply_link_event(from, to, old_metrics, metrics);
}

std::unique_ptr<AllPairsShortestWidest> AllPairsShortestWidest::clone() const {
  std::unique_ptr<AllPairsShortestWidest> copy(
      new AllPairsShortestWidest(graph_, csr_));
  for (std::size_t s = 0; s < graph_.node_count(); ++s) {
    Slot& slot = slots_[s];
    // The build mutex orders this read against a concurrent lazy repair or
    // first build of the same slot (clone() is a const query).
    const std::lock_guard<std::mutex> lock(slot.build_mutex);
    if (slot.owned == nullptr) continue;
    Slot& out = copy->slots_[s];
    out.owned = std::make_unique<const RoutingTree>(*slot.owned);
    out.stale = slot.stale;
    out.pending_overflow = slot.pending_overflow;
    out.pending = slot.pending;
    if (!slot.stale)
      out.published.store(out.owned.get(), std::memory_order_release);
  }
  return copy;
}

GraphDiffStats apply_graph_diff(AllPairsShortestWidest& db,
                                const Digraph& target) {
  if (target.node_count() != db.node_count())
    throw std::invalid_argument("apply_graph_diff: node counts differ");

  // Snapshot the event lists before applying anything: apply_link_* mutates
  // db.graph(), and the diff must be taken against one consistent state.
  struct Endpoints {
    NodeIndex from;
    NodeIndex to;
  };
  std::vector<Endpoints> removals;
  std::vector<std::pair<Endpoints, LinkMetrics>> reweights;
  std::vector<std::pair<Endpoints, LinkMetrics>> inserts;
  const Digraph& current = db.graph();
  for (const Edge& e : current.edges()) {
    if (e.from == kInvalidNode) continue;  // removed-edge tombstone
    const EdgeIndex in_target = target.find_edge(e.from, e.to);
    if (in_target == kInvalidEdge) {
      removals.push_back({e.from, e.to});
    } else if (const LinkMetrics& m = target.edge(in_target).metrics;
               m != e.metrics) {
      reweights.push_back({{e.from, e.to}, m});
    }
  }
  for (const Edge& e : target.edges()) {
    if (e.from == kInvalidNode) continue;
    if (!current.has_edge(e.from, e.to))
      inserts.push_back({{e.from, e.to}, e.metrics});
  }

  GraphDiffStats stats;
  const auto absorb = [&stats](const AllPairsShortestWidest::UpdateStats& u) {
    ++stats.events;
    stats.invalidated_sources += u.invalidated_sources;
  };
  for (const Endpoints& e : removals) {
    absorb(db.apply_link_remove(e.from, e.to));
    ++stats.removed;
  }
  for (const auto& [e, m] : reweights) {
    absorb(db.apply_link_reweight(e.from, e.to, m));
    ++stats.reweighted;
  }
  for (const auto& [e, m] : inserts) {
    absorb(db.apply_link_insert(e.from, e.to, m));
    ++stats.inserted;
  }
  return stats;
}

void AllPairsShortestWidest::precompute_all() const {
  const obs::ScopedTimer timer(routing_metrics().precompute_ms);
  for (std::size_t v = 0; v < graph_.node_count(); ++v)
    tree(static_cast<NodeIndex>(v));
}

void AllPairsShortestWidest::precompute_all(util::ThreadPool& pool) const {
  const obs::ScopedTimer timer(routing_metrics().precompute_ms);
  pool.parallel_for(0, graph_.node_count(),
                    [this](std::size_t v) { tree(static_cast<NodeIndex>(v)); });
}

std::optional<std::pair<PathQuality, std::vector<NodeIndex>>>
brute_force_shortest_widest(const Digraph& g, NodeIndex from, NodeIndex to,
                            std::size_t max_paths) {
  const auto paths = enumerate_simple_paths(g, from, to, max_paths);
  std::optional<std::pair<PathQuality, std::vector<NodeIndex>>> best;
  for (const auto& path : paths) {
    const PathQuality q = path_quality(g, path);
    if (!best || q.better_than(best->first)) best = {q, path};
  }
  return best;
}

}  // namespace sflow::graph
