#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/qos_routing.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sflow::graph {
namespace {

/// The classic counterexample to single-label lexicographic Dijkstra: the
/// narrower-but-shorter prefix 0->2 must win after the bottleneck link 2->3
/// equalizes widths.
TEST(ShortestWidest, LatencyTieBreakSurvivesBottleneck) {
  Digraph g(4);
  g.add_edge(0, 1, {10, 5});  // wide, slow prefix
  g.add_edge(0, 2, {8, 1});   // narrow, fast prefix
  g.add_edge(1, 3, {8, 1});
  g.add_edge(2, 3, {8, 1});
  const RoutingTree tree = shortest_widest_tree(g, 0);
  EXPECT_DOUBLE_EQ(tree.quality_to(3).bandwidth, 8);
  EXPECT_DOUBLE_EQ(tree.quality_to(3).latency, 2);
  EXPECT_EQ(tree.path_to(3), (std::vector<NodeIndex>{0, 2, 3}));
}

TEST(ShortestWidest, PrefersWiderOverShorter) {
  Digraph g(3);
  g.add_edge(0, 2, {5, 1});    // direct but narrow
  g.add_edge(0, 1, {50, 10});  // detour, wide
  g.add_edge(1, 2, {50, 10});
  const RoutingTree tree = shortest_widest_tree(g, 0);
  EXPECT_DOUBLE_EQ(tree.quality_to(2).bandwidth, 50);
  EXPECT_DOUBLE_EQ(tree.quality_to(2).latency, 20);
}

TEST(ShortestWidest, SourceAndUnreachableLabels) {
  Digraph g(3);
  g.add_edge(0, 1, {5, 1});
  const RoutingTree tree = shortest_widest_tree(g, 0);
  EXPECT_TRUE(tree.reachable(0));
  EXPECT_EQ(tree.path_to(0), (std::vector<NodeIndex>{0}));
  EXPECT_TRUE(tree.reachable(1));
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_EQ(tree.path_to(2), std::nullopt);
  EXPECT_TRUE(tree.quality_to(2).is_unreachable());
}

TEST(ShortestWidest, RejectsUnknownSource) {
  const Digraph g(2);
  EXPECT_THROW(shortest_widest_tree(g, 5), std::invalid_argument);
}

TEST(ShortestLatency, PicksFastestRoute) {
  Digraph g(3);
  g.add_edge(0, 2, {5, 10});
  g.add_edge(0, 1, {100, 2});
  g.add_edge(1, 2, {100, 2});
  const RoutingTree tree = shortest_latency_tree(g, 0);
  EXPECT_DOUBLE_EQ(tree.quality_to(2).latency, 4);
  EXPECT_DOUBLE_EQ(tree.quality_to(2).bandwidth, 100);
  EXPECT_EQ(tree.path_to(2), (std::vector<NodeIndex>{0, 1, 2}));
}

/// Pins the exact lexicographic order the width-class sweep assumes (and the
/// check layer re-derives): wider wins, equal width breaks ties on lower
/// latency, and the degenerate corners behave deterministically.
TEST(PathQuality, UnreachableVersusZeroBandwidth) {
  const PathQuality unreachable = PathQuality::unreachable();  // {0, inf}
  const PathQuality zero_width{0.0, 5.0};

  // Both count as unreachable to routing (width <= 0)...
  EXPECT_TRUE(unreachable.is_unreachable());
  EXPECT_TRUE(zero_width.is_unreachable());
  // ...but the order still ranks the finite-latency one strictly better at
  // equal (zero) width, so unreachable() is the unique bottom element.
  EXPECT_TRUE(zero_width.better_than(unreachable));
  EXPECT_FALSE(unreachable.better_than(zero_width));
  EXPECT_TRUE(PathQuality({1.0, 100.0}).better_than(zero_width));
}

TEST(PathQuality, EqualBandwidthInfiniteLatencyTies) {
  const double inf = std::numeric_limits<double>::infinity();
  const PathQuality a{10.0, inf};
  const PathQuality b{10.0, inf};
  // inf < inf is false on both sides: a genuine tie, not a win.
  EXPECT_FALSE(a.better_than(b));
  EXPECT_FALSE(b.better_than(a));
  EXPECT_TRUE(a == b);
  // Any finite latency beats infinite at equal width.
  EXPECT_TRUE(PathQuality({10.0, 1e12}).better_than(a));
  EXPECT_FALSE(a.better_than(PathQuality({10.0, 1e12})));
}

TEST(PathQuality, NanNeverWinsOrLoses) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const PathQuality sound{1.0, 2.0};
  const PathQuality nan_width{nan, 1.0};
  const PathQuality nan_latency{1.0, nan};
  // A NaN quality is unordered against everything — it can neither win nor
  // lose, so better_than never silently launders it through a comparison.
  // Rejecting NaNs outright is the check layer's job (nan-quality /
  // bad-metric in check::validate_flow_graph).
  EXPECT_FALSE(nan_width.better_than(sound));
  EXPECT_FALSE(sound.better_than(nan_width));
  EXPECT_FALSE(nan_latency.better_than(sound));
  EXPECT_FALSE(sound.better_than(nan_latency));
  EXPECT_FALSE(nan_width.better_than(nan_width));
}

TEST(PathQualityFn, EvaluatesExplicitPaths) {
  Digraph g(3);
  g.add_edge(0, 1, {10, 2});
  g.add_edge(1, 2, {4, 3});
  const PathQuality q = path_quality(g, {0, 1, 2});
  EXPECT_DOUBLE_EQ(q.bandwidth, 4);
  EXPECT_DOUBLE_EQ(q.latency, 5);
  EXPECT_TRUE(path_quality(g, {0, 2}).is_unreachable());
  EXPECT_TRUE(path_quality(g, {}).is_unreachable());
  EXPECT_FALSE(path_quality(g, {1}).is_unreachable());
}

TEST(AllPairs, MatchesSingleSourceRuns) {
  Digraph g(4);
  g.add_edge(0, 1, {10, 1});
  g.add_edge(1, 2, {8, 1});
  g.add_edge(2, 3, {6, 1});
  g.add_edge(0, 3, {2, 1});
  const AllPairsShortestWidest all(g);
  for (NodeIndex s = 0; s < 4; ++s) {
    const RoutingTree single = shortest_widest_tree(g, s);
    for (NodeIndex t = 0; t < 4; ++t) {
      EXPECT_EQ(all.quality(s, t), single.quality_to(t))
          << "pair " << s << "->" << t;
    }
  }
}

namespace {
Digraph random_routing_graph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Digraph g(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      if (a != b && rng.chance(0.3))
        g.add_edge(static_cast<NodeIndex>(a), static_cast<NodeIndex>(b),
                   {rng.uniform_real(1, 100), rng.uniform_real(1, 10)});
  return g;
}
}  // namespace

/// Regression for the const-laundered lazy cache: one shared database must
/// serve cold queries from many threads (run under TSan via
/// SFLOW_SANITIZE=thread to check the synchronization, not just the values).
TEST(AllPairs, ConcurrentColdQueriesAreSafeAndConsistent) {
  const std::size_t n = 24;
  const Digraph g = random_routing_graph(n, 77);

  // Serial reference on an independent database.
  const AllPairsShortestWidest reference(g);
  reference.precompute_all();

  const AllPairsShortestWidest shared(g);
  constexpr std::size_t kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts from a different source so first touches collide.
      for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<NodeIndex>((t * 3 + i) % n);
        for (std::size_t v = 0; v < n; ++v) {
          const auto d = static_cast<NodeIndex>(v);
          if (!(shared.quality(s, d) == reference.quality(s, d)))
            ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(AllPairs, ParallelPrecomputeMatchesSerial) {
  const Digraph g = random_routing_graph(20, 99);
  const AllPairsShortestWidest serial(g);
  serial.precompute_all();

  util::ThreadPool pool(4);
  const AllPairsShortestWidest parallel(g);
  parallel.precompute_all(pool);

  for (NodeIndex s = 0; s < 20; ++s)
    for (NodeIndex t = 0; t < 20; ++t) {
      EXPECT_EQ(parallel.quality(s, t), serial.quality(s, t));
      EXPECT_EQ(parallel.path(s, t), serial.path(s, t));
    }
}

TEST(AllPairs, RejectsUnknownSource) {
  const AllPairsShortestWidest all(Digraph(3));
  EXPECT_THROW(all.tree(7), std::out_of_range);
}

/// Property sweep: on random digraphs the algorithm must agree with the
/// brute-force enumeration oracle for every pair.
class ShortestWidestRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShortestWidestRandom, AgreesWithBruteForceOracle) {
  util::Rng rng(GetParam());
  const std::size_t n = 5 + rng.uniform_index(4);  // 5..8 nodes
  Digraph g(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || !rng.chance(0.45)) continue;
      // Small integer metrics force frequent width ties, stressing the
      // latency tie-break.
      g.add_edge(static_cast<NodeIndex>(a), static_cast<NodeIndex>(b),
                 {static_cast<double>(rng.uniform_int(1, 4)),
                  static_cast<double>(rng.uniform_int(1, 9))});
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const RoutingTree tree = shortest_widest_tree(g, static_cast<NodeIndex>(s));
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto oracle = brute_force_shortest_widest(
          g, static_cast<NodeIndex>(s), static_cast<NodeIndex>(t));
      const PathQuality got = tree.quality_to(static_cast<NodeIndex>(t));
      if (!oracle) {
        EXPECT_TRUE(got.is_unreachable()) << s << "->" << t;
        continue;
      }
      EXPECT_DOUBLE_EQ(got.bandwidth, oracle->first.bandwidth) << s << "->" << t;
      EXPECT_DOUBLE_EQ(got.latency, oracle->first.latency) << s << "->" << t;
      // The returned path must actually achieve the reported quality.
      const auto path = tree.path_to(static_cast<NodeIndex>(t));
      ASSERT_TRUE(path);
      const PathQuality along = path_quality(g, *path);
      EXPECT_DOUBLE_EQ(along.bandwidth, got.bandwidth);
      EXPECT_DOUBLE_EQ(along.latency, got.latency);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortestWidestRandom,
                         ::testing::Range<std::uint64_t>(0, 25));

/// Zero-latency variant of the oracle sweep: latency draws include 0, so the
/// latency tie-break has to pick among equal-cost prefixes deterministically.
TEST(ShortestWidestRandom, AgreesWithBruteForceOracleOnZeroLatencyLinks) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 5 + rng.uniform_index(3);
    Digraph g(n);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b)
        if (a != b && rng.chance(0.45))
          g.add_edge(static_cast<NodeIndex>(a), static_cast<NodeIndex>(b),
                     {static_cast<double>(rng.uniform_int(1, 3)),
                      static_cast<double>(rng.uniform_int(0, 4))});
    for (std::size_t s = 0; s < n; ++s) {
      const RoutingTree tree = shortest_widest_tree(g, static_cast<NodeIndex>(s));
      for (std::size_t t = 0; t < n; ++t) {
        if (s == t) continue;
        const auto oracle = brute_force_shortest_widest(
            g, static_cast<NodeIndex>(s), static_cast<NodeIndex>(t));
        const PathQuality got = tree.quality_to(static_cast<NodeIndex>(t));
        if (!oracle) {
          EXPECT_TRUE(got.is_unreachable()) << s << "->" << t;
          continue;
        }
        EXPECT_EQ(got, oracle->first) << "seed " << seed << " " << s << "->" << t;
      }
    }
  }
}

// --- Sweep kernel vs legacy reference kernel ---------------------------------
//
// The production width-class sweep (CSR prefix scans, reused workspace,
// per-class early exit) must be *bit-identical* to the pre-sweep two-stage
// implementation: same PathQuality per pair AND the same chosen path (the
// shortest-widest tie-break contract).

/// Random digraph generator with the adversarial shapes the sweep optimizes
/// around: duplicated bandwidths (shared width classes), zero-latency links
/// (latency-tie storms), and isolated nodes (empty width classes).
Digraph equivalence_graph(std::size_t n, std::uint64_t seed, bool shared_classes,
                          bool zero_latency, std::size_t isolated,
                          double edge_prob) {
  util::Rng rng(seed);
  Digraph g(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || a >= n - isolated || b >= n - isolated) continue;
      if (!rng.chance(edge_prob)) continue;
      const double bandwidth =
          shared_classes ? static_cast<double>(rng.uniform_int(1, 5))
                         : rng.uniform_real(1.0, 100.0);
      const double latency = zero_latency && rng.chance(0.3)
                                 ? 0.0
                                 : rng.uniform_real(0.1, 10.0);
      g.add_edge(static_cast<NodeIndex>(a), static_cast<NodeIndex>(b),
                 {bandwidth, latency});
    }
  }
  return g;
}

void expect_trees_identical(const Digraph& g) {
  const std::size_t n = g.node_count();
  const CsrView csr(g);
  RoutingWorkspace workspace;
  for (std::size_t s = 0; s < n; ++s) {
    const auto source = static_cast<NodeIndex>(s);
    const RoutingTree legacy = shortest_widest_tree_legacy(g, source);
    const RoutingTree sweep = shortest_widest_tree(csr, source, &workspace);
    for (std::size_t t = 0; t < n; ++t) {
      const auto dest = static_cast<NodeIndex>(t);
      ASSERT_EQ(sweep.quality_to(dest), legacy.quality_to(dest))
          << "quality " << s << "->" << t;
      ASSERT_EQ(sweep.path_to(dest), legacy.path_to(dest))
          << "path " << s << "->" << t;
    }
  }
}

TEST(SweepLegacyEquivalence, ContinuousBandwidths100Nodes) {
  // Every destination tends to be its own width class — the sweep's worst
  // case and the paper's §5 regime.
  expect_trees_identical(
      equivalence_graph(100, 1001, false, false, 0, 0.06));
}

TEST(SweepLegacyEquivalence, SharedWidthClasses100Nodes) {
  // Five distinct bandwidths: classes hold many destinations each, so the
  // per-class early exit has to wait for the *last* member.
  expect_trees_identical(equivalence_graph(100, 2002, true, false, 0, 0.06));
}

TEST(SweepLegacyEquivalence, ZeroLatencyLinks) {
  expect_trees_identical(equivalence_graph(80, 3003, true, true, 0, 0.07));
}

TEST(SweepLegacyEquivalence, DisconnectedNodes) {
  // Sparse graph plus 6 fully isolated nodes: unreachable destinations must
  // stay PathQuality::unreachable() with empty paths in both kernels.
  expect_trees_identical(equivalence_graph(60, 4004, false, false, 6, 0.03));
}

TEST(SweepLegacyEquivalence, SmallGraphsManySeeds) {
  for (std::uint64_t seed = 0; seed < 40; ++seed)
    expect_trees_identical(
        equivalence_graph(12, 5000 + seed, seed % 2 == 0, seed % 3 == 0,
                          seed % 5 == 0 ? 2 : 0, 0.3));
}

// --- Arena-backed RoutingTree ------------------------------------------------

TEST(RoutingTree, PathViewMatchesPathTo) {
  const Digraph g = random_routing_graph(24, 31);
  const RoutingTree tree = shortest_widest_tree(g, 0);
  for (NodeIndex v = 0; v < 24; ++v) {
    const auto copy = tree.path_to(v);
    const RoutingTree::PathView view = tree.path_view(v);
    if (!copy) {
      EXPECT_TRUE(view.empty()) << v;
      continue;
    }
    ASSERT_EQ(view.size(), copy->size()) << v;
    EXPECT_TRUE(std::equal(view.begin(), view.end(), copy->begin())) << v;
  }
}

TEST(RoutingTree, PathViewOfSourceAndUnreachable) {
  Digraph g(3);
  g.add_edge(0, 1, {5, 1});
  const RoutingTree tree = shortest_widest_tree(g, 0);
  const RoutingTree::PathView source_view = tree.path_view(0);
  ASSERT_EQ(source_view.size(), 1u);
  EXPECT_EQ(source_view[0], 0);
  EXPECT_TRUE(tree.path_view(2).empty());
  EXPECT_THROW(tree.path_view(9), std::out_of_range);
}

TEST(RoutingTree, ReportsMemoryFootprint) {
  const Digraph g = random_routing_graph(16, 7);
  const RoutingTree tree = shortest_widest_tree(g, 0);
  // At minimum the quality labels are resident.
  EXPECT_GE(tree.memory_bytes(), 16 * sizeof(PathQuality));
}

TEST(RoutingTree, MinPositiveWidthIsLowestClass) {
  Digraph g(4);
  g.add_edge(0, 1, {10, 1});
  g.add_edge(1, 2, {3, 1});  // 0->2 has width 3: the lowest class
  const RoutingTree tree = shortest_widest_tree(g, 0);
  EXPECT_EQ(tree.min_positive_width(), 3.0);
  // Node 3 is unreachable and must not drag the minimum to zero.
  EXPECT_TRUE(tree.path_view(3).empty());
  // A source with no reachable destination reports 0.
  EXPECT_EQ(shortest_widest_tree(g, 3).min_positive_width(), 0.0);
}

// --- Incremental maintenance -------------------------------------------------
//
// apply_link_insert/remove/reweight must leave the database bit-identical —
// qualities AND paths — to a from-scratch build over the mutated graph, for
// every source, after every event.  The oracle rebuilds the live edge set
// into a *fresh* Digraph (re-numbered edges, no tombstones), so these tests
// also pin the sweep's independence from arc and edge numbering.

/// Fresh copy of db's current graph: live edges re-inserted in ascending
/// edge-index order (the order a from-scratch consumer would produce).
Digraph live_graph_copy(const AllPairsShortestWidest& db) {
  Digraph fresh(db.graph().node_count());
  for (const Edge& e : db.graph().edges()) {
    if (e.from == kInvalidNode) continue;  // removed-edge tombstone
    fresh.add_edge(e.from, e.to, e.metrics);
  }
  return fresh;
}

void expect_matches_fresh_build(const AllPairsShortestWidest& db,
                                const char* context) {
  const Digraph fresh = live_graph_copy(db);
  const CsrView csr(fresh);
  RoutingWorkspace workspace;
  for (std::size_t s = 0; s < db.node_count(); ++s) {
    const auto source = static_cast<NodeIndex>(s);
    const RoutingTree oracle = shortest_widest_tree(csr, source, &workspace);
    const RoutingTree& incremental = db.tree(source);
    for (std::size_t t = 0; t < db.node_count(); ++t) {
      const auto dest = static_cast<NodeIndex>(t);
      ASSERT_EQ(incremental.quality_to(dest), oracle.quality_to(dest))
          << context << ": quality " << s << "->" << t;
      ASSERT_EQ(incremental.path_to(dest), oracle.path_to(dest))
          << context << ": path " << s << "->" << t;
    }
    // Layout identity, not just answer identity: a re-swept tree must carry
    // the same class-round table and arena as a fresh build, because the
    // next event's salvage memcpys through exactly this layout.
    const auto inc_rounds = incremental.class_rounds();
    const auto want_rounds = oracle.class_rounds();
    ASSERT_EQ(inc_rounds.size(), want_rounds.size())
        << context << ": round-table size, source " << s;
    for (std::size_t r = 0; r < want_rounds.size(); ++r) {
      ASSERT_EQ(inc_rounds[r].width, want_rounds[r].width)
          << context << ": round " << r << " width, source " << s;
      ASSERT_EQ(inc_rounds[r].arena_end, want_rounds[r].arena_end)
          << context << ": round " << r << " arena end, source " << s;
    }
    const auto inc_arena = incremental.arena();
    const auto want_arena = oracle.arena();
    ASSERT_TRUE(inc_arena.size() == want_arena.size() &&
                std::equal(inc_arena.begin(), inc_arena.end(),
                           want_arena.begin()))
        << context << ": arena layout, source " << s;
  }
}

struct ChurnEvent {
  enum class Kind { kInsert, kRemove, kReweight } kind;
  NodeIndex from = kInvalidNode;
  NodeIndex to = kInvalidNode;
  LinkMetrics metrics;
};

/// Draws one applicable random event.  Reweights land on an *existing*
/// bandwidth value half the time (class-boundary crossings, duplicated
/// widths), and zero latency a third of the time; inserts reconnect pairs
/// removed earlier as often as not.
std::optional<ChurnEvent> draw_event(const Digraph& g, util::Rng& rng) {
  std::vector<const Edge*> live;
  for (const Edge& e : g.edges())
    if (e.from != kInvalidNode) live.push_back(&e);

  const auto random_metrics = [&] {
    LinkMetrics m;
    if (!live.empty() && rng.chance(0.5))
      m.bandwidth = live[rng.uniform_int(0, live.size() - 1)]->metrics.bandwidth;
    else
      m.bandwidth = static_cast<double>(rng.uniform_int(1, 8));
    m.latency = rng.chance(0.33) ? 0.0 : rng.uniform_real(0.1, 5.0);
    return m;
  };

  const int kind = rng.uniform_int(0, 2);
  if (kind == 0) {  // insert
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto a = static_cast<NodeIndex>(rng.uniform_int(0, g.node_count() - 1));
      const auto b = static_cast<NodeIndex>(rng.uniform_int(0, g.node_count() - 1));
      if (a == b || g.has_edge(a, b)) continue;
      return ChurnEvent{ChurnEvent::Kind::kInsert, a, b, random_metrics()};
    }
    return std::nullopt;
  }
  if (live.empty()) return std::nullopt;
  const Edge& edge = *live[rng.uniform_int(0, live.size() - 1)];
  if (kind == 1)
    return ChurnEvent{ChurnEvent::Kind::kRemove, edge.from, edge.to, {}};
  LinkMetrics m = random_metrics();
  // Half of reweights keep the old latency — the shape residual-capacity
  // churn takes — so the band (below-the-event) salvage path stays hot.
  if (rng.chance(0.5)) m.latency = edge.metrics.latency;
  return ChurnEvent{ChurnEvent::Kind::kReweight, edge.from, edge.to, m};
}

AllPairsShortestWidest::UpdateStats apply_event(AllPairsShortestWidest& db,
                                                const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEvent::Kind::kInsert:
      return db.apply_link_insert(event.from, event.to, event.metrics);
    case ChurnEvent::Kind::kRemove:
      return db.apply_link_remove(event.from, event.to);
    case ChurnEvent::Kind::kReweight:
      return db.apply_link_reweight(event.from, event.to, event.metrics);
  }
  throw std::logic_error("unreachable");
}

TEST(IncrementalUpdate, RandomChurnSequencesMatchFreshBuild) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    // Shared width classes and zero-latency links: the shapes that stress
    // class-boundary reweights and latency ties.
    AllPairsShortestWidest db(
        equivalence_graph(14, 9000 + seed, seed % 2 == 0, seed % 3 == 0, 0,
                          0.18));
    db.precompute_all();
    util::Rng rng(777 + seed);
    for (int step = 0; step < 12; ++step) {
      const auto event = draw_event(db.graph(), rng);
      if (!event) continue;
      apply_event(db, *event);
      expect_matches_fresh_build(db, "churn step");
    }
  }
}

TEST(IncrementalUpdate, DisconnectAndReconnectRoundTrips) {
  AllPairsShortestWidest db(equivalence_graph(12, 4242, true, true, 0, 0.2));
  db.precompute_all();
  // Remove every out-link of node 0, then restore them with fresh metrics.
  std::vector<Edge> removed;
  for (const Edge& e : db.graph().edges())
    if (e.from == 0) removed.push_back(e);
  for (const Edge& e : removed) {
    db.apply_link_remove(e.from, e.to);
    expect_matches_fresh_build(db, "disconnect");
  }
  EXPECT_TRUE(db.tree(0).path_view(1).empty() || db.graph().has_edge(0, 1));
  for (const Edge& e : removed) {
    db.apply_link_insert(e.from, e.to, {e.metrics.bandwidth / 2, 0.0});
    expect_matches_fresh_build(db, "reconnect");
  }
}

TEST(IncrementalUpdate, DirtySetIsConservativeAndCleanTreesRetained) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    AllPairsShortestWidest db(
        equivalence_graph(16, 6100 + seed, seed % 2 == 1, false, 0, 0.15));
    db.precompute_all();
    const std::size_t n = db.node_count();

    // Snapshot every tree by value and by address.
    std::vector<const RoutingTree*> addresses(n);
    std::vector<std::vector<PathQuality>> qualities(n);
    std::vector<std::vector<std::vector<NodeIndex>>> paths(n);
    for (std::size_t s = 0; s < n; ++s) {
      const RoutingTree& tree = db.tree(static_cast<NodeIndex>(s));
      addresses[s] = &tree;
      for (std::size_t t = 0; t < n; ++t) {
        qualities[s].push_back(tree.quality_to(static_cast<NodeIndex>(t)));
        const auto path = tree.path_to(static_cast<NodeIndex>(t));
        paths[s].push_back(path ? *path : std::vector<NodeIndex>{});
      }
    }

    util::Rng rng(31 + seed);
    const auto event = draw_event(db.graph(), rng);
    ASSERT_TRUE(event.has_value());
    const auto stats = apply_event(db, *event);

    // Sources the predicate called clean must be untouched: same tree object
    // (retained by pointer), same qualities, same paths.  Dirty trees are
    // covered by the fresh-build oracle.
    const std::set<NodeIndex> dirty(stats.dirty.begin(), stats.dirty.end());
    for (std::size_t s = 0; s < n; ++s) {
      const auto source = static_cast<NodeIndex>(s);
      if (dirty.contains(source)) continue;
      const RoutingTree& tree = db.tree(source);
      EXPECT_EQ(&tree, addresses[s]) << "clean tree rebuilt, source " << s;
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(tree.quality_to(static_cast<NodeIndex>(t)), qualities[s][t]);
        const auto path = tree.path_to(static_cast<NodeIndex>(t));
        ASSERT_EQ(path ? *path : std::vector<NodeIndex>{}, paths[s][t]);
      }
    }
    expect_matches_fresh_build(db, "conservative check");
  }
}

TEST(IncrementalUpdate, RejectsInvalidEvents) {
  Digraph g(3);
  g.add_edge(0, 1, {5, 1});
  AllPairsShortestWidest db(std::move(g));
  EXPECT_THROW(db.apply_link_insert(0, 1, {2, 1}), std::invalid_argument);
  EXPECT_THROW(db.apply_link_remove(1, 2), std::invalid_argument);
  EXPECT_THROW(db.apply_link_reweight(1, 2, {2, 1}), std::invalid_argument);
  EXPECT_THROW(db.apply_link_insert(0, 9, {2, 1}), std::invalid_argument);
}

TEST(IncrementalUpdate, UnbuiltSlotsStayLazy) {
  AllPairsShortestWidest db(equivalence_graph(10, 88, true, false, 0, 0.25));
  db.tree(0);
  db.tree(1);
  util::Rng rng(17);
  const auto event = draw_event(db.graph(), rng);
  ASSERT_TRUE(event.has_value());
  const auto stats = apply_event(db, *event);
  EXPECT_EQ(stats.unbuilt_sources, db.node_count() - 2);
  EXPECT_EQ(stats.invalidated_sources + stats.retained_sources, 2u);
  for (std::size_t s = 2; s < db.node_count(); ++s)
    EXPECT_FALSE(db.tree_cached(static_cast<NodeIndex>(s))) << s;
}

TEST(IncrementalUpdate, CloneEvolvesIndependently) {
  AllPairsShortestWidest db(equivalence_graph(12, 99, false, false, 0, 0.2));
  db.precompute_all();
  const auto copy = db.clone();
  // Clone carries the built trees — no rebuild on query.
  for (std::size_t s = 0; s < copy->node_count(); ++s)
    EXPECT_TRUE(copy->tree_cached(static_cast<NodeIndex>(s))) << s;

  util::Rng rng(3);
  const auto event = draw_event(db.graph(), rng);
  ASSERT_TRUE(event.has_value());
  apply_event(db, *event);

  // The original reflects the event; the clone still answers for the
  // pre-event graph.
  expect_matches_fresh_build(db, "mutated original");
  expect_matches_fresh_build(*copy, "untouched clone");
  EXPECT_EQ(copy->graph().live_edge_count() ==
                db.graph().live_edge_count(),
            event->kind == ChurnEvent::Kind::kReweight);
}

// --- Per-class salvage, lazy repair, parallel re-sweeps ----------------------

TEST(RoutingTree, ClassRoundTableMatchesArenaLayout) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Digraph g =
        equivalence_graph(15, 4400 + seed, seed % 2 == 0, false, 0, 0.25);
    const CsrView csr(g);
    for (std::size_t s = 0; s < g.node_count(); ++s) {
      const RoutingTree tree =
          shortest_widest_tree(csr, static_cast<NodeIndex>(s));
      const auto rounds = tree.class_rounds();
      const auto arena = tree.arena();
      ASSERT_FALSE(arena.empty());
      // Slot 0 is always the source's own 1-node path.
      EXPECT_EQ(arena[0], static_cast<NodeIndex>(s));
      double prev_width = std::numeric_limits<double>::infinity();
      std::uint32_t prev_end = 1;
      for (const RoutingTree::ClassRound& round : rounds) {
        EXPECT_LT(round.width, prev_width);    // strictly descending classes
        EXPECT_GT(round.arena_end, prev_end);  // every round appends paths
        prev_width = round.width;
        prev_end = round.arena_end;
      }
      if (!rounds.empty()) {
        EXPECT_EQ(rounds.back().arena_end, arena.size());
      }
      // Every reachable destination's path lies inside its class's round
      // segment — the contiguity the salvage prefix copy depends on.
      for (std::size_t t = 0; t < g.node_count(); ++t) {
        if (t == s) continue;
        const auto dest = static_cast<NodeIndex>(t);
        const double w = tree.quality_to(dest).bandwidth;
        if (w <= 0.0) continue;
        std::size_t r = 0;
        while (r < rounds.size() && rounds[r].width != w) ++r;
        ASSERT_LT(r, rounds.size()) << "no round for width " << w;
        const std::uint32_t begin = r == 0 ? 1u : rounds[r - 1].arena_end;
        const std::uint32_t offset = tree.path_offset(dest);
        EXPECT_GE(offset, begin);
        EXPECT_LE(offset + tree.path_view(dest).size(), rounds[r].arena_end);
      }
    }
  }
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

TEST(IncrementalUpdate, BandSalvageSkipsClassesOutsideTheEventBand) {
  // Classes from source 0: 30 {3, 4}, 10 {1, 2}, 2 {5}.  No other source can
  // reach node 0, so events on 0's out-arcs dirty exactly one tree.
  Digraph g(6);
  g.add_edge(0, 1, {10.0, 1.0});
  g.add_edge(1, 2, {20.0, 1.0});
  g.add_edge(0, 2, {5.0, 1.0});
  g.add_edge(0, 3, {30.0, 1.0});
  g.add_edge(3, 4, {40.0, 1.0});
  g.add_edge(0, 5, {2.0, 1.0});
  AllPairsShortestWidest db(std::move(g));
  db.precompute_all();

  // Latency-preserving reweight of (0, 2): band (5, 10].  Every width label
  // survives, so the repair re-runs only the class-10 round; the 30 round
  // (above the cap) and the 2 round (at or below the band bottom, where the
  // arc sits in the prefix with identical latency either way) are both
  // salvaged.
  const auto stats = db.apply_link_reweight(0, 2, {10.0, 1.0});
  EXPECT_EQ(stats.invalidated_sources, 1u);
  EXPECT_TRUE(db.tree_stale(0));
  const std::uint64_t repairs = counter_value("routing_lazy_repairs_total");
  const std::uint64_t salvaged =
      counter_value("routing_class_rounds_salvaged_total");
  EXPECT_EQ(db.tree(0).class_rounds().size(), 3u);
  EXPECT_EQ(counter_value("routing_lazy_repairs_total") - repairs, 1u);
  EXPECT_EQ(counter_value("routing_class_rounds_salvaged_total") - salvaged,
            2u);

  // The re-swept round picked up the real change: the direct arc now matches
  // the chain's width at half its latency.
  EXPECT_EQ(db.quality(0, 2), (PathQuality{10.0, 1.0}));
  expect_matches_fresh_build(db, "band salvage");
}

TEST(IncrementalUpdate, RepairWaitsForFirstQuery) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    AllPairsShortestWidest db(equivalence_graph(14, 8300 + seed, seed % 2 == 0,
                                                seed % 3 == 0, 0, 0.2));
    db.precompute_all();

    util::Rng rng(4040 + seed);
    util::Rng query_rng(909 + seed);
    for (int step = 0; step < 10; ++step) {
      const auto event = draw_event(db.graph(), rng);
      if (!event) continue;
      const auto stats = apply_event(db, *event);

      // Unqueried invalidated slots are provably untouched: unpublished and
      // still stamped stale.
      for (const NodeIndex source : stats.dirty) {
        EXPECT_FALSE(db.tree_cached(source)) << "source " << source;
        EXPECT_TRUE(db.tree_stale(source)) << "source " << source;
      }

      // Each queried source repairs on first touch, bit-identical to a
      // from-scratch tree of the current graph.
      const Digraph fresh = live_graph_copy(db);
      for (int q = 0; q < 2; ++q) {
        const auto source = static_cast<NodeIndex>(query_rng.uniform_int(
            0, static_cast<std::int64_t>(db.node_count()) - 1));
        const RoutingTree& got = db.tree(source);
        const RoutingTree want = shortest_widest_tree(fresh, source);
        EXPECT_FALSE(db.tree_stale(source));
        EXPECT_TRUE(db.tree_cached(source));
        for (std::size_t t = 0; t < db.node_count(); ++t) {
          const auto dest = static_cast<NodeIndex>(t);
          ASSERT_EQ(got.quality_to(dest), want.quality_to(dest))
              << "quality " << source << "->" << t;
          ASSERT_EQ(got.path_to(dest), want.path_to(dest))
              << "path " << source << "->" << t;
        }
      }
    }
    expect_matches_fresh_build(db, "end state");
  }
}

TEST(IncrementalUpdate, LazyPendingOverflowStillRepairsExactly) {
  // One reweight per distinct tail node — more than the pending-list cap —
  // with no queries in between: stale slots overflow their event lists,
  // forget the floor, and must fall back to a full re-sweep that is still
  // bit-identical to a fresh build.
  AllPairsShortestWidest db(equivalence_graph(80, 12121, true, false, 0, 0.08));
  db.precompute_all();
  util::Rng rng(66);
  const std::vector<Edge> snapshot(db.graph().edges().begin(),
                                   db.graph().edges().end());
  std::set<NodeIndex> tails;
  for (const Edge& e : snapshot) {
    if (e.from == kInvalidNode || !tails.insert(e.from).second) continue;
    LinkMetrics m = e.metrics;
    m.bandwidth = static_cast<double>(rng.uniform_int(1, 5));
    m.latency = rng.uniform_real(0.1, 5.0);
    db.apply_link_reweight(e.from, e.to, m);
  }
  ASSERT_GT(tails.size(), 64u);  // enough distinct tails to overflow the cap
  expect_matches_fresh_build(db, "after pending overflow");
}

TEST(IncrementalUpdate, ParallelRepairsAreDeterministic) {
  const Digraph start = equivalence_graph(16, 31415, true, false, 0, 0.2);
  const auto run = [&start](util::ThreadPool* pool) {
    AllPairsShortestWidest db{Digraph(start)};
    const auto repair_all = [&db, pool] {
      if (pool != nullptr)
        db.precompute_all(*pool);
      else
        db.precompute_all();
    };
    repair_all();
    util::Rng rng(2718);
    for (int step = 0; step < 12; ++step) {
      const auto event = draw_event(db.graph(), rng);
      if (!event) continue;
      apply_event(db, *event);
      if (step % 3 == 2) repair_all();  // the rest accumulate pending events
    }
    repair_all();
    // Flatten every tree — qualities and hops — for exact comparison.
    std::pair<std::vector<PathQuality>, std::vector<NodeIndex>> flat;
    for (std::size_t s = 0; s < db.node_count(); ++s) {
      const RoutingTree& tree = db.tree(static_cast<NodeIndex>(s));
      for (std::size_t t = 0; t < db.node_count(); ++t) {
        flat.first.push_back(tree.quality_to(static_cast<NodeIndex>(t)));
        const auto view = tree.path_view(static_cast<NodeIndex>(t));
        flat.second.insert(flat.second.end(), view.begin(), view.end());
        flat.second.push_back(kInvalidNode);  // path separator
      }
    }
    return flat;
  };
  const auto serial = run(nullptr);
  util::ThreadPool two(2);
  util::ThreadPool eight(8);
  EXPECT_TRUE(serial == run(&two)) << "2-thread repairs diverge from serial";
  EXPECT_TRUE(serial == run(&eight)) << "8-thread repairs diverge from serial";
}

TEST(IncrementalUpdate, ConcurrentLazyRepairsAreSafe) {
  // Eight threads race first-touch repairs of the same stale slots; the
  // build-mutex double-check must hand every one of them the same tree.
  // TSan-load-bearing (tools/run_sanitized_tests.sh).
  AllPairsShortestWidest db(equivalence_graph(20, 2424, true, false, 0, 0.2));
  db.precompute_all();
  util::Rng rng(11);
  for (int step = 0; step < 4; ++step) {
    const auto event = draw_event(db.graph(), rng);
    if (!event) continue;
    apply_event(db, *event);
    std::vector<std::thread> threads;
    std::vector<const RoutingTree*> first_seen(8, nullptr);
    for (int t = 0; t < 8; ++t)
      threads.emplace_back([&db, &first_seen, t] {
        first_seen[static_cast<std::size_t>(t)] = &db.tree(0);
        for (std::size_t s = 0; s < db.node_count(); ++s)
          db.tree(static_cast<NodeIndex>(s));
      });
    for (std::thread& t : threads) t.join();
    for (const RoutingTree* tree : first_seen)
      EXPECT_EQ(tree, first_seen[0]);  // one repair, every racer sees it
    expect_matches_fresh_build(db, "concurrent lazy repair");
  }
}

TEST(IncrementalUpdate, CloneCarriesStalenessBookkeeping) {
  AllPairsShortestWidest db(equivalence_graph(12, 777, true, false, 0, 0.25));
  db.precompute_all();
  util::Rng rng(8);
  std::optional<ChurnEvent> event;
  AllPairsShortestWidest::UpdateStats stats;
  do {
    event = draw_event(db.graph(), rng);
    ASSERT_TRUE(event.has_value());
    stats = apply_event(db, *event);
  } while (stats.invalidated_sources == 0);

  const auto copy = db.clone();
  for (const NodeIndex source : stats.dirty) {
    EXPECT_TRUE(copy->tree_stale(source)) << "source " << source;
    EXPECT_FALSE(copy->tree_cached(source)) << "source " << source;
  }
  // The clone repairs its own slots on query, exactly as the original would;
  // repairing the clone leaves the original's staleness untouched.
  expect_matches_fresh_build(*copy, "clone with pending repairs");
  for (const NodeIndex source : stats.dirty)
    EXPECT_TRUE(db.tree_stale(source)) << "source " << source;
  expect_matches_fresh_build(db, "original after clone repaired");
}

TEST(IncrementalUpdate, GraphDiffRetargetsToArbitraryState) {
  const Digraph before = equivalence_graph(13, 555, true, false, 0, 0.2);
  const Digraph after = equivalence_graph(13, 556, true, true, 0, 0.2);
  AllPairsShortestWidest db{Digraph(before)};
  db.precompute_all();
  const GraphDiffStats stats = apply_graph_diff(db, after);
  EXPECT_EQ(stats.events,
            stats.removed + stats.reweighted + stats.inserted);
  EXPECT_GT(stats.events, 0u);
  // Every repair waits for a query.
  std::size_t stale = 0;
  for (std::size_t s = 0; s < db.node_count(); ++s)
    stale += db.tree_stale(static_cast<NodeIndex>(s)) ? 1 : 0;
  EXPECT_GT(stale, 0u);
  expect_matches_fresh_build(db, "diff retarget");
  // The database's live edge set now equals the target's.
  EXPECT_EQ(db.graph().live_edge_count(), after.live_edge_count());
  for (const Edge& e : after.edges()) {
    if (e.from == kInvalidNode) continue;
    const EdgeIndex idx = db.graph().find_edge(e.from, e.to);
    ASSERT_NE(idx, kInvalidEdge);
    EXPECT_EQ(db.graph().edge(idx).metrics, e.metrics);
  }
  // Node-count mismatches are a caller error, not a silent rebuild.
  EXPECT_THROW(apply_graph_diff(db, Digraph(5)), std::invalid_argument);
}

}  // namespace
}  // namespace sflow::graph
