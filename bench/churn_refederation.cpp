// E11: agility under churn — now a *closed* loop.
//
// The open-loop half (kept from the original bench) hands the repair
// machinery the damage directly: build the optimal flow graph, churn the
// overlay, then repair incrementally vs from scratch.  The closed-loop half
// runs the same trial through core::run_closed_loop — probe deliveries feed
// per-link sliding-window monitors (obs/telemetry), an undershoot alert
// triggers diagnosis, and confirmed damage triggers the same incremental
// refederate call.  Reported on top of the original series: detection
// latency, repair latency (alert → repaired flow active), false-trigger
// rate, and the delivered-bandwidth-over-time trajectory.
//
// The smoke configuration (`--smoke`, registered in ctest) doubles as a
// tier-1 check of the loop; the run exits non-zero if
//   * a trial with confirmed flow-level damage goes undetected,
//   * the closed-loop repaired graph differs from the open-loop repaired
//     graph (same refederate arguments ⇒ must be bit-identical), or
//   * a thresholds-disabled run is not pure observation (flow unchanged,
//     zero alerts).
//
// The routing-maintenance series measures the other half of agility:
// keeping the shortest-widest database current under churn.  Fully
// precomputed databases over an N=100 overlay absorb a long trajectory of
// single-link insert/remove/reweight events through apply_link_* (dirty-set
// invalidation, repair on query) while a from-scratch rebuild runs beside
// them for every event; repair cost and work are recorded per event, and
// the maintained databases are diffed bit-for-bit — all-pairs qualities AND
// paths — against the rebuild after every event (always, not only under
// --smoke: divergence exits non-zero).  The closed
// loop additionally re-runs each trial with only the *warm pre-churn*
// database (config.pre_churn_routing), which must repair through
// core::retarget_routing's incremental clone-and-diff path and produce the
// bit-identical repaired graph.
//
// `--json PATH` writes the BENCH_telemetry.json record (docs/formats.md);
// `--routing-json PATH` writes the BENCH_churn.json routing-maintenance
// record (per-event trajectory + summary percentiles, docs/formats.md).
#include <optional>

#include "bench_common.hpp"
#include "core/global_optimal.hpp"
#include "core/refederation.hpp"
#include "core/telemetry_loop.hpp"
#include "graph/qos_routing.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace sflow;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "churn_refederation: FAIL: " << message << "\n";
  std::exit(1);
}

// --- Routing-maintenance series helpers -----------------------------------

struct LinkEvent {
  enum class Kind { kInsert, kRemove, kReweight };
  Kind kind = Kind::kInsert;
  graph::NodeIndex from = graph::kInvalidNode;
  graph::NodeIndex to = graph::kInvalidNode;
  graph::LinkMetrics metrics;
};

const char* kind_name(LinkEvent::Kind kind) {
  switch (kind) {
    case LinkEvent::Kind::kInsert: return "insert";
    case LinkEvent::Kind::kRemove: return "remove";
    case LinkEvent::Kind::kReweight: return "reweight";
  }
  return "?";
}

/// One random single-link event valid for the current graph.  Reweights
/// reuse an existing bandwidth half the time (shared width classes keep the
/// class-round salvage honest); an edgeless graph forces an insert.
std::optional<LinkEvent> draw_link_event(const graph::Digraph& g,
                                         util::Rng& rng) {
  std::vector<const graph::Edge*> live;
  for (const graph::Edge& e : g.edges())
    if (e.from != graph::kInvalidNode) live.push_back(&e);

  const auto random_metrics = [&] {
    graph::LinkMetrics m;
    if (!live.empty() && rng.chance(0.5))
      m.bandwidth = live[rng.uniform_int(0, live.size() - 1)]->metrics.bandwidth;
    else
      m.bandwidth = static_cast<double>(rng.uniform_int(1, 64));
    m.latency = rng.chance(0.33) ? 0.0 : rng.uniform_real(0.1, 5.0);
    return m;
  };

  const int kind = live.empty() ? 0 : static_cast<int>(rng.uniform_int(0, 2));
  if (kind == 0) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto a = static_cast<graph::NodeIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      const auto b = static_cast<graph::NodeIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      if (a == b || g.has_edge(a, b)) continue;
      return LinkEvent{LinkEvent::Kind::kInsert, a, b, random_metrics()};
    }
    return std::nullopt;
  }
  const graph::Edge& edge =
      *live[rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1)];
  if (kind == 1)
    return LinkEvent{LinkEvent::Kind::kRemove, edge.from, edge.to, {}};
  graph::LinkMetrics m = random_metrics();
  // Half of reweights keep the old latency: residual-capacity churn — the
  // dominant event in a serving overlay (admissions and teardowns move
  // residual bandwidth, never propagation delay) — is exactly this shape,
  // and it is the regime the band salvage targets.
  if (rng.chance(0.5)) m.latency = edge.metrics.latency;
  return LinkEvent{LinkEvent::Kind::kReweight, edge.from, edge.to, m};
}

/// Fresh Digraph holding only the live edges of the database's graph — the
/// graph a from-scratch rebuild starts from (re-numbered, no tombstones).
graph::Digraph live_graph_copy(const graph::AllPairsShortestWidest& db) {
  graph::Digraph fresh(db.graph().node_count());
  for (const graph::Edge& e : db.graph().edges()) {
    if (e.from == graph::kInvalidNode) continue;
    fresh.add_edge(e.from, e.to, e.metrics);
  }
  return fresh;
}

/// All-pairs bit-identity between the incrementally maintained database and
/// the from-scratch rebuild: qualities and paths.  Exits non-zero on the
/// first divergence.
void assert_bit_identical(const graph::AllPairsShortestWidest& db,
                          const graph::AllPairsShortestWidest& fresh,
                          std::size_t event_index) {
  const std::size_t n = db.node_count();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      const auto from = static_cast<graph::NodeIndex>(s);
      const auto to = static_cast<graph::NodeIndex>(t);
      if (!(db.quality(from, to) == fresh.quality(from, to)))
        fail("event " + std::to_string(event_index) + ": quality " +
             std::to_string(s) + "->" + std::to_string(t) +
             " diverges from the from-scratch rebuild");
      const graph::RoutingTree::PathView a = db.path_view(from, to);
      const graph::RoutingTree::PathView b = fresh.path_view(from, to);
      bool same = a.size() == b.size();
      for (std::size_t h = 0; same && h < a.size(); ++h) same = a[h] == b[h];
      if (!same)
        fail("event " + std::to_string(event_index) + ": path " +
             std::to_string(s) + "->" + std::to_string(t) +
             " diverges from the from-scratch rebuild");
    }
  }
}

/// Tail summary of one sample stream, via util::Accumulator (p in 0..100).
struct TailSummary {
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

TailSummary tail(const util::Accumulator& acc) {
  if (acc.empty()) return {};
  return {acc.median(), acc.percentile(90.0), acc.percentile(99.0), acc.max()};
}

std::ostream& operator<<(std::ostream& out, const TailSummary& t) {
  return out << "median " << t.median << ", p90 " << t.p90 << ", p99 " << t.p99
             << ", max " << t.max;
}

void json_tail(std::ostream& out, const char* key, const TailSummary& t) {
  out << "  \"" << key << "\": {\"median\": " << t.median << ", \"p90\": "
      << t.p90 << ", \"p99\": " << t.p99 << ", \"max\": " << t.max << "}";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sflow;

  bool smoke = false;
  std::string json_path;
  std::string routing_json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--routing-json" && i + 1 < argc) {
      routing_json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--smoke] [--json PATH] [--routing-json PATH]\n";
      return 2;
    }
  }

  constexpr std::size_t kNetworkSize = 40;
  const std::size_t trials_per_level = smoke ? 4 : 20;
  const std::vector<double> churn_levels =
      smoke ? std::vector<double>{0.3, 0.7}
            : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};

  // The loop configuration: undershoot fraction equals the repair's degrade
  // threshold, so detection is sound (core/telemetry_loop.hpp file comment).
  core::ClosedLoopConfig loop;
  loop.telemetry.window = 4;
  loop.telemetry.min_samples = 2;
  loop.telemetry.undershoot_fraction = 0.5;
  loop.telemetry.hysteresis_fraction = 0.05;
  loop.degrade_threshold = 0.5;
  loop.probes = smoke ? 10 : 16;
  loop.probe_interval_ms = 50.0;
  loop.churn_at_ms = 250.0;  // probe 5 of 10/16: damage mid-run
  loop.payload_bytes = 100000;

  util::SeriesTable kept;
  util::SeriesTable violations;
  util::SeriesTable time_us;
  util::SeriesTable bandwidth_ratio;
  util::SeriesTable latency_ms;
  util::SeriesTable trigger_rate;
  // Delivered-bandwidth trajectory, normalized to the pre-churn optimum so
  // trials are comparable: one series per churn level, x = probe time.
  util::SeriesTable trajectory;
  // Warm-retarget accounting: cost and dirty-set size of deriving the
  // post-churn routing database from the warm pre-churn one.
  util::SeriesTable retarget;

  std::size_t trials_run = 0;
  std::size_t trials_detected = 0;
  std::size_t trials_with_damage = 0;

  for (const double churn : churn_levels) {
    for (std::size_t trial = 0; trial < trials_per_level; ++trial) {
      core::WorkloadParams params;
      params.network_size = kNetworkSize;
      params.service_type_count = 6;
      params.requirement.service_count = 6;
      params.requirement.shape = overlay::RequirementShape::kGenericDag;
      const std::uint64_t seed = util::derive_seed(
          31337, static_cast<std::uint64_t>(churn * 100) * 1000 + trial);
      const core::Scenario scenario = core::make_scenario(params, seed);

      const auto before = core::optimal_flow_graph(
          scenario.overlay(), scenario.requirement, scenario.overlay_routing());
      if (!before) continue;

      util::Rng rng(util::derive_seed(seed, 0xc4a0));
      core::ChurnParams churn_params;
      churn_params.link_churn_fraction = churn;
      churn_params.bandwidth_jitter = 0.8;
      churn_params.latency_jitter = 0.8;
      const overlay::OverlayGraph after =
          core::apply_churn(scenario.overlay(), churn_params, rng);
      // One shortest-widest cache per churned overlay, shared by the two
      // open-loop repair strategies *and* the closed loop: it is an input all
      // three consume, not part of any repair's measured work.
      const graph::AllPairsShortestWidest routing(after.graph());

      // Open-loop incremental repair (the damage handed over directly).
      util::Stopwatch incremental_watch;
      const core::RefederationResult repaired = core::refederate(
          scenario.overlay(), after, routing, scenario.requirement, *before);
      const double incremental_us = incremental_watch.elapsed_us();
      if (!repaired.graph) continue;

      // Open-loop full re-federation from scratch.
      const core::RequirementSolver solver(after, routing);
      util::Stopwatch full_watch;
      const auto from_scratch = solver.solve(scenario.requirement);
      const double full_us = full_watch.elapsed_us();
      if (!from_scratch) continue;

      // Closed loop: same churn event, but the damage must be *detected*
      // through probe samples before the same refederate call runs.
      core::ClosedLoopConfig config = loop;
      config.post_churn_routing = &routing;
      const core::ClosedLoopResult closed = core::run_closed_loop(
          scenario.overlay(), after, scenario.requirement, *before, config);

      // Warm-retarget variant: no post-churn database — the loop must derive
      // one from the warm pre-churn database via core::retarget_routing.
      // Link-only churn preserves the instance roster, so the derivation must
      // take the incremental clone-and-diff path, and since the retargeted
      // database answers bit-identically, the repaired flow must match the
      // shared-database run exactly.
      core::ClosedLoopConfig warm = config;
      warm.post_churn_routing = nullptr;
      warm.pre_churn_routing = &scenario.overlay_routing();
      const core::ClosedLoopResult retargeted = core::run_closed_loop(
          scenario.overlay(), after, scenario.requirement, *before, warm);
      if (retargeted.repaired != closed.repaired)
        fail("warm-retargeted loop repaired differently than the shared-db loop");
      if (retargeted.repaired) {
        if (!(retargeted.flow == closed.flow))
          fail("warm-retargeted repair differs from shared-database repair");
        if (!retargeted.routing_incremental)
          fail("link-only churn fell off retarget_routing's incremental path");
      }

      // Pure-observation control: thresholds disabled, nothing may change.
      core::ClosedLoopConfig observe_only = config;
      observe_only.telemetry = obs::TelemetryConfig{};
      const core::ClosedLoopResult observed = core::run_closed_loop(
          scenario.overlay(), after, scenario.requirement, *before,
          observe_only);
      if (observed.alerts != 0 || observed.repaired ||
          !(observed.flow == *before))
        fail("thresholds-disabled run was not pure observation");

      ++trials_run;
      const bool damaged = repaired.violations > 0;
      if (damaged) {
        ++trials_with_damage;
        if (closed.detection_latency_ms < 0.0 && closed.alerts == 0)
          fail("flow-level damage raised no alert (detection unsound)");
      }
      if (closed.repaired) {
        ++trials_detected;
        if (!(closed.flow == *repaired.graph))
          fail("closed-loop repair differs from open-loop repaired graph");
        if (closed.flow.bottleneck_bandwidth() + 1e-9 <
            repaired.graph->bottleneck_bandwidth())
          fail("closed-loop recovered less bandwidth than open-loop repair");
      }

      // Original open-loop series.
      kept.row("services kept (of 6)", churn)
          .add(static_cast<double>(repaired.services_kept));
      violations.row("edge violations (of 5+)", churn)
          .add(static_cast<double>(repaired.violations));
      time_us.row("incremental repair", churn).add(incremental_us);
      time_us.row("full re-federation", churn).add(full_us);
      const double fresh_bw = from_scratch->bottleneck_bandwidth();
      if (fresh_bw > 0.0)
        bandwidth_ratio.row("repaired / from-scratch bandwidth", churn)
            .add(repaired.graph->bottleneck_bandwidth() / fresh_bw);

      // Closed-loop series.
      if (closed.detection_latency_ms >= 0.0)
        latency_ms.row("detection latency", churn)
            .add(closed.detection_latency_ms);
      if (closed.repair_latency_ms >= 0.0)
        latency_ms.row("repair latency", churn).add(closed.repair_latency_ms);
      trigger_rate.row("alerts / trial", churn)
          .add(static_cast<double>(closed.alerts));
      trigger_rate.row("false triggers / trial", churn)
          .add(static_cast<double>(closed.false_alerts));
      trigger_rate.row("refederations / trial", churn)
          .add(static_cast<double>(closed.refederations));
      if (retargeted.repaired) {
        retarget.row("warm retarget (us)", churn)
            .add(retargeted.routing_update_ms * 1000.0);
        retarget.row("dirty source trees", churn)
            .add(static_cast<double>(retargeted.routing_invalidated_sources));
      }

      const double baseline_bw = before->bottleneck_bandwidth();
      if (baseline_bw > 0.0) {
        char label[48];
        std::snprintf(label, sizeof label, "churn %.1f", churn);
        for (const auto& [t_ms, bw] : closed.delivered_bandwidth)
          trajectory.row(label, t_ms).add(bw / baseline_bw);
      }
    }
  }

  if (trials_run == 0) fail("no trial completed");

  bench::print_series(std::cout, "E11  Damage and retention vs churn fraction",
                      kept, 2);
  bench::print_series(std::cout, "E11  Violations vs churn fraction", violations,
                      2);
  bench::print_series(std::cout, "E11  Repair time (us) vs churn fraction",
                      time_us, 1);
  bench::print_series(std::cout,
                      "E11  Quality retention (repaired / from-scratch)",
                      bandwidth_ratio, 3);
  bench::print_series(std::cout,
                      "E11  Closed-loop latency (ms) vs churn fraction",
                      latency_ms, 1);
  bench::print_series(std::cout,
                      "E11  Closed-loop triggers vs churn fraction",
                      trigger_rate, 2);
  bench::print_series(
      std::cout,
      "E11  Delivered bandwidth over time (fraction of pre-churn optimum)",
      trajectory, 3);
  bench::print_series(std::cout,
                      "E11  Warm routing retarget vs churn fraction", retarget,
                      1);
  std::cout << "\nExpected shape: services kept falls and violations rise "
               "with churn; incremental repair is cheaper than a full "
               "re-federation with quality retention near 1 at low churn.  "
               "The closed loop detects within one monitor window of the "
               "churn (detection latency < window x probe interval), repairs "
               "at the next probe boundary, and the delivered-bandwidth "
               "trajectory dips at t = " << loop.churn_at_ms
            << " ms then recovers to the open-loop repaired level.\n";
  std::cout << "\nclosed loop: " << trials_run << " trials, "
            << trials_with_damage << " with flow-level damage, "
            << trials_detected << " repaired through the loop\n";

  // --- Routing maintenance under single-link churn -------------------------
  //
  // Two fully precomputed databases over an N=100 overlay absorb the same
  // trajectory of single-link events in lockstep; each event is charged
  //   lazy        its apply plus the first kLazyQueries queried sources —
  //               what a consumer that touches few trees per event waits for,
  //   repair-all  its apply plus precompute_all over a kRepairThreads pool —
  //               every stale tree repaired before the next query.
  // A from-scratch rebuild (construct + precompute over the live link set)
  // runs beside them for every event, both for the timing comparison and as
  // the bit-identity oracle for both databases.  The series is tail-focused
  // (p90/p99/max, not just medians), and the repair-all pass's work — trees
  // repaired, class rounds salvaged, arcs relaxed — is read from the routing
  // counters around it.
  constexpr std::size_t kRoutingNetworkSize = 100;
  constexpr std::size_t kRepairThreads = 4;
  constexpr std::size_t kLazyQueries = 4;
  const std::size_t routing_events = smoke ? 40 : 500;

  core::WorkloadParams routing_params;
  routing_params.network_size = kRoutingNetworkSize;
  routing_params.service_type_count = 6;
  routing_params.requirement.service_count = 6;
  routing_params.requirement.shape = overlay::RequirementShape::kGenericDag;
  const core::Scenario routing_scenario =
      core::make_scenario(routing_params, util::derive_seed(31337, 0x0A11));

  graph::AllPairsShortestWidest lazy_db(routing_scenario.overlay().graph());
  graph::AllPairsShortestWidest all_db(
      graph::Digraph(routing_scenario.overlay().graph()));
  util::ThreadPool repair_pool(kRepairThreads);
  lazy_db.precompute_all(repair_pool);
  all_db.precompute_all(repair_pool);

  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& repairs = registry.counter("routing_lazy_repairs_total");
  const obs::Counter& salvaged_rounds =
      registry.counter("routing_class_rounds_salvaged_total");
  const obs::Counter& relaxations =
      registry.counter("routing_edge_relaxations_total");

  struct EventRecord {
    LinkEvent::Kind kind;
    std::size_t invalidated = 0;
    std::uint64_t repaired = 0;
    std::uint64_t rounds_salvaged = 0;
    std::uint64_t relaxations = 0;
    double lazy_us = 0.0;
    double repair_all_us = 0.0;
    double rebuild_us = 0.0;
  };
  std::vector<EventRecord> events;
  events.reserve(routing_events);

  const auto apply_to = [](graph::AllPairsShortestWidest& target,
                           const LinkEvent& event) {
    switch (event.kind) {
      case LinkEvent::Kind::kInsert:
        return target.apply_link_insert(event.from, event.to, event.metrics);
      case LinkEvent::Kind::kRemove:
        return target.apply_link_remove(event.from, event.to);
      case LinkEvent::Kind::kReweight:
        return target.apply_link_reweight(event.from, event.to, event.metrics);
    }
    return graph::AllPairsShortestWidest::UpdateStats{};
  };

  util::Rng event_rng(util::derive_seed(31337, 0xE0E0));
  util::Rng query_rng(util::derive_seed(31337, 0x9E99));
  for (std::size_t i = 0; i < routing_events; ++i) {
    const std::optional<LinkEvent> event =
        draw_link_event(lazy_db.graph(), event_rng);
    if (!event) continue;

    EventRecord record;
    record.kind = event->kind;

    util::Stopwatch lazy_watch;
    const auto stats = apply_to(lazy_db, *event);
    for (std::size_t q = 0; q < kLazyQueries; ++q)
      lazy_db.tree(static_cast<graph::NodeIndex>(query_rng.uniform_int(
          0, static_cast<std::int64_t>(lazy_db.node_count()) - 1)));
    record.lazy_us = lazy_watch.elapsed_us();
    record.invalidated = stats.invalidated_sources;

    const std::uint64_t repairs_before = repairs.value();
    const std::uint64_t salvaged_before = salvaged_rounds.value();
    const std::uint64_t relaxations_before = relaxations.value();
    util::Stopwatch repair_all_watch;
    apply_to(all_db, *event);
    all_db.precompute_all(repair_pool);
    record.repair_all_us = repair_all_watch.elapsed_us();
    record.repaired = repairs.value() - repairs_before;
    record.rounds_salvaged = salvaged_rounds.value() - salvaged_before;
    record.relaxations = relaxations.value() - relaxations_before;

    // From-scratch comparator: everything a rebuild consumer would pay to be
    // query-ready again.  The graph copy stays outside the timer — a real
    // rebuild starts from an overlay it already holds.
    graph::Digraph fresh_graph = live_graph_copy(all_db);
    util::Stopwatch rebuild_watch;
    const graph::AllPairsShortestWidest fresh(std::move(fresh_graph));
    fresh.precompute_all();
    record.rebuild_us = rebuild_watch.elapsed_us();

    assert_bit_identical(all_db, fresh, i);
    assert_bit_identical(lazy_db, fresh, i);  // repairs every stale slot
    events.push_back(record);
  }
  if (events.empty()) fail("routing series produced no events");

  util::Accumulator lazy_us, repair_all_us, rebuild_us;
  util::Accumulator invalidated, repaired, salvaged, relaxed;
  for (const EventRecord& r : events) {
    lazy_us.add(r.lazy_us);
    repair_all_us.add(r.repair_all_us);
    rebuild_us.add(r.rebuild_us);
    invalidated.add(static_cast<double>(r.invalidated));
    repaired.add(static_cast<double>(r.repaired));
    salvaged.add(static_cast<double>(r.rounds_salvaged));
    relaxed.add(static_cast<double>(r.relaxations));
  }
  const TailSummary lazy_t = tail(lazy_us);
  const TailSummary all_t = tail(repair_all_us);
  const TailSummary reb_t = tail(rebuild_us);
  const double median_speedup =
      all_t.median > 0.0 ? reb_t.median / all_t.median : 0.0;

  std::cout << "\nrouting maintenance (N=" << kRoutingNetworkSize << ", "
            << events.size() << " single-link events, both databases diffed "
            << "bit-for-bit against a from-scratch rebuild after every "
            << "event):\n"
            << "  apply+" << kLazyQueries << "-query us:         " << lazy_t
            << "\n"
            << "  apply+repair-all(" << kRepairThreads << ") us:   " << all_t
            << "\n"
            << "  full rebuild us:          " << reb_t << "\n"
            << "  median speedup:           " << median_speedup
            << "x (rebuild / repair-all)\n"
            << "  invalidated trees:        " << tail(invalidated) << " of "
            << all_db.node_count() << "\n"
            << "  trees repaired:           " << tail(repaired) << "\n"
            << "  class rounds salvaged:    " << tail(salvaged) << "\n"
            << "  arcs relaxed:             " << tail(relaxed) << "\n";

  if (!routing_json_path.empty()) {
    std::ofstream out(routing_json_path);
    if (!out) {
      std::cerr << "cannot write " << routing_json_path << "\n";
      return 1;
    }
    std::size_t inserts = 0, removes = 0, reweights = 0;
    for (const EventRecord& r : events) {
      if (r.kind == LinkEvent::Kind::kInsert) ++inserts;
      else if (r.kind == LinkEvent::Kind::kRemove) ++removes;
      else ++reweights;
    }
    out << "{\n"
        << "  \"bench\": \"churn_refederation\",\n"
        << "  \"section\": \"routing_maintenance\",\n"
        << "  \"schema_version\": 3,\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"network_size\": " << kRoutingNetworkSize << ",\n"
        << "  \"source_trees\": " << all_db.node_count() << ",\n"
        << "  \"events\": " << events.size() << ",\n"
        << "  \"event_counts\": {\"insert\": " << inserts << ", \"remove\": "
        << removes << ", \"reweight\": " << reweights << "},\n"
        << "  \"repair_threads\": " << kRepairThreads << ",\n"
        << "  \"lazy_queries_per_event\": " << kLazyQueries << ",\n";
    json_tail(out, "lazy_us", lazy_t);
    out << ",\n";
    json_tail(out, "repair_all_us", all_t);
    out << ",\n";
    json_tail(out, "rebuild_us", reb_t);
    out << ",\n  \"median_speedup\": " << median_speedup << ",\n";
    json_tail(out, "invalidated_sources", tail(invalidated));
    out << ",\n";
    json_tail(out, "repaired_sources", tail(repaired));
    out << ",\n";
    json_tail(out, "rounds_salvaged", tail(salvaged));
    out << ",\n";
    json_tail(out, "relaxations", tail(relaxed));
    out << ",\n  \"per_event\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const EventRecord& r = events[i];
      out << (i == 0 ? "" : ",") << "\n    {\"kind\": \"" << kind_name(r.kind)
          << "\", \"invalidated\": " << r.invalidated
          << ", \"repaired\": " << r.repaired
          << ", \"rounds_salvaged\": " << r.rounds_salvaged
          << ", \"relaxations\": " << r.relaxations
          << ", \"lazy_us\": " << r.lazy_us
          << ", \"repair_all_us\": " << r.repair_all_us
          << ", \"rebuild_us\": " << r.rebuild_us << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote " << routing_json_path << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"churn_refederation\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"trials\": " << trials_run << ",\n"
        << "  \"trials_with_damage\": " << trials_with_damage << ",\n"
        << "  \"trials_repaired_closed_loop\": " << trials_detected << ",\n"
        << "  \"config\": {\n"
        << "    \"probes\": " << loop.probes << ",\n"
        << "    \"probe_interval_ms\": " << loop.probe_interval_ms << ",\n"
        << "    \"churn_at_ms\": " << loop.churn_at_ms << ",\n"
        << "    \"payload_bytes\": " << loop.payload_bytes << ",\n"
        << "    \"monitor_window\": " << loop.telemetry.window << ",\n"
        << "    \"undershoot_fraction\": " << loop.telemetry.undershoot_fraction
        << ",\n"
        << "    \"degrade_threshold\": " << loop.degrade_threshold << "\n"
        << "  }";
    const auto dump_series = [&out](const char* name,
                                    const util::SeriesTable& table) {
      out << ",\n  \"" << name << "\": {";
      bool first_series = true;
      for (const std::string& series : table.series_names()) {
        out << (first_series ? "" : ",") << "\n    \"" << series << "\": {";
        first_series = false;
        bool first_x = true;
        for (const double x : table.x_values()) {
          const util::Accumulator* acc = table.find(series, x);
          if (acc == nullptr || acc->empty()) continue;
          out << (first_x ? "" : ", ") << "\"" << x << "\": " << acc->mean();
          first_x = false;
        }
        out << "}";
      }
      out << "\n  }";
    };
    dump_series("open_loop", time_us);
    dump_series("quality", bandwidth_ratio);
    dump_series("latency_ms", latency_ms);
    dump_series("triggers", trigger_rate);
    dump_series("delivered_bandwidth", trajectory);
    dump_series("routing_retarget", retarget);
    out << ",\n  \"metrics\": "
        << obs::to_json(obs::Registry::global().snapshot(), "  ") << "\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
