// fuzz_federation — differential fuzzer for the federation algorithms
// (docs/testing.md).
//
// Each seed draws a workload from the bench parameter space
// (bench::fuzz_workload), builds a feasible scenario, runs the paper's five
// algorithms plus the strict service-path variant, and then:
//
//   1. validates every successful outcome from first principles
//      (check::validate_flow_graph — structure, hop-by-hop path re-measurement,
//      exact quality agreement);
//   2. enforces the cross-algorithm oracle hierarchy
//      (check::check_outcome_hierarchy — brute force == optimal, optimal ⪰
//      everyone, sFlow ⪰ fixed greedy, baseline == brute force on chains);
//   3. re-checks the routing sub-oracle on sampled sources
//      (check::check_routing_equivalence — sweep kernel == legacy kernel);
//   4. re-runs the sFlow federation with every node cutting its own 2-hop
//      view and building a fresh database, and requires the outcome to equal
//      the run in which full-coverage nodes read the shared database
//      (sflow-shared-view-divergence).
//
// On failure the scenario is greedily minimized (dropping service links while
// the same violation code reproduces) and dumped in the [bundle]/[requirement]
// scenario format of overlay/serialization.hpp; `--replay PATH` re-runs such a
// file and reports the violations it still triggers.
//
//   fuzz_federation [--seeds N] [--base-seed S] [--smoke] [--contention]
//                   [--churn] [--replay PATH] [--dump-dir DIR]
//
// `--smoke` is the ctest/CI configuration: 200 seeds, summary output, exit
// nonzero on any violation.
//
// `--contention` switches to the multi-request admission battery: each seed
// additionally draws 1-3 extra pinned requests and serves the batch through
// core::run_admission_sequence under every ordering policy and a set of
// algorithms, checking (a) the replay + conservation oracle
// (check::validate_admission_sequence — on every link the granted rates sum
// to at most its capacity) and (b) that no policy beats the joint K!-order
// brute-force oracle.  On the final residual view of every sFlow
// sequence, each request's federation also meets oracle 4.  Failures dump
// the multi-request scenario file ([bundle] + repeated [requirement]
// sections); --replay detects such files and re-runs the admission battery
// on them.
//
// `--churn` switches to the incremental-routing battery: each seed builds a
// fully precomputed shortest-widest database over the scenario overlay, then
// applies a random sequence of link insert/remove/reweight events through
// apply_link_* (the dirty-set incremental path) and diffs the maintained
// database bit-for-bit — all-pairs qualities AND paths — against a
// from-scratch build over the mutated link set, after every event or every
// second event (the seed decides, so pending-event lists also accumulate
// multi-event salvage floors).  The diff's queries are the repair trigger;
// `--threads N` repairs through precompute_all on an N-thread pool first.
// Every few events a federation (sFlow and the global optimum) is run
// once against the incremental database and once against the fresh one with
// identically seeded RNGs; the outcomes must be deterministically equal.
// Failures are reproducible from (base-seed, seed) alone, so no scenario
// file is dumped.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/oracles.hpp"
#include "check/validate.hpp"
#include "core/admission.hpp"
#include "core/federator.hpp"
#include "core/scenario.hpp"
#include "graph/dag.hpp"
#include "graph/qos_routing.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement_generator.hpp"
#include "overlay/serialization.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sflow;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr << "usage: fuzz_federation [--seeds N] [--base-seed S] [--smoke]\n"
               "                       [--contention] [--churn] [--replay PATH]\n"
               "                       [--threads N] [--dump-dir DIR]\n"
               "  --threads sizes the pool the --churn battery precomputes\n"
               "  and repairs through\n";
  std::exit(2);
}

/// The full battery: the Fig. 10 line-up plus the strict service-path
/// variant (whose chain-only failures exercise the success=false paths).
const std::vector<core::Algorithm>& battery_algorithms() {
  static const std::vector<core::Algorithm> kBattery = {
      core::Algorithm::kGlobalOptimal,     core::Algorithm::kSflow,
      core::Algorithm::kFixed,             core::Algorithm::kRandom,
      core::Algorithm::kServicePath,       core::Algorithm::kServicePathStrict,
  };
  return kBattery;
}

struct BatteryReport {
  std::map<core::Algorithm, core::FederationOutcome> outcomes;
  std::vector<check::Violation> violations;
};

/// The parent's-cut local view: every node cuts its radius-hop
/// neighbourhood out of `overlay` and builds a fresh database over the cut,
/// whether or not the neighbourhood covers the whole overlay.
core::SFlowNodeConfig cut_view_config(const overlay::OverlayGraph& overlay) {
  core::SFlowNodeConfig config;
  config.view_provider = [&overlay, radius = config.knowledge_radius](
                             overlay::OverlayIndex self) {
    return overlay.induced(graph::neighborhood(overlay.graph(), self, radius));
  };
  return config;
}

/// Shared-view oracle: re-runs the sFlow federation on `view` with every
/// node cutting its own view (cut_view_config) and requires the outcome to
/// be deterministically equal to `shared`, the run in which full-coverage
/// nodes read the shared database.  Appends a violation on divergence.
void check_shared_view(const core::FederationView& view, std::uint64_t seed,
                       const core::FederationOutcome& shared,
                       const std::string& who,
                       std::vector<check::Violation>& violations) {
  util::Rng rng(seed);
  const core::FederationOutcome cut = core::run_algorithm(
      core::Algorithm::kSflow, view, rng, cut_view_config(*view.overlay));
  if (cut.deterministically_equal(shared)) return;
  std::ostringstream os;
  const auto describe = [&os](const core::FederationOutcome& o) {
    os << "(success=" << o.success << ", bw=" << o.bandwidth
       << ", lat=" << o.latency << ", msgs=" << o.messages
       << ", fallbacks=" << o.global_fallbacks << ")";
  };
  os << who << ": shared-database run ";
  describe(shared);
  os << " differs from the cut-view run ";
  describe(cut);
  violations.push_back({"sflow-shared-view-divergence", os.str()});
}

/// Restriction of a battery re-run to what a violation actually implicates:
/// the algorithms to re-run (empty = all) and whether the routing-kernel
/// equivalence sub-oracle must run.  Minimization re-runs are dominated by
/// the algorithm executions, so replaying only the disagreeing variants is
/// the difference between shrinking one pair and shrinking six solvers.
struct BatteryFilter {
  /// nullopt = the full battery; a set (possibly empty, for pure routing
  /// divergences) = only those algorithms.
  std::optional<std::set<core::Algorithm>> algorithms;
  bool check_routing = true;

  bool wants(core::Algorithm a) const {
    return !algorithms || algorithms->contains(a);
  }
};

/// Runs the (possibly filtered) battery on `scenario` and applies the oracle
/// stack.  All randomness (the random comparator, the sampled routing
/// sources) derives from `case_seed` with per-algorithm streams, so a re-run
/// — filtered or not, or a replay from a dumped file — is bit-for-bit
/// repeatable and a filtered algorithm behaves exactly as in the full run.
BatteryReport run_battery(const core::Scenario& scenario, std::uint64_t case_seed,
                          bool generated_scenario,
                          const BatteryFilter& filter = {}) {
  BatteryReport report;
  std::size_t stream = 0;
  for (const core::Algorithm algorithm : battery_algorithms()) {
    const std::size_t algorithm_stream = stream++;  // stable across filters
    if (!filter.wants(algorithm)) continue;
    const std::uint64_t seed =
        util::derive_seed(case_seed, 0xA150 + algorithm_stream);
    util::Rng rng(seed);
    core::FederationOutcome outcome =
        core::run_algorithm(algorithm, scenario, rng);
    const check::ValidationReport validation = check::validate_flow_graph(
        scenario.overlay(), scenario.requirement, outcome);
    for (const check::Violation& v : validation.violations)
      report.violations.push_back(
          {v.code, core::algorithm_name(algorithm) + ": " + v.detail});
    if (algorithm == core::Algorithm::kSflow)
      check_shared_view(core::FederationView::of(scenario), seed, outcome,
                        core::algorithm_name(algorithm), report.violations);
    report.outcomes.emplace(algorithm, std::move(outcome));
  }

  const std::vector<check::Violation> hierarchy = check::check_outcome_hierarchy(
      scenario, report.outcomes, generated_scenario);
  report.violations.insert(report.violations.end(), hierarchy.begin(),
                           hierarchy.end());

  if (filter.check_routing) {
    util::Rng source_rng(util::derive_seed(case_seed, 0x5093));
    const std::size_t n = scenario.overlay().graph().node_count();
    if (n > 0) {
      const std::vector<graph::NodeIndex> sources = {
          static_cast<graph::NodeIndex>(source_rng.uniform_index(n)),
          static_cast<graph::NodeIndex>(source_rng.uniform_index(n)),
      };
      const std::vector<check::Violation> routing =
          check::check_routing_equivalence(scenario.overlay().graph(), sources);
      report.violations.insert(report.violations.end(), routing.begin(),
                               routing.end());
    }
  }
  return report;
}

/// Which battery subset can reproduce `violations`.  Hierarchy codes name
/// their variant pair; validation violations prefix their detail with the
/// algorithm's name; routing divergence implicates no algorithm at all.
/// Anything unrecognized falls back to the full battery (empty filter).
BatteryFilter implicated_filter(const std::vector<check::Violation>& violations) {
  BatteryFilter filter;
  filter.algorithms.emplace();
  filter.check_routing = false;
  for (const check::Violation& v : violations) {
    if (v.code == "routing-sweep-divergence") {
      filter.check_routing = true;
      continue;
    }
    if (v.code == "fixed-infeasible") {
      filter.algorithms->insert(core::Algorithm::kFixed);
      continue;
    }
    if (v.code == "sflow-worse-than-greedy") {
      filter.algorithms->insert(core::Algorithm::kSflow);
      filter.algorithms->insert(core::Algorithm::kFixed);
      continue;
    }
    if (v.code == "optimal-vs-brute-force") {
      filter.algorithms->insert(core::Algorithm::kGlobalOptimal);
      continue;
    }
    if (v.code == "baseline-vs-brute-force") {
      filter.algorithms->insert(core::Algorithm::kServicePathStrict);
      filter.algorithms->insert(core::Algorithm::kServicePath);
      continue;
    }
    // beats-optimal compares the named variant against the optimum;
    // validation violations prefix their detail with the culprit's name.
    // Scan the detail for algorithm names; an unattributable violation
    // (e.g. optimal-infeasible, which quantifies over every algorithm)
    // falls back to the full battery.
    if (v.code == "beats-optimal")
      filter.algorithms->insert(core::Algorithm::kGlobalOptimal);
    bool named = false;
    for (const core::Algorithm a : battery_algorithms()) {
      if (v.detail.find(core::algorithm_name(a)) != std::string::npos) {
        filter.algorithms->insert(a);
        named = true;
      }
    }
    if (!named) return {};
  }
  return filter;
}

/// Rebuilds a runnable Scenario from a (possibly minimized or replayed)
/// scenario file.  The overlay keeps its serialized link metrics rather than
/// re-deriving them from the underlay, so a dump re-runs exactly.
core::Scenario scenario_from_file(overlay::ScenarioFile file,
                                  overlay::ServiceCatalog catalog) {
  core::Scenario scenario;
  scenario.underlay = std::move(file.bundle.underlay);
  scenario.routing = std::make_unique<net::UnderlayRouting>(scenario.underlay);
  scenario.catalog = std::move(catalog);
  scenario.adopt_overlay(std::move(file.bundle.overlay));
  scenario.requirement = std::move(file.requirement);
  return scenario;
}

overlay::ScenarioFile file_from_scenario(const core::Scenario& scenario) {
  overlay::ScenarioFile file;
  file.bundle.underlay = scenario.underlay;
  file.bundle.overlay = scenario.overlay();
  file.requirement = scenario.requirement;
  return file;
}

/// Copy of `file` with overlay service link `edge_index` removed (instances
/// and the underlay untouched; indices are stable because instances are
/// re-added in order).
overlay::ScenarioFile drop_slink(const overlay::ScenarioFile& file,
                                 std::size_t edge_index) {
  overlay::ScenarioFile out;
  out.bundle.underlay = file.bundle.underlay;
  for (const overlay::ServiceInstance& inst : file.bundle.overlay.instances())
    out.bundle.overlay.add_instance(inst.sid, inst.nid);
  const std::vector<graph::Edge>& edges = file.bundle.overlay.graph().edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i == edge_index) continue;
    out.bundle.overlay.add_link(edges[i].from, edges[i].to, edges[i].metrics);
  }
  out.requirement = file.requirement;
  return out;
}

/// Greedy delta-debugging over the overlay link set: repeatedly drop the
/// service link whose removal still reproduces one of the original violation
/// codes, until a fixed point (or the re-run budget runs out).  Each re-run
/// executes only the implicated variants (`filter`) — when a single pair
/// disagreed, only that pair is replayed per candidate shrink.  Shrunk
/// scenarios are checked with generated_scenario=false — removing links can
/// legitimately starve the fixed greedy, which is not the bug being chased.
overlay::ScenarioFile minimize_scenario(overlay::ScenarioFile file,
                                        const overlay::ServiceCatalog& catalog,
                                        std::uint64_t case_seed,
                                        const std::set<std::string>& codes,
                                        const BatteryFilter& filter) {
  const auto reproduces = [&](const overlay::ScenarioFile& candidate) {
    const core::Scenario scenario = scenario_from_file(candidate, catalog);
    const BatteryReport report = run_battery(scenario, case_seed, false, filter);
    for (const check::Violation& v : report.violations)
      if (codes.contains(v.code)) return true;
    return false;
  };

  std::size_t budget = 200;
  bool shrunk = true;
  while (shrunk && budget > 0) {
    shrunk = false;
    for (std::size_t i = file.bundle.overlay.graph().edges().size();
         i-- > 0 && budget > 0;) {
      --budget;
      overlay::ScenarioFile candidate = drop_slink(file, i);
      if (reproduces(candidate)) {
        file = std::move(candidate);
        shrunk = true;
      }
    }
  }
  return file;
}

void print_violations(std::ostream& os, const std::vector<check::Violation>& vs) {
  for (const check::Violation& v : vs)
    os << "    " << v.code << ": " << v.detail << "\n";
}

/// Algorithms exercised by the admission battery.  Fixed and the service-path
/// variants are omitted: their selections ignore residual bandwidth entirely,
/// so they add brute-force cost without exercising new admission paths.
const std::vector<core::Algorithm>& contention_algorithms() {
  static const std::vector<core::Algorithm> kBattery = {
      core::Algorithm::kGlobalOptimal,
      core::Algorithm::kSflow,
      core::Algorithm::kRandom,
  };
  return kBattery;
}

/// Extra batch requests for a contention case: 1-3 generated DAGs over the
/// scenario's catalog, each pinned at a hosting instance of its source.
/// Request i's draws come from derive_seed(case_seed, stream + i), so the
/// batch is position-stable.
std::vector<overlay::ServiceRequirement> contention_requests(
    const core::Scenario& scenario, const overlay::RequirementSpec& spec,
    std::size_t type_count, std::uint64_t case_seed) {
  util::Rng count_rng(util::derive_seed(case_seed, 0xC0DE));
  const std::size_t extra =
      static_cast<std::size_t>(count_rng.uniform_int(1, 3));

  std::vector<overlay::Sid> sids;
  for (std::size_t t = 0; t < type_count; ++t)
    sids.push_back(static_cast<overlay::Sid>(t));

  std::vector<overlay::ServiceRequirement> requests{scenario.requirement};
  for (std::size_t i = 0; i < extra; ++i) {
    util::Rng rng(util::derive_seed(case_seed, 0xC0DE00 + i));
    overlay::ServiceRequirement r =
        overlay::generate_requirement(spec, sids, rng);
    const auto sources = scenario.overlay().instances_of(r.source());
    if (sources.empty()) continue;  // unhostable draw; skip, keep the stream
    r.pin(r.source(),
          scenario.overlay()
              .instance(sources[rng.uniform_index(sources.size())])
              .nid);
    requests.push_back(std::move(r));
  }
  return requests;
}

std::pair<std::size_t, double> batch_value(const core::AdmissionResult& r) {
  return {r.admitted_count(), r.total_rate()};
}

/// The multi-request battery: every ordering policy x contention algorithm
/// through run_admission_sequence, each result replayed through the
/// conservation oracle, each policy bounded by the joint brute-force oracle.
/// K <= 4 here, so the K! enumeration is at most 24 sequences per algorithm.
std::vector<check::Violation> run_contention_battery(
    const core::Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    std::uint64_t case_seed) {
  std::vector<check::Violation> violations;
  const auto absorb = [&](const check::ValidationReport& report,
                          const std::string& who) {
    for (const check::Violation& v : report.violations)
      violations.push_back({v.code, who + ": " + v.detail});
  };

  for (const core::Algorithm algorithm : contention_algorithms()) {
    core::AdmissionConfig config;
    config.algorithm = algorithm;
    const core::AdmissionResult oracle =
        core::brute_force_admission(scenario, requests, config, case_seed);
    absorb(check::validate_admission_sequence(scenario, requests, oracle, config),
           core::algorithm_name(algorithm) + " (brute force)");

    for (const core::AdmissionOrder order : core::all_admission_orders()) {
      config.order = order;
      const std::string who = core::algorithm_name(algorithm) + " / " +
                              core::admission_order_name(order);
      const core::AdmissionResult result =
          core::run_admission_sequence(scenario, requests, config, case_seed);
      absorb(check::validate_admission_sequence(scenario, requests, result,
                                                config),
             who);
      // The final residual view has lost its saturated links, so some
      // neighbourhoods there are partial and some still cover the overlay:
      // both local-view branches meet the shared-view oracle.
      if (algorithm == core::Algorithm::kSflow) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const core::FederationView view =
              core::admission_view(scenario, result.view, requests[i]);
          const std::uint64_t seed = util::derive_seed(case_seed, 0x5A4E + i);
          util::Rng rng(seed);
          check_shared_view(
              view, seed,
              core::run_algorithm(core::Algorithm::kSflow, view, rng),
              who + " (final view, request " + std::to_string(i) + ")",
              violations);
        }
      }
      // Exact, not tolerance-based: the policy's run is bit-identical to one
      // of the permutations the oracle enumerated.
      if (batch_value(result) > batch_value(oracle)) {
        std::ostringstream os;
        os << who << " admitted " << result.admitted_count() << " @ "
           << result.total_rate() << " but the joint oracle caps at "
           << oracle.admitted_count() << " @ " << oracle.total_rate();
        violations.push_back({"policy-beats-oracle", os.str()});
      }
    }
  }
  return violations;
}

// ---------------------------------------------------------------------------
// Churn battery (--churn): the incrementally maintained routing database
// against from-scratch truth, one link event at a time.

/// One link event applied to the routing database's graph.
struct ChurnEvent {
  enum class Kind { kInsert, kRemove, kReweight };
  Kind kind = Kind::kInsert;
  graph::NodeIndex from = graph::kInvalidNode;
  graph::NodeIndex to = graph::kInvalidNode;
  graph::LinkMetrics metrics;
};

/// Draws one event valid for the current graph.  Reweights reuse an existing
/// bandwidth half the time and draw zero latency a third of the time, so
/// shared width classes and latency ties — the regimes where the dirty-set
/// predicate and the class-round salvage earn their keep — stay common
/// throughout the sequence.  An edgeless graph forces an insert.
std::optional<ChurnEvent> draw_churn_event(const graph::Digraph& g,
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
  if (kind == 0) {  // insert
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto a = static_cast<graph::NodeIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      const auto b = static_cast<graph::NodeIndex>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      if (a == b || g.has_edge(a, b)) continue;
      return ChurnEvent{ChurnEvent::Kind::kInsert, a, b, random_metrics()};
    }
    return std::nullopt;  // graph is (nearly) complete; skip this step
  }
  const graph::Edge& edge =
      *live[rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1)];
  if (kind == 1)
    return ChurnEvent{ChurnEvent::Kind::kRemove, edge.from, edge.to, {}};
  graph::LinkMetrics m = random_metrics();
  // Half of reweights keep the old latency — the shape residual-capacity
  // churn takes — so the band (below-the-event) salvage path stays hot.
  if (rng.chance(0.5)) m.latency = edge.metrics.latency;
  return ChurnEvent{ChurnEvent::Kind::kReweight, edge.from, edge.to, m};
}

/// Fresh Digraph holding only the live edges of the database's graph, in
/// slot order.  A from-scratch consumer would build exactly this graph — it
/// re-numbers edges and carries no tombstones, so the diff below also pins
/// the sweep's independence from arc and edge numbering.
graph::Digraph live_graph_copy(const graph::AllPairsShortestWidest& db) {
  graph::Digraph fresh(db.graph().node_count());
  for (const graph::Edge& e : db.graph().edges()) {
    if (e.from == graph::kInvalidNode) continue;
    fresh.add_edge(e.from, e.to, e.metrics);
  }
  return fresh;
}

/// Overlay with `base`'s instances and the database graph's live link set —
/// the overlay a federation over the churned topology sees.
overlay::OverlayGraph overlay_snapshot(const overlay::OverlayGraph& base,
                                       const graph::AllPairsShortestWidest& db) {
  overlay::OverlayGraph snapshot;
  for (const overlay::ServiceInstance& instance : base.instances())
    snapshot.add_instance(instance.sid, instance.nid);
  for (const graph::Edge& e : db.graph().edges()) {
    if (e.from == graph::kInvalidNode) continue;
    snapshot.add_link(e.from, e.to, e.metrics);
  }
  return snapshot;
}

/// Bit-for-bit diff of the incrementally maintained database against a
/// from-scratch build: every source, every destination, qualities AND paths.
/// At most three divergences are reported per event (one is already fatal).
void diff_against_fresh(const graph::AllPairsShortestWidest& db,
                        const graph::AllPairsShortestWidest& fresh,
                        const std::string& context,
                        std::vector<check::Violation>& violations) {
  std::size_t reported = 0;
  const std::size_t n = db.node_count();
  for (std::size_t s = 0; s < n && reported < 3; ++s) {
    for (std::size_t t = 0; t < n && reported < 3; ++t) {
      const auto from = static_cast<graph::NodeIndex>(s);
      const auto to = static_cast<graph::NodeIndex>(t);
      const graph::PathQuality& got = db.quality(from, to);
      const graph::PathQuality& want = fresh.quality(from, to);
      if (!(got == want)) {
        std::ostringstream os;
        os << context << ": quality " << s << "->" << t << " incremental ("
           << got.bandwidth << ", " << got.latency << ") vs fresh ("
           << want.bandwidth << ", " << want.latency << ")";
        violations.push_back({"churn-quality-divergence", os.str()});
        ++reported;
        continue;
      }
      const graph::RoutingTree::PathView got_path = db.path_view(from, to);
      const graph::RoutingTree::PathView want_path = fresh.path_view(from, to);
      bool same = got_path.size() == want_path.size();
      for (std::size_t h = 0; same && h < got_path.size(); ++h)
        same = got_path[h] == want_path[h];
      if (!same) {
        std::ostringstream os;
        os << context << ": path " << s << "->" << t << " diverges ("
           << got_path.size() << " vs " << want_path.size() << " hops)";
        violations.push_back({"churn-path-divergence", os.str()});
        ++reported;
      }
    }
  }
}

struct ChurnTally {
  std::size_t events = 0;
  std::size_t federation_checks = 0;
  std::size_t paired_diffs = 0;  // diffs taken with two events pending
};

/// Link events diffed per seed, and how often a federation is interleaved.
constexpr std::size_t kChurnEventsPerSeed = 16;
constexpr std::size_t kChurnFederationStride = 4;

/// The churn battery for one scenario: precompute the database, hammer it
/// with random link events, and rebuild the truth from scratch and diff
/// after every event — or every second event, chosen per seed, so pending
/// lists accumulate multi-event floors.  The diff's full query sweep is the
/// repair trigger under test; with a pool, precompute_all repairs every
/// stale slot in parallel first.  Every kChurnFederationStride-th event
/// additionally runs sFlow and the global optimum against both databases
/// with identically seeded RNGs — reading qualities and paths the way the
/// solvers actually do — and requires deterministically equal outcomes.
std::vector<check::Violation> run_churn_battery(const core::Scenario& scenario,
                                                std::uint64_t case_seed,
                                                util::ThreadPool* pool,
                                                ChurnTally& tally) {
  std::vector<check::Violation> violations;
  graph::AllPairsShortestWidest db(scenario.overlay().graph());
  if (pool != nullptr)
    db.precompute_all(*pool);
  else
    db.precompute_all();

  const std::size_t diff_stride = 1 + util::derive_seed(case_seed, 0xD1FF) % 2;
  util::Rng rng(util::derive_seed(case_seed, 0xC4A2));
  for (std::size_t step = 0; step < kChurnEventsPerSeed; ++step) {
    const std::optional<ChurnEvent> event = draw_churn_event(db.graph(), rng);
    if (!event) continue;
    graph::AllPairsShortestWidest::UpdateStats stats;
    switch (event->kind) {
      case ChurnEvent::Kind::kInsert:
        stats = db.apply_link_insert(event->from, event->to, event->metrics);
        break;
      case ChurnEvent::Kind::kRemove:
        stats = db.apply_link_remove(event->from, event->to);
        break;
      case ChurnEvent::Kind::kReweight:
        stats = db.apply_link_reweight(event->from, event->to, event->metrics);
        break;
    }
    ++tally.events;

    std::ostringstream context;
    context << "event " << step << " ("
            << (event->kind == ChurnEvent::Kind::kInsert     ? "insert"
                : event->kind == ChurnEvent::Kind::kRemove   ? "remove"
                                                             : "reweight")
            << " " << event->from << "->" << event->to << ")";
    if (stats.invalidated_sources + stats.retained_sources +
            stats.unbuilt_sources + stats.stale_sources !=
        db.node_count())
      violations.push_back(
          {"churn-slot-accounting",
           context.str() +
               ": invalidated + retained + unbuilt + stale != node count"});
    for (const graph::NodeIndex source : stats.dirty)
      if (!db.tree_stale(source)) {
        violations.push_back(
            {"churn-staleness",
             context.str() + ": invalidated source not stamped stale"});
        break;
      }
    if (!violations.empty()) return violations;

    if ((step + 1) % diff_stride != 0 && step + 1 < kChurnEventsPerSeed)
      continue;
    if (diff_stride == 2) ++tally.paired_diffs;
    if (pool != nullptr) db.precompute_all(*pool);

    const graph::AllPairsShortestWidest fresh(live_graph_copy(db));
    diff_against_fresh(db, fresh, context.str(), violations);
    if (!violations.empty()) return violations;  // deterministic; stop early

    if ((step + 1) % kChurnFederationStride != 0) continue;
    // Federation cross-check: same overlay, same requirement, same RNG
    // stream — only the routing database differs.
    const overlay::OverlayGraph snapshot =
        overlay_snapshot(scenario.overlay(), db);
    core::FederationView view;
    view.underlay = &scenario.underlay;
    view.routing = scenario.routing.get();
    view.overlay = &snapshot;
    view.requirement = &scenario.requirement;
    for (const core::Algorithm algorithm :
         {core::Algorithm::kSflow, core::Algorithm::kGlobalOptimal}) {
      const std::uint64_t run_seed =
          util::derive_seed(case_seed, 0xFED0 + step);
      util::Rng inc_rng(run_seed);
      util::Rng fresh_rng(run_seed);
      view.overlay_routing = &db;
      const core::FederationOutcome inc =
          core::run_algorithm(algorithm, view, inc_rng);
      view.overlay_routing = &fresh;
      const core::FederationOutcome want =
          core::run_algorithm(algorithm, view, fresh_rng);
      ++tally.federation_checks;
      if (!inc.deterministically_equal(want)) {
        std::ostringstream os;
        os << context.str() << ": " << core::algorithm_name(algorithm)
           << " diverges between the incremental and fresh databases"
           << " (success " << inc.success << " vs " << want.success
           << ", bw " << inc.bandwidth << " vs " << want.bandwidth << ")";
        violations.push_back({"churn-federation-divergence", os.str()});
        return violations;
      }
    }
  }
  return violations;
}

int replay(const std::string& path, std::uint64_t base_seed) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fuzz_federation: cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  overlay::ServiceCatalog catalog;
  overlay::ScenarioFile file = overlay::parse_scenario(text.str(), catalog);
  std::vector<overlay::ServiceRequirement> extra_requests =
      std::move(file.requests);
  overlay::ServiceRequirement primary = file.requirement;
  const core::Scenario scenario =
      scenario_from_file(std::move(file), std::move(catalog));

  // Multi-request dumps (repeated [requirement] sections) replay through the
  // admission battery; single-request dumps through the algorithm battery.
  if (!extra_requests.empty()) {
    std::vector<overlay::ServiceRequirement> requests{std::move(primary)};
    for (overlay::ServiceRequirement& r : extra_requests)
      requests.push_back(std::move(r));
    const std::vector<check::Violation> violations =
        run_contention_battery(scenario, requests, base_seed);
    std::cout << "replayed " << path << " (" << requests.size()
              << " requests, " << scenario.overlay().instance_count()
              << " instances, " << scenario.overlay().graph().edges().size()
              << " slinks)\n";
    if (violations.empty()) {
      std::cout << "  no violations\n";
      return 0;
    }
    std::cout << "  " << violations.size() << " violation(s):\n";
    print_violations(std::cout, violations);
    return 1;
  }

  const BatteryReport report = run_battery(scenario, base_seed, false);

  std::cout << "replayed " << path << " ("
            << scenario.overlay().instance_count() << " instances, "
            << scenario.overlay().graph().edges().size() << " slinks, "
            << scenario.requirement.service_count() << " services)\n";
  for (const auto& [algorithm, outcome] : report.outcomes) {
    std::cout << "  " << core::algorithm_name(algorithm) << ": "
              << (outcome.success ? "success" : "infeasible");
    if (outcome.success)
      std::cout << " (bw=" << outcome.bandwidth << ", lat=" << outcome.latency
                << ")";
    std::cout << "\n";
  }
  if (report.violations.empty()) {
    std::cout << "  no violations\n";
    return 0;
  }
  std::cout << "  " << report.violations.size() << " violation(s):\n";
  print_violations(std::cout, report.violations);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 50;
  bool seeds_given = false;
  std::uint64_t base_seed = 0x5F10;
  bool smoke = false;
  bool contention = false;
  bool churn = false;
  std::size_t threads = 1;
  std::string replay_path;
  std::string dump_dir = ".";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::strtoul(argv[++i], nullptr, 10);
      seeds_given = true;
    } else if (arg == "--base-seed" && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--contention") {
      contention = true;
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtoul(argv[++i], nullptr, 10);
      if (threads == 0) threads = 1;
    } else if (arg == "--replay" && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      dump_dir = argv[++i];
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (threads > 1 && !churn) usage("--threads only applies to --churn");
  if (contention && churn)
    usage("--contention and --churn are mutually exclusive");
  // Contention cases cost ~K! sequences each and churn cases a from-scratch
  // rebuild per link event, so their smoke budgets are lower.
  if (smoke && !seeds_given) seeds = churn ? 60 : contention ? 40 : 200;

  try {
    if (!replay_path.empty()) return replay(replay_path, base_seed);

    if (churn) {
      std::size_t failures = 0;
      std::size_t infeasible_workloads = 0;
      ChurnTally tally;
      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

      for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t case_seed = util::derive_seed(base_seed, s);
        util::Rng workload_rng(util::derive_seed(case_seed, 0xF00D));
        const core::WorkloadParams params = bench::fuzz_workload(workload_rng);

        core::Scenario scenario;
        try {
          scenario = core::make_scenario(params, util::derive_seed(case_seed, 1));
        } catch (const std::runtime_error&) {
          ++infeasible_workloads;
          continue;
        }

        const std::vector<check::Violation> violations =
            run_churn_battery(scenario, case_seed, pool.get(), tally);
        if (violations.empty()) {
          if (!smoke && (s + 1) % 25 == 0)
            std::cout << "  " << (s + 1) << "/" << seeds << " seeds clean\n";
          continue;
        }

        ++failures;
        // Event sequences derive from case_seed alone, so the seed IS the
        // reproducer: fuzz_federation --churn --base-seed B --seeds s+1
        // replays it (clean earlier seeds are cheap at this scale).
        std::cerr << "seed " << s << " (base " << base_seed << "): "
                  << violations.size() << " violation(s)\n";
        print_violations(std::cerr, violations);
      }

      std::cout << "fuzz_federation --churn (" << threads << " thread(s)): "
                << seeds << " seeds, " << tally.events
                << " link events diffed against from-scratch rebuilds ("
                << tally.paired_diffs << " diffs after two events), "
                << tally.federation_checks
                << " federation cross-checks, " << infeasible_workloads
                << " infeasible workload draws, " << failures
                << " failing seed(s)\n";
      return failures == 0 ? 0 : 1;
    }

    if (contention) {
      std::size_t failures = 0;
      std::size_t infeasible_workloads = 0;
      std::size_t batches_total = 0;
      constexpr std::size_t kMaxDumps = 5;

      for (std::size_t s = 0; s < seeds; ++s) {
        const std::uint64_t case_seed = util::derive_seed(base_seed, s);
        util::Rng workload_rng(util::derive_seed(case_seed, 0xF00D));
        const core::WorkloadParams params = bench::fuzz_workload(workload_rng);

        core::Scenario scenario;
        try {
          scenario = core::make_scenario(params, util::derive_seed(case_seed, 1));
        } catch (const std::runtime_error&) {
          ++infeasible_workloads;
          continue;
        }

        const std::vector<overlay::ServiceRequirement> requests =
            contention_requests(scenario, params.requirement,
                                params.service_type_count, case_seed);
        ++batches_total;
        const std::vector<check::Violation> violations =
            run_contention_battery(scenario, requests, case_seed);
        if (violations.empty()) {
          if (!smoke && (s + 1) % 10 == 0)
            std::cout << "  " << (s + 1) << "/" << seeds << " seeds clean\n";
          continue;
        }

        ++failures;
        std::cerr << "seed " << s << " (base " << base_seed << "): "
                  << violations.size() << " violation(s)\n";
        print_violations(std::cerr, violations);
        if (failures <= kMaxDumps) {
          overlay::ScenarioFile file = file_from_scenario(scenario);
          file.requests.assign(requests.begin() + 1, requests.end());
          const std::string path = dump_dir + "/fuzz-contention-seed" +
                                   std::to_string(s) + ".scenario";
          std::ofstream out(path);
          if (!out) {
            std::cerr << "  cannot write " << path << "\n";
            continue;
          }
          out << "# fuzz_federation contention failure: base-seed " << base_seed
              << ", seed " << s << "\n# replay: fuzz_federation --base-seed "
              << base_seed << " --replay " << path << "\n"
              << overlay::format_scenario(file, scenario.catalog);
          std::cerr << "  reproducer written to " << path << "\n";
        }
      }

      std::cout << "fuzz_federation --contention: " << seeds << " seeds, "
                << batches_total << " admission batches ("
                << contention_algorithms().size() << " algorithms x "
                << core::all_admission_orders().size()
                << " orders + brute force), " << infeasible_workloads
                << " infeasible workload draws, " << failures
                << " failing seed(s)\n";
      return failures == 0 ? 0 : 1;
    }

    std::size_t failures = 0;
    std::size_t infeasible_workloads = 0;
    std::size_t successes_total = 0;
    constexpr std::size_t kMaxDumps = 5;

    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t case_seed = util::derive_seed(base_seed, s);
      util::Rng workload_rng(util::derive_seed(case_seed, 0xF00D));
      const core::WorkloadParams params = bench::fuzz_workload(workload_rng);

      core::Scenario scenario;
      try {
        scenario = core::make_scenario(params, util::derive_seed(case_seed, 1));
      } catch (const std::runtime_error&) {
        // No feasible scenario for this parameter draw — a workload
        // pathology, not an algorithm bug; skip the seed but count it.
        ++infeasible_workloads;
        continue;
      }

      const BatteryReport report = run_battery(scenario, case_seed, true);
      for (const auto& [algorithm, outcome] : report.outcomes)
        if (outcome.success) ++successes_total;

      if (!report.violations.empty()) {
        ++failures;
        std::cerr << "seed " << s << " (base " << base_seed << "): "
                  << report.violations.size() << " violation(s)\n";
        print_violations(std::cerr, report.violations);

        if (failures <= kMaxDumps) {
          std::set<std::string> codes;
          for (const check::Violation& v : report.violations)
            codes.insert(v.code);
          const overlay::ScenarioFile minimized = minimize_scenario(
              file_from_scenario(scenario), scenario.catalog, case_seed, codes,
              implicated_filter(report.violations));
          const std::string path =
              dump_dir + "/fuzz-fail-seed" + std::to_string(s) + ".scenario";
          std::ofstream out(path);
          if (!out) {
            std::cerr << "  cannot write " << path << "\n";
            continue;
          }
          out << "# fuzz_federation failure: base-seed " << base_seed
              << ", seed " << s << "\n# replay: fuzz_federation --base-seed "
              << base_seed << " --replay " << path << "\n"
              << overlay::format_scenario(minimized, scenario.catalog);
          std::cerr << "  minimized reproducer written to " << path << "\n";
        }
      } else if (!smoke && (s + 1) % 25 == 0) {
        std::cout << "  " << (s + 1) << "/" << seeds << " seeds clean\n";
      }
    }

    std::cout << "fuzz_federation: " << seeds << " seeds, "
              << battery_algorithms().size() << " algorithms, "
              << successes_total << " successful federations, "
              << infeasible_workloads << " infeasible workload draws, "
              << failures << " failing seed(s)\n";
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fuzz_federation: error: " << e.what() << "\n";
    return 2;
  }
}
