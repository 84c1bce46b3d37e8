// Independent correctness layer for federation results (the repository's
// oracle-backed safety net).
//
// Every federation algorithm self-reports its service flow graph and quality;
// nothing in the production path re-checks them.  This module re-derives
// everything from first principles — assignment completeness and SID
// compatibility, every FlowEdge.overlay_path walked hop-by-hop against actual
// overlay links, the bottleneck bandwidth recomputed as the min over the
// re-measured realized edges, the end-to-end latency recomputed as the
// critical path of the requirement DAG — and checks exact agreement with the
// FederationOutcome's self-reported numbers.  Results come back as a
// structured violation list, not a bool, so the fuzzer and tests can report
// (and minimize against) the precise invariant that broke.
//
// Exactness: stored edge qualities originate from Dijkstra labels that
// accumulate latency in path order and take bandwidth minima over the same
// link set as a hop-by-hop walk, so agreement is required bit-for-bit — any
// tolerance would mask accounting bugs (see docs/testing.md).
#pragma once

#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/federator.hpp"
#include "net/topology.hpp"
#include "net/underlay_routing.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/overlay_graph.hpp"
#include "overlay/requirement.hpp"
#include "overlay/residual.hpp"

namespace sflow::check {

/// One broken invariant.  `code` is a stable machine-readable tag (used by
/// the fuzzer's minimizer to decide whether a shrunk scenario still fails the
/// same way); `detail` names the offending services/instances/values.
struct Violation {
  std::string code;
  std::string detail;

  friend bool operator==(const Violation&, const Violation&) = default;
};

struct ValidationReport {
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty(); }
  /// True when some violation carries `code`.
  bool has(const std::string& code) const;
  /// One line per violation ("code: detail"); empty string when ok().
  std::string to_string() const;
};

/// Structural validation of a flow graph against its requirement and overlay:
/// assignments cover exactly the required services with matching SIDs and
/// honoured pins; every requirement edge is realized by a path whose
/// endpoints match the assignments; every path hop is an actual overlay link;
/// each edge's stored PathQuality equals the re-measured one exactly.
///
/// Violation codes: invalid-requirement, unassigned-service, bad-instance,
/// sid-mismatch, pin-violated, extra-assignment, unrealized-edge, extra-edge,
/// endpoint-mismatch, empty-path, missing-link, bad-metric, nan-quality,
/// edge-quality-mismatch.
ValidationReport validate_flow_graph(const overlay::OverlayGraph& overlay,
                                     const overlay::ServiceRequirement& requirement,
                                     const overlay::ServiceFlowGraph& graph);

/// Full outcome validation: the graph checks above (against the outcome's
/// effective requirement), plus consistency of the effective requirement with
/// the scenario requirement (same service set, pins preserved), plus exact
/// agreement of the outcome's self-reported bandwidth/latency with the
/// re-derived bottleneck and critical path.  A failed outcome (success ==
/// false) validates trivially.
///
/// Additional codes: effective-invalid, effective-service-set,
/// effective-pin-dropped, bandwidth-mismatch, latency-mismatch.
ValidationReport validate_flow_graph(const overlay::OverlayGraph& overlay,
                                     const overlay::ServiceRequirement& requirement,
                                     const core::FederationOutcome& outcome);

/// Conservation oracle over an admitted set: re-derives every flow's
/// consumption from first principles (the same distinct-link semantics the
/// ledger uses, but re-walked here from the flow graphs) and checks that
///
///  * every granted rate is positive and no larger than the flow's bottleneck
///    re-measured on the *base* overlay (a residual-solved flow can never
///    exceed pristine capacity);
///  * on every overlay link, the sum of granted rates of the flows crossing
///    it never exceeds the base capacity;
///  * when `routing` is non-null, the same holds for every physical link
///    beneath the flows' overlay hops against the underlay capacities.
///
/// Floating-point sums earn a tiny relative tolerance (1e-9); everything else
/// is exact.  Violation codes: rate-nonpositive, rate-above-bottleneck,
/// conservation-overlay, conservation-underlay.
ValidationReport validate_conservation(
    const overlay::OverlayGraph& base_overlay,
    const net::UnderlyingNetwork& underlay, const net::UnderlayRouting* routing,
    const std::vector<overlay::AdmittedFlow>& admitted);

/// Replay oracle for a whole admission sequence: re-applies `result`'s
/// decisions to a fresh copy of `scenario`'s view and checks each against the
/// residual state *at its decision time* — structural/quality validation of
/// every admitted outcome on the residual overlay it was solved against
/// (codes of validate_flow_graph), the granted rate's clamps (rate <=
/// re-measured bottleneck; rate <= physical headroom; rate >= the
/// configured floor), rejected decisions charging nothing — then checks the
/// replayed view agrees with the result's and runs the conservation oracle
/// over the final admitted set.
///
/// Additional codes: admission-order, admission-rate, admission-floor,
/// admission-rejected-rate, admission-view-mismatch.
ValidationReport validate_admission_sequence(
    const core::Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const core::AdmissionResult& result, const core::AdmissionConfig& config);

/// First-principles critical path of `requirement` with each edge weighted by
/// `edge_latency(from_sid, to_sid)` — an independent re-implementation of the
/// flow graph's end-to-end latency (longest source-to-sink path; parallel
/// branches overlap).  Exposed for the oracle layer.
double critical_path_latency(
    const overlay::ServiceRequirement& requirement,
    const std::vector<std::pair<std::pair<overlay::Sid, overlay::Sid>, double>>&
        edge_latencies);

}  // namespace sflow::check
