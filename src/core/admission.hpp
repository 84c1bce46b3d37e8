// Multi-request admission under shared capacity: K consumers ask for
// federations on the same overlay snapshot, and each admission depletes the
// capacity the next request sees (overlay/residual.hpp).
//
// The sequence solver is deliberately simple — it is the paper's §5 setting
// extended from one request to a stream, and its point is the *ordering*
// question: does serving requests first-come-first-served leave capacity on
// the table compared to serving wide (high-bandwidth) or small (few-service)
// requests first?  A joint brute-force oracle (every processing order, K <= 8)
// bounds what any ordering policy can achieve, which is what the tests pin:
// no policy may ever beat the oracle, because each policy's run IS one of the
// permutations the oracle enumerates.
//
// Determinism contract: request i's randomness comes from
// derive_seed(seed, i) regardless of the position i is processed at, so a
// policy's outcome depends only on the *set order* it induces — identical
// orders give bit-identical results, which makes the oracle comparison exact
// rather than tolerance-based.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/federator.hpp"
#include "core/scenario.hpp"
#include "core/sflow_node.hpp"
#include "overlay/requirement.hpp"
#include "overlay/residual.hpp"

namespace sflow::core {

/// Processing-order policies for a batch of requests.
enum class AdmissionOrder {
  kFcfs,           ///< batch order as given
  kWidestFirst,    ///< by standalone achievable bandwidth, descending
  kSmallestFirst,  ///< by requirement service count, ascending
};

std::string admission_order_name(AdmissionOrder order);
const std::vector<AdmissionOrder>& all_admission_orders();

struct AdmissionConfig {
  AdmissionOrder order = AdmissionOrder::kFcfs;
  /// sflowd's default too: the exact search under its node budget.
  Algorithm algorithm = Algorithm::kGlobalOptimal;
  /// Minimum granted rate (Mbps) for an admission to count; a solved flow
  /// whose rate lands below the floor is rejected and charges nothing.
  double bandwidth_floor = 1e-9;
  /// Parameters for the distributed algorithm; ignored by the others.
  SFlowNodeConfig sflow;
};

/// One request's fate.  `request_index` is its position in the input batch
/// (not the position it was processed at — decisions are recorded in
/// processing order).
struct AdmissionDecision {
  std::size_t request_index = 0;
  bool admitted = false;
  /// Granted rate: the flow's bottleneck on the residual overlay it was
  /// solved against, possibly clamped down to underlay headroom.  Zero when
  /// not admitted.
  double rate = 0.0;
  FederationOutcome outcome;
};

struct AdmissionResult {
  /// In processing order.
  std::vector<AdmissionDecision> decisions;
  /// Residual state after the whole batch (base snapshot shared with the
  /// scenario; generation == admitted_count()).
  overlay::ResidualOverlay view;

  std::size_t admitted_count() const;
  /// Sum of granted rates — the delivered throughput of the batch.
  double total_rate() const;
};

/// The solver window onto live residual state: `scenario` supplies the
/// underlay and its routing, `view` the (possibly depleted) overlay and its
/// shortest-widest database, `requirement` the request.  Pointers into
/// `view` are per-call — admit() swaps the residual graph/routing out from
/// under previously assembled windows.
FederationView admission_view(const Scenario& scenario,
                              const overlay::ResidualOverlay& view,
                              const overlay::ServiceRequirement& requirement);

/// Applies the admission policy to an already-solved `outcome` against live
/// residual state: clamps the granted rate to physical headroom, applies the
/// bandwidth floor, and — when admitted — charges `view` (overlay and
/// underlay links; requires scenario.routing).  The outcome must have been solved on `view`'s residual
/// graph in its *current* generation, or the clamp/charge would be against
/// state the solver never saw.
AdmissionDecision apply_admission(const Scenario& scenario,
                                  overlay::ResidualOverlay& view,
                                  std::size_t request_index,
                                  const AdmissionConfig& config,
                                  FederationOutcome outcome);

/// One full online admission step: solves `requirement` on `view` with the
/// request's own derived rng stream (derive_seed(seed, request_index)), then
/// apply_admission.  This is the primitive run_admission_in_order iterates
/// over a batch and sflowd serves per request frame — one implementation is
/// what makes the daemon's FCFS stream bit-identical to a sequential
/// run_admission_sequence replay of the same requests.
AdmissionDecision admit_one(const Scenario& scenario,
                            overlay::ResidualOverlay& view,
                            const overlay::ServiceRequirement& requirement,
                            std::size_t request_index,
                            const AdmissionConfig& config, std::uint64_t seed);

/// Serves `requests` on a copy of `scenario`'s residual view under
/// `config.order`, admitting each request the configured algorithm can solve
/// at a positive rate >= bandwidth_floor.  The scenario's own view is not
/// mutated.  Request i draws randomness from derive_seed(seed, i).
AdmissionResult run_admission_sequence(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const AdmissionConfig& config, std::uint64_t seed);

/// As above but with an explicit processing order (a permutation of request
/// indices).  This is the primitive both the policies and the brute-force
/// oracle reduce to.
AdmissionResult run_admission_in_order(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const std::vector<std::size_t>& order, const AdmissionConfig& config,
    std::uint64_t seed);

/// Joint oracle: tries every processing order (K! of them; throws
/// std::invalid_argument for K > 8) and returns the best batch by
/// (admitted_count, total_rate) lexicographically, first permutation winning
/// ties.  `config.order` is ignored.
AdmissionResult brute_force_admission(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const AdmissionConfig& config, std::uint64_t seed);

}  // namespace sflow::core
