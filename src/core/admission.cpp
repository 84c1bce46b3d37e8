#include "core/admission.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sflow::core {

std::string admission_order_name(AdmissionOrder order) {
  switch (order) {
    case AdmissionOrder::kFcfs:
      return "fcfs";
    case AdmissionOrder::kWidestFirst:
      return "widest-first";
    case AdmissionOrder::kSmallestFirst:
      return "smallest-first";
  }
  throw std::invalid_argument("admission_order_name: unknown order");
}

const std::vector<AdmissionOrder>& all_admission_orders() {
  static const std::vector<AdmissionOrder> orders = {
      AdmissionOrder::kFcfs,
      AdmissionOrder::kWidestFirst,
      AdmissionOrder::kSmallestFirst,
  };
  return orders;
}

std::size_t AdmissionResult::admitted_count() const {
  std::size_t count = 0;
  for (const AdmissionDecision& d : decisions) count += d.admitted ? 1 : 0;
  return count;
}

double AdmissionResult::total_rate() const {
  double total = 0.0;
  for (const AdmissionDecision& d : decisions) total += d.rate;
  return total;
}

FederationView admission_view(const Scenario& scenario,
                              const overlay::ResidualOverlay& view,
                              const overlay::ServiceRequirement& requirement) {
  FederationView v;
  v.underlay = &scenario.underlay;
  v.routing = scenario.routing.get();
  v.overlay = &view.graph();
  v.overlay_routing = &view.routing();
  v.requirement = &requirement;
  return v;
}

AdmissionDecision apply_admission(const Scenario& scenario,
                                  overlay::ResidualOverlay& view,
                                  std::size_t request_index,
                                  const AdmissionConfig& config,
                                  FederationOutcome outcome) {
  if (scenario.routing == nullptr)
    throw std::invalid_argument("apply_admission: needs scenario.routing");
  AdmissionDecision decision;
  decision.request_index = request_index;
  decision.outcome = std::move(outcome);
  if (decision.outcome.success) {
    const double rate = std::min(
        decision.outcome.bandwidth,
        view.underlay_headroom(decision.outcome.graph, *scenario.routing,
                               scenario.underlay));
    if (rate > 0.0 && rate >= config.bandwidth_floor) {
      decision.admitted = true;
      decision.rate = rate;
      view.admit(decision.outcome.graph, rate, scenario.routing.get());
    }
  }
  return decision;
}

AdmissionDecision admit_one(const Scenario& scenario,
                            overlay::ResidualOverlay& view,
                            const overlay::ServiceRequirement& requirement,
                            std::size_t request_index,
                            const AdmissionConfig& config, std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, request_index));
  return apply_admission(
      scenario, view, request_index, config,
      run_algorithm(config.algorithm,
                    admission_view(scenario, view, requirement), rng,
                    config.sflow));
}

namespace {

std::vector<std::size_t> policy_order(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const AdmissionConfig& config, std::uint64_t seed) {
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (config.order) {
    case AdmissionOrder::kFcfs:
      break;
    case AdmissionOrder::kWidestFirst: {
      // Pre-solve each request standalone on the sequence's starting state.
      // The probe uses the same derived seed the real run will, so it sees
      // exactly the bandwidth the request would get if served first.
      std::vector<double> width(requests.size(), -1.0);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        util::Rng rng(util::derive_seed(seed, i));
        const FederationOutcome probe = run_algorithm(
            config.algorithm,
            admission_view(scenario, scenario.view, requests[i]), rng,
            config.sflow);
        if (probe.success) width[i] = probe.bandwidth;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return width[a] > width[b];
                       });
      break;
    }
    case AdmissionOrder::kSmallestFirst:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return requests[a].service_count() <
                                requests[b].service_count();
                       });
      break;
  }
  return order;
}

}  // namespace

AdmissionResult run_admission_in_order(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const std::vector<std::size_t>& order, const AdmissionConfig& config,
    std::uint64_t seed) {
  if (order.size() != requests.size())
    throw std::invalid_argument(
        "run_admission_in_order: order is not a permutation of the batch");
  if (scenario.routing == nullptr)
    throw std::invalid_argument("run_admission_in_order: needs scenario.routing");

  AdmissionResult result;
  result.view = scenario.view;  // cheap: shares the base snapshot
  result.decisions.reserve(requests.size());

  for (const std::size_t index : order)
    result.decisions.push_back(
        admit_one(scenario, result.view, requests[index], index, config, seed));
  return result;
}

AdmissionResult run_admission_sequence(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const AdmissionConfig& config, std::uint64_t seed) {
  return run_admission_in_order(
      scenario, requests, policy_order(scenario, requests, config, seed),
      config, seed);
}

AdmissionResult brute_force_admission(
    const Scenario& scenario,
    const std::vector<overlay::ServiceRequirement>& requests,
    const AdmissionConfig& config, std::uint64_t seed) {
  if (requests.size() > 8)
    throw std::invalid_argument(
        "brute_force_admission: K! enumeration capped at K = 8");
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  AdmissionResult best;
  bool have_best = false;
  do {
    AdmissionResult candidate =
        run_admission_in_order(scenario, requests, order, config, seed);
    if (!have_best ||
        std::pair(candidate.admitted_count(), candidate.total_rate()) >
            std::pair(best.admitted_count(), best.total_rate())) {
      best = std::move(candidate);
      have_best = true;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace sflow::core
