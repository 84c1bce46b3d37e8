// Side-by-side comparison of all five federation algorithms on one random
// scenario — a single-trial preview of the paper's Fig. 10 evaluation, and
// the smallest demo of the unified federation API: every algorithm runs
// through core::run_algorithm, every result is a core::FederationOutcome.
//
//   $ ./examples/federation_compare [network_size] [seed]
#include <cstdlib>
#include <iostream>

#include "core/federator.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sflow;
  core::WorkloadParams params;
  params.network_size = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 30;
  params.service_type_count = 6;
  params.requirement.service_count = 6;
  params.requirement.shape = overlay::RequirementShape::kGenericDag;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  const core::Scenario scenario = core::make_scenario(params, seed);
  std::cout << "Network size " << params.network_size << ", requirement "
            << scenario.requirement.to_string(&scenario.catalog) << "\n\n";

  util::Rng rng(seed);
  const core::FederationOutcome optimal =
      core::run_algorithm(core::Algorithm::kGlobalOptimal, scenario, rng);

  util::TablePrinter table({"algorithm", "ok", "bandwidth (Mbps)", "latency (ms)",
                            "correctness", "compute (us)"});
  core::FederationOutcome sflow;
  for (const core::Algorithm algorithm : core::all_algorithms()) {
    const core::FederationOutcome outcome =
        core::run_algorithm(algorithm, scenario, rng);
    if (algorithm == core::Algorithm::kSflow) sflow = outcome;
    std::vector<std::string> row{core::algorithm_name(algorithm),
                                 outcome.success ? "yes" : "no"};
    if (outcome.success) {
      row.push_back(util::TablePrinter::fmt(outcome.bandwidth, 2));
      row.push_back(util::TablePrinter::fmt(outcome.latency, 2));
      row.push_back(util::TablePrinter::fmt(
          optimal.success ? overlay::ServiceFlowGraph::correctness_coefficient(
                                outcome.graph, optimal.graph)
                          : 0.0,
          2));
      row.push_back(util::TablePrinter::fmt(outcome.compute_time_us, 1));
    } else {
      row.insert(row.end(), {"-", "-", "-", "-"});
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  if (sflow.success) {
    std::cout << "\nsFlow protocol: " << sflow.messages << " messages, "
              << sflow.bytes << " bytes, federation completed at "
              << sflow.federation_time_ms << " ms simulated time\n";
  }
  return 0;
}
