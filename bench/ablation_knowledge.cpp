// Ablation E5: how much does the local-knowledge radius matter?
//
// The paper fixes a two-hop vicinity (§4); this bench sweeps radius 1, 2, 3,
// and unlimited, reporting the correctness coefficient and bandwidth of the
// resulting flow graphs plus the global-fallback rate.  Expected: quality
// grows with radius and saturates near the optimum; radius 2 is already close
// (the paper's design point), and fallbacks vanish as the radius grows.
#include "bench_common.hpp"

int main() {
  using namespace sflow;
  bench::SweepConfig config;
  config.trials_per_size = 15;
  util::SeriesTable coefficient;
  util::SeriesTable bandwidth;
  util::SeriesTable fallbacks;

  const std::vector<std::pair<int, std::string>> radii = {
      {1, "radius 1"}, {2, "radius 2 (paper)"}, {3, "radius 3"},
      {-1, "unlimited"}};

  bench::sweep(config, [&](const core::Scenario& scenario, util::Rng& rng,
                           std::size_t size) {
    const core::FederationOutcome optimal =
        core::run_algorithm(core::Algorithm::kGlobalOptimal, scenario, rng);
    if (!optimal.success) return;
    for (const auto& [radius, label] : radii) {
      core::SFlowNodeConfig node_config;
      node_config.knowledge_radius = radius;
      const core::FederationOutcome outcome = core::run_algorithm(
          core::Algorithm::kSflow, scenario, rng, node_config);
      if (!outcome.success) continue;
      coefficient.row(label, static_cast<double>(size))
          .add(overlay::ServiceFlowGraph::correctness_coefficient(outcome.graph,
                                                                  optimal.graph));
      bandwidth.row(label, static_cast<double>(size)).add(outcome.bandwidth);
      fallbacks.row(label, static_cast<double>(size))
          .add(static_cast<double>(outcome.global_fallbacks));
    }
  });

  bench::print_series(std::cout,
                      "Ablation E5  Correctness coefficient vs knowledge radius",
                      coefficient);
  bench::print_series(std::cout, "Ablation E5  Bandwidth (Mbps) vs knowledge radius",
                      bandwidth, 2);
  bench::print_series(std::cout,
                      "Ablation E5  Global link-state fallbacks per federation",
                      fallbacks, 2);
  std::cout << "\nExpected shape: quality grows with radius and saturates; "
               "radius 2 is close to unlimited.\n";
  return 0;
}
