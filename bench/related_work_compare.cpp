// E13/E14: sFlow against the two distributed/structured predecessors the
// paper cites — service multicast trees (Jin & Nahrstedt [3]) and
// distance-based clustered federation (Jin & Nahrstedt [2]).
//
// Panel 1 (E13) uses multicast-tree requirements, the home turf of [3]:
// the greedy path-merging tree construction vs sFlow vs the exact optimum.
// Panel 2 (E14) uses generic DAG requirements with clustered federation,
// which trades instance-level precision for scalability.
//
// Expected shape: sFlow tracks the optimum on both; the tree construction
// loses bandwidth where greedy trunk choices constrain branches; clustered
// federation falls further behind (and occasionally fails) because clusters
// commit before instance-level qualities are seen.
#include "bench_common.hpp"
#include "core/clustered.hpp"
#include "core/multicast.hpp"

int main() {
  using namespace sflow;

  {
    bench::SweepConfig config;
    config.trials_per_size = 15;
    config.shapes = {overlay::RequirementShape::kMulticastTree};
    util::SeriesTable bandwidth;
    bench::sweep(config, [&](const core::Scenario& scenario, util::Rng& rng,
                             std::size_t size) {
      const auto x = static_cast<double>(size);
      const core::FederationOutcome optimal =
          core::run_algorithm(core::Algorithm::kGlobalOptimal, scenario, rng);
      const core::FederationOutcome sflow =
          core::run_algorithm(core::Algorithm::kSflow, scenario, rng);
      const auto tree = core::multicast_tree_federation(
          scenario.overlay(), scenario.requirement, scenario.overlay_routing());
      if (!optimal.success || !sflow.success || !tree) return;
      bandwidth.row("Global Optimal", x).add(optimal.bandwidth);
      bandwidth.row("sFlow", x).add(sflow.bandwidth);
      bandwidth.row("Multicast Tree [3]", x).add(tree->bottleneck_bandwidth());
    });
    bench::print_series(std::cout,
                        "E13  Bandwidth (Mbps) on multicast-tree requirements",
                        bandwidth, 2);
  }

  {
    bench::SweepConfig config;
    config.trials_per_size = 15;
    config.shapes = {overlay::RequirementShape::kGenericDag};
    util::SeriesTable bandwidth;
    util::SeriesTable success;
    bench::sweep(config, [&](const core::Scenario& scenario, util::Rng& rng,
                             std::size_t size) {
      const auto x = static_cast<double>(size);
      const core::FederationOutcome optimal =
          core::run_algorithm(core::Algorithm::kGlobalOptimal, scenario, rng);
      const core::FederationOutcome sflow =
          core::run_algorithm(core::Algorithm::kSflow, scenario, rng);
      if (!optimal.success || !sflow.success) return;
      const auto clusters =
          core::cluster_overlay(scenario.overlay(), *scenario.routing, 8.0);
      const auto clustered = core::clustered_federation(
          scenario.overlay(), scenario.requirement, scenario.overlay_routing(),
          clusters);
      bandwidth.row("Global Optimal", x).add(optimal.bandwidth);
      bandwidth.row("sFlow", x).add(sflow.bandwidth);
      success.row("Clustered [2] success rate", x).add(clustered ? 1.0 : 0.0);
      if (clustered)
        bandwidth.row("Clustered [2]", x).add(clustered->bottleneck_bandwidth());
    });
    bench::print_series(std::cout,
                        "E14  Bandwidth (Mbps) on generic DAG requirements",
                        bandwidth, 2);
    bench::print_series(std::cout, "E14  Clustered federation success rate",
                        success, 2);
  }

  std::cout << "\nExpected shape: sFlow tracks Global Optimal on both "
               "panels; Multicast Tree trails on bandwidth; Clustered trails "
               "further and does not always succeed.\n";
  return 0;
}
