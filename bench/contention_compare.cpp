// E15: promised vs delivered throughput under underlay contention.
//
// Flow-graph bandwidth in the paper assumes every realized edge enjoys its
// overlay link metrics exclusively; in reality the streams of one federated
// service share physical links.  This bench evaluates each algorithm's flow
// graph with the max-min fair contention model (net/contention.hpp) and
// reports delivered throughput plus the delivered/promised retention ratio.
//
// Expected shape: everyone keeps less than they promise; selections that
// spread streams over physically disjoint routes (Global Optimal / sFlow,
// which favour wide — usually distinct — links) retain more than Random,
// whose streams pile onto whatever routes chance picked.
#include "bench_common.hpp"
#include "net/contention.hpp"

int main() {
  using namespace sflow;
  bench::SweepConfig config;
  config.trials_per_size = 15;
  util::SeriesTable delivered;
  util::SeriesTable retention;

  bench::sweep(config, [&](const core::Scenario& scenario, util::Rng& rng,
                           std::size_t size) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::kGlobalOptimal, core::Algorithm::kSflow,
          core::Algorithm::kFixed, core::Algorithm::kRandom}) {
      const core::FederationOutcome outcome =
          core::run_algorithm(algorithm, scenario, rng);
      if (!outcome.success) continue;
      const net::ContentionReport report = net::evaluate_contention(
          scenario.overlay(), outcome.graph, scenario.underlay, *scenario.routing);
      const auto x = static_cast<double>(size);
      delivered.row(core::algorithm_name(algorithm), x)
          .add(report.delivered_throughput);
      if (report.promised_throughput > 0.0)
        retention.row(core::algorithm_name(algorithm), x)
            .add(report.delivered_throughput / report.promised_throughput);
    }
  });

  bench::print_series(std::cout,
                      "E15  Delivered throughput (Mbps) under contention",
                      delivered, 2);
  bench::print_series(std::cout, "E15  Delivered / promised retention ratio",
                      retention, 3);
  std::cout << "\nExpected shape: retention < 1 everywhere (promised "
               "bandwidth never fully survives contention); Global Optimal "
               "and sFlow keep the delivered lead at larger sizes, but the "
               "narrowed gap shows promised-bandwidth optimization leaves "
               "contention on the table — a contention-aware objective is "
               "natural future work.\n";
  return 0;
}
