// E7: google-benchmark microbenchmarks for the building blocks — the
// Wang-Crowcroft routing core, the solvers (the baseline's flat abstract
// arena DP among them), and the parallel evaluation engine (threads on the
// x axis).
#include <benchmark/benchmark.h>

#include "core/baseline.hpp"
#include "core/federator.hpp"
#include "core/scenario.hpp"
#include "core/global_optimal.hpp"
#include "core/parallel_runner.hpp"
#include "core/reduction.hpp"
#include "graph/qos_routing.hpp"
#include "net/generators.hpp"
#include "satred/dpll.hpp"
#include "satred/reduction.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sflow;

graph::Digraph random_digraph(std::size_t n, double density, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Digraph g(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b)
      if (a != b && rng.chance(density))
        g.add_edge(static_cast<graph::NodeIndex>(a),
                   static_cast<graph::NodeIndex>(b),
                   {rng.uniform_real(1, 100), rng.uniform_real(1, 10)});
  return g;
}

void BM_ShortestWidestTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = random_digraph(n, 0.3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::shortest_widest_tree(g, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ShortestWidestTree)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_AllPairsShortestWidest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Digraph g = random_digraph(n, 0.3, 11);
  for (auto _ : state) {
    const graph::AllPairsShortestWidest all(g);
    all.precompute_all();
    benchmark::DoNotOptimize(&all);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllPairsShortestWidest)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_WaxmanGeneration(benchmark::State& state) {
  net::WaxmanParams params;
  params.node_count = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::make_waxman(params, rng));
  }
}
BENCHMARK(BM_WaxmanGeneration)->Arg(20)->Arg(50);

core::Scenario bench_scenario(std::size_t network_size,
                              overlay::RequirementShape shape) {
  core::WorkloadParams params;
  params.network_size = network_size;
  params.service_type_count = 6;
  params.requirement.service_count = 6;
  params.requirement.shape = shape;
  return core::make_scenario(params, 99);
}

void BM_BaselineChain(benchmark::State& state) {
  const core::Scenario scenario = bench_scenario(
      static_cast<std::size_t>(state.range(0)), overlay::RequirementShape::kSinglePath);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::baseline_single_path(
        scenario.overlay(), scenario.requirement, scenario.overlay_routing()));
  }
}
BENCHMARK(BM_BaselineChain)->Arg(20)->Arg(50);

void BM_RequirementSolver(benchmark::State& state) {
  const core::Scenario scenario = bench_scenario(
      static_cast<std::size_t>(state.range(0)), overlay::RequirementShape::kSplitMerge);
  const core::RequirementSolver solver(scenario.overlay(), scenario.overlay_routing());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(scenario.requirement));
  }
}
BENCHMARK(BM_RequirementSolver)->Arg(20)->Arg(50);

void BM_GlobalOptimal(benchmark::State& state) {
  const core::Scenario scenario = bench_scenario(
      static_cast<std::size_t>(state.range(0)), overlay::RequirementShape::kGenericDag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_flow_graph(
        scenario.overlay(), scenario.requirement, scenario.overlay_routing()));
  }
}
BENCHMARK(BM_GlobalOptimal)->Arg(20)->Arg(50);

void BM_AllPairsParallelPrecompute(benchmark::State& state) {
  const graph::Digraph g = random_digraph(64, 0.3, 11);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const graph::AllPairsShortestWidest all(g);
    all.precompute_all(pool);
    benchmark::DoNotOptimize(&all);
  }
}
BENCHMARK(BM_AllPairsParallelPrecompute)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The evaluation engine end to end: a small Fig. 10-style batch (two sizes,
/// four trials each, full algorithm line-up) per iteration, with the thread
/// count on the x axis.  Outcomes are bit-identical across the Args by the
/// engine's determinism contract; only the wall clock moves.
void BM_ParallelSweep(benchmark::State& state) {
  std::vector<core::TrialSpec> trials;
  for (const std::size_t size : {20u, 30u}) {
    for (std::uint64_t t = 0; t < 4; ++t) {
      core::TrialSpec spec;
      spec.params.network_size = size;
      spec.params.service_type_count = 6;
      spec.params.requirement.service_count = 6;
      spec.params.requirement.shape = overlay::RequirementShape::kGenericDag;
      spec.scenario_seed = util::derive_seed(7, size * 100 + t);
      spec.algorithms = {core::Algorithm::kGlobalOptimal,
                         core::Algorithm::kSflow, core::Algorithm::kFixed,
                         core::Algorithm::kRandom};
      trials.push_back(std::move(spec));
    }
  }
  const core::ParallelSweepRunner runner(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(trials));
  }
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_DpllPhaseTransition(benchmark::State& state) {
  util::Rng rng(13);
  const sat::CnfFormula formula =
      sat::random_ksat(16, static_cast<std::size_t>(16 * 4.3), 3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::dpll_solve(formula));
  }
}
BENCHMARK(BM_DpllPhaseTransition);

void BM_SatReduction(benchmark::State& state) {
  util::Rng rng(17);
  const sat::CnfFormula formula = sat::random_ksat(12, 48, 3, rng);
  for (auto _ : state) {
    const sat::MsfgInstance instance = sat::reduce_sat_to_msfg(formula);
    benchmark::DoNotOptimize(sat::solve_msfg(instance));
  }
}
BENCHMARK(BM_SatReduction);

}  // namespace

BENCHMARK_MAIN();
