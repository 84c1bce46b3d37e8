// The evaluation engine's determinism contract: the same trial batch must
// produce deterministically-equal outcomes at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/parallel_runner.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace sflow::core {
namespace {

std::vector<TrialSpec> sweep_trials(std::size_t seeds) {
  std::vector<TrialSpec> trials;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    TrialSpec spec;
    spec.params = testing::small_workload(16);
    spec.scenario_seed = 4200 + seed;
    spec.algorithms = {Algorithm::kSflow, Algorithm::kGlobalOptimal,
                       Algorithm::kRandom};
    trials.push_back(std::move(spec));
  }
  return trials;
}

/// The ISSUE 1 acceptance test: a 3-algorithm x 20-seed sweep is
/// bit-identical (modulo wall-clock compute_time_us) at 1 and 8 threads.
TEST(ParallelSweepRunner, ThreadCountDoesNotChangeOutcomes) {
  const std::vector<TrialSpec> trials = sweep_trials(20);
  const std::vector<TrialResult> serial = ParallelSweepRunner(1).run(trials);
  const std::vector<TrialResult> parallel = ParallelSweepRunner(8).run(trials);

  ASSERT_EQ(serial.size(), trials.size());
  ASSERT_EQ(parallel.size(), trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ASSERT_EQ(serial[i].outcomes.size(), trials[i].algorithms.size());
    ASSERT_EQ(parallel[i].outcomes.size(), trials[i].algorithms.size());
    for (std::size_t slot = 0; slot < trials[i].algorithms.size(); ++slot) {
      EXPECT_TRUE(serial[i].outcomes[slot].deterministically_equal(
          parallel[i].outcomes[slot]))
          << "trial " << i << ", "
          << algorithm_name(trials[i].algorithms[slot]);
    }
  }
}

/// An algorithm's draws depend on the algorithm, not on its slot in the
/// trial's list: Random alone and Random third in line agree.
TEST(ParallelSweepRunner, RandomDrawsDoNotDependOnTheAlgorithmSlot) {
  for (TrialSpec alone : sweep_trials(5)) {
    TrialSpec lineup = alone;
    alone.algorithms = {Algorithm::kRandom};
    lineup.algorithms = {Algorithm::kFixed, Algorithm::kServicePath,
                         Algorithm::kRandom};
    const TrialResult a = ParallelSweepRunner::run_trial(alone);
    const TrialResult b = ParallelSweepRunner::run_trial(lineup);
    EXPECT_TRUE(a.outcomes[0].deterministically_equal(b.outcomes[2]))
        << "seed " << alone.scenario_seed;
  }
}

/// Two parallel runs must also agree with each other (no scheduling leak).
TEST(ParallelSweepRunner, RepeatedParallelRunsAgree) {
  const std::vector<TrialSpec> trials = sweep_trials(6);
  const ParallelSweepRunner runner(8);
  const std::vector<TrialResult> a = runner.run(trials);
  const std::vector<TrialResult> b = runner.run(trials);
  for (std::size_t i = 0; i < trials.size(); ++i)
    for (std::size_t slot = 0; slot < trials[i].algorithms.size(); ++slot)
      EXPECT_TRUE(
          a[i].outcomes[slot].deterministically_equal(b[i].outcomes[slot]));
}

/// The observability contract (ISSUE 2): metrics are strictly observational.
/// A fully instrumented sweep — every trial bumping the global registry's
/// protocol counters, routing-cache counters, and wall-clock histograms —
/// still produces bit-identical outcomes at 1 and 8 threads, and registry
/// snapshots taken from another thread mid-sweep never tear (counters and
/// per-bucket cumulative histogram counts are monotone non-decreasing).
TEST(ParallelSweepRunner, InstrumentedSweepIsDeterministicAndTearFree) {
  const std::vector<TrialSpec> trials = sweep_trials(12);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    std::map<std::string, double> last_counter;
    std::map<std::string, std::vector<std::uint64_t>> last_cumulative;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::MetricSnapshot& m : obs::Registry::global().snapshot()) {
        if (m.type == obs::MetricSnapshot::Type::kCounter) {
          if (m.value < last_counter[m.name]) ++torn;
          last_counter[m.name] = m.value;
        } else if (m.type == obs::MetricSnapshot::Type::kHistogram) {
          std::vector<std::uint64_t>& last = last_cumulative[m.name];
          last.resize(m.cumulative.size(), 0);
          for (std::size_t i = 0; i < m.cumulative.size(); ++i) {
            if (i > 0 && m.cumulative[i] < m.cumulative[i - 1]) ++torn;
            if (m.cumulative[i] < last[i]) ++torn;
            last[i] = m.cumulative[i];
          }
          if (m.count != m.cumulative.back()) ++torn;
        }
      }
    }
  });

  const std::vector<TrialResult> serial = ParallelSweepRunner(1).run(trials);
  const std::vector<TrialResult> parallel = ParallelSweepRunner(8).run(trials);
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0) << "registry snapshot tore mid-sweep";
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < trials.size(); ++i)
    for (std::size_t slot = 0; slot < trials[i].algorithms.size(); ++slot)
      EXPECT_TRUE(serial[i].outcomes[slot].deterministically_equal(
          parallel[i].outcomes[slot]))
          << "instrumentation changed trial " << i << ", "
          << algorithm_name(trials[i].algorithms[slot]);
}

TEST(ParallelSweepRunner, OutcomesAreMeaningful) {
  const std::vector<TrialSpec> trials = sweep_trials(3);
  const std::vector<TrialResult> results = ParallelSweepRunner(4).run(trials);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    // make_scenario guarantees feasibility, so the exact solver and sFlow
    // both succeed; outcomes stay within the optimum.
    const FederationOutcome& sflow = results[i].outcomes[0];
    const FederationOutcome& optimal = results[i].outcomes[1];
    ASSERT_TRUE(optimal.success);
    ASSERT_TRUE(sflow.success);
    EXPECT_GT(sflow.messages, 0u);
    EXPECT_LE(sflow.bandwidth, optimal.bandwidth + 1e-9);
  }
}

TEST(ParallelSweepRunner, EmptyBatch) {
  EXPECT_TRUE(ParallelSweepRunner(4).run({}).empty());
}

TEST(ParallelSweepRunner, ZeroThreadsClampedToOne) {
  EXPECT_EQ(ParallelSweepRunner(0).threads(), 1u);
}

TEST(ParallelSweepRunner, PropagatesTrialErrors) {
  TrialSpec bad;
  bad.params = testing::small_workload(4);
  bad.params.service_type_count = 9;  // more types than nodes
  bad.algorithms = {Algorithm::kFixed};
  EXPECT_THROW(ParallelSweepRunner(1).run({bad}), std::invalid_argument);
  EXPECT_THROW(ParallelSweepRunner(4).run({bad}), std::invalid_argument);
}

/// run_algorithm dispatches on every algorithm, each under its own name;
/// an out-of-range value is rejected rather than silently solved.
TEST(Federator, NamesAndAlgorithmsRoundTrip) {
  const Scenario scenario = make_scenario(testing::small_workload(14), 11);
  std::set<std::string> names;
  for (const Algorithm algorithm :
       {Algorithm::kSflow, Algorithm::kGlobalOptimal, Algorithm::kFixed,
        Algorithm::kRandom, Algorithm::kServicePath,
        Algorithm::kServicePathStrict}) {
    EXPECT_TRUE(names.insert(algorithm_name(algorithm)).second);
    util::Rng rng(99);
    EXPECT_NO_THROW(run_algorithm(algorithm, scenario, rng))
        << algorithm_name(algorithm);
  }
  util::Rng rng(99);
  EXPECT_THROW(run_algorithm(static_cast<Algorithm>(7), scenario, rng),
               std::invalid_argument);
  EXPECT_THROW(algorithm_name(static_cast<Algorithm>(7)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sflow::core
