// The multi-threaded evaluation engine: fans independent (params, seed,
// algorithm) trials out across a fixed-size thread pool.
//
// Determinism contract: a trial's entire randomness derives from its
// TrialSpec — the scenario from (params, scenario_seed), the per-algorithm
// Rng from derive_seed(scenario_seed, algorithm).  Trials share no
// mutable state (each builds its own Scenario; the routing database is
// thread-safe anyway), so the sweep's outcomes are bit-identical at any
// thread count, including 1.  tests/parallel_runner_test.cpp pins this.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/federator.hpp"
#include "core/scenario.hpp"

namespace sflow::util {
class ThreadPool;
}

namespace sflow::core {

/// One unit of work: a scenario plus the algorithms to run on it.  Running
/// the algorithms of one trial together (rather than as separate work items)
/// amortizes the scenario construction, which benches always share anyway.
struct TrialSpec {
  WorkloadParams params;
  std::uint64_t scenario_seed = 0;
  std::vector<Algorithm> algorithms;
  SFlowNodeConfig config;
};

/// Outcomes of one trial, parallel to TrialSpec::algorithms.
struct TrialResult {
  std::vector<FederationOutcome> outcomes;
};

/// Runs batches of trials across a fixed number of threads (1 = serial, on
/// the caller's thread; the code path per trial is identical either way).
class ParallelSweepRunner {
 public:
  explicit ParallelSweepRunner(std::size_t threads);
  ~ParallelSweepRunner();

  ParallelSweepRunner(const ParallelSweepRunner&) = delete;
  ParallelSweepRunner& operator=(const ParallelSweepRunner&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Runs every trial; results[i] corresponds to trials[i].  Exceptions from
  /// trial construction or an algorithm propagate (first one wins; remaining
  /// trials are abandoned).
  std::vector<TrialResult> run(const std::vector<TrialSpec>& trials) const;

  /// The per-trial function both the serial and the parallel path execute.
  static TrialResult run_trial(const TrialSpec& trial);

 private:
  /// The worker pool, created once on first parallel use and reused across
  /// run() calls.
  util::ThreadPool& pool() const;

  std::size_t threads_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace sflow::core
