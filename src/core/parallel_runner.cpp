#include "core/parallel_runner.hpp"

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace sflow::core {

namespace {
/// Rng stream tag for per-algorithm trial randomness, disjoint by
/// construction from the streams make_scenario derives (attempt indices,
/// small integers) because of the high bits.
constexpr std::uint64_t kAlgorithmStream = 0xF3DE7A700000000ULL;

/// Sweep-engine metrics: how many trials ran, how long each took, and how
/// long each sat queued before a worker picked it up.
struct SweepMetrics {
  obs::Counter& trials = obs::Registry::global().counter(
      "sweep_trials_total", "trials executed by the sweep engine");
  obs::Histogram& trial_wall_ms = obs::Registry::global().histogram(
      "sweep_trial_wall_ms", obs::default_duration_buckets_ms(),
      "per-trial wall clock");
  obs::Histogram& queue_wait_ms = obs::Registry::global().histogram(
      "sweep_queue_wait_ms", obs::default_duration_buckets_ms(),
      "delay between batch submission and trial start");
};

SweepMetrics& sweep_metrics() {
  static SweepMetrics instance;
  return instance;
}
}  // namespace

ParallelSweepRunner::ParallelSweepRunner(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {}

ParallelSweepRunner::~ParallelSweepRunner() = default;

util::ThreadPool& ParallelSweepRunner::pool() const {
  // parallel_for runs iterations on the calling thread too, so threads_ - 1
  // workers make threads_ threads in all.
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
  });
  return *pool_;
}

TrialResult ParallelSweepRunner::run_trial(const TrialSpec& trial) {
  const Scenario scenario = make_scenario(trial.params, trial.scenario_seed);
  // Build the shared link-state database up front, so no slot's compute
  // time includes routing trees an earlier slot happened to build or leave
  // unbuilt (Fig. 10(b) times the algorithm proper).
  scenario.overlay_routing().precompute_all();
  TrialResult result;
  result.outcomes.reserve(trial.algorithms.size());
  for (const Algorithm algorithm : trial.algorithms) {
    // Each (trial, algorithm) owns an Rng derived from the trial seed and
    // the algorithm, never from its slot — so neither execution order,
    // thread count nor the bench's algorithm list can perturb any outcome.
    util::Rng rng(util::derive_seed(
        trial.scenario_seed,
        kAlgorithmStream + static_cast<std::uint64_t>(algorithm)));
    result.outcomes.push_back(
        run_algorithm(algorithm, scenario, rng, trial.config));
  }
  return result;
}

std::vector<TrialResult> ParallelSweepRunner::run(
    const std::vector<TrialSpec>& trials) const {
  std::vector<TrialResult> results(trials.size());
  SweepMetrics& metrics = sweep_metrics();
  // Queue wait = batch submission to trial start; in the serial path that is
  // simply the time earlier trials of the batch took.
  const util::Stopwatch batch_watch;
  const auto timed_trial = [&](std::size_t i) {
    metrics.queue_wait_ms.observe(batch_watch.elapsed_ms());
    metrics.trials.increment();
    const obs::ScopedTimer timer(metrics.trial_wall_ms);
    results[i] = run_trial(trials[i]);
  };
  if (threads_ == 1) {
    for (std::size_t i = 0; i < trials.size(); ++i) timed_trial(i);
    return results;
  }
  pool().parallel_for(0, trials.size(), timed_trial);
  return results;
}

}  // namespace sflow::core
