// Lifecycle regression tests for the background-thread utilities the server
// depends on: exception containment in util::ThreadPool (a throwing task must
// surface at wait_idle(), never unwind a worker's top frame and terminate the
// process), parallel_for's caller-drains contract (it never waits on a
// worker that has not started) and bounded-shutdown-latency in util::PeriodicTask (stop() wakes
// the sleeper immediately instead of waiting out the interval; the destructor
// joins, so owning scopes may throw).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/periodic.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace sflow::util {
namespace {

TEST(ThreadPoolErrors, ThrowingSubmitSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPoolErrors, FirstExceptionWinsAndCarriesItsMessage) {
  ThreadPool pool(1);  // one worker serializes the tasks: "first" is exact
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolErrors, PoolStaysUsableAfterRethrow) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);

  // The error was cleared by the rethrow; later batches run clean.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolErrors, HealthyTasksAroundThrowingOneAllRun) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  pool.submit([] { throw std::runtime_error("middle"); });
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolErrors, DestructorDrainsWithPendingErrorWithoutTerminating) {
  // Drop the pool with a captured-but-undelivered exception: the destructor
  // must drain and swallow it (nothing could catch a throw there).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("undelivered"); });
    for (int i = 0; i < 4; ++i) pool.submit([&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolErrors, ParallelForStillPropagatesItsOwnExceptions) {
  // parallel_for has its own first-error channel; the worker-level capture
  // must not swallow it.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [](std::size_t i) {
                                   if (i == 17)
                                     throw std::runtime_error("iteration");
                                 }),
               std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());  // and it is not double-reported
}

/// Parks every worker of a pool on a latch until release() — or until a
/// 2 s watchdog gives up and releases them, so a caller that waits on the
/// parked workers fails the test instead of hanging it.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) : parked_(pool.size()) {
    for (std::size_t i = 0; i < pool.size(); ++i)
      pool.submit([this] {
        parked_.count_down();
        gate_.wait();
      });
    parked_.wait();
    watchdog_ = std::thread([this] {
      std::unique_lock lock(mutex_);
      if (!released_.wait_for(lock, std::chrono::seconds(2),
                              [this] { return done_; }))
        timed_out_ = true;
      gate_.count_down();
    });
  }
  ~ParkedWorkers() { release(); }

  /// Opens the latch; true when the watchdog had to open it first.
  bool release() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    released_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    return timed_out_;
  }

 private:
  std::latch parked_;
  std::latch gate_{1};
  std::mutex mutex_;
  std::condition_variable released_;
  bool done_ = false;
  bool timed_out_ = false;
  std::thread watchdog_;
};

TEST(ParallelFor, CallerRunsEveryIterationWhileWorkersAreBusy) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> off_caller{0};
  ParkedWorkers parked(pool);
  {
    const std::thread::id caller = std::this_thread::get_id();
    const std::function<void(std::size_t)> body = [&](std::size_t) {
      ++ran;
      if (std::this_thread::get_id() != caller) ++off_caller;
    };
    pool.parallel_for(0, 16, body);
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(off_caller.load(), 0);
  }
  EXPECT_FALSE(parked.release()) << "parallel_for waited for parked workers";
  // The helper tasks queued behind the parked ones start only now, after
  // every index was claimed and `body` went out of scope: they must leave
  // without running an iteration.
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ParallelFor, ThrowingIterationReleasesTheCallerWithTheFirstError) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  ParkedWorkers parked(pool);  // every iteration runs on the caller, in order
  try {
    pool.parallel_for(0, 16, [&](std::size_t i) {
      ++ran;
      if (i == 5 || i == 9)
        throw std::runtime_error("iteration " + std::to_string(i));
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 5");
  }
  EXPECT_EQ(ran.load(), 6);  // fail fast: nothing after the throw starts
  EXPECT_FALSE(parked.release()) << "parallel_for waited for parked workers";
}

TEST(ParallelFor, EveryIterationThrowingStillReturnsAndPoolStaysUsable) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round)
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t) {
                                     throw std::runtime_error("always");
                                   }),
                 std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for(0, 64, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(PeriodicTask, TicksRepeatedly) {
  std::atomic<int> ticks{0};
  PeriodicTask task(std::chrono::milliseconds(1), [&ticks] { ++ticks; });
  const Stopwatch watch;
  while (ticks.load() < 3 && watch.elapsed_ms() < 5000.0)
    std::this_thread::yield();
  EXPECT_GE(ticks.load(), 3);
}

TEST(PeriodicTask, StopDoesNotWaitOutTheInterval) {
  // A 1-hour interval with sub-second shutdown: stop() must wake the
  // condition-variable sleeper immediately (the old sampler slept the full
  // interval before re-checking its flag, delaying shutdown by up to one
  // interval).
  std::atomic<int> ticks{0};
  const Stopwatch watch;
  {
    PeriodicTask task(std::chrono::hours(1), [&ticks] { ++ticks; });
    EXPECT_TRUE(task.running());
  }  // destructor = stop + join
  EXPECT_LT(watch.elapsed_ms(), 10000.0);
  EXPECT_EQ(ticks.load(), 0);
}

TEST(PeriodicTask, StopIsIdempotentAndEndsRunning) {
  PeriodicTask task(std::chrono::milliseconds(5), [] {});
  task.stop();
  EXPECT_FALSE(task.running());
  task.stop();  // second stop is a no-op
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DefaultConstructedIsIdle) {
  PeriodicTask task;
  EXPECT_FALSE(task.running());
  task.stop();  // harmless on an idle task
}

}  // namespace
}  // namespace sflow::util
