// Fixed-size thread pool for the evaluation engine (no work stealing: a
// single locked deque is plenty for trial-granularity tasks, and keeping the
// scheduler trivial makes the determinism argument trivial too — tasks carry
// their own seeds, so execution order never affects results).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sflow::util {

/// Fixed set of worker threads draining a shared FIFO queue.
///
/// submit() never blocks (the queue is unbounded); wait_idle() blocks until
/// every submitted task has finished.  The destructor drains the queue before
/// joining, so submitted work is never silently dropped.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (at least 1; 0 is clamped to 1).
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues one task.  Tasks must not submit to the pool they run on while
  /// the caller holds wait_idle() expectations of completion ordering; plain
  /// fan-out (submit all, then wait) is the supported pattern.
  ///
  /// A task that throws does NOT take the process down: the worker catches
  /// the exception and the pool stores the first one, to be rethrown at the
  /// next wait_idle() (a long-running server must fail the one request, not
  /// the daemon — escaping a worker's top frame would std::terminate).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is executing a task.
  /// Rethrows the first exception any submit()ted task threw since the last
  /// wait_idle(), clearing it — the pool stays usable afterwards.  The
  /// destructor drains without rethrowing (nothing could catch it there);
  /// a pending undelivered exception is dropped.
  void wait_idle();

  /// Runs body(i) for every i in [begin, end) and blocks until all
  /// iterations finish.  The calling thread claims iterations too, alongside
  /// up to size() workers, one index at a time from a shared atomic counter,
  /// so up to size() + 1 threads run `body`.  The call returns as soon as
  /// every iteration has finished: it never waits for a worker that has not
  /// started yet (busy workers cannot stall it; the caller then runs every
  /// iteration itself), and a worker that starts after the last index was
  /// claimed returns without calling `body`.  If an iteration throws, the
  /// iterations nobody has claimed yet are abandoned, and the first
  /// exception (in completion order) is rethrown here once the iterations
  /// already running have finished.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  /// First exception thrown by a submit()ted task since the last wait_idle().
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace sflow::util
