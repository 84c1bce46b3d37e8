#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace sflow::util {

ThreadPool::ThreadPool(std::size_t thread_count) {
  const std::size_t count = thread_count == 0 ? 1 : thread_count;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    // Let queued work finish: stopping_ only stops workers once the queue is
    // empty (see worker_loop), so no submitted task is dropped.
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // An exception escaping here would unwind the worker's top frame and
    // std::terminate the process; capture the first one for wait_idle()
    // instead (parallel_for tasks do their own catching and never reach
    // this handler).
    try {
      task();
    } catch (...) {
      std::unique_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::unique_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;

  // Completion is counted per iteration, not per helper task: the caller
  // returns once every index is finished or abandoned, so it never waits on
  // a helper that has not started.  A helper that starts after the last
  // index was claimed reads `next >= end` and leaves without touching
  // `body` (which may be gone by then); `shared` outlives it.
  struct Shared {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> completed{0};
    std::size_t end;
    std::size_t total;
    const std::function<void(std::size_t)>* body;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  shared->next = begin;
  shared->end = end;
  shared->total = end - begin;
  shared->body = &body;

  const auto drain = [](Shared& s) {
    for (;;) {
      const std::size_t i = s.next.fetch_add(1);
      if (i >= s.end) return;
      std::size_t finished = 1;
      try {
        (*s.body)(i);
      } catch (...) {
        std::unique_lock lock(s.mutex);
        if (!s.first_error) s.first_error = std::current_exception();
        // Fail fast: abandon every index nobody has claimed yet, and count
        // them as finished so the caller is released.
        const std::size_t unclaimed = s.next.exchange(s.end);
        if (unclaimed < s.end) finished += s.end - unclaimed;
      }
      if (s.completed.fetch_add(finished) + finished == s.total) {
        std::unique_lock lock(s.mutex);
        s.done.notify_all();
      }
    }
  };

  // The caller takes a share, so at most total - 1 helpers can be useful.
  const std::size_t helpers = std::min(size(), shared->total - 1);
  for (std::size_t t = 0; t < helpers; ++t)
    submit([shared, drain] { drain(*shared); });
  drain(*shared);

  std::unique_lock lock(shared->mutex);
  shared->done.wait(lock,
                    [&] { return shared->completed.load() == shared->total; });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace sflow::util
