#include "common/executor.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.h"

namespace unidrive {

Executor::Executor(std::size_t threads) {
  if (threads == 0) threads = 1;
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t Executor::default_threads(std::size_t floor) {
  if (const char* env = std::getenv("UNIDRIVE_PIPELINE_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  std::size_t n = floor > hw ? floor : hw;
  return n == 0 ? 1 : n;
}

const std::shared_ptr<Executor>& Executor::shared() {
  static const std::shared_ptr<Executor> pool =
      std::make_shared<Executor>(default_threads());
  return pool;
}

void Executor::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void Executor::worker() {
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // Drain remaining tasks even when stopping: submitted work may hold
      // completion counters other threads are waiting on.
      if (queue_.empty()) return;
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    // A fire-and-forget task has nowhere to report an exception; letting it
    // escape would std::terminate the process and take the pool with it.
    try {
      fn();
    } catch (const std::exception& e) {
      UNI_LOG(kWarn) << "executor task threw: " << e.what();
    } catch (...) {
      UNI_LOG(kWarn) << "executor task threw a non-std exception";
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Executor::parallel_apply(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (size() <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Shared claim/done state outlives this call only through the pool tasks;
  // they never touch `fn` after every index is claimed, and the caller only
  // returns once every claimed index has completed.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;  // first exception, guarded by mutex
  };
  auto shared = std::make_shared<Shared>();
  shared->count = count;
  shared->fn = &fn;

  const auto work = [shared] {
    while (true) {
      const std::size_t i =
          shared->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shared->count) return;
      // The done counter must advance even when fn(i) throws, or the caller
      // waits forever; the first exception is rethrown there instead.
      try {
        (*shared->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        if (!shared->error) shared->error = std::current_exception();
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          shared->count) {
        std::lock_guard<std::mutex> lock(shared->mutex);
        shared->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(size(), count - 1);
  for (std::size_t i = 0; i < helpers; ++i) submit(work);
  work();  // the caller claims indices too — guaranteed progress

  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->cv.wait(lock, [&] {
    return shared->done.load(std::memory_order_acquire) >= shared->count;
  });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace unidrive
