// Executor + BoundedQueue — the shared concurrency substrate of the staged
// sync pipeline (scan → encode → place → transfer) and the transfer drivers.
//
// Executor is a deliberately simple fixed-size thread pool: no work
// stealing, one FIFO task queue, N worker threads. Two usage patterns:
//
//   submit(fn)            fire-and-forget task (the async runtime's
//                         SyncAdapter leaf runs one blocking cloud verb per
//                         task).
//   parallel_apply(n, fn) caller-participating fan-out of fn(0..n-1): the
//                         calling thread claims indices alongside the pool,
//                         so progress is guaranteed even when every pool
//                         thread is busy or blocked — a stage thread may
//                         therefore call it without deadlock risk, whatever
//                         the pool size (the erasure encode fan-out and the
//                         metadata plane's per-cloud fan-out rely on this).
//
// Tasks must be independent: a submitted task that BLOCKS waiting for
// another submitted task can deadlock a small pool. Blocking on external
// I/O (a cloud request) is fine — that is exactly what the SyncAdapter
// leaf does — it just occupies a pool slot for the duration.
//
// Exception safety: a throwing fire-and-forget task is caught and logged —
// it must not kill the worker thread (std::terminate) or wedge the pool.
// parallel_apply() propagates the first exception to the caller after every
// claimed index has completed, so the fan-out never hangs on a throw.
//
// Pool size resolution (Executor::default_threads): the environment
// variable UNIDRIVE_PIPELINE_THREADS wins when set (CI uses =1 to prove
// the pipeline degrades to deterministic single-threaded behaviour),
// otherwise max(floor, hardware_concurrency) — callers pass the transfer
// concurrency they need (clouds × connections) as the floor.
//
// BoundedQueue<T> is the backpressure channel between pipeline stages:
// push() blocks while the queue is full, pop() blocks while it is empty.
// close() ends the stream gracefully (pushes rejected, pops drain the
// remaining items, then return nullopt); cancel() aborts it (contents
// dropped, every blocked producer and consumer released immediately).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace unidrive {

class Executor {
 public:
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // UNIDRIVE_PIPELINE_THREADS when set (> 0), else
  // max(floor, hardware_concurrency, 1).
  [[nodiscard]] static std::size_t default_threads(std::size_t floor = 1);

  // The process-wide pool, default_threads() wide and built on first use,
  // for fan-outs made outside a client (a stand-alone metadata store). A
  // client passes its own pool instead.
  [[nodiscard]] static const std::shared_ptr<Executor>& shared();

  void submit(std::function<void()> fn);

  // Runs fn(0) .. fn(count - 1), returning when all have completed. The
  // caller participates, so this never deadlocks regardless of pool load;
  // with a single-thread pool the calls run serially in index order on the
  // calling thread.
  void parallel_apply(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  // Worker threads currently executing a task — the "threads in use" half
  // of the rpcs-in-flight vs threads-in-use observability split.
  [[nodiscard]] std::size_t active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  void worker();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::atomic<std::size_t> active_{0};
  std::vector<std::thread> threads_;
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Blocks while the queue is full. Returns false (item dropped) when the
  // queue is closed or cancelled.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return closed_ || cancelled_ || items_.size() < capacity_;
    });
    if (closed_ || cancelled_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while the queue is empty. Returns nullopt once the queue is
  // closed and drained, or immediately after cancel().
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] {
      return cancelled_ || closed_ || !items_.empty();
    });
    if (cancelled_ || items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Graceful end-of-stream: no further pushes; queued items remain poppable.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // Abort: drop queued items and release every blocked producer/consumer.
  void cancel() {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    closed_ = true;
    items_.clear();
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }
  [[nodiscard]] bool cancelled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cancelled_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
  bool cancelled_ = false;
};

}  // namespace unidrive
