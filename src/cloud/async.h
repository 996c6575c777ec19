// AsyncCloud — the completion-based cloud API that decouples in-flight
// RPCs from threads.
//
// Every blocking CloudProvider verb pins its calling thread for the full
// round trip, so the transfer drivers could only keep pool_size RPCs in
// flight. AsyncCloud mirrors the five REST verbs as *_async(…, done):
// each call launches the request, returns a cancellable AsyncHandle
// immediately, and invokes the completion exactly once when the request
// resolves. The drivers launch from the scheduler, re-enter it from the
// completion, and hold no pool slot while the request is in the air.
//
// Invariants every implementation upholds:
//
//   1. Completions are NEVER invoked on the caller's stack — they run on
//      the I/O pool or the timer wheel. Callers may therefore launch while
//      holding their own locks (the streaming drivers launch under lock_).
//   2. After AsyncHandle::cancel() returns, the completion will never be
//      invoked (it either already ran, or never will). cancel() blocks
//      while the completion (or the blocking RPC feeding it, for
//      SyncAdapter ops) is running, unless called from the completion
//      itself — so buffers referenced by the request may be freed as soon
//      as the completion has run or cancel() has returned.
//   3. An upload's ByteSpan must stay valid until the completion runs or
//      cancel() returns. The natural pattern is to let ownership ride in
//      the completion closure (capture a shared_ptr to the bytes).
//
// SyncAdapter is the compatibility layer: it wraps any blocking
// CloudProvider by running the verb on a dedicated I/O pool — correct for
// every provider, thread-bound per RPC. The native decorators mirror the
// blocking stack without that bound:
//
//   AsyncRetryingCloud  drives its blocking RetryingCloud's RetryCall —
//                       one retry rule, breaker and counter set for both
//                       surfaces — with backoff re-armed on the timer
//                       wheel instead of a sleeping thread (injected
//                       virtual-time sleeps are still honoured).
//   AsyncMeteredCloud   records into its MeteredCloud's registry through
//                       the same record_request.
//   AsyncFaultyCloud /  share the decision RNG, counters, failure statuses
//   AsyncQuotaCloud     and quota accounting with their blocking halves.
//   AsyncLatentCloud    schedules its simulated latency/bandwidth delays
//                       on the wheel — a 1-thread pool can have hundreds
//                       of delayed requests outstanding.
//
// to_async() builds the async twin of a decorated blocking chain by
// walking it (Retrying → Metered → Faulty/Quota/Latent → SyncAdapter leaf),
// so the async data plane and the blocking metadata/lock plane share one
// set of breakers, meters, fault injectors and quotas.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/provider.h"
#include "common/executor.h"
#include "common/timer_wheel.h"
#include "obs/obs.h"

namespace unidrive::cloud {

namespace detail {

// State machine of one async operation; shared between the AsyncHandle the
// caller holds and the closure that will run the completion.
class AsyncOpState {
 public:
  // Runner side: transition pending -> running right before invoking the
  // completion (or the blocking RPC feeding it). False = cancelled, skip
  // everything.
  bool try_begin();
  // Runner side: running -> done, releases blocked cancellers.
  void finish();

  // Caller side (AsyncHandle::cancel): true = averted (pending ->
  // cancelled; the on_cancel hook ran). False = already begun; blocks
  // until finish() unless called from the runner itself.
  bool cancel();

  // Registers the hook cancel() runs while the op is still pending —
  // composite ops use it to cancel armed timers and inner handles. Returns
  // false when the op was already cancelled (the hook will never run; the
  // caller must clean up itself).
  bool set_on_cancel(std::function<void()> fn);

 private:
  enum class Phase { kPending, kRunning, kDone, kCancelled };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Phase phase_ = Phase::kPending;
  std::thread::id runner_{};
  std::function<void()> on_cancel_;
};

}  // namespace detail

// Value-type handle to one in-flight async operation. Default-constructed
// handles are inert (cancel() returns false).
class AsyncHandle {
 public:
  AsyncHandle() = default;
  explicit AsyncHandle(std::shared_ptr<detail::AsyncOpState> state)
      : state_(std::move(state)) {}

  // True = the completion was averted and will never run. False = the
  // completion ran (or is running — then this blocks until it finished,
  // unless called from the completion itself). Either way, after cancel()
  // returns the completion will never be invoked.
  bool cancel();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  std::shared_ptr<detail::AsyncOpState> state_;
};

using StatusCb = std::function<void(Status)>;
using BytesCb = std::function<void(Result<Bytes>)>;
using ListCb = std::function<void(Result<std::vector<FileInfo>>)>;

// Shared runtime of the async layer: where blocking work runs, where
// delays are parked, where the adapter's gauges land.
//
// All pointers are NON-owning. The owner of the runtime (client, test)
// must keep the pool and wheel alive until every operation launched with
// this context has completed or been cancelled. A driver's destructor
// waits out its completions, but a restore returns before its redundant
// fetches land, so the client parks each such restore and destroys it —
// waiting — before it replaces or drops the pool and the async clouds
// (UniDriveClient::draining_restores_). Ops must never keep the pool alive
// themselves: a queued task holding the last reference to its own
// executor would run ~Executor on a worker thread and self-join.
struct AsyncContext {
  Executor* io = nullptr;                    // never null when used
  TimerWheel* wheel = &TimerWheel::shared();
  obs::ObsPtr obs;                           // may be null
};

class AsyncCloud {
 public:
  virtual ~AsyncCloud() = default;

  [[nodiscard]] virtual CloudId id() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  virtual AsyncHandle upload_async(const std::string& path, ByteSpan data,
                                   StatusCb done) = 0;
  virtual AsyncHandle download_async(const std::string& path,
                                     BytesCb done) = 0;
  virtual AsyncHandle create_dir_async(const std::string& path,
                                       StatusCb done) = 0;
  virtual AsyncHandle list_async(const std::string& dir, ListCb done) = 0;
  virtual AsyncHandle remove_async(const std::string& path,
                                   StatusCb done) = 0;
};

using AsyncCloudPtr = std::shared_ptr<AsyncCloud>;
using AsyncMultiCloud = std::vector<AsyncCloudPtr>;

// Blocking-provider fallback: runs each verb on the I/O pool. One RPC
// still occupies one pool thread for its duration (gauges
// async.io.rpcs_active{,_peak} make that visible), but the caller is
// already free — correctness for arbitrary providers, with the thread
// bound moved from the driver pool to the I/O pool.
class SyncAdapter final : public AsyncCloud {
 public:
  SyncAdapter(CloudPtr inner, AsyncContext ctx);

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override;
  AsyncHandle download_async(const std::string& path, BytesCb done) override;
  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override;
  AsyncHandle list_async(const std::string& dir, ListCb done) override;
  AsyncHandle remove_async(const std::string& path, StatusCb done) override;

 private:
  struct Active {
    std::atomic<std::size_t> n{0};
    std::atomic<std::size_t> peak{0};
  };

  template <typename R>
  AsyncHandle run(std::function<R(CloudProvider&)> op,
                  std::function<void(R)> done);

  CloudPtr inner_;
  AsyncContext ctx_;
  std::shared_ptr<Active> active_ = std::make_shared<Active>();
};

// Async twin of a (possibly decorated) blocking provider. Recognizes the
// repo's decorator chain — RetryingCloud, MeteredCloud, FaultyCloud,
// QuotaCloud, LatentCloud — and rebuilds it from native async decorators
// that share state (breakers, counters, RNG streams, quotas, link
// occupancy) with the blocking chain; any unrecognized provider becomes a
// SyncAdapter leaf.
AsyncCloudPtr to_async(const CloudPtr& cloud, const AsyncContext& ctx);

}  // namespace unidrive::cloud
