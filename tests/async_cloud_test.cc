// Tests for the completion-based async cloud layer (cloud/async.h), the
// timer wheel behind it, and the executor guarantees the drivers rely on:
//
//   - TimerWheel: firing order, cancel-averts, re-entrant cancel, pending
//     accounting, blocking sleep.
//   - Executor: a throwing fire-and-forget task must not kill the worker or
//     wedge the pool (regression for the submit exception guard), and
//     parallel_apply must rethrow after the fan-out drained.
//   - SyncAdapter: roundtrip, completion off the caller's stack, cancel of
//     a queued op averts the completion forever.
//   - AsyncLatentCloud: a 1-thread I/O pool holds many delayed requests
//     outstanding simultaneously — the multiplexing the async layer exists
//     for.
//   - AsyncRetryingCloud: success after transient failures, counting into
//     the blocking halves' registry, and the cancel guarantee mid-retry (a
//     cancelled handle never invokes its completion after cancel()
//     returns, even with a backoff timer armed).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cloud/async.h"
#include "cloud/health.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/metered_cloud.h"
#include "cloud/retrying_cloud.h"
#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/timer_wheel.h"

namespace unidrive::cloud {
namespace {

using namespace std::chrono_literals;

Bytes payload(const std::string& s) { return bytes_from_string(s); }

// Waits (real time, bounded) until `pred` holds. The async layer has no
// global quiesce hook, so completion-side assertions poll with a deadline.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// One-shot completion latch: records the Status and wakes waiters.
struct StatusLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Status status;

  StatusCb cb() {
    return [this](Status s) {
      std::lock_guard<std::mutex> lock(mu);
      fired = true;
      status = std::move(s);
      cv.notify_all();
    };
  }
  bool wait(std::chrono::milliseconds limit = 5000ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, limit, [&] { return fired; });
  }
};

// --- TimerWheel ---------------------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::mutex mu;
  std::vector<int> order;
  std::condition_variable cv;
  auto record = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
    cv.notify_all();
  };
  // Armed out of order; must fire by deadline.
  wheel.schedule(0.09, [&] { record(3); });
  wheel.schedule(0.03, [&] { record(1); });
  wheel.schedule(0.06, [&] { record(2); });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, CancelAvertsAndDropsPending) {
  TimerWheel wheel;
  std::atomic<bool> fired{false};
  const TimerWheel::TimerId id = wheel.schedule(60.0, [&] { fired = true; });
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_EQ(wheel.pending(), 0u);
  // Cancelling twice (or a bogus id) reports "already gone", never blocks.
  EXPECT_FALSE(wheel.cancel(id));
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(fired.load());
}

TEST(TimerWheelTest, CancelFromOwnCallbackDoesNotDeadlock) {
  TimerWheel wheel;
  std::atomic<bool> done{false};
  auto id = std::make_shared<std::atomic<TimerWheel::TimerId>>(0);
  id->store(wheel.schedule(0.05, [&wheel, id, &done] {
    // Re-entrant cancel of the running timer must return immediately.
    wheel.cancel(id->load());
    done = true;
  }));
  EXPECT_TRUE(eventually([&] { return done.load(); }));
}

TEST(TimerWheelTest, CancelAfterFireReportsLate) {
  TimerWheel wheel;
  std::atomic<bool> fired{false};
  const TimerWheel::TimerId id = wheel.schedule(0.01, [&] { fired = true; });
  ASSERT_TRUE(eventually([&] { return fired.load(); }));
  // The callback already ran to completion: cancel must report "too late"
  // (and must not block — nothing is running).
  EXPECT_FALSE(wheel.cancel(id));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, ScheduleFromOwnCallbackFires) {
  TimerWheel wheel;
  std::atomic<bool> chained{false};
  wheel.schedule(0.01, [&wheel, &chained] {
    // Re-arming from the wheel thread is the retry-backoff idiom; it must
    // not deadlock on the wheel's own lock.
    wheel.schedule(0.01, [&chained] { chained = true; });
  });
  EXPECT_TRUE(eventually([&] { return chained.load(); }));
}

TEST(TimerWheelTest, IdenticalDeadlinesFireInScheduleOrder) {
  TimerWheel wheel;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  // Deliberately beyond the deadline the wheel thread is already waiting
  // on, all with the SAME deadline: the (deadline, id) heap must break the
  // tie by schedule order.
  for (int i = 0; i < 8; ++i) {
    wheel.schedule(0.05, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return order.size() == 8; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TimerWheelTest, FarFutureTimerParksWithoutSpinning) {
  TimerWheel wheel;
  std::atomic<bool> fired{false};
  // ~3 years out: must park on the condition variable (not overflow or
  // busy-wait) and still be cancellable, and must not block destruction.
  const TimerWheel::TimerId far =
      wheel.schedule(1e8, [&] { fired = true; });
  // A short timer armed AFTER the far one must still fire on time (the
  // wheel re-evaluates its wait when an earlier deadline arrives).
  std::atomic<bool> near_fired{false};
  wheel.schedule(0.01, [&] { near_fired = true; });
  EXPECT_TRUE(eventually([&] { return near_fired.load(); }));
  EXPECT_TRUE(wheel.cancel(far));
  EXPECT_FALSE(fired.load());
}

TEST(TimerWheelTest, SleepBlocksForRoughlyTheDelay) {
  TimerWheel wheel;
  const auto t0 = std::chrono::steady_clock::now();
  wheel.sleep(0.05);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 45ms);  // coarse lower bound; no upper (loaded CI)
}

TEST(TimerWheelTest, ManyTimersOneThread) {
  // The wheel's reason to exist: hundreds of pending delays, one thread.
  TimerWheel wheel;
  constexpr int kTimers = 200;
  std::atomic<int> fired{0};
  for (int i = 0; i < kTimers; ++i) {
    wheel.schedule(0.01 + 0.0001 * i, [&] { fired.fetch_add(1); });
  }
  EXPECT_TRUE(eventually([&] { return fired.load() == kTimers; }));
}

// --- Executor exception safety (submit guard regression) ----------------------

TEST(ExecutorTest, ThrowingSubmitDoesNotKillWorkerOrWedgePool) {
  Executor pool(1);  // single worker: if the throw killed it, nothing runs
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("injected"); });
  }
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  // The pool still accepts and runs work after the throws.
  std::atomic<int> more{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { more.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return more.load() == 8; }));
}

TEST(ExecutorTest, ParallelApplyRethrowsAfterDraining) {
  Executor pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_apply(8,
                          [&](std::size_t i) {
                            if (i == 3) throw std::runtime_error("boom");
                            completed.fetch_add(1);
                          }),
      std::runtime_error);
  // Every non-throwing index ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ExecutorTest, ActiveCountsRunningTasks) {
  Executor pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  EXPECT_TRUE(eventually([&] { return started.load() == 2; }));
  EXPECT_EQ(pool.active(), 2u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(eventually([&] { return pool.active() == 0; }));
}

// --- SyncAdapter --------------------------------------------------------------

struct AsyncRig {
  explicit AsyncRig(std::size_t threads = 2)
      : io(std::make_shared<Executor>(threads)) {
    ctx.io = io.get();
    ctx.wheel = &wheel;
  }
  // Wheel outlives the executor: queued I/O tasks may still arm timers
  // while the pool drains.
  TimerWheel wheel;
  std::shared_ptr<Executor> io;
  AsyncContext ctx;
};

TEST(SyncAdapterTest, UploadDownloadRoundTrip) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(1, "m");
  SyncAdapter adapter(mem, rig.ctx);

  auto data = std::make_shared<const Bytes>(payload("async hello"));
  StatusLatch up;
  adapter.upload_async("/data/x", ByteSpan(*data), up.cb());
  ASSERT_TRUE(up.wait());
  EXPECT_TRUE(up.status.is_ok());

  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Result<Bytes> got = Status::ok();
  adapter.download_async("/data/x", [&](Result<Bytes> r) {
    std::lock_guard<std::mutex> lock(mu);
    got = std::move(r);
    fired = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return fired; }));
  }
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(got.value())), "async hello");
}

TEST(SyncAdapterTest, CompletionNeverRunsOnCallerStack) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(1, "m");
  SyncAdapter adapter(mem, rig.ctx);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> same_stack{false};
  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("x"));
  adapter.upload_async("/p", ByteSpan(*data),
                       [&, cb = latch.cb()](Status s) {
                         if (std::this_thread::get_id() == caller) {
                           same_stack = true;
                         }
                         cb(std::move(s));
                       });
  ASSERT_TRUE(latch.wait());
  EXPECT_FALSE(same_stack.load());
}

TEST(SyncAdapterTest, CancelWhileQueuedAvertsCompletionForever) {
  AsyncRig rig(/*threads=*/1);
  auto mem = std::make_shared<MemoryCloud>(1, "m");
  SyncAdapter adapter(mem, rig.ctx);

  // Wedge the single I/O thread so the op stays queued behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> blocker_running{false};
  rig.io->submit([&] {
    blocker_running = true;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(eventually([&] { return blocker_running.load(); }));

  std::atomic<bool> completed{false};
  auto data = std::make_shared<const Bytes>(payload("never lands"));
  AsyncHandle handle = adapter.upload_async(
      "/p", ByteSpan(*data), [&](Status) { completed = true; });
  EXPECT_TRUE(handle.valid());
  EXPECT_TRUE(handle.cancel());  // still pending: averted

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Give the drained queue every chance to misbehave, then check nothing
  // fired and nothing was uploaded.
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(completed.load());
  EXPECT_EQ(mem->file_count(), 0u);
}

TEST(SyncAdapterTest, CancelAfterCompletionReportsAlreadyRan) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(1, "m");
  SyncAdapter adapter(mem, rig.ctx);
  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("x"));
  AsyncHandle handle = adapter.upload_async("/p", ByteSpan(*data), latch.cb());
  ASSERT_TRUE(latch.wait());
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(mem->file_count(), 1u);
}

// --- AsyncLatentCloud: the multiplexing claim ---------------------------------

// A 1-thread pool must hold many delayed requests outstanding at once:
// the latency waits live on the timer wheel, not on pool threads.
TEST(AsyncLatentCloudTest, OneThreadPoolMultiplexesManyDelayedRequests) {
  AsyncRig rig(/*threads=*/1);
  constexpr int kOps = 16;
  constexpr double kLatency = 0.25;  // per-request simulated latency

  LinkProfile profile;
  profile.request_latency_sec = kLatency;
  auto latent = std::make_shared<LatentCloud>(
      std::make_shared<MemoryCloud>(7, "slow"), profile, rig.wheel);
  AsyncCloudPtr cloud = to_async(latent, rig.ctx);

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  auto data = std::make_shared<const Bytes>(payload("multiplexed"));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<AsyncHandle> handles;
  handles.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    handles.push_back(cloud->upload_async(
        "/blk/" + std::to_string(i), ByteSpan(*data), [&](Status s) {
          if (!s.is_ok()) failed.fetch_add(1);
          completed.fetch_add(1);
        }));
  }
  // All launched, none complete yet: every request is parked on the wheel
  // simultaneously while the single pool thread sits idle.
  EXPECT_EQ(handles.size(), static_cast<std::size_t>(kOps));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(completed.load(), 0) << "requests resolved before their latency";

  ASSERT_TRUE(eventually([&] { return completed.load() == kOps; }, 10000ms));
  EXPECT_EQ(failed.load(), 0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Serial execution would take kOps * kLatency = 4 s; multiplexed must be
  // far below it (expected ~kLatency + scheduling noise).
  EXPECT_LT(elapsed, kOps * kLatency / 2)
      << "1-thread pool serialized the latency waits";
  EXPECT_EQ(latent->inner()->id(), 7u);
}

// --- AsyncRetryingCloud -------------------------------------------------------

// Fails the first `failures` data requests with kUnavailable, then succeeds.
class FlakyCloud final : public CloudProvider {
 public:
  FlakyCloud(CloudPtr inner, int failures)
      : inner_(std::move(inner)), remaining_(failures) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override {
    if (remaining_.fetch_sub(1) > 0) {
      return make_error(ErrorCode::kUnavailable, "injected flake");
    }
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    if (remaining_.fetch_sub(1) > 0) {
      return make_error(ErrorCode::kUnavailable, "injected flake");
    }
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<FileInfo>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    return inner_->remove(path);
  }

  [[nodiscard]] int calls_denied() const noexcept {
    // How far below the initial budget the counter has been driven.
    return remaining_.load();
  }

 private:
  CloudPtr inner_;
  std::atomic<int> remaining_;
};

TEST(AsyncRetryingCloudTest, SucceedsAfterTransientFailures) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(3, "flaky");
  auto flaky = std::make_shared<FlakyCloud>(mem, /*failures=*/2);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base = 0.005;
  policy.backoff_cap = 0.02;
  auto blocking = std::make_shared<RetryingCloud>(flaky, policy);
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("third time lucky"));
  cloud->upload_async("/data/retry", ByteSpan(*data), latch.cb());
  ASSERT_TRUE(latch.wait());
  EXPECT_TRUE(latch.status.is_ok());
  EXPECT_EQ(mem->file_count(), 1u);
}

TEST(AsyncRetryingCloudTest, ExhaustedRetriesSurfaceTheTransientError) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(3, "flaky");
  auto flaky = std::make_shared<FlakyCloud>(mem, /*failures=*/100);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base = 0.002;
  policy.backoff_cap = 0.01;
  auto blocking = std::make_shared<RetryingCloud>(flaky, policy);
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("doomed"));
  cloud->upload_async("/data/doomed", ByteSpan(*data), latch.cb());
  ASSERT_TRUE(latch.wait());
  EXPECT_EQ(latch.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(mem->file_count(), 0u);
}

// The twins record into their blocking halves' registry, not the context's:
// a context without obs still meters every attempt and counts the retries.
TEST(AsyncRetryingCloudTest, CountsIntoBlockingHalfsRegistry) {
  AsyncRig rig;
  ASSERT_EQ(rig.ctx.obs, nullptr);
  auto obs = std::make_shared<obs::Observability>();
  auto mem = std::make_shared<MemoryCloud>(3, "flaky");
  auto metered = std::make_shared<MeteredCloud>(
      std::make_shared<FlakyCloud>(mem, /*failures=*/2), obs);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base = 0.002;
  policy.backoff_cap = 0.01;
  auto blocking = std::make_shared<RetryingCloud>(
      metered, policy, nullptr, RealClock::instance(), real_sleep(),
      Rng(1), obs);
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("counted"));
  cloud->upload_async("/data/counted", ByteSpan(*data), latch.cb());
  ASSERT_TRUE(latch.wait());
  ASSERT_TRUE(latch.status.is_ok());
  const auto snap = obs->metrics.snapshot();
  EXPECT_EQ(snap.counter_value("retry.flaky.attempts"), 3u);
  EXPECT_EQ(snap.counter_value("retry.flaky.retries"), 2u);
  EXPECT_EQ(snap.counter_value("retry.flaky.transient_failures"), 2u);
  EXPECT_EQ(snap.counter_value("cloud.flaky.upload.data.err"), 2u);
  EXPECT_EQ(snap.counter_value("cloud.flaky.upload.data.ok"), 1u);
  EXPECT_EQ(snap.counter_value("cloud.flaky.bytes_up"), data->size());
}

// The satellite guarantee: after cancel() returns, the completion never
// runs — here with a multi-second backoff timer armed mid-retry, so the
// cancel must avert the wheel timer, not just the initial submit.
TEST(AsyncRetryingCloudTest, CancelMidRetryNeverInvokesCompletion) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(3, "flaky");
  auto flaky = std::make_shared<FlakyCloud>(mem, /*failures=*/100);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base = 5.0;  // park the retry far in the future
  policy.backoff_cap = 10.0;
  auto blocking = std::make_shared<RetryingCloud>(flaky, policy);
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  std::atomic<bool> completed{false};
  auto data = std::make_shared<const Bytes>(payload("cancel me"));
  AsyncHandle handle = cloud->upload_async(
      "/data/cancel", ByteSpan(*data), [&](Status) { completed = true; });

  // Wait until the first attempt failed and the backoff timer is armed.
  ASSERT_TRUE(eventually([&] { return flaky->calls_denied() < 100; }));
  std::this_thread::sleep_for(20ms);  // let retry_on_result arm the timer
  ASSERT_FALSE(completed.load());

  EXPECT_TRUE(handle.cancel());
  // The contract: from this line on, the completion can never fire.
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(completed.load());
  EXPECT_EQ(rig.wheel.pending(), 0u) << "cancelled retry left its timer armed";
}

TEST(AsyncRetryingCloudTest, CancelBeforeFirstAttemptAverts) {
  AsyncRig rig(/*threads=*/1);
  auto mem = std::make_shared<MemoryCloud>(4, "m");
  auto blocking = std::make_shared<RetryingCloud>(mem, RetryPolicy{});
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  // Wedge the only I/O thread so the deferred first attempt stays queued.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> wedged{false};
  rig.io->submit([&] {
    wedged = true;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  ASSERT_TRUE(eventually([&] { return wedged.load(); }));

  std::atomic<bool> completed{false};
  auto data = std::make_shared<const Bytes>(payload("early cancel"));
  AsyncHandle handle = cloud->upload_async("/p", ByteSpan(*data),
                                           [&](Status) { completed = true; });
  EXPECT_TRUE(handle.cancel());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(completed.load());
  EXPECT_EQ(mem->file_count(), 0u);
}

// Breaker integration: an open circuit fails async calls fast with kOutage,
// off the caller's stack, exactly like the blocking surface.
TEST(AsyncRetryingCloudTest, OpenBreakerFailsFastWithOutage) {
  AsyncRig rig;
  auto mem = std::make_shared<MemoryCloud>(5, "down");
  BreakerConfig breaker;
  breaker.consecutive_failures_to_open = 1;
  breaker.open_duration = 3600;
  auto health = std::make_shared<CloudHealthRegistry>(breaker);
  // Trip the breaker.
  health->record(5, make_error(ErrorCode::kUnavailable, "boom"), 0.0);
  ASSERT_FALSE(health->allow_request(5));

  auto blocking = std::make_shared<RetryingCloud>(
      mem, RetryPolicy{}, health);
  AsyncCloudPtr cloud = to_async(blocking, rig.ctx);

  StatusLatch latch;
  auto data = std::make_shared<const Bytes>(payload("refused"));
  cloud->upload_async("/p", ByteSpan(*data), latch.cb());
  ASSERT_TRUE(latch.wait());
  EXPECT_EQ(latch.status.code(), ErrorCode::kOutage);
  EXPECT_EQ(mem->file_count(), 0u);
}

// High fan-out smoke: 8 async clouds, a 2-thread pool, a burst of uploads
// per cloud — everything completes, nothing deadlocks, data lands.
TEST(AsyncCloudTest, EightCloudsTwoThreadsHighFanOut) {
  AsyncRig rig(/*threads=*/2);
  constexpr int kClouds = 8;
  constexpr int kOpsPerCloud = 6;

  std::vector<std::shared_ptr<MemoryCloud>> mems;
  std::vector<AsyncCloudPtr> clouds;
  for (int i = 0; i < kClouds; ++i) {
    auto mem = std::make_shared<MemoryCloud>(static_cast<CloudId>(i),
                                             "c" + std::to_string(i));
    mems.push_back(mem);
    LinkProfile profile;
    profile.request_latency_sec = 0.02;
    auto latent = std::make_shared<LatentCloud>(mem, profile, rig.wheel);
    auto blocking = std::make_shared<RetryingCloud>(latent, RetryPolicy{});
    clouds.push_back(to_async(blocking, rig.ctx));
  }

  std::atomic<int> ok{0};
  auto data = std::make_shared<const Bytes>(payload("fan-out"));
  for (int c = 0; c < kClouds; ++c) {
    for (int i = 0; i < kOpsPerCloud; ++i) {
      clouds[c]->upload_async("/b/" + std::to_string(i), ByteSpan(*data),
                              [&](Status s) {
                                if (s.is_ok()) ok.fetch_add(1);
                              });
    }
  }
  ASSERT_TRUE(
      eventually([&] { return ok.load() == kClouds * kOpsPerCloud; }, 10000ms));
  for (const auto& mem : mems) {
    EXPECT_EQ(mem->file_count(), static_cast<std::size_t>(kOpsPerCloud));
  }
}

}  // namespace
}  // namespace unidrive::cloud
