// The single retry/backoff/deadline policy for every cloud-facing call.
//
// Consumer cloud APIs fail constantly (the paper measures 82.5%-99%
// per-request success, with failure probability growing with transfer size),
// so UniDrive used to grow ad-hoc retry loops in every layer. This header
// replaces them: a RetryPolicy describes HOW to retry (attempt budget,
// exponential backoff with decorrelated jitter, per-attempt and total
// deadlines). cloud::RetryCall (cloud/retrying_cloud.h) executes it for
// every cloud verb, blocking or async; the quorum lock reuses BackoffState
// for its protocol rounds. Sleeping is injected (SleepFn) so tests and the
// discrete-event simulator drive retries deterministically in virtual time.
//
// What retries, and what does not, is decided by Status::is_transient():
// kUnavailable and kTimeout are retried on the same cloud; kOutage, kQuota,
// kNotFound etc. are surfaced immediately — re-paying the backoff cost
// against a dead or full cloud is exactly what the circuit breaker
// (cloud/health.h) exists to avoid.
#pragma once

#include <functional>

#include "common/clock.h"
#include "common/rng.h"

namespace unidrive {

// Sleeping is injected so tests and simulations control time. The default
// used by production code sleeps the calling thread for real.
using SleepFn = std::function<void(Duration)>;
SleepFn real_sleep();

// True when `sleep` is the real_sleep() default (or empty). The async retry
// layer uses this to decide HOW to pause: a real sleep becomes a thread-free
// timer-wheel re-arm, while an injected sleep (virtual time — tests advance
// a ManualClock in it) must still be CALLED so its side effects happen.
[[nodiscard]] bool is_real_sleep(const SleepFn& sleep);

struct RetryPolicy {
  // Total tries, including the first one. 1 = no retry.
  int max_attempts = 4;
  // Backoff between attempts: decorrelated jitter, sleep_n drawn uniformly
  // from [base, 3 * sleep_{n-1}] and clamped to [base, cap]. Always >= base
  // (so tests can count on a minimum advance) and never above cap.
  Duration backoff_base = 0.05;
  Duration backoff_cap = 2.0;
  // An attempt that takes longer than this counts as kTimeout even if the
  // underlying call eventually returned OK (the caller already gave up on
  // it; the paper's clouds routinely stall for minutes). 0 = unlimited.
  Duration attempt_deadline = 0;
  // Hard budget for the whole call including backoff sleeps. When the next
  // backoff would overrun it, retrying stops and kTimeout is returned.
  // 0 = unlimited.
  Duration total_deadline = 0;

  // A policy that performs the call exactly once, with no backoff.
  [[nodiscard]] static RetryPolicy single_shot() noexcept {
    RetryPolicy p;
    p.max_attempts = 1;
    p.backoff_base = 0;
    p.backoff_cap = 0;
    return p;
  }
};

// The decorrelated-jitter backoff sequence of one retrying call. Kept as a
// separate object so callers with their own loop shape (e.g. the quorum
// lock, whose "attempt" is a whole multi-cloud protocol round) reuse the
// exact same backoff behaviour as a retrying cloud call.
class BackoffState {
 public:
  explicit BackoffState(const RetryPolicy& policy) noexcept
      : base_(policy.backoff_base),
        cap_(policy.backoff_cap),
        prev_(policy.backoff_base) {}

  Duration next(Rng& rng) noexcept {
    const Duration hi = prev_ * 3.0 > base_ ? prev_ * 3.0 : base_;
    prev_ = rng.uniform(base_, hi);
    if (prev_ > cap_) prev_ = cap_;
    return prev_;
  }

 private:
  Duration base_;
  Duration cap_;
  Duration prev_;
};

}  // namespace unidrive
