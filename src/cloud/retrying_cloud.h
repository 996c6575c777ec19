// RetryingCloud — the resilience decorator every cloud-facing call path
// goes through, and RetryCall, the one implementation of its retry rule.
//
// RetryingCloud composes, around any CloudProvider:
//   - the RetryPolicy (common/retry.h): transient failures retried with
//     decorrelated-jitter backoff under per-attempt and total deadlines;
//   - the CloudHealthRegistry (cloud/health.h): every attempt is gated by
//     the cloud's circuit breaker and its outcome recorded. When the
//     breaker is open, calls fail instantly with kOutage so callers
//     reroute to the remaining k-of-N clouds instead of burning a retry
//     cycle against a dead provider;
//   - deadline mapping: an attempt that exceeds the policy's
//     attempt_deadline is reported as kTimeout even if it eventually
//     returned OK (consumer clouds stall for minutes; the paper's hang
//     failures).
//
// RetryCall holds one call's bookkeeping for that rule. RetryingCloud
// loops over it and sleeps between attempts; its async twin (cloud/async.h)
// drives the same object from each completion and re-arms the next attempt
// on the timer wheel, so both surfaces share one breaker gate, one deadline
// mapping and one set of retry.<name>.* counters.
//
// Thread-safe when the inner provider is.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "cloud/health.h"
#include "cloud/provider.h"
#include "common/retry.h"
#include "obs/obs.h"

namespace unidrive::cloud {

class RetryingCloud;

// One call under a RetryingCloud's policy, breaker, clock and counters. The
// caller alternates admit() and, for each admitted attempt, settle(). The
// attempts of one call run one after another, so the object needs no lock;
// the RetryingCloud must outlive it.
class RetryCall {
 public:
  // `rng` is the call's own jitter stream, forked from the decorator's.
  RetryCall(const RetryingCloud& cloud, Rng rng);

  // The breaker gate, before each attempt. OK = send the attempt. kOutage
  // when the cloud's breaker refuses it: that is the call's final status
  // (kOutage is non-transient, so no backoff is spent against an open
  // breaker). A refused attempt is counted but not recorded as health —
  // no request went out.
  [[nodiscard]] Status admit();

  // After each admitted attempt, with its outcome in `status`: maps a late
  // success to kTimeout, records the outcome in the health registry and
  // bumps the retry counters. Returns the pause before the next attempt,
  // or nullopt when `status` is the call's final status — rewritten to
  // kTimeout when the pause would overrun the total deadline.
  [[nodiscard]] std::optional<Duration> settle(Status& status);

 private:
  void count_attempt(const Status& status) const;

  const RetryingCloud* cloud_;
  BackoffState backoff_;
  Rng rng_;
  int attempt_ = 0;
  TimePoint started_;
  TimePoint attempt_started_ = 0;
};

class RetryingCloud final : public CloudProvider {
 public:
  RetryingCloud(CloudPtr inner, RetryPolicy policy,
                std::shared_ptr<CloudHealthRegistry> health = nullptr,
                Clock& clock = RealClock::instance(),
                SleepFn sleep = real_sleep(),
                Rng rng = Rng(0x52455452ULL),  // "RETR"
                obs::ObsPtr obs = nullptr);

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

  [[nodiscard]] const CloudPtr& inner() const noexcept { return inner_; }
  // The pause between attempts; the async twin calls it on the I/O pool
  // when it is not the real sleep (virtual time).
  [[nodiscard]] const SleepFn& sleep_fn() const noexcept { return sleep_; }

 private:
  friend class RetryCall;

  // Runs `op` under a fresh RetryCall, sleeping between attempts.
  template <typename R, typename Op>
  R call(const Op& op);

  CloudPtr inner_;
  RetryPolicy policy_;
  std::shared_ptr<CloudHealthRegistry> health_;
  Clock* clock_;
  SleepFn sleep_;
  std::mutex rng_mutex_;
  Rng rng_;
  obs::ObsPtr obs_;
  // Cached instruments (owned by obs_->metrics); null when obs_ is null.
  obs::Counter* attempts_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* transient_failures_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;
};

// Wraps every cloud of a multi-cloud in a RetryingCloud sharing one policy
// and one health registry — the one-liner the client uses. When `obs` is
// non-null each cloud is additionally metered (Retrying(Metered(raw))), so
// the per-attempt request traffic lands in the shared metrics registry.
MultiCloud guard_clouds(const MultiCloud& clouds, const RetryPolicy& policy,
                        std::shared_ptr<CloudHealthRegistry> health,
                        Clock& clock, SleepFn sleep, Rng& rng,
                        obs::ObsPtr obs = nullptr);

}  // namespace unidrive::cloud
