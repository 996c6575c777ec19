#include "cloud/retrying_cloud.h"

#include <utility>

#include "cloud/metered_cloud.h"

namespace unidrive::cloud {

// --- RetryCall --------------------------------------------------------------

RetryCall::RetryCall(const RetryingCloud& cloud, Rng rng)
    : cloud_(&cloud),
      backoff_(cloud.policy_),
      rng_(rng),
      started_(cloud.clock_->now()) {}

void RetryCall::count_attempt(const Status& status) const {
  if (cloud_->attempts_ == nullptr) return;
  cloud_->attempts_->add();
  if (attempt_ > 1) cloud_->retries_->add();
  if (!status.is_ok() && status.is_transient()) {
    cloud_->transient_failures_->add();
  }
}

Status RetryCall::admit() {
  ++attempt_;
  const auto& health = cloud_->health_;
  if (health && !health->allow_request(cloud_->id())) {
    Status refused =
        make_error(ErrorCode::kOutage, cloud_->name() + ": circuit open");
    count_attempt(refused);
    return refused;
  }
  attempt_started_ = cloud_->clock_->now();
  return Status::ok();
}

std::optional<Duration> RetryCall::settle(Status& status) {
  const RetryPolicy& policy = cloud_->policy_;
  const Duration elapsed = cloud_->clock_->now() - attempt_started_;
  if (status.is_ok() && policy.attempt_deadline > 0 &&
      elapsed > policy.attempt_deadline) {
    // The call came back, but only after the caller had given up on it.
    status = make_error(ErrorCode::kTimeout,
                        cloud_->name() + ": attempt exceeded deadline");
  }
  if (cloud_->health_) cloud_->health_->record(cloud_->id(), status, elapsed);
  count_attempt(status);
  if (status.is_ok() || !status.is_transient() ||
      attempt_ >= policy.max_attempts) {
    return std::nullopt;
  }
  const Duration pause = backoff_.next(rng_);
  if (policy.total_deadline > 0 &&
      cloud_->clock_->now() - started_ + pause > policy.total_deadline) {
    status = make_error(ErrorCode::kTimeout,
                        "retry budget exhausted: " + status.message());
    return std::nullopt;
  }
  if (cloud_->backoff_hist_ != nullptr) cloud_->backoff_hist_->observe(pause);
  return pause;
}

// --- RetryingCloud ----------------------------------------------------------

RetryingCloud::RetryingCloud(CloudPtr inner, RetryPolicy policy,
                             std::shared_ptr<CloudHealthRegistry> health,
                             Clock& clock, SleepFn sleep, Rng rng,
                             obs::ObsPtr obs)
    : inner_(std::move(inner)),
      policy_(policy),
      health_(std::move(health)),
      clock_(&clock),
      sleep_(std::move(sleep)),
      rng_(rng),
      obs_(std::move(obs)) {
  if (obs_) {
    // Resolved once: every attempt then increments plain atomics.
    const std::string prefix = "retry." + inner_->name() + ".";
    attempts_ = &obs_->metrics.counter(prefix + "attempts");
    retries_ = &obs_->metrics.counter(prefix + "retries");
    transient_failures_ = &obs_->metrics.counter(prefix + "transient_failures");
    backoff_hist_ = &obs_->metrics.histogram(prefix + "backoff");
  }
}

template <typename R, typename Op>
R RetryingCloud::call(const Op& op) {
  Rng rng;
  {
    // Concurrent callers each retry with an independent jitter stream.
    std::lock_guard<std::mutex> lock(rng_mutex_);
    rng = rng_.fork();
  }
  RetryCall retry(*this, rng);
  for (;;) {
    Status status = retry.admit();
    if (!status.is_ok()) return status;
    R result = op();
    status = status_of(result);
    const std::optional<Duration> pause = retry.settle(status);
    if (!pause) return status.is_ok() ? std::move(result) : R(status);
    sleep_(*pause);
  }
}

Status RetryingCloud::upload(const std::string& path, ByteSpan data) {
  return call<Status>([&] { return inner_->upload(path, data); });
}

Result<Bytes> RetryingCloud::download(const std::string& path) {
  return call<Result<Bytes>>([&] { return inner_->download(path); });
}

Status RetryingCloud::create_dir(const std::string& path) {
  return call<Status>([&] { return inner_->create_dir(path); });
}

Result<std::vector<FileInfo>> RetryingCloud::list(const std::string& dir) {
  return call<Result<std::vector<FileInfo>>>([&] { return inner_->list(dir); });
}

Status RetryingCloud::remove(const std::string& path) {
  return call<Status>([&] { return inner_->remove(path); });
}

MultiCloud guard_clouds(const MultiCloud& clouds, const RetryPolicy& policy,
                        std::shared_ptr<CloudHealthRegistry> health,
                        Clock& clock, SleepFn sleep, Rng& rng,
                        obs::ObsPtr obs) {
  MultiCloud guarded;
  guarded.reserve(clouds.size());
  for (const CloudPtr& c : clouds) {
    const CloudPtr inner =
        obs ? std::make_shared<MeteredCloud>(c, obs) : c;
    guarded.push_back(std::make_shared<RetryingCloud>(
        inner, policy, health, clock, sleep, rng.fork(), obs));
  }
  return guarded;
}

}  // namespace unidrive::cloud
