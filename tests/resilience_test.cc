// Unit tests for the unified resilience layer: the RetryPolicy backoff
// (common/retry.h), the CloudHealthRegistry circuit breaker
// (cloud/health.h) and the RetryingCloud decorator with its RetryCall
// engine (cloud/retrying_cloud.h), plus the torn-upload and hang fault
// injectors in FaultyCloud.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/faulty_cloud.h"
#include "cloud/health.h"
#include "cloud/memory_cloud.h"
#include "cloud/retrying_cloud.h"
#include "common/clock.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"

namespace unidrive {
namespace {

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(BackoffStateTest, StaysWithinBaseAndCap) {
  RetryPolicy policy;
  policy.backoff_base = 0.2;
  policy.backoff_cap = 3.0;
  BackoffState backoff(policy);
  Rng rng(7);
  Duration prev = 0;
  bool grew = false;
  for (int i = 0; i < 200; ++i) {
    const Duration d = backoff.next(rng);
    EXPECT_GE(d, policy.backoff_base);
    EXPECT_LE(d, policy.backoff_cap);
    if (d > prev) grew = true;
    prev = d;
  }
  EXPECT_TRUE(grew);  // the jittered sequence must actually spread out
}

// --- CloudHealthRegistry ------------------------------------------------------

cloud::BreakerConfig small_breaker() {
  cloud::BreakerConfig cfg;
  cfg.consecutive_failures_to_open = 3;
  cfg.window_failure_ratio_to_open = 0.6;
  cfg.window_size = 8;
  cfg.min_window_samples = 4;
  cfg.open_duration = 30.0;
  cfg.half_open_probes = 2;
  cfg.probe_successes_to_close = 1;
  return cfg;
}

TEST(CloudHealthRegistryTest, OpensAfterConsecutiveFailures) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  EXPECT_TRUE(reg.allow_request(1));
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
  EXPECT_FALSE(reg.allow_request(1));
  EXPECT_FALSE(reg.admissible(1));
  EXPECT_FALSE(reg.all_closed());
}

TEST(CloudHealthRegistryTest, WindowRatioTripsWithoutConsecutiveRun) {
  ManualClock clock;
  cloud::BreakerConfig cfg = small_breaker();
  cfg.consecutive_failures_to_open = 100;  // only the window can trip
  cloud::CloudHealthRegistry reg(cfg, clock);
  // Alternate so no consecutive run forms: S F S F -> 4 samples at ratio
  // 0.5, still closed; one more failure makes 3/5 = 0.6 and trips.
  reg.record_success(1, 0.1);
  reg.record_failure(1, 0.1);
  reg.record_success(1, 0.1);
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
}

TEST(CloudHealthRegistryTest, HalfOpenProbeClosesOnSuccess) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  ASSERT_EQ(reg.state(1), cloud::BreakerState::kOpen);

  clock.advance(29.0);
  EXPECT_FALSE(reg.allow_request(1));  // probe timer not yet expired
  clock.advance(2.0);
  EXPECT_TRUE(reg.admissible(1));
  EXPECT_TRUE(reg.allow_request(1));  // this caller is the probe
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kHalfOpen);
  reg.record_success(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  EXPECT_TRUE(reg.all_closed());
}

TEST(CloudHealthRegistryTest, FailedProbeReopensAndRestartsTimer) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  ASSERT_TRUE(reg.allow_request(1));
  reg.record_failure(1, 0.1);  // probe failed
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
  EXPECT_FALSE(reg.allow_request(1));  // timer restarted
  clock.advance(31.0);
  EXPECT_TRUE(reg.allow_request(1));
}

TEST(CloudHealthRegistryTest, HalfOpenAdmitsBoundedProbes) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);  // 2 probes
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  EXPECT_TRUE(reg.allow_request(1));
  EXPECT_TRUE(reg.allow_request(1));
  EXPECT_FALSE(reg.allow_request(1));  // probe quota exhausted
}

TEST(CloudHealthRegistryTest, FreshStartAfterRecoveryDoesNotRetrip) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  ASSERT_TRUE(reg.allow_request(1));
  reg.record_success(1, 0.1);
  ASSERT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  // The pre-outage window (full of failures) must have been cleared: one
  // new failure alone may not re-trip via the window ratio.
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
}

TEST(CloudHealthRegistryTest, NonAvailabilityErrorsCountAsHealthy) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  const Status not_found = make_error(ErrorCode::kNotFound, "no such file");
  for (int i = 0; i < 10; ++i) reg.record(1, not_found, 0.05);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  const cloud::CloudHealthSnapshot s = reg.snapshot(1);
  EXPECT_EQ(s.successes, 10u);
  EXPECT_EQ(s.failures, 0u);
}

TEST(CloudHealthRegistryTest, SnapshotReportsStats) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  reg.record_success(3, 0.2);
  reg.record_failure(3, 0.4);
  reg.record_failure(5, 0.1);
  const auto all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, 3u);
  EXPECT_EQ(all[0].successes, 1u);
  EXPECT_EQ(all[0].failures, 1u);
  EXPECT_EQ(all[0].consecutive_failures, 1);
  EXPECT_NEAR(all[0].window_failure_ratio, 0.5, 1e-9);
  EXPECT_GT(all[0].latency_ewma, 0.0);
  EXPECT_EQ(all[1].id, 5u);
}

// --- RetryingCloud ------------------------------------------------------------

// Fails the first `fail_first` requests with `code`, then delegates. With a
// clock, every request first stalls `stall` seconds on it.
class FlakyCloud final : public cloud::CloudProvider {
 public:
  FlakyCloud(cloud::CloudPtr inner, int fail_first,
             ErrorCode code = ErrorCode::kUnavailable,
             ManualClock* clock = nullptr, Duration stall = 0)
      : inner_(std::move(inner)),
        remaining_(fail_first),
        code_(code),
        clock_(clock),
        stall_(stall) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override {
    UNI_RETURN_IF_ERROR(gate());
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate());
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate());
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    UNI_RETURN_IF_ERROR(gate());
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate());
    return inner_->remove(path);
  }

  [[nodiscard]] int calls() const noexcept { return calls_; }

 private:
  Status gate() {
    ++calls_;
    if (clock_ != nullptr) clock_->advance(stall_);
    if (remaining_ > 0) {
      --remaining_;
      return make_error(code_, "flaky");
    }
    return Status::ok();
  }

  cloud::CloudPtr inner_;
  int remaining_;
  ErrorCode code_;
  ManualClock* clock_;
  Duration stall_;
  int calls_ = 0;
};

// A RetryingCloud over a FlakyCloud in virtual time: each pause advances
// the manual clock and is recorded, so tests assert on the exact backoff
// schedule.
struct RetryRig {
  explicit RetryRig(int fail_first, RetryPolicy policy = {},
                    ErrorCode code = ErrorCode::kUnavailable,
                    Duration stall = 0)
      : flaky(std::make_shared<FlakyCloud>(memory, fail_first, code, &clock,
                                           stall)),
        guarded(
            flaky, policy, nullptr, clock,
            [this](Duration d) {
              pauses.push_back(d);
              clock.advance(d);
            },
            Rng(42)) {}

  ManualClock clock;
  std::vector<Duration> pauses;
  std::shared_ptr<cloud::MemoryCloud> memory =
      std::make_shared<cloud::MemoryCloud>(1, "m");
  std::shared_ptr<FlakyCloud> flaky;
  cloud::RetryingCloud guarded;
};

TEST(RetryingCloudTest, FirstAttemptSuccessDoesNotSleep) {
  RetryRig rig(/*fail_first=*/0);
  EXPECT_TRUE(rig.guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_EQ(rig.flaky->calls(), 1);
  EXPECT_TRUE(rig.pauses.empty());
}

TEST(RetryingCloudTest, TransientFailuresRetriedUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base = 0.1;
  policy.backoff_cap = 1.0;
  RetryRig rig(/*fail_first=*/2, policy);
  EXPECT_TRUE(rig.guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_EQ(rig.flaky->calls(), 3);
  ASSERT_EQ(rig.pauses.size(), 2u);
  for (const Duration d : rig.pauses) {
    EXPECT_GE(d, policy.backoff_base);
    EXPECT_LE(d, policy.backoff_cap);
  }
}

TEST(RetryingCloudTest, NonTransientErrorSurfacesImmediately) {
  RetryRig rig(/*fail_first=*/1, RetryPolicy{}, ErrorCode::kNotFound);
  EXPECT_EQ(rig.guarded.remove("/gone").code(), ErrorCode::kNotFound);
  EXPECT_EQ(rig.flaky->calls(), 1);
  EXPECT_TRUE(rig.pauses.empty());
}

TEST(RetryingCloudTest, AttemptBudgetExhaustedReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.05;
  RetryRig rig(/*fail_first=*/100, policy);
  EXPECT_EQ(rig.guarded.create_dir("/d").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(rig.flaky->calls(), 3);
  EXPECT_EQ(rig.pauses.size(), 2u);  // no pause after the final attempt
}

TEST(RetryingCloudTest, SingleShotNeverRetries) {
  RetryRig rig(/*fail_first=*/100, RetryPolicy::single_shot());
  EXPECT_EQ(rig.guarded.list("/").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(rig.flaky->calls(), 1);
  EXPECT_TRUE(rig.pauses.empty());
}

TEST(RetryingCloudTest, TotalDeadlineStopsBeforeSleepingPastBudget) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_base = 10.0;  // every pause is at least 10 s
  policy.backoff_cap = 10.0;
  policy.total_deadline = 5.0;
  RetryRig rig(/*fail_first=*/100, policy);
  EXPECT_EQ(rig.guarded.upload("/f", ByteSpan(text("x"))).code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(rig.flaky->calls(), 1);  // the 10 s pause would overrun 5 s
  EXPECT_TRUE(rig.pauses.empty());
}

TEST(RetryingCloudTest, SlowSuccessMapsToTimeout) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.01;
  policy.attempt_deadline = 1.0;
  // Every request succeeds, but only after stalling well past the deadline.
  RetryRig rig(/*fail_first=*/0, policy, ErrorCode::kUnavailable,
               /*stall=*/5.0);
  EXPECT_EQ(rig.guarded.upload("/f", ByteSpan(text("x"))).code(),
            ErrorCode::kTimeout);
  EXPECT_EQ(rig.flaky->calls(), 2);
}

TEST(RetryingCloudTest, DownloadReturnsBytesOfSuccessfulAttempt) {
  RetryRig rig(/*fail_first=*/1);
  ASSERT_TRUE(rig.memory->upload("/f", ByteSpan(text("seven"))).is_ok());
  const Result<Bytes> r = rig.guarded.download("/f");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), text("seven"));
  EXPECT_EQ(rig.flaky->calls(), 2);
  EXPECT_EQ(rig.pauses.size(), 1u);
}

TEST(RetryingCloudTest, RetriesThroughTransientFailures) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  auto flaky = std::make_shared<FlakyCloud>(memory, 2);
  ManualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.05;
  cloud::RetryingCloud guarded(
      flaky, policy, nullptr, clock,
      [&clock](Duration d) { clock.advance(d); }, Rng(1));

  EXPECT_TRUE(guarded.upload("/f", ByteSpan(text("hello"))).is_ok());
  EXPECT_EQ(flaky->calls(), 3);  // two failures + the success
  EXPECT_EQ(guarded.download("/f").value(), text("hello"));
}

TEST(RetryingCloudTest, CircuitOpensAndFailsFastWithoutTouchingInner) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  auto faulty =
      std::make_shared<cloud::FaultyCloud>(memory, cloud::FaultProfile{}, 9);
  faulty->set_outage(true);
  ManualClock clock;
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), clock);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = 0.001;
  policy.backoff_cap = 0.002;
  cloud::RetryingCloud guarded(
      faulty, policy, health, clock,
      [&clock](Duration d) { clock.advance(d); }, Rng(1));

  // Outage responses are kOutage (non-transient): one inner request per
  // call. Three calls trip the breaker (threshold 3).
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  }
  ASSERT_EQ(health->state(1), cloud::BreakerState::kOpen);

  const std::uint64_t before = faulty->requests();
  for (int i = 0; i < 10; ++i) {
    const Status s = guarded.upload("/f", ByteSpan(text("x")));
    EXPECT_EQ(s.code(), ErrorCode::kOutage);
  }
  EXPECT_EQ(faulty->requests(), before);  // fail-fast: inner never called
}

TEST(RetryingCloudTest, RecoveredCloudReadmittedViaProbe) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  auto faulty =
      std::make_shared<cloud::FaultyCloud>(memory, cloud::FaultProfile{}, 9);
  faulty->set_outage(true);
  ManualClock clock;
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), clock);
  cloud::RetryingCloud guarded(
      faulty, RetryPolicy::single_shot(), health, clock,
      [&clock](Duration d) { clock.advance(d); }, Rng(1));

  for (int i = 0; i < 3; ++i) {
    (void)guarded.upload("/f", ByteSpan(text("x")));
  }
  ASSERT_EQ(health->state(1), cloud::BreakerState::kOpen);

  faulty->set_outage(false);
  clock.advance(31.0);  // past open_duration
  EXPECT_TRUE(guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_EQ(health->state(1), cloud::BreakerState::kClosed);
  EXPECT_EQ(memory->download("/f").value(), text("x"));
}

TEST(RetryingCloudTest, AttemptDeadlineMapsHangToTimeout) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  ManualClock clock;
  cloud::FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_seconds = 5.0;
  auto faulty = std::make_shared<cloud::FaultyCloud>(
      memory, profile, 9, [&clock](Duration d) { clock.advance(d); });
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), clock);
  RetryPolicy policy = RetryPolicy::single_shot();
  policy.attempt_deadline = 1.0;
  cloud::RetryingCloud guarded(
      faulty, policy, health, clock,
      [&clock](Duration d) { clock.advance(d); }, Rng(1));

  const Status s = guarded.upload("/f", ByteSpan(text("x")));
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_GE(faulty->hangs(), 1u);
  // The hang counts against the cloud's health.
  EXPECT_EQ(health->snapshot(1).failures, 1u);
}

// --- FaultyCloud fault injectors ----------------------------------------------

TEST(FaultyCloudTest, TornUploadWritesTruncatedPrefix) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  cloud::FaultProfile profile;
  profile.torn_upload_rate = 1.0;
  cloud::FaultyCloud faulty(memory, profile, 9);

  const Bytes payload = text("0123456789");
  const Status s = faulty.upload("/t", ByteSpan(payload));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(faulty.torn_uploads(), 1u);
  // Garbage sits at the path: a strict prefix, not the full payload.
  const Bytes stored = memory->download("/t").value();
  EXPECT_EQ(stored.size(), payload.size() / 2);
  EXPECT_EQ(stored, Bytes(payload.begin(),
                          payload.begin() + static_cast<std::ptrdiff_t>(
                                                payload.size() / 2)));
}

TEST(FaultyCloudTest, HangStallsThroughInjectedSleep) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  ManualClock clock;
  cloud::FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_seconds = 7.0;
  cloud::FaultyCloud faulty(memory, profile, 9,
                            [&clock](Duration d) { clock.advance(d); });

  const TimePoint before = clock.now();
  EXPECT_TRUE(faulty.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_NEAR(clock.now() - before, 7.0, 1e-9);
  EXPECT_EQ(faulty.hangs(), 1u);
}

}  // namespace
}  // namespace unidrive
