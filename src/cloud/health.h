// CloudHealthRegistry — shared, long-lived per-cloud health state with a
// closed -> open -> half-open circuit breaker.
//
// The paper's reliability measurements (Fig. 14) show consumer clouds going
// through whole-hours outages, and per-request success rates as low as
// 82.5% (Fig. 4). A client that re-pays a full retry cycle against a dead
// provider on every metadata probe and every block transfer wastes most of
// its sync round on guaranteed failures. The registry remembers, across
// sync rounds, which clouds are currently worth talking to:
//
//   closed     requests flow; failures are counted (consecutive + sliding
//              window). Availability failures past a threshold trip the
//              breaker.
//   open       requests are refused instantly (callers see kOutage and
//              reroute to the remaining k-of-N clouds). After
//              `open_duration` the next caller is admitted as a probe.
//   half-open  a bounded number of probe requests go through. Enough
//              successes close the breaker (cloud re-admitted); any
//              failure re-opens it and restarts the probe timer.
//
// One registry instance is shared by every cloud-facing path of a client
// (metadata store, quorum lock, transfer drivers), so a cloud tripped while
// publishing metadata is also skipped by the block scheduler, and a cloud
// that recovered is re-admitted everywhere at once. All methods are
// thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "cloud/provider.h"
#include "common/clock.h"
#include "obs/obs.h"

namespace unidrive::cloud {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState state) noexcept;

struct BreakerConfig {
  // Trip when this many availability failures arrive back to back...
  int consecutive_failures_to_open = 5;
  // ...or when the sliding window holds at least `min_window_samples`
  // outcomes and the failure ratio reaches this (Fig. 4 clouds fail
  // intermittently rather than consecutively).
  double window_failure_ratio_to_open = 0.6;
  std::size_t window_size = 32;
  std::size_t min_window_samples = 8;
  // How long the breaker stays open before admitting a probe.
  Duration open_duration = 30.0;
  // Probe requests admitted while half-open.
  int half_open_probes = 2;
  // Probe successes needed to close again.
  int probe_successes_to_close = 1;
};

struct CloudHealthSnapshot {
  CloudId id = 0;
  BreakerState state = BreakerState::kClosed;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  int consecutive_failures = 0;
  double window_failure_ratio = 0.0;  // over the sliding window
  double latency_ewma = 0.0;          // seconds per request, EWMA
};

class CloudHealthRegistry {
 public:
  // When `obs` is non-null, breaker transitions are counted there:
  //   breaker.cloud<id>.opened|half_open|closed|rejected
  // (rejected = requests refused while open / probe quota used up).
  explicit CloudHealthRegistry(BreakerConfig config = {},
                               Clock& clock = RealClock::instance(),
                               obs::ObsPtr obs = nullptr)
      : config_(config), clock_(&clock), obs_(std::move(obs)) {}

  // Gate for anyone about to issue a request. false = breaker open: fail
  // fast without touching the network. May transition open -> half-open
  // when the probe timer expired; the caller that receives `true` in that
  // state IS the probe and must report its outcome via record_*().
  bool allow_request(CloudId id);

  // Non-mutating variant for schedulers deciding where to place work:
  // would allow_request() currently admit a request for this cloud?
  [[nodiscard]] bool admissible(CloudId id) const;

  void record_success(CloudId id, Duration latency);
  void record_failure(CloudId id, Duration latency);

  // Classifies `status` the way the breaker cares about: kUnavailable,
  // kTimeout and kOutage count against the cloud; every other response
  // (including kNotFound, kConflict...) proves the cloud answered and
  // counts as a health success.
  void record(CloudId id, const Status& status, Duration latency);

  [[nodiscard]] BreakerState state(CloudId id) const;
  [[nodiscard]] CloudHealthSnapshot snapshot(CloudId id) const;
  // Snapshot of every cloud ever recorded or gated, sorted by id.
  [[nodiscard]] std::vector<CloudHealthSnapshot> snapshot_all() const;

  // True when every known cloud's breaker is closed (no degraded mode).
  [[nodiscard]] bool all_closed() const;

  void reset();

  [[nodiscard]] const BreakerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Entry {
    BreakerState state = BreakerState::kClosed;
    std::deque<bool> window;  // true = failure, newest at the back
    std::size_t window_failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    int consecutive_failures = 0;
    TimePoint opened_at = 0;
    int half_open_admitted = 0;
    int half_open_successes = 0;
    double latency_ewma = 0;
    bool has_latency = false;
  };

  void push_outcome(Entry& e, bool failure, Duration latency);
  [[nodiscard]] bool should_trip(const Entry& e) const;
  void trip(CloudId id, Entry& e);
  void count_transition(CloudId id, const char* transition);
  [[nodiscard]] CloudHealthSnapshot make_snapshot(CloudId id,
                                                  const Entry& e) const;

  BreakerConfig config_;
  Clock* clock_;  // non-owning, never null
  obs::ObsPtr obs_;
  mutable std::mutex mutex_;
  std::map<CloudId, Entry> entries_;
};

}  // namespace unidrive::cloud
