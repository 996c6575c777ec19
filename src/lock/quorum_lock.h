// Quorum-based distributed mutual-exclusive lock over multiple clouds,
// built from nothing but empty files and the five basic file APIs.
//
// Protocol (Section 5.2 of the paper):
//  1. The attempting device uploads an empty lock file named
//     "lock_<device>_<t>" into a dedicated /lock directory on every cloud.
//  2. It lists /lock on each cloud; it holds that cloud's lock iff its own
//     file is the only lock file present.
//  3. Holding a majority of clouds = holding the global lock. Otherwise the
//     device withdraws (deletes its files everywhere) and retries after a
//     random backoff.
//  4. While holding the lock, the device refreshes it periodically; other
//     clients record when they *first saw* each lock file (local clocks
//     only) and break locks older than a staleness threshold dT by deleting
//     them — so a crashed holder cannot block progress forever, and a
//     recovered holder discovers the loss because its file names changed.
//
// Correctness needs only read-after-write consistency from each cloud: once
// a client's list() shows lock file A, later list() calls also show A (until
// deleted), so two devices cannot both see themselves alone on a majority.
#pragma once

#include <algorithm>
#include <map>
#include <string>

#include "cloud/provider.h"
#include "common/clock.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/obs.h"

namespace unidrive::lock {

// Sleeping is injected so tests and simulations control time; the type and
// default implementation are the shared ones from common/retry.h.
using ::unidrive::real_sleep;
using ::unidrive::SleepFn;

struct LockConfig {
  std::string lock_dir = "/lock";
  Duration stale_after = 120.0;      // dT: break locks seen for this long
  // Contention backoff between acquisition rounds reuses the unified retry
  // policy: max_attempts rounds, decorrelated-jitter pauses in
  // [backoff_base, backoff_cap], and an optional total_deadline budget on
  // the whole acquisition.
  RetryPolicy retry{.max_attempts = 16,
                    .backoff_base = 0.5,
                    .backoff_cap = 30.0};
};

class QuorumLock {
 public:
  // When `obs` is non-null, acquisition is traced ("lock.acquire" span with
  // one "lock.round" child per protocol round) and counted:
  //   lock.rounds, lock.acquired, lock.contention, lock.outage,
  //   lock.stale_broken, lock.backoffs; lock.acquire.latency histogram.
  QuorumLock(cloud::MultiCloud clouds, std::string device, LockConfig config,
             Clock& clock, Rng rng, SleepFn sleep = real_sleep(),
             obs::ObsPtr obs = nullptr);

  // Tries to acquire the global lock; blocks (via the sleep function)
  // between attempts. kLockContention after max_attempts failures, kOutage
  // when fewer than a majority of clouds answer at all.
  Status acquire();

  // Re-stamps the lock files (new timestamped names) so other clients'
  // first-seen timers restart. Call at least every `stale_after` while
  // holding. Fails if the majority was lost (e.g. our files were broken).
  Status refresh();

  // Deletes this device's lock files everywhere. Idempotent.
  void release();

  [[nodiscard]] bool held() const noexcept { return held_; }

  // Housekeeping any client performs whenever it lists a lock dir: record
  // first-seen times and delete lock files that have been visible for more
  // than `stale_after` on that cloud. Exposed for tests; acquire() calls it.
  void break_stale_locks(cloud::CloudProvider& cloud,
                         const std::vector<cloud::FileInfo>& listing);

 private:
  [[nodiscard]] std::string make_lock_name();
  // One acquisition round; returns number of clouds whose lock we hold
  // exclusively and the number of clouds that responded to list().
  struct RoundOutcome {
    std::size_t exclusive = 0;
    std::size_t responded = 0;
  };
  RoundOutcome attempt_round(const std::string& lock_name);
  void delete_own_locks();

  [[nodiscard]] std::size_t majority() const noexcept {
    // max() keeps the degenerate empty multi-cloud unsatisfiable.
    return std::max<std::size_t>(1, clouds_.size() / 2 + 1);
  }

  cloud::MultiCloud clouds_;
  std::string device_;
  LockConfig config_;
  Clock* clock_;  // non-owning, never null (pointer keeps locks assignable)
  Rng rng_;
  SleepFn sleep_;
  obs::ObsPtr obs_;

  bool held_ = false;
  std::string current_lock_name_;
  std::uint64_t stamp_counter_ = 0;
  // first-seen registry: (cloud id, lock file name) -> local first-seen time.
  std::map<std::pair<cloud::CloudId, std::string>, TimePoint> first_seen_;
};

}  // namespace unidrive::lock
