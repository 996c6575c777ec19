#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "cloud/faulty_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/metered_cloud.h"
#include "common/clock.h"
#include "common/rng.h"
#include "lock/quorum_lock.h"
#include "obs/obs.h"

namespace unidrive::lock {
namespace {

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

// Sleep function that just advances a manual clock (no real waiting).
SleepFn clock_sleep(ManualClock& clock) {
  return [&clock](Duration d) { clock.advance(d); };
}

LockConfig fast_config() {
  LockConfig c;
  c.retry.backoff_base = 0.01;
  c.retry.backoff_cap = 0.1;
  return c;
}

TEST(QuorumLockTest, SingleDeviceAcquiresAndReleases) {
  auto clouds = make_clouds(5);
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  ASSERT_TRUE(lock.acquire().is_ok());
  EXPECT_TRUE(lock.held());

  // Lock files visible on every cloud.
  for (const auto& c : clouds) {
    EXPECT_EQ(c->list("/lock").value().size(), 1u);
  }
  lock.release();
  EXPECT_FALSE(lock.held());
  for (const auto& c : clouds) {
    EXPECT_TRUE(c->list("/lock").value().empty());
  }
}

// The paper's lock cost, pinned without timing: at 5 clouds an uncontended
// acquire+release is 25 Web API calls, counted through MeteredCloud. Acquire
// plants a lock file, lists, and lists again on each cloud (15); release
// lists and removes on each cloud (10). A change that removes calls updates
// these numbers.
TEST(QuorumLockTest, UncontendedCycleCostsTwentyFiveWebApiCalls) {
  auto sink = std::make_shared<obs::Observability>();
  cloud::MultiCloud clouds;
  for (const auto& c : make_clouds(5)) {
    clouds.push_back(std::make_shared<cloud::MeteredCloud>(c, sink));
  }
  const auto calls = [&] {
    std::uint64_t n = 0;
    for (const auto& [name, value] : sink->metrics.snapshot().counters) {
      if (name.starts_with("cloud.") &&
          (name.ends_with(".ok") || name.ends_with(".err"))) {
        n += value;
      }
    }
    return n;
  };
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::uint64_t start = calls();
    ASSERT_TRUE(lock.acquire().is_ok());
    const std::uint64_t acquired = calls();
    lock.release();
    EXPECT_EQ(acquired - start, 15u) << "cycle " << cycle;
    EXPECT_EQ(calls() - acquired, 10u) << "cycle " << cycle;
  }
}

TEST(QuorumLockTest, AcquireIsIdempotentWhileHeld) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  ASSERT_TRUE(lock.acquire().is_ok());
  ASSERT_TRUE(lock.acquire().is_ok());
  lock.release();
}

TEST(QuorumLockTest, SecondDeviceBlockedWhileHeld) {
  auto clouds = make_clouds(5);
  ManualClock clock;
  QuorumLock lock_a(clouds, "devA", fast_config(), clock, Rng(1),
                    clock_sleep(clock));
  ASSERT_TRUE(lock_a.acquire().is_ok());

  LockConfig cfg_b = fast_config();
  cfg_b.retry.max_attempts = 3;
  QuorumLock lock_b(clouds, "devB", cfg_b, clock, Rng(2), clock_sleep(clock));
  const Status s = lock_b.acquire();
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kLockContention);
  EXPECT_FALSE(lock_b.held());

  // devB must have withdrawn its files.
  for (const auto& c : clouds) {
    for (const auto& f : c->list("/lock").value()) {
      EXPECT_EQ(f.name.find("lock_devB"), std::string::npos);
    }
  }
  lock_a.release();
  ASSERT_TRUE(lock_b.acquire().is_ok());
  lock_b.release();
}

TEST(QuorumLockTest, MutualExclusionUnderThreadContention) {
  auto clouds = make_clouds(5);
  std::atomic<int> in_critical{0};
  std::atomic<int> successes{0};
  std::atomic<bool> violated{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      ManualClock clock;  // per-thread local clock; protocol needs no sync
      LockConfig cfg = fast_config();
      cfg.retry.max_attempts = 200;
      // Real (short) sleep so contenders actually interleave.
      QuorumLock lock(clouds, "dev" + std::to_string(t), cfg, clock, Rng(t),
                      [](Duration d) {
                        std::this_thread::sleep_for(
                            std::chrono::duration<double>(d * 0.01));
                      });
      for (int round = 0; round < 3; ++round) {
        if (!lock.acquire().is_ok()) continue;
        const int inside = in_critical.fetch_add(1);
        if (inside != 0) violated = true;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        in_critical.fetch_sub(1);
        ++successes;
        lock.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(violated.load());
  EXPECT_GT(successes.load(), 0);
}

TEST(QuorumLockTest, StaleLockBrokenAfterThreshold) {
  auto clouds = make_clouds(5);
  ManualClock clock;

  // devA acquires and "crashes" (never refreshes, never releases).
  LockConfig cfg = fast_config();
  cfg.stale_after = 120.0;
  QuorumLock lock_a(clouds, "devA", cfg, clock, Rng(1), clock_sleep(clock));
  ASSERT_TRUE(lock_a.acquire().is_ok());

  // devB keeps trying; once the clock passes dT it must succeed by breaking
  // devA's stale lock files.
  LockConfig cfg_b = cfg;
  cfg_b.retry.max_attempts = 50;
  // Decorrelated jitter never sleeps less than the base, so each retry
  // advances the clock 30+ s.
  cfg_b.retry.backoff_base = 30.0;
  cfg_b.retry.backoff_cap = 60.0;
  QuorumLock lock_b(clouds, "devB", cfg_b, clock, Rng(2), clock_sleep(clock));
  ASSERT_TRUE(lock_b.acquire().is_ok());
  EXPECT_TRUE(lock_b.held());
  lock_b.release();
}

TEST(QuorumLockTest, RefreshKeepsLockAlive) {
  auto clouds = make_clouds(5);
  ManualClock clock;
  LockConfig cfg = fast_config();
  cfg.stale_after = 100.0;
  QuorumLock lock_a(clouds, "devA", cfg, clock, Rng(1), clock_sleep(clock));
  ASSERT_TRUE(lock_a.acquire().is_ok());

  LockConfig cfg_b = cfg;
  cfg_b.retry.max_attempts = 4;
  cfg_b.retry.backoff_base = 40.0;
  cfg_b.retry.backoff_cap = 41.0;
  QuorumLock lock_b(clouds, "devB", cfg_b, clock, Rng(2), clock_sleep(clock));

  // Interleave: devA refreshes every 40 simulated seconds via devB's backoff
  // loop. Run devB's acquisition in a thread? Simpler: manually alternate.
  for (int i = 0; i < 6; ++i) {
    clock.advance(40.0);
    ASSERT_TRUE(lock_a.refresh().is_ok());
    // devB attempts once (single round), must fail: devA's lock is fresh.
    LockConfig one_shot = cfg;
    one_shot.retry = RetryPolicy::single_shot();
    QuorumLock probe(clouds, "devB", one_shot, clock, Rng(3),
                     clock_sleep(clock));
    EXPECT_FALSE(probe.acquire().is_ok());
  }
  EXPECT_TRUE(lock_a.held());
  lock_a.release();
}

TEST(QuorumLockTest, AcquireFailsWhenMajorityDown) {
  auto raw = make_clouds(5);
  cloud::MultiCloud clouds;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto faulty =
        std::make_shared<cloud::FaultyCloud>(raw[i], cloud::FaultProfile{}, i);
    if (i < 3) faulty->set_outage(true);
    clouds.push_back(faulty);
  }
  ManualClock clock;
  LockConfig cfg = fast_config();
  cfg.retry.max_attempts = 10;
  QuorumLock lock(clouds, "devA", cfg, clock, Rng(1), clock_sleep(clock));
  const Status s = lock.acquire();
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOutage);
}

TEST(QuorumLockTest, AcquireSucceedsWithMinorityDown) {
  auto raw = make_clouds(5);
  cloud::MultiCloud clouds;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto faulty =
        std::make_shared<cloud::FaultyCloud>(raw[i], cloud::FaultProfile{}, i);
    if (i < 2) faulty->set_outage(true);
    clouds.push_back(faulty);
  }
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  EXPECT_TRUE(lock.acquire().is_ok());
  lock.release();
}

TEST(QuorumLockTest, AcquireToleratesTransientFailures) {
  auto raw = make_clouds(5);
  cloud::MultiCloud clouds;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    cloud::FaultProfile profile;
    profile.base_failure_rate = 0.2;
    clouds.push_back(
        std::make_shared<cloud::FaultyCloud>(raw[i], profile, 100 + i));
  }
  ManualClock clock;
  LockConfig cfg = fast_config();
  cfg.retry.max_attempts = 100;
  QuorumLock lock(clouds, "devA", cfg, clock, Rng(1), clock_sleep(clock));
  EXPECT_TRUE(lock.acquire().is_ok());
  lock.release();
}

TEST(QuorumLockTest, RefreshWithoutHoldingIsError) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  EXPECT_FALSE(lock.refresh().is_ok());
}

TEST(QuorumLockTest, ReleaseWithoutHoldingIsNoop) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  QuorumLock lock(clouds, "devA", fast_config(), clock, Rng(1),
                  clock_sleep(clock));
  lock.release();  // must not crash or throw
}

TEST(QuorumLockTest, BreakStaleOnlyAfterThreshold) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockConfig cfg = fast_config();
  cfg.stale_after = 100.0;
  QuorumLock observer(clouds, "obs", cfg, clock, Rng(1), clock_sleep(clock));

  // Plant a foreign lock file.
  ASSERT_TRUE(
      clouds[0]->upload("/lock/lock_ghost_1", ByteSpan(Bytes{})).is_ok());

  auto listing = clouds[0]->list("/lock").value();
  observer.break_stale_locks(*clouds[0], listing);  // first sight: recorded
  EXPECT_EQ(clouds[0]->list("/lock").value().size(), 1u);

  clock.advance(50.0);
  listing = clouds[0]->list("/lock").value();
  observer.break_stale_locks(*clouds[0], listing);  // still fresh
  EXPECT_EQ(clouds[0]->list("/lock").value().size(), 1u);

  clock.advance(60.0);  // total 110 > 100
  listing = clouds[0]->list("/lock").value();
  observer.break_stale_locks(*clouds[0], listing);
  EXPECT_TRUE(clouds[0]->list("/lock").value().empty());
}

}  // namespace
}  // namespace unidrive::lock
