// Chaos tests: multi-client sync against flapping, hanging, tearing and
// dead clouds, on a shared manual clock so breaker probe timers are driven
// deterministically. These exercise the whole resilience stack end to end:
// RetryPolicy backoff, the shared CloudHealthRegistry, degraded-mode sync
// and half-open re-admission of recovered clouds.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/faulty_cloud.h"
#include "cloud/health.h"
#include "cloud/memory_cloud.h"
#include "common/clock.h"
#include "common/rng.h"
#include "test_seed.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "core/sync_daemon.h"
#include "metadata/types.h"
#include "repair/service.h"

UNIDRIVE_REGISTER_SEED_LISTENER()

namespace unidrive::core {
namespace {

using unidrive::testing::test_seed;

struct ChaosClouds {
  cloud::MultiCloud clouds;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faulty;
};

// `n` MemoryClouds each wrapped in a FaultyCloud whose hangs advance the
// shared manual clock instead of stalling the test.
ChaosClouds make_chaos_clouds(int n, ManualClock& clock) {
  ChaosClouds out;
  for (int i = 0; i < n; ++i) {
    auto memory = std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i));
    auto faulty = std::make_shared<cloud::FaultyCloud>(
        memory, cloud::FaultProfile{}, test_seed(1000) + static_cast<std::uint64_t>(i),
        [&clock](Duration d) { clock.advance(d); });
    out.faulty.push_back(faulty);
    out.clouds.push_back(faulty);
  }
  return out;
}

ClientConfig chaos_config(const std::string& device, ManualClock& clock) {
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;
  cfg.driver.connections_per_cloud = 2;
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base = 0.001;
  cfg.retry.backoff_cap = 0.01;
  cfg.breaker.consecutive_failures_to_open = 3;
  cfg.breaker.open_duration = 300.0;
  // All pauses advance the shared clock; nothing in these tests sleeps for
  // real, so breaker timers only move when the test says so (backoff sums
  // stay far below open_duration).
  cfg.sleep = [&clock](Duration d) { clock.advance(d); };
  return cfg;
}

Bytes payload(Rng& rng, std::size_t n) { return rng.bytes(n); }

TEST(ChaosTest, PermanentOutageCostsOneCycleThenFailsFastAcrossRounds) {
  ManualClock clock;
  ChaosClouds cc = make_chaos_clouds(5, clock);
  cc.faulty[0]->set_outage(true);  // permanent until further notice

  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(cc.clouds, fs, chaos_config("devA", clock), clock,
                        Rng(test_seed(11)));
  Rng rng(test_seed(21));

  // Round 1 pays the discovery cost: requests against cloud 0 until its
  // breaker trips, then the round completes on the remaining 4 clouds.
  ASSERT_TRUE(fs->write("/f1", ByteSpan(payload(rng, 50000))).is_ok());
  auto r1 = client.sync();
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  EXPECT_TRUE(r1.value().committed);
  EXPECT_TRUE(r1.value().degraded);
  EXPECT_EQ(client.health()->state(0), cloud::BreakerState::kOpen);
  EXPECT_GT(cc.faulty[0]->requests(), 0u);

  // Rounds 2-4: the breaker is open and its probe timer has not expired
  // (the clock only moves by sub-second backoffs), so the dead cloud gets
  // ZERO requests — not one retry cycle per call, not even one per round.
  for (int round = 2; round <= 4; ++round) {
    const std::uint64_t before = cc.faulty[0]->requests();
    const std::string path = "/f" + std::to_string(round);
    ASSERT_TRUE(fs->write(path, ByteSpan(payload(rng, 40000))).is_ok());
    auto r = client.sync();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_TRUE(r.value().committed);
    EXPECT_TRUE(r.value().degraded);
    EXPECT_EQ(cc.faulty[0]->requests(), before)
        << "open breaker must fail fast in round " << round;
  }

  // The cloud recovers; once the probe timer expires the next round's
  // first request is the probe, it succeeds, and the cloud is re-admitted.
  cc.faulty[0]->set_outage(false);
  clock.advance(301.0);
  const std::uint64_t before_recovery = cc.faulty[0]->requests();
  ASSERT_TRUE(fs->write("/f5", ByteSpan(payload(rng, 40000))).is_ok());
  auto r5 = client.sync();
  ASSERT_TRUE(r5.is_ok()) << r5.status().to_string();
  EXPECT_GT(cc.faulty[0]->requests(), before_recovery);
  EXPECT_EQ(client.health()->state(0), cloud::BreakerState::kClosed);
  EXPECT_FALSE(r5.value().degraded);

  // Nothing was lost along the way.
  for (int i = 1; i <= 5; ++i) {
    EXPECT_NE(client.image().find_file("/f" + std::to_string(i)), nullptr);
  }
}

TEST(ChaosTest, FlappingAndTearingCloudsConvergeWithoutFabricatedConflicts) {
  ManualClock clock;
  ChaosClouds cc = make_chaos_clouds(5, clock);
  {
    cloud::FaultProfile flappy;
    flappy.base_failure_rate = 0.25;
    cc.faulty[1]->set_profile(flappy);
    cloud::FaultProfile torn;
    torn.torn_upload_rate = 0.2;
    cc.faulty[3]->set_profile(torn);
  }

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(cc.clouds, fs_a, chaos_config("devA", clock), clock,
                   Rng(test_seed(31)));
  UniDriveClient b(cc.clouds, fs_b, chaos_config("devB", clock), clock,
                   Rng(test_seed(32)));
  Rng rng(test_seed(41));

  // Per-device DISTINCT paths: any conflict the merge reports would be
  // fabricated by the chaos, not by concurrent edits.
  std::size_t fabricated_conflicts = 0;
  const auto settle = [&](UniDriveClient& c) {
    for (int tries = 0; tries < 8; ++tries) {
      auto r = c.sync();
      if (r.is_ok()) {
        fabricated_conflicts += r.value().conflicts.size();
        return true;
      }
    }
    return false;
  };

  for (int round = 0; round < 4; ++round) {
    const std::string suffix = std::to_string(round);
    ASSERT_TRUE(
        fs_a->write("/a_" + suffix, ByteSpan(payload(rng, 30000))).is_ok());
    ASSERT_TRUE(settle(a));
    ASSERT_TRUE(
        fs_b->write("/b_" + suffix, ByteSpan(payload(rng, 30000))).is_ok());
    ASSERT_TRUE(settle(b));
  }
  EXPECT_EQ(fabricated_conflicts, 0u);

  // Quiet the chaos, let any tripped breaker's timer expire, and give each
  // device a final round to pull what it is missing.
  for (auto& f : cc.faulty) f->set_profile(cloud::FaultProfile{});
  clock.advance(301.0);
  ASSERT_TRUE(settle(a));
  ASSERT_TRUE(settle(b));
  ASSERT_TRUE(settle(a));
  EXPECT_EQ(fabricated_conflicts, 0u);

  // Both replicas hold all 8 files with identical content.
  for (int round = 0; round < 4; ++round) {
    for (const std::string prefix : {"/a_", "/b_"}) {
      const std::string path = prefix + std::to_string(round);
      auto from_a = fs_a->read(path);
      auto from_b = fs_b->read(path);
      ASSERT_TRUE(from_a.is_ok()) << path << " missing on devA";
      ASSERT_TRUE(from_b.is_ok()) << path << " missing on devB";
      EXPECT_EQ(from_a.value(), from_b.value()) << path;
    }
  }
  EXPECT_EQ(a.image().version(), b.image().version());
}

TEST(ChaosTest, HangingCloudIsTimedOutAndSyncStillCompletes) {
  ManualClock clock;
  ChaosClouds cc = make_chaos_clouds(5, clock);
  {
    cloud::FaultProfile hangy;
    hangy.hang_rate = 1.0;
    hangy.hang_seconds = 60.0;  // every request stalls a virtual minute
    cc.faulty[2]->set_profile(hangy);
  }

  // Every cloud call reads the one shared clock, and a hang advances it by
  // a virtual minute. On a wider pool the other clouds' fanned-out calls
  // would be in flight while it does, and would read past their own 5-s
  // deadline. One pool thread per client runs one call at a time, so
  // virtual time moves only under the hanging call.
  auto fs = std::make_shared<MemoryLocalFs>();
  ClientConfig cfg = chaos_config("devA", clock);
  cfg.retry.attempt_deadline = 5.0;  // give up on stalled requests
  cfg.breaker.open_duration = 100000.0;  // hangs advance the clock a lot
  cfg.pipeline.threads = 1;
  UniDriveClient client(cc.clouds, fs, cfg, clock, Rng(test_seed(51)));
  Rng rng(test_seed(61));

  const Bytes content = payload(rng, 60000);
  ASSERT_TRUE(fs->write("/slow", ByteSpan(content)).is_ok());
  auto report = client.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
  EXPECT_TRUE(report.value().degraded);  // the hanging cloud tripped
  EXPECT_EQ(client.health()->state(2), cloud::BreakerState::kOpen);
  EXPECT_GE(cc.faulty[2]->hangs(), 1u);

  // A fresh device (its own registry, same hostile cloud) still recovers
  // the file: it pays its own discovery cost, then routes around.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  ClientConfig cfg_b = chaos_config("devB", clock);
  cfg_b.retry.attempt_deadline = 5.0;
  cfg_b.breaker.open_duration = 100000.0;
  cfg_b.pipeline.threads = 1;
  UniDriveClient reader(cc.clouds, fs_b, cfg_b, clock, Rng(test_seed(52)));
  auto r = reader.sync();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(fs_b->read("/slow").value(), content);
}

// The scrub-and-repair maintenance loop running inside device A's daemon,
// concurrent with device B's foreground sync, while clouds silently rot and
// drop blocks AND flake transiently. The daemon thread and the main thread
// contend for the quorum lock (repair placement commits vs foreground file
// commits); nothing may be lost and redundancy must be fully restored once
// the chaos quiets.
TEST(ChaosTest, ScrubAndRepairHealSilentDefectsUnderConcurrentSync) {
  ManualClock clock;
  ChaosClouds cc = make_chaos_clouds(5, clock);
  {
    cloud::FaultProfile flappy;  // honest transient failures
    flappy.base_failure_rate = 0.1;
    cc.faulty[0]->set_profile(flappy);
    cloud::FaultProfile rotten;  // silent same-size corruption
    rotten.bitrot_rate = 0.2;
    cc.faulty[3]->set_profile(rotten);
    cloud::FaultProfile leaky;  // uploads report OK, store nothing
    leaky.block_loss_rate = 0.2;
    cc.faulty[1]->set_profile(leaky);
  }

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(cc.clouds, fs_a, chaos_config("devA", clock), clock,
                   Rng(test_seed(71)));
  UniDriveClient b(cc.clouds, fs_b, chaos_config("devB", clock), clock,
                   Rng(test_seed(72)));

  repair::RepairServiceConfig repair_cfg;
  repair_cfg.scrub.deep_verify_segments = 16;  // whole pool, every pass
  repair_cfg.scrub.cloud_lost_after_passes = 1000;  // outages here are
                                                    // transient: never rehome
  auto service = std::make_shared<repair::RepairService>(a, repair_cfg);
  core::DaemonConfig daemon_cfg;
  daemon_cfg.sync_interval = 0.01;
  daemon_cfg.maintenance = service;
  core::SyncDaemon daemon(a, daemon_cfg);
  daemon.start();

  // Foreground churn on B while A's daemon syncs and scrubs concurrently.
  Rng rng(test_seed(81));
  std::size_t fabricated_conflicts = 0;
  const auto settle = [&](UniDriveClient& c) {
    for (int tries = 0; tries < 8; ++tries) {
      auto r = c.sync();
      if (r.is_ok()) {
        fabricated_conflicts += r.value().conflicts.size();
        return true;
      }
    }
    return false;
  };
  for (int round = 0; round < 3; ++round) {
    const std::string suffix = std::to_string(round);
    ASSERT_TRUE(
        fs_a->write("/a_" + suffix, ByteSpan(payload(rng, 30000))).is_ok());
    ASSERT_TRUE(
        fs_b->write("/b_" + suffix, ByteSpan(payload(rng, 30000))).is_ok());
    ASSERT_TRUE(settle(b));
  }

  // On top of the probabilistic injection, guarantee at least one loss and
  // one rot against committed placements of B's image.
  bool dropped = false, rotted = false;
  for (const auto& [id, seg] : b.image().segments()) {
    if (seg.refcount == 0) continue;
    for (const metadata::BlockLocation& loc : seg.blocks) {
      if (!dropped && loc.cloud == 2) {
        ASSERT_TRUE(
            cc.faulty[2]->drop_stored(metadata::block_path(id, loc.block_index))
                .is_ok());
        dropped = true;
      } else if (!rotted && loc.cloud == 4) {
        ASSERT_TRUE(
            cc.faulty[4]->rot_stored(metadata::block_path(id, loc.block_index))
                .is_ok());
        rotted = true;
      }
    }
  }
  ASSERT_TRUE(dropped);
  ASSERT_TRUE(rotted);

  // Quiet the chaos and let the maintenance loop drain the defect ledger:
  // every injected defect healed, nothing left in the backlog.
  for (auto& f : cc.faulty) f->set_profile(cloud::FaultProfile{});
  clock.advance(301.0);  // any open breaker may probe again
  bool drained = false;
  for (int i = 0; i < 1000 && !drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    drained = service->totals().blocks_healed >= 2 &&
              a.durability()->backlog() == 0;
  }
  daemon.stop();
  ASSERT_TRUE(drained) << "backlog " << a.durability()->backlog()
                       << ", healed " << service->totals().blocks_healed;
  EXPECT_GT(daemon.stats().maintenance_slices, 0u);
  EXPECT_EQ(daemon.stats().maintenance_errors, 0u);
  EXPECT_GE(service->totals().scrub_passes, 1u);

  // Convergence: a final quiet round each way, then both replicas hold all
  // six files with identical content and no conflict was fabricated.
  ASSERT_TRUE(settle(b));
  auto ra = daemon.sync_once();
  ASSERT_TRUE(ra.is_ok()) << ra.status().to_string();
  ASSERT_TRUE(settle(b));
  EXPECT_EQ(fabricated_conflicts, 0u);
  for (int round = 0; round < 3; ++round) {
    for (const std::string prefix : {"/a_", "/b_"}) {
      const std::string path = prefix + std::to_string(round);
      auto from_a = fs_a->read(path);
      auto from_b = fs_b->read(path);
      ASSERT_TRUE(from_a.is_ok()) << path << " missing on devA";
      ASSERT_TRUE(from_b.is_ok()) << path << " missing on devB";
      EXPECT_EQ(from_a.value(), from_b.value()) << path;
    }
  }

  // Durability ground truth: a fresh device with an empty folder restores
  // every file from the (healed) clouds alone.
  auto fs_c = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(cc.clouds, fs_c, chaos_config("devC", clock), clock,
                        Rng(test_seed(73)));
  ASSERT_TRUE(settle(reader));
  for (int round = 0; round < 3; ++round) {
    for (const std::string prefix : {"/a_", "/b_"}) {
      const std::string path = prefix + std::to_string(round);
      ASSERT_TRUE(fs_c->read(path).is_ok()) << path << " unrestorable";
      EXPECT_EQ(fs_c->read(path).value(), fs_b->read(path).value()) << path;
    }
  }
}

}  // namespace
}  // namespace unidrive::core
