// Cross-module integration tests: whole-client scenarios under injected
// faults — crashed lock holders, quota exhaustion, tampered blocks,
// concurrent devices, and real-disk folders.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cloud/faulty_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/quota_cloud.h"
#include "common/rng.h"
#include "core/client.h"
#include "lock/quorum_lock.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "workload/files.h"

namespace unidrive {
namespace {

using core::ClientConfig;
using core::MemoryLocalFs;
using core::UniDriveClient;

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

ClientConfig fast_config(const std::string& device) {
  ClientConfig config;
  config.device = device;
  config.theta = 64 << 10;
  config.lock.retry.backoff_base = 0.001;
  config.lock.retry.backoff_cap = 0.01;
  config.driver.connections_per_cloud = 2;
  return config;
}

// --- observability of a full round -------------------------------------------------

// One sync round over flaky clouds, verified through the public obs API: the
// per-cloud data-upload counters must account for every block the scheduler
// recorded, the quorum-lock acquisition must have left a span, and the
// injected failures must show up in the retry counters.
TEST(IntegrationTest, MetricsAccountForFullSyncRound) {
  auto raw = make_clouds(5);
  cloud::MultiCloud clouds;
  cloud::FaultProfile profile;
  profile.base_failure_rate = 0.25;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    clouds.push_back(std::make_shared<cloud::FaultyCloud>(
        raw[i], profile, /*seed=*/100 + i));
  }

  ClientConfig config = fast_config("devA");
  // Plenty of fast retries so the round completes despite the 25% failure
  // rate, and a breaker loose enough that no cloud trips mid-test.
  config.retry.max_attempts = 10;
  config.retry.backoff_base = 0.0005;
  config.retry.backoff_cap = 0.002;
  config.breaker.consecutive_failures_to_open = 50;
  config.breaker.window_failure_ratio_to_open = 0.95;

  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds, fs, config);
  Rng rng(21);
  const Bytes content = rng.bytes(150000);
  ASSERT_TRUE(fs->write("/observed", ByteSpan(content)).is_ok());
  auto report = client.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().committed);

  const obs::MetricsSnapshot& m = report.value().metrics;

  // Every block location recorded in the committed image corresponds to
  // exactly one successful data-area upload on that cloud — the metering
  // decorator sits below the retry layer, so retries never double-count.
  std::map<cloud::CloudId, std::uint64_t> blocks_per_cloud;
  std::uint64_t total_blocks = 0;
  for (const auto& [id, seg] : client.image().segments()) {
    for (const auto& loc : seg.blocks) {
      ++blocks_per_cloud[loc.cloud];
      ++total_blocks;
    }
  }
  ASSERT_GT(total_blocks, 0u);
  std::uint64_t uploaded_ok = 0;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    const std::string name = "cloud.cloud" + std::to_string(i);
    const std::uint64_t ok = m.counter_value(name + ".upload.data.ok");
    EXPECT_EQ(ok, blocks_per_cloud[static_cast<cloud::CloudId>(i)])
        << "cloud " << i;
    uploaded_ok += ok;
  }
  EXPECT_EQ(uploaded_ok, total_blocks);
  EXPECT_EQ(m.counter_value("sched.blocks.placed"), total_blocks);

  // The injected 25% failure rate must be visible as retries/attempt
  // inflation somewhere across the five clouds.
  std::uint64_t retries = 0;
  std::uint64_t attempts = 0;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    const std::string prefix = "retry.cloud" + std::to_string(i) + ".";
    retries += m.counter_value(prefix + "retries");
    attempts += m.counter_value(prefix + "attempts");
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(attempts, retries);

  // The commit went through the quorum lock, and the round left a root span.
  const obs::ObsPtr& sink = client.observability();
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(sink->tracer.find("lock.acquire").has_value());
  EXPECT_TRUE(sink->tracer.find("sync.round").has_value());
  EXPECT_TRUE(sink->tracer.find("meta.publish").has_value());
  EXPECT_GE(m.counter_value("lock.acquired"), 1u);
  EXPECT_GE(m.counter_value("sync.rounds"), 1u);

  // The snapshot serializes: the bench/CLI metrics.json path.
  const std::string json = obs::DumpJson(*sink);
  EXPECT_NE(json.find("sched.blocks.placed"), std::string::npos);
}

// --- crashed lock holder ---------------------------------------------------------

TEST(IntegrationTest, SyncRecoversFromCrashedLockHolder) {
  auto clouds = make_clouds(5);

  // A "crashed" device left its lock files behind and will never refresh.
  ManualClock dead_clock;
  lock::LockConfig dead_config;
  lock::QuorumLock dead_lock(clouds, "crashed-device", dead_config,
                             dead_clock, Rng(1),
                             [&dead_clock](Duration d) { dead_clock.advance(d); });
  ASSERT_TRUE(dead_lock.acquire().is_ok());
  // (no release, no refresh — the device is gone)

  // A healthy client with an aggressive staleness threshold must sync by
  // breaking the stale lock. Each backoff advances its clock past dT.
  ClientConfig config = fast_config("survivor");
  config.lock.stale_after = 0.5;
  config.lock.retry.backoff_base = 0.4;
  config.lock.retry.backoff_cap = 0.7;
  config.lock.retry.max_attempts = 30;
  auto fs = std::make_shared<MemoryLocalFs>();
  auto clock = std::make_shared<ManualClock>();
  // Client sleeps are real; use a thread-advancing manual clock via lock
  // config's sleep hook — the client uses real_sleep, so instead rely on
  // RealClock: stale_after 0.5 s with real backoffs ~0.4-0.7 s works.
  UniDriveClient client(clouds, fs, config);
  ASSERT_TRUE(fs->write("/f", ByteSpan(bytes_from_string("data"))).is_ok());
  auto report = client.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().committed);
}

// --- quota exhaustion --------------------------------------------------------------

TEST(IntegrationTest, SyncSurvivesOneCloudOutOfQuota) {
  auto raw = make_clouds(5);
  cloud::MultiCloud clouds;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i == 2) {
      // Cloud 2 can hold metadata-sized objects but no data blocks.
      clouds.push_back(std::make_shared<cloud::QuotaCloud>(raw[i], 4 << 10));
    } else {
      clouds.push_back(raw[i]);
    }
  }
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds, fs, fast_config("devA"));
  Rng rng(7);
  const Bytes content = rng.bytes(120000);
  ASSERT_TRUE(fs->write("/big", ByteSpan(content)).is_ok());
  auto report = client.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // The writer's upload driver disabled cloud 2 for the job and placed no
  // data block there.
  EXPECT_GE(client.observability()->metrics.snapshot().counter_value(
                "driver.cloud_disabled"),
            1u);
  for (const auto& [id, seg] : client.image().segments()) {
    for (const metadata::BlockLocation& loc : seg.blocks) {
      EXPECT_NE(loc.cloud, 2u) << "segment " << id;
    }
  }

  // A fresh device recovers the file without cloud 2's help.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(clouds, fs_b, fast_config("devB"));
  ASSERT_TRUE(reader.sync().is_ok());
  EXPECT_EQ(fs_b->read("/big").value(), content);
}

// --- tampered blocks ----------------------------------------------------------------

TEST(IntegrationTest, TamperedBlockDetectedAndRoutedAround) {
  auto clouds = make_clouds(5);
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient writer(clouds, fs, fast_config("devA"));
  Rng rng(8);
  const Bytes content = rng.bytes(90000);
  ASSERT_TRUE(fs->write("/precious", ByteSpan(content)).is_ok());
  ASSERT_TRUE(writer.sync().is_ok());

  // Corrupt EVERY stored block on cloud 0 (silent bit rot / malicious CCS).
  auto* evil = static_cast<cloud::MemoryCloud*>(clouds[0].get());
  auto listing = evil->list("/data");
  ASSERT_TRUE(listing.is_ok());
  for (const auto& f : listing.value()) {
    auto data = evil->download("/data/" + f.name);
    ASSERT_TRUE(data.is_ok());
    Bytes garbled = data.value();
    for (std::size_t i = 0; i < garbled.size(); i += 97) garbled[i] ^= 0xA5;
    ASSERT_TRUE(evil->upload("/data/" + f.name, ByteSpan(garbled)).is_ok());
  }

  // A fresh reader must still produce bit-exact content (the integrity
  // check rejects combinations containing the tampered shard and the
  // client decodes from other blocks).
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(clouds, fs_b, fast_config("devB"));
  auto report = reader.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(fs_b->read("/precious").value(), content);
}

TEST(IntegrationTest, AllBlocksTamperedFailsLoudly) {
  auto clouds = make_clouds(5);
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient writer(clouds, fs, fast_config("devA"));
  Rng rng(9);
  ASSERT_TRUE(fs->write("/f", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(writer.sync().is_ok());

  for (const auto& c : clouds) {
    auto* memory = static_cast<cloud::MemoryCloud*>(c.get());
    auto listing = memory->list("/data");
    ASSERT_TRUE(listing.is_ok());
    for (const auto& f : listing.value()) {
      auto data = memory->download("/data/" + f.name);
      Bytes garbled = data.value();
      garbled[0] ^= 0xFF;
      ASSERT_TRUE(memory->upload("/data/" + f.name, ByteSpan(garbled)).is_ok());
    }
  }

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(clouds, fs_b, fast_config("devB"));
  const auto report = reader.sync();
  // The sync must fail with a corruption error — never write garbage.
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kCorrupt);
  EXPECT_EQ(fs_b->read("/f").code(), ErrorCode::kNotFound);
}

// --- concurrent devices ---------------------------------------------------------------

TEST(IntegrationTest, ConcurrentClientsOnDistinctFilesBothCommit) {
  auto clouds = make_clouds(5);
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, fast_config("devA"));
  UniDriveClient b(clouds, fs_b, fast_config("devB"));

  Rng rng(10);
  ASSERT_TRUE(fs_a->write("/from_a", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(fs_b->write("/from_b", ByteSpan(rng.bytes(30000))).is_ok());

  std::atomic<bool> ok_a{false}, ok_b{false};
  std::thread ta([&] { ok_a = a.sync().is_ok(); });
  std::thread tb([&] { ok_b = b.sync().is_ok(); });
  ta.join();
  tb.join();
  EXPECT_TRUE(ok_a.load());
  EXPECT_TRUE(ok_b.load());

  // Another round each; both folders converge to both files.
  ASSERT_TRUE(a.sync().is_ok());
  ASSERT_TRUE(b.sync().is_ok());
  EXPECT_TRUE(fs_a->read("/from_b").is_ok());
  EXPECT_TRUE(fs_b->read("/from_a").is_ok());
}

TEST(IntegrationTest, ManyRoundsRandomOpsConverge) {
  // Randomized soak: two devices make random adds/edits/deletes and sync in
  // random order; after a final settle round, folders and metadata agree.
  auto clouds = make_clouds(5);
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, fast_config("devA"));
  UniDriveClient b(clouds, fs_b, fast_config("devB"));
  Rng rng(11);

  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 3; ++op) {
      auto& fs = rng.bernoulli(0.5) ? fs_a : fs_b;
      const std::string path = "/f" + std::to_string(rng.next_below(6));
      if (rng.bernoulli(0.25) && fs->read(path).is_ok()) {
        ASSERT_TRUE(fs->remove(path).is_ok());
      } else {
        ASSERT_TRUE(fs->write(path, ByteSpan(rng.bytes(
                                  1000 + rng.next_below(40000)))).is_ok());
      }
    }
    if (rng.bernoulli(0.5)) {
      ASSERT_TRUE(a.sync().is_ok());
      ASSERT_TRUE(b.sync().is_ok());
    } else {
      ASSERT_TRUE(b.sync().is_ok());
      ASSERT_TRUE(a.sync().is_ok());
    }
  }
  // Settle: a full extra round with no new edits.
  ASSERT_TRUE(a.sync().is_ok());
  ASSERT_TRUE(b.sync().is_ok());
  ASSERT_TRUE(a.sync().is_ok());

  const auto files_a = fs_a->list_files();
  const auto files_b = fs_b->list_files();
  EXPECT_EQ(files_a, files_b);
  for (const std::string& path : files_a) {
    EXPECT_EQ(fs_a->read(path).value(), fs_b->read(path).value()) << path;
  }
  // Metadata invariant: refcount rebuild is a no-op on the committed image.
  metadata::SyncFolderImage copy = a.image();
  copy.rebuild_refcounts();
  EXPECT_TRUE(copy == a.image());
}

// --- real disk ------------------------------------------------------------------------

TEST(IntegrationTest, DiskBackedClientsRoundTrip) {
  const auto root =
      std::filesystem::temp_directory_path() / "unidrive_integration";
  std::filesystem::remove_all(root);

  auto clouds = make_clouds(5);
  auto fs_a = std::make_shared<core::DiskLocalFs>((root / "a").string());
  auto fs_b = std::make_shared<core::DiskLocalFs>((root / "b").string());
  UniDriveClient a(clouds, fs_a, fast_config("devA"));
  UniDriveClient b(clouds, fs_b, fast_config("devB"));

  Rng rng(12);
  const Bytes content = rng.bytes(150000);
  ASSERT_TRUE(fs_a->write("/nested/dir/file.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a.sync().is_ok());
  ASSERT_TRUE(b.sync().is_ok());
  EXPECT_EQ(fs_b->read("/nested/dir/file.bin").value(), content);

  ASSERT_TRUE(fs_b->remove("/nested/dir/file.bin").is_ok());
  ASSERT_TRUE(b.sync().is_ok());
  ASSERT_TRUE(a.sync().is_ok());
  EXPECT_EQ(fs_a->read("/nested/dir/file.bin").code(), ErrorCode::kNotFound);

  std::filesystem::remove_all(root);
}

// --- client restart (state persistence) -----------------------------------------------

TEST(IntegrationTest, RestartedClientDoesNotConflictWithItself) {
  const auto state_dir =
      std::filesystem::temp_directory_path() / "unidrive_state_test";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  auto clouds = make_clouds(5);
  auto fs = std::make_shared<MemoryLocalFs>();
  ClientConfig config = fast_config("devA");
  config.state_file = (state_dir / "client.state").string();

  {
    UniDriveClient client(clouds, fs, config);
    ASSERT_TRUE(fs->write("/f", ByteSpan(bytes_from_string("v1"))).is_ok());
    ASSERT_TRUE(client.sync().is_ok());
  }  // process "exits"

  // New process: edits the file and syncs. Without persisted state this
  // would manufacture a self-conflict (local edit vs "unknown" cloud file).
  {
    UniDriveClient client(clouds, fs, config);
    ASSERT_TRUE(fs->write("/f", ByteSpan(bytes_from_string("v2"))).is_ok());
    auto report = client.sync();
    ASSERT_TRUE(report.is_ok());
    EXPECT_TRUE(report.value().conflicts.empty());
    EXPECT_TRUE(report.value().committed);
    // The superseded v1 is in the history, like in a long-lived client.
    EXPECT_EQ(client.file_history("/f").size(), 1u);
  }

  // Corrupt state files are discarded, not trusted.
  {
    std::ofstream out(config.state_file, std::ios::trunc);
    out << "garbage";
  }
  {
    UniDriveClient client(clouds, fs, config);
    auto report = client.sync();  // falls back to a cloud fetch; may
                                  // produce a (harmless) self-merge
    EXPECT_TRUE(report.is_ok());
  }
  std::filesystem::remove_all(state_dir);
}

// --- add/remove cloud under data -----------------------------------------------------

TEST(IntegrationTest, MembershipChangeWithoutLocalCopyRepairsFromClouds) {
  // An administering device with an EMPTY folder removes a cloud: moved
  // blocks must be reconstructed by fetching + decoding from the surviving
  // clouds (the repair path), not from local files it does not have.
  auto clouds = make_clouds(5);
  {
    auto fs = std::make_shared<MemoryLocalFs>();
    UniDriveClient writer(clouds, fs, fast_config("writer"));
    Rng rng(21);
    ASSERT_TRUE(fs->write("/payload", ByteSpan(rng.bytes(120000))).is_ok());
    ASSERT_TRUE(writer.sync().is_ok());
  }

  auto admin_fs = std::make_shared<MemoryLocalFs>();  // stays empty
  UniDriveClient admin(clouds, admin_fs, fast_config("admin"));
  // Do NOT sync (no local copy); administer membership directly.
  ASSERT_TRUE(admin.remove_cloud(4).is_ok());

  // Data is still recoverable from the 4 remaining clouds — even with one
  // of them additionally down (Kr = 3).
  cloud::MultiCloud degraded;
  for (const auto& c : admin.clouds()) {
    auto faulty =
        std::make_shared<cloud::FaultyCloud>(c, cloud::FaultProfile{}, 1);
    if (c->id() == 0) faulty->set_outage(true);
    degraded.push_back(faulty);
  }
  auto reader_fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(degraded, reader_fs, fast_config("reader"));
  ASSERT_TRUE(reader.sync().is_ok());
  EXPECT_TRUE(reader_fs->read("/payload").is_ok());
}

TEST(IntegrationTest, MembershipChurnKeepsDataRecoverable) {
  auto clouds = make_clouds(5);
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds, fs, fast_config("devA"));
  Rng rng(13);
  const Bytes content = rng.bytes(200000);
  ASSERT_TRUE(fs->write("/data", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client.sync().is_ok());

  // Remove cloud 1, add cloud 5, remove cloud 3 — data must survive all.
  ASSERT_TRUE(client.remove_cloud(1).is_ok());
  ASSERT_TRUE(client
                  .add_cloud(std::make_shared<cloud::MemoryCloud>(5, "fresh"))
                  .is_ok());
  ASSERT_TRUE(client.remove_cloud(3).is_ok());

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(client.clouds(), fs_b, fast_config("devB"));
  ASSERT_TRUE(reader.sync().is_ok());
  EXPECT_EQ(fs_b->read("/data").value(), content);

  // Security invariant still holds on the new membership.
  const auto params = reader.code_params();
  for (const auto& [id, seg] : reader.image().segments()) {
    std::map<cloud::CloudId, std::size_t> per_cloud;
    for (const auto& b : seg.blocks) ++per_cloud[b.cloud];
    for (const auto& [c, n] : per_cloud) {
      EXPECT_LE(n, params.max_per_cloud()) << "segment " << id;
    }
  }
}

}  // namespace
}  // namespace unidrive
