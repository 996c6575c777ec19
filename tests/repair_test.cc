// Scrub-and-repair subsystem tests: silent-defect detection (block loss,
// bit-rot), budget-bounded healing back to full redundancy, quarantined
// orphan collection, cloud-lost re-homing, and the durability floor in
// SyncReport.degraded — all against MemoryClouds wrapped in FaultyCloud so
// defects are injected deterministically behind the provider's back.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/faulty_cloud.h"
#include "cloud/health.h"
#include "cloud/memory_cloud.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "core/sync_daemon.h"
#include "crypto/convergent.h"
#include "metadata/types.h"
#include "repair/engine.h"
#include "repair/scrubber.h"
#include "repair/service.h"

namespace unidrive::repair {
namespace {

using core::ClientConfig;
using core::MemoryLocalFs;
using core::UniDriveClient;

// 5 MemoryClouds, each wrapped in a FaultyCloud (zero rates — faults are
// injected deterministically via rot_stored/drop_stored/set_outage), a
// manual clock driving every sleep, and one client over the lot.
struct Rig {
  ManualClock clock;
  std::vector<std::shared_ptr<cloud::MemoryCloud>> memory;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faulty;
  std::shared_ptr<MemoryLocalFs> fs;
  std::unique_ptr<UniDriveClient> client;
};

std::unique_ptr<Rig> make_rig(int n = 5, const std::string& device = "dev") {
  auto rig = std::make_unique<Rig>();
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    auto memory = std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i));
    auto faulty = std::make_shared<cloud::FaultyCloud>(
        memory, cloud::FaultProfile{}, 500 + static_cast<std::uint64_t>(i),
        [clock = &rig->clock](Duration d) { clock->advance(d); });
    rig->memory.push_back(memory);
    rig->faulty.push_back(faulty);
    clouds.push_back(faulty);
  }
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base = 0.001;
  cfg.retry.backoff_cap = 0.01;
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.breaker.consecutive_failures_to_open = 3;
  cfg.breaker.open_duration = 300.0;
  cfg.sleep = [clock = &rig->clock](Duration d) { clock->advance(d); };
  rig->fs = std::make_shared<MemoryLocalFs>();
  rig->client = std::make_unique<UniDriveClient>(clouds, rig->fs, cfg,
                                                 rig->clock, Rng(7));
  return rig;
}

// Ground truth: every referenced placement must hold exactly its
// re-encoded codeword row (checked against the RAW memory clouds, so no
// decorator can mask a defect).
void expect_all_blocks_intact(Rig& rig) {
  const metadata::SyncFolderImage image = rig.client->image();
  const erasure::RsCode code = rig.client->codec();
  for (const auto& [id, seg] : image.segments()) {
    if (seg.refcount == 0) continue;
    auto plain = rig.client->reconstruct_segment(id, {});
    ASSERT_TRUE(plain.is_ok()) << "segment " << id << " unreconstructable";
    for (const metadata::BlockLocation& loc : seg.blocks) {
      auto stored = rig.memory[loc.cloud]->download(
          metadata::block_path(id, loc.block_index));
      ASSERT_TRUE(stored.is_ok())
          << "block " << metadata::block_name(id, loc.block_index)
          << " absent from cloud " << loc.cloud;
      const unidrive::Bytes sealed =
          crypto::convergent_seal(id, ByteSpan(plain.value()));
      const auto expected =
          code.encode_shards(ByteSpan(sealed), {loc.block_index});
      EXPECT_EQ(stored.value(), expected.front().data)
          << "block " << metadata::block_name(id, loc.block_index)
          << " on cloud " << loc.cloud << " does not match its codeword";
    }
  }
}

// First referenced placement of any live segment on cloud `cloud_id`.
metadata::BlockLocation placement_on(const metadata::SyncFolderImage& image,
                                     cloud::CloudId cloud_id,
                                     std::string* segment_id) {
  for (const auto& [id, seg] : image.segments()) {
    if (seg.refcount == 0) continue;
    for (const metadata::BlockLocation& loc : seg.blocks) {
      if (loc.cloud == cloud_id) {
        *segment_id = id;
        return loc;
      }
    }
  }
  ADD_FAILURE() << "no placement on cloud " << cloud_id;
  return {};
}

TEST(RepairScrubTest, DetectsSilentLossAndBitRot) {
  auto rig = make_rig();
  ASSERT_TRUE(rig->fs->write("/a", ByteSpan(Rng(1).bytes(150 << 10))).is_ok());
  ASSERT_TRUE(rig->client->sync().is_ok());

  // Silent defects behind the provider's back: one block vanishes from
  // cloud 1, one rots (same size, flipped byte) on cloud 3.
  std::string lost_seg;
  const metadata::BlockLocation lost =
      placement_on(rig->client->image(), 1, &lost_seg);
  ASSERT_TRUE(rig->faulty[1]
                  ->drop_stored(metadata::block_path(lost_seg, lost.block_index))
                  .is_ok());
  std::string rot_seg;
  const metadata::BlockLocation rotted =
      placement_on(rig->client->image(), 3, &rot_seg);
  ASSERT_TRUE(rig->faulty[3]
                  ->rot_stored(metadata::block_path(rot_seg, rotted.block_index))
                  .is_ok());
  EXPECT_EQ(rig->faulty[1]->lost_blocks(), 1u);
  EXPECT_EQ(rig->faulty[3]->bitrots(), 1u);

  ScrubConfig scrub_cfg;
  scrub_cfg.deep_verify_segments = 64;  // cover the whole pool in one pass
  Scrubber scrubber(*rig->client, rig->client->durability(), scrub_cfg);
  const ScrubReport report = scrubber.run_pass();

  EXPECT_EQ(report.clouds_probed, 5u);
  EXPECT_GT(report.blocks_probed, 0u);
  EXPECT_GE(report.missing, 1u);
  EXPECT_GE(report.corrupt, 1u);
  const auto& tracker = rig->client->durability();
  EXPECT_EQ(tracker->defect_kind(lost_seg, lost.block_index, 1),
            DefectKind::kMissingBlock);
  EXPECT_EQ(tracker->defect_kind(rot_seg, rotted.block_index, 3),
            DefectKind::kCorruptBlock);

  // Idempotent: a second pass re-sights but records nothing new.
  const ScrubReport again = scrubber.run_pass();
  EXPECT_EQ(again.missing, 0u);
  EXPECT_EQ(again.corrupt, 0u);
}

TEST(RepairEngineTest, RestoresFullRedundancyAndObservesMttr) {
  auto rig = make_rig();
  ASSERT_TRUE(rig->fs->write("/a", ByteSpan(Rng(2).bytes(150 << 10))).is_ok());
  ASSERT_TRUE(rig->client->sync().is_ok());

  std::string lost_seg;
  const metadata::BlockLocation lost =
      placement_on(rig->client->image(), 1, &lost_seg);
  ASSERT_TRUE(rig->faulty[1]
                  ->drop_stored(metadata::block_path(lost_seg, lost.block_index))
                  .is_ok());
  std::string rot_seg;
  const metadata::BlockLocation rotted =
      placement_on(rig->client->image(), 3, &rot_seg);
  ASSERT_TRUE(rig->faulty[3]
                  ->rot_stored(metadata::block_path(rot_seg, rotted.block_index))
                  .is_ok());

  ScrubConfig scrub_cfg;
  scrub_cfg.deep_verify_segments = 64;
  Scrubber scrubber(*rig->client, rig->client->durability(), scrub_cfg);
  (void)scrubber.run_pass();
  ASSERT_GE(rig->client->durability()->backlog(), 2u);
  rig->clock.advance(42.0);  // detection -> heal gap feeds the MTTR sample

  RepairEngine engine(*rig->client, rig->client->durability(), RepairConfig{});
  const RepairOutcome outcome = engine.run_slice(100);
  EXPECT_GE(outcome.blocks_healed, 2u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.unrecoverable, 0u);
  EXPECT_EQ(rig->client->durability()->backlog(), 0u);

  // Every placement — including the two repaired ones — holds its exact
  // codeword again, and a fresh scrub finds nothing.
  expect_all_blocks_intact(*rig);
  const ScrubReport clean = scrubber.run_pass();
  EXPECT_EQ(clean.missing + clean.corrupt + clean.cloud_lost, 0u);

  const auto metrics = rig->client->observability()->metrics.snapshot();
  EXPECT_GE(metrics.counter_value("repair.blocks_healed"), 2u);
  const auto mttr = metrics.histograms.find("repair.mttr");
  ASSERT_NE(mttr, metrics.histograms.end());
  EXPECT_GE(mttr->second.count, 2u);
  EXPECT_GE(mttr->second.max, 42.0);
}

TEST(RepairEngineTest, DurabilityFloorTripsDegradedAndRepairClearsIt) {
  auto rig = make_rig();
  ASSERT_TRUE(rig->fs->write("/a", ByteSpan(Rng(3).bytes(40 << 10))).is_ok());
  auto healthy = rig->client->sync();
  ASSERT_TRUE(healthy.is_ok());
  EXPECT_FALSE(healthy.value().degraded);
  EXPECT_EQ(healthy.value().durability.under_replicated, 0u);

  // Erode one segment down to exactly k distinct surviving indices: with
  // the default floor of 1 that is under-replicated (degraded) but still
  // recoverable. All breakers stay closed — this is pure data erosion.
  const metadata::SyncFolderImage image = rig->client->image();
  ASSERT_FALSE(image.segments().empty());
  const metadata::SegmentInfo& seg = image.segments().begin()->second;
  const std::size_t k = rig->client->config().k;
  std::set<std::uint32_t> keep;
  const TimePoint now = rig->clock.now();
  for (const metadata::BlockLocation& loc : seg.blocks) {
    if (keep.size() < k) {
      keep.insert(loc.block_index);
    }
    if (keep.count(loc.block_index) > 0) continue;
    ASSERT_TRUE(rig->faulty[loc.cloud]
                    ->drop_stored(metadata::block_path(seg.id, loc.block_index))
                    .is_ok());
    rig->client->durability()->record({DefectKind::kMissingBlock, seg.id,
                                       loc.block_index, loc.cloud, now});
  }

  auto degraded = rig->client->sync();
  ASSERT_TRUE(degraded.is_ok());
  EXPECT_TRUE(degraded.value().degraded)
      << "redundancy below the floor must trip degraded mode";
  EXPECT_EQ(degraded.value().durability.under_replicated, 1u);
  EXPECT_EQ(degraded.value().durability.unrecoverable, 0u);
  EXPECT_EQ(degraded.value().durability.min_surviving, k);
  EXPECT_EQ(degraded.value().durability.min_redundancy, 0);

  RepairEngine engine(*rig->client, rig->client->durability(), RepairConfig{});
  (void)engine.run_slice(100);
  auto repaired = rig->client->sync();
  ASSERT_TRUE(repaired.is_ok());
  EXPECT_FALSE(repaired.value().degraded);
  EXPECT_EQ(repaired.value().durability.under_replicated, 0u);
  expect_all_blocks_intact(*rig);
}

TEST(RepairEngineTest, OrphanGcWaitsOutQuarantineAndSparesLiveBlocks) {
  auto rig = make_rig();
  ASSERT_TRUE(rig->fs->write("/a", ByteSpan(Rng(4).bytes(40 << 10))).is_ok());
  ASSERT_TRUE(rig->client->sync().is_ok());

  // A stray object in /data no metadata references (debris of a crashed
  // uploader or a torn upload).
  const std::string stray =
      std::string(metadata::kDataDir) + "/" + std::string(40, 'e') + "_0";
  ASSERT_TRUE(
      rig->memory[2]->upload(stray, ByteSpan(Rng(5).bytes(128))).is_ok());

  ScrubConfig scrub_cfg;
  scrub_cfg.deep_verify_segments = 0;
  Scrubber scrubber(*rig->client, rig->client->durability(), scrub_cfg);
  RepairConfig repair_cfg;
  repair_cfg.orphan_grace = 600.0;
  RepairEngine engine(*rig->client, rig->client->durability(), repair_cfg);

  // Pass 1 sights the orphan; nothing may be deleted yet (single sighting,
  // no commit landed since, grace not served).
  const ScrubReport pass1 = scrubber.run_pass();
  EXPECT_GE(pass1.orphans_sighted, 1u);
  RepairOutcome out1 = engine.run_slice(100);
  EXPECT_EQ(out1.orphans_collected, 0u);
  EXPECT_TRUE(rig->memory[2]->download(stray).is_ok());

  // A later commit advances the version past the orphan's first sighting
  // (proof it was not an in-flight upload of that commit), and the grace
  // elapses.
  ASSERT_TRUE(rig->fs->write("/b", ByteSpan(Rng(6).bytes(10 << 10))).is_ok());
  ASSERT_TRUE(rig->client->sync().is_ok());
  rig->clock.advance(601.0);
  const ScrubReport pass2 = scrubber.run_pass();
  EXPECT_GE(pass2.orphans_sighted, 1u);
  RepairOutcome out2 = engine.run_slice(100);
  EXPECT_EQ(out2.orphans_collected, 1u);
  EXPECT_FALSE(rig->memory[2]->download(stray).is_ok());

  // Collection never touched live data: every referenced block is intact.
  expect_all_blocks_intact(*rig);
  EXPECT_EQ(rig->client->durability()->orphans_quarantined(), 0u);
}

// Cloud 4 of the rig dies for good; two scrub passes declare it lost, and
// one repair slice re-homes its blocks and commits the new placements.
void rehome_lost_cloud(Rig& rig) {
  ASSERT_TRUE(rig.fs->write("/a", ByteSpan(Rng(8).bytes(100 << 10))).is_ok());
  ASSERT_TRUE(rig.client->sync().is_ok());
  // Trim to fair share (1 block per cloud per segment) so healthy clouds
  // have room under the ks security cap for re-homed blocks.
  ASSERT_TRUE(rig.client->cleanup_overprovisioned().is_ok());

  // Cloud 4 dies for good. A foreground round trips its breaker.
  rig.faulty[4]->set_outage(true);
  ASSERT_TRUE(rig.fs->write("/b", ByteSpan(Rng(9).bytes(20 << 10))).is_ok());
  ASSERT_TRUE(rig.client->sync().is_ok());
  ASSERT_EQ(rig.client->health()->state(4), cloud::BreakerState::kOpen);

  ScrubConfig scrub_cfg;
  scrub_cfg.deep_verify_segments = 0;
  scrub_cfg.cloud_lost_after_passes = 2;
  Scrubber scrubber(*rig.client, rig.client->durability(), scrub_cfg);
  const ScrubReport pass1 = scrubber.run_pass();
  EXPECT_EQ(pass1.cloud_lost, 0u);  // one dark pass is not yet "lost"
  const ScrubReport pass2 = scrubber.run_pass();
  EXPECT_GE(pass2.cloud_lost, 1u);

  RepairEngine engine(*rig.client, rig.client->durability(), RepairConfig{});
  const RepairOutcome outcome = engine.run_slice(100);
  EXPECT_GE(outcome.rehomed, 1u);
  EXPECT_TRUE(outcome.committed);
  EXPECT_EQ(rig.client->durability()->backlog(), 0u);
}

void expect_nothing_on_cloud4(const metadata::SyncFolderImage& image) {
  for (const auto& [id, seg] : image.segments()) {
    if (seg.refcount == 0) continue;
    for (const metadata::BlockLocation& loc : seg.blocks) {
      EXPECT_NE(loc.cloud, 4u) << "segment " << id << " still references the "
                               << "lost cloud";
    }
  }
}

TEST(RepairEngineTest, CloudLostBlocksAreRehomedOntoHealthyClouds) {
  auto rig = make_rig();
  rehome_lost_cloud(*rig);

  // After the next round no referenced block lives on the dead cloud and
  // every segment is back above the floor (degraded stays true only
  // because the breaker is still open).
  auto report = rig->client->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().durability.under_replicated, 0u);
  expect_nothing_on_cloud4(rig->client->image());
  expect_all_blocks_intact(*rig);
}

// The re-home commit of a device that was current is built on its v_o, so
// the device takes the re-homed placements at once, with no pull between.
TEST(RepairEngineTest, CurrentDeviceAdoptsItsRehomeCommit) {
  auto rig = make_rig();
  rehome_lost_cloud(*rig);
  expect_nothing_on_cloud4(rig->client->image());
  EXPECT_FALSE(rig->client->cloud_update_pending());
}

TEST(RepairServiceTest, DaemonHealsDefectsAsBackgroundMaintenance) {
  auto rig = make_rig();
  core::DaemonConfig daemon_cfg;
  auto service = std::make_shared<RepairService>(*rig->client);
  daemon_cfg.maintenance = service;
  core::SyncDaemon daemon(*rig->client, daemon_cfg);

  ASSERT_TRUE(rig->fs->write("/a", ByteSpan(Rng(10).bytes(60 << 10))).is_ok());
  ASSERT_TRUE(daemon.sync_once().is_ok());

  std::string lost_seg;
  const metadata::BlockLocation lost =
      placement_on(rig->client->image(), 2, &lost_seg);
  ASSERT_TRUE(rig->faulty[2]
                  ->drop_stored(metadata::block_path(lost_seg, lost.block_index))
                  .is_ok());

  // Quiet round: full maintenance budget — the slice scrubs, finds the
  // loss, and heals it in the same tick.
  ASSERT_TRUE(daemon.sync_once().is_ok());
  EXPECT_GE(daemon.stats().maintenance_slices, 1u);
  EXPECT_EQ(daemon.stats().maintenance_errors, 0u);
  EXPECT_EQ(rig->client->durability()->backlog(), 0u);
  EXPECT_GE(service->totals().blocks_healed, 1u);
  expect_all_blocks_intact(*rig);
}

TEST(FaultyCloudTest, SilentDefectInjectorsReportSuccess) {
  auto memory = std::make_shared<cloud::MemoryCloud>(0, "m");
  cloud::FaultProfile profile;
  profile.block_loss_rate = 1.0;
  cloud::FaultyCloud faulty(memory, profile, 99);
  const Bytes payload = Rng(11).bytes(4096);

  // Dropped: the client sees OK, the cloud stores nothing.
  EXPECT_TRUE(faulty.upload("/data/x_0", ByteSpan(payload)).is_ok());
  EXPECT_FALSE(memory->download("/data/x_0").is_ok());
  EXPECT_EQ(faulty.lost_blocks(), 1u);

  // Rotted: the client sees OK, the stored bytes differ at the same size.
  profile.block_loss_rate = 0.0;
  profile.bitrot_rate = 1.0;
  faulty.set_profile(profile);
  EXPECT_TRUE(faulty.upload("/data/y_0", ByteSpan(payload)).is_ok());
  auto stored = memory->download("/data/y_0");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value().size(), payload.size());
  EXPECT_NE(stored.value(), payload);
  EXPECT_EQ(faulty.bitrots(), 1u);
}

// A victim picked twice must stay rotten: a rot that undid itself would
// silently cancel an injection (and heal a repair-off world).
TEST(FaultyCloudTest, RottingTwiceLeavesTheBlockCorrupt) {
  auto memory = std::make_shared<cloud::MemoryCloud>(0, "m");
  cloud::FaultyCloud faulty(memory, cloud::FaultProfile{}, 7);
  const Bytes payload = Rng(12).bytes(4096);
  ASSERT_TRUE(memory->upload("/data/z_0", ByteSpan(payload)).is_ok());

  ASSERT_TRUE(faulty.rot_stored("/data/z_0").is_ok());
  const Bytes once = memory->download("/data/z_0").value();
  ASSERT_TRUE(faulty.rot_stored("/data/z_0").is_ok());
  const Bytes twice = memory->download("/data/z_0").value();
  EXPECT_EQ(twice.size(), payload.size());
  EXPECT_NE(once, payload);
  EXPECT_NE(twice, payload);
  EXPECT_NE(twice, once);
  EXPECT_EQ(faulty.bitrots(), 2u);
}

}  // namespace
}  // namespace unidrive::repair
