#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "sched/download_scheduler.h"
#include "sched/monitor.h"
#include "sched/plan.h"
#include "sched/rebalance.h"
#include "sched/upload_scheduler.h"

namespace unidrive::sched {
namespace {

CodeParams paper_params() {
  CodeParams p;  // defaults: N=5, k=3, Ks=2, Kr=3
  return p;
}

std::vector<cloud::CloudId> five_clouds() { return {0, 1, 2, 3, 4}; }

// --- CodeParams ----------------------------------------------------------------

TEST(CodeParamsTest, PaperDefaults) {
  const CodeParams p = paper_params();
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_EQ(p.fair_share(), 1u);       // ceil(3/3)
  EXPECT_EQ(p.max_per_cloud(), 2u);    // ceil(3/1) - 1
  EXPECT_EQ(p.normal_blocks(), 5u);    // 1 * 5
  EXPECT_EQ(p.code_n(), 10u);          // ceil(3/2) * 5
  EXPECT_EQ(p.max_total_blocks(), 10u);
}

TEST(CodeParamsTest, NoSecurityRequirement) {
  CodeParams p;
  p.ks = 1;
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_EQ(p.max_per_cloud(), p.k);  // a single cloud may hold everything
}

TEST(CodeParamsTest, RejectsBadOrdering) {
  CodeParams p;
  p.ks = 4;
  p.kr = 3;  // Ks > Kr
  EXPECT_FALSE(p.validate().is_ok());
  p.ks = 2;
  p.kr = 6;  // Kr > N
  EXPECT_FALSE(p.validate().is_ok());
}

TEST(CodeParamsTest, RejectsInfeasibleSecurity) {
  CodeParams p;
  p.k = 2;
  p.ks = 3;
  p.kr = 3;
  // max_per_cloud = ceil(2/2)-1 = 0 < fair_share -> infeasible.
  EXPECT_FALSE(p.validate().is_ok());
}

TEST(CodeParamsTest, StorageEfficiencyPaperExample) {
  // Paper Section 1: N=3 vendors, tolerate one down (Kr=2): 3x100 GB raw
  // gives 200 GB of data -> efficiency 2/3; replication gives only 150 GB.
  CodeParams p;
  p.num_clouds = 3;
  p.k = 2;
  p.ks = 1;
  p.kr = 2;
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_DOUBLE_EQ(p.storage_efficiency(), 2.0 / 3.0);
  // Replication-based: one full copy must survive any single outage ->
  // every byte stored twice -> 1/2 efficiency. UniDrive wins.
  EXPECT_GT(p.storage_efficiency(), 0.5);
}

// --- ThroughputMonitor -----------------------------------------------------------

TEST(MonitorTest, DefaultEstimateForUnknownClouds) {
  ThroughputMonitor m(1000.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 1000.0);
}

TEST(MonitorTest, RecordsAndRanks) {
  ThroughputMonitor m;
  m.record(0, Direction::kUpload, 1 << 20, 1.0);   // 1 MiB/s
  m.record(1, Direction::kUpload, 8 << 20, 1.0);   // 8 MiB/s
  m.record(2, Direction::kUpload, 4 << 20, 1.0);   // 4 MiB/s
  const auto ranked = m.ranked(Direction::kUpload, {0, 1, 2});
  EXPECT_EQ(ranked, (std::vector<cloud::CloudId>{1, 2, 0}));
}

TEST(MonitorTest, EwmaAdaptsToChange) {
  ThroughputMonitor m;
  for (int i = 0; i < 20; ++i) m.record(0, Direction::kUpload, 1000, 1.0);
  const double before = m.estimate(0, Direction::kUpload);
  for (int i = 0; i < 20; ++i) m.record(0, Direction::kUpload, 100000, 1.0);
  const double after = m.estimate(0, Direction::kUpload);
  EXPECT_GT(after, before * 10);
}

TEST(MonitorTest, DirectionsIndependent) {
  ThroughputMonitor m(500.0);
  m.record(0, Direction::kUpload, 1 << 20, 1.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kDownload), 500.0);
}

TEST(MonitorTest, IgnoresDegenerateSamples) {
  ThroughputMonitor m(500.0);
  m.record(0, Direction::kUpload, 0, 1.0);
  m.record(0, Direction::kUpload, 100, 0.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 500.0);
}

TEST(MonitorTest, UnknownCloudsRankBelowMeasuredOnes) {
  // Critical for hedging: a cloud with NO samples must never outrank a
  // measured one — otherwise stragglers on unmeasured clouds look "fast"
  // and are never hedged (the default estimate is 0 for exactly this).
  ThroughputMonitor m;
  m.record(1, Direction::kDownload, 1000, 1.0);   // slow but measured
  const auto ranked = m.ranked(Direction::kDownload, {0, 1, 2});
  EXPECT_EQ(ranked.front(), 1u);
}

TEST(MonitorTest, ResetForgetsEverything) {
  ThroughputMonitor m(42.0);
  m.record(0, Direction::kUpload, 1e6, 1.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 42.0);
  EXPECT_FALSE(m.latency(0, Direction::kUpload).has_value());
}

TEST(MonitorTest, WindowQuantilesInSecondsPerByte) {
  ThroughputMonitor m;
  EXPECT_FALSE(m.latency(0, Direction::kDownload).has_value());
  // Twenty samples of 1..20 ms for 1000-byte blocks: nearest-rank p50 is
  // the 10th smallest, p95 the 19th.
  for (int ms = 20; ms >= 1; --ms) {
    m.record(0, Direction::kDownload, 1000, ms * 1e-3);
  }
  const auto q = m.latency(0, Direction::kDownload);
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(q->p50, 10e-6);
  EXPECT_DOUBLE_EQ(q->p95, 19e-6);
  // One sample makes a cloud measured; directions keep separate windows.
  m.record(1, Direction::kDownload, 500, 1.0);
  const auto one = m.latency(1, Direction::kDownload);
  ASSERT_TRUE(one.has_value());
  EXPECT_DOUBLE_EQ(one->p50, 2e-3);
  EXPECT_DOUBLE_EQ(one->p95, 2e-3);
  EXPECT_FALSE(m.latency(1, Direction::kUpload).has_value());
}

TEST(MonitorTest, WindowEvictsOldestAfterThirtyTwoSamples) {
  static_assert(ThroughputMonitor::kLatencyWindow == 32);
  ThroughputMonitor m;
  constexpr Direction kDown = Direction::kDownload;
  // Two stragglers first, then 30 normal samples: over 32 samples p95
  // (nearest rank 31) is a straggler.
  m.record(0, kDown, 1, 100.0);
  m.record(0, kDown, 1, 100.0);
  for (int i = 0; i < 30; ++i) m.record(0, kDown, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.latency(0, kDown)->p50, 1.0);
  EXPECT_DOUBLE_EQ(m.latency(0, kDown)->p95, 100.0);
  // The 33rd sample evicts the oldest straggler; one alone is not p95.
  m.record(0, kDown, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.latency(0, kDown)->p95, 1.0);
  // 32 newer samples leave nothing older in the window.
  for (int i = 0; i < 32; ++i) m.record(0, kDown, 1, 2.0);
  EXPECT_DOUBLE_EQ(m.latency(0, kDown)->p50, 2.0);
  EXPECT_DOUBLE_EQ(m.latency(0, kDown)->p95, 2.0);
}

TEST(MonitorTest, FailuresStayOutOfTheLatencyWindow) {
  ThroughputMonitor m;
  m.record_failure(0, Direction::kDownload, 5.0);
  EXPECT_FALSE(m.latency(0, Direction::kDownload).has_value());
  m.record(0, Direction::kDownload, 1000, 0.01);
  m.record_failure(0, Direction::kDownload, 30.0);
  const auto q = m.latency(0, Direction::kDownload);
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(q->p50, 1e-5);
  EXPECT_DOUBLE_EQ(q->p95, 1e-5);
}

// --- UploadScheduler --------------------------------------------------------------

UploadFileSpec one_file(const std::string& name, std::uint64_t size = 3000) {
  UploadFileSpec f;
  f.path = "/" + name;
  f.segments.push_back({name + "_seg", size});
  return f;
}

// Drain the scheduler sequentially, simulating instant completions.
// Returns per-cloud block counts for the single segment.
std::map<cloud::CloudId, int> drain_round_robin(UploadScheduler& s) {
  std::map<cloud::CloudId, int> counts;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c);
      if (task.has_value()) {
        s.on_complete(*task, true);
        ++counts[c];
        progress = true;
      }
    }
  }
  return counts;
}

TEST(UploadSchedulerTest, EvenAssignmentWithoutStragglers) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  const auto counts = drain_round_robin(s);
  // All clouds equally fast -> exactly the fair share each, no over-prov.
  for (const cloud::CloudId c : five_clouds()) {
    EXPECT_EQ(counts.at(c), 1) << "cloud " << c;
  }
  EXPECT_TRUE(s.all_available());
  EXPECT_TRUE(s.all_reliable());
  EXPECT_TRUE(s.finished());
}

TEST(UploadSchedulerTest, SecurityCapNeverViolated) {
  // Simulate two dead-slow clouds: they never complete. Fast clouds must
  // over-provision but never exceed max_per_cloud blocks.
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  std::map<cloud::CloudId, int> counts;
  // Clouds 3 and 4 accept tasks but never finish.
  std::vector<BlockTask> stuck;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c);
      if (!task.has_value()) continue;
      progress = true;
      if (c >= 3) {
        stuck.push_back(*task);
      } else {
        s.on_complete(*task, true);
        ++counts[c];
      }
    }
  }
  for (const auto& [c, n] : counts) {
    EXPECT_LE(n, static_cast<int>(paper_params().max_per_cloud()));
  }
  // Availability reached via the three fast clouds (3 fast clouds x up to
  // 2 blocks each >= k = 3).
  EXPECT_TRUE(s.all_available());
}

TEST(UploadSchedulerTest, OverProvisioningKicksInForSlowClouds) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  // Cloud 0 is fast and polls repeatedly; others are asleep.
  int cloud0_blocks = 0;
  while (true) {
    auto task = s.next_task(0);
    if (!task.has_value()) break;
    s.on_complete(*task, true);
    ++cloud0_blocks;
  }
  // Fair share is 1, but cloud 0 may take up to the security cap (2).
  EXPECT_EQ(cloud0_blocks, 2);
  EXPECT_FALSE(s.all_available());  // 2 < k = 3 distinct blocks so far
  const auto ov = s.overprovisioned_blocks();
  EXPECT_EQ(ov.size(), 1u);  // the second block is surplus
}

TEST(UploadSchedulerTest, AvailabilityFirstOrdering) {
  // Two files; all clouds work on file 0 until it is available.
  UploadScheduler s(paper_params(), five_clouds(),
                    {one_file("a"), one_file("b")});
  // First three completions should all belong to file 0.
  for (int i = 0; i < 3; ++i) {
    auto task = s.next_task(static_cast<cloud::CloudId>(i));
    ASSERT_TRUE(task.has_value());
    EXPECT_EQ(task->file_index, 0u);
    s.on_complete(*task, true);
  }
  EXPECT_TRUE(s.file_available(0));
  // Next tasks switch to file 1 even though file 0 is not yet reliable.
  auto task = s.next_task(3);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->file_index, 1u);
  s.on_complete(*task, true);
}

TEST(UploadSchedulerTest, ReliabilityPhaseFillsFairShares) {
  UploadScheduler s(paper_params(), five_clouds(),
                    {one_file("a"), one_file("b")});
  drain_round_robin(s);
  EXPECT_TRUE(s.all_reliable());
  // Each segment must have >= fair_share blocks on every cloud.
  for (const std::string seg : {"a_seg", "b_seg"}) {
    std::map<cloud::CloudId, int> per_cloud;
    for (const auto& loc : s.locations(seg)) ++per_cloud[loc.cloud];
    for (const cloud::CloudId c : five_clouds()) {
      EXPECT_GE(per_cloud[c], 1) << seg << " cloud " << c;
    }
  }
}

TEST(UploadSchedulerTest, FailedUploadRetried) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  auto task = s.next_task(0);
  ASSERT_TRUE(task.has_value());
  s.on_complete(*task, false);  // fail once
  auto retry = s.next_task(0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->block_index, task->block_index);  // same home block
  s.on_complete(*retry, true);
}

TEST(UploadSchedulerTest, DisabledCloudGetsNoTasks) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  s.set_cloud_enabled(2, false);
  EXPECT_FALSE(s.next_task(2).has_value());
}

TEST(UploadSchedulerTest, DisabledCloudBlocksRehomed) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  s.set_cloud_enabled(2, false);
  const auto counts = drain_round_robin(s);
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_TRUE(s.all_available());
  // Reliability is evaluated against *enabled* clouds only.
  EXPECT_TRUE(s.all_reliable());
  std::size_t total = 0;
  for (const auto& [c, n] : counts) total += n;
  EXPECT_GE(total, paper_params().k);
}

TEST(UploadSchedulerTest, BlockBytesComputedFromSegmentSize) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a", 3001)});
  auto task = s.next_task(0);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->bytes, 1001u);  // ceil(3001 / 3)
}

TEST(UploadSchedulerTest, LocationsReflectCompletedOnly) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  auto t0 = s.next_task(0);
  ASSERT_TRUE(t0.has_value());
  EXPECT_TRUE(s.locations("a_seg").empty());  // in flight, not done
  s.on_complete(*t0, true);
  EXPECT_EQ(s.locations("a_seg").size(), 1u);
}

TEST(UploadSchedulerTest, MultiSegmentFile) {
  UploadFileSpec f;
  f.path = "/big";
  f.segments.push_back({"seg1", 3000});
  f.segments.push_back({"seg2", 3000});
  UploadScheduler s(paper_params(), five_clouds(), {f});
  drain_round_robin(s);
  EXPECT_TRUE(s.all_reliable());
  EXPECT_EQ(s.locations("seg1").size(), 5u);
  EXPECT_EQ(s.locations("seg2").size(), 5u);
}

// --- DownloadScheduler -------------------------------------------------------------

DownloadFileSpec downloadable_file(const std::string& name,
                                   std::size_t blocks_per_cloud = 1) {
  DownloadFileSpec f;
  f.path = "/" + name;
  DownloadSegmentSpec seg;
  seg.id = name + "_seg";
  seg.size = 3000;
  std::uint32_t index = 0;
  for (cloud::CloudId c = 0; c < 5; ++c) {
    for (std::size_t b = 0; b < blocks_per_cloud; ++b) {
      seg.locations.push_back({index++, c});
    }
  }
  f.segments.push_back(seg);
  return f;
}

TEST(DownloadSchedulerTest, FetchesExactlyKBlocks) {
  DownloadScheduler s(3, {downloadable_file("a")});
  std::size_t fetched = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c, 0.0);
      if (task.has_value()) {
        s.on_complete(*task, true);
        ++fetched;
        progress = true;
      }
    }
  }
  EXPECT_EQ(fetched, 3u);
  EXPECT_TRUE(s.all_complete());
  EXPECT_TRUE(s.finished());
}

TEST(DownloadSchedulerTest, NeverOverRequests) {
  DownloadScheduler s(3, {downloadable_file("a")});
  // Grab 3 tasks without completing them; a 4th must not be issued.
  std::vector<BlockTask> tasks;
  for (const cloud::CloudId c : five_clouds()) {
    auto task = s.next_task(c, 0.0);
    if (task.has_value()) tasks.push_back(*task);
  }
  EXPECT_EQ(tasks.size(), 3u);
}

TEST(DownloadSchedulerTest, FailedFetchRetriedThenExhausted) {
  DownloadScheduler s(3, {downloadable_file("a")});
  // Transient failures: the same (block, cloud) source is retried a few
  // times before the scheduler stops considering it.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto t = s.next_task(0, 0.0);
    ASSERT_TRUE(t.has_value()) << "attempt " << attempt;
    s.on_complete(*t, false);
  }
  // Source exhausted now; cloud 0 has no other block (1 per cloud).
  EXPECT_FALSE(s.next_task(0, 0.0).has_value());
  // Other clouds can still complete the job.
  std::size_t fetched = 0;
  for (const cloud::CloudId c : {1, 2, 3, 4}) {
    auto task = s.next_task(c, 0.0);
    if (task.has_value()) {
      s.on_complete(*task, true);
      ++fetched;
    }
  }
  EXPECT_GE(fetched, 3u);
  EXPECT_TRUE(s.all_complete());
}

TEST(DownloadSchedulerTest, FastCloudWithExtraBlocksServesMore) {
  // Over-provisioned layout: cloud 0 holds 2 blocks, others 1 each.
  DownloadFileSpec f;
  f.path = "/a";
  DownloadSegmentSpec seg;
  seg.id = "s";
  seg.size = 3000;
  seg.locations = {{0, 0}, {5, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  f.segments.push_back(seg);
  DownloadScheduler s(3, {f});
  // Fast cloud 0 polls first (driver polls fastest first): gets both blocks.
  auto a = s.next_task(0, 0.0);
  auto b = s.next_task(0, 0.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  s.on_complete(*a, true);
  s.on_complete(*b, true);
  // One more block from any other cloud completes the segment.
  auto c = s.next_task(3, 0.0);
  ASSERT_TRUE(c.has_value());
  s.on_complete(*c, true);
  EXPECT_TRUE(s.all_complete());
}

TEST(DownloadSchedulerTest, StuckWhenTooFewBlocksReachable) {
  DownloadFileSpec f = downloadable_file("a");
  DownloadScheduler s(3, {f});
  // Disable 3 of 5 clouds: only 2 distinct blocks reachable < k=3.
  s.set_cloud_enabled(0, false);
  s.set_cloud_enabled(1, false);
  s.set_cloud_enabled(2, false);
  for (const cloud::CloudId c : {3, 4}) {
    auto task = s.next_task(c, 0.0);
    if (task.has_value()) s.on_complete(*task, true);
  }
  EXPECT_FALSE(s.all_complete());
  EXPECT_TRUE(s.finished());  // stuck, nothing in flight
  EXPECT_TRUE(s.file_failed(0));
}

TEST(DownloadSchedulerTest, FilesCompleteInOrder) {
  DownloadScheduler s(3, {downloadable_file("a"), downloadable_file("b")});
  // File 0 saturates first (k = 3 requests); only then do the remaining
  // idle connections spill over to file 1 — availability-first: later files
  // never steal capacity that file 0 could still use.
  std::vector<BlockTask> tasks;
  for (const cloud::CloudId c : five_clouds()) {
    auto task = s.next_task(c, 0.0);
    if (task.has_value()) tasks.push_back(*task);
  }
  ASSERT_EQ(tasks.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(tasks[i].file_index, 0u);
  for (std::size_t i = 3; i < 5; ++i) EXPECT_EQ(tasks[i].file_index, 1u);
}

TEST(DownloadSchedulerTest, FetchedBlocksReported) {
  DownloadScheduler s(3, {downloadable_file("a")});
  auto t = s.next_task(1, 0.0);
  ASSERT_TRUE(t.has_value());
  s.on_complete(*t, true);
  const auto blocks = s.fetched_blocks("a_seg");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], t->block_index);
}

// Straggler hedging. Blocks are 1000 bytes (a 3000-byte segment, k = 3);
// a cloud measured at `seconds` per 1000-byte block has p50 = p95 =
// seconds / 1000 seconds per byte.

DownloadFileSpec hedge_file(std::vector<metadata::BlockLocation> locations) {
  DownloadFileSpec f;
  f.path = "/h";
  DownloadSegmentSpec seg;
  seg.id = "h_seg";
  seg.size = 3000;
  seg.locations = std::move(locations);
  f.segments.push_back(seg);
  return f;
}

void measure(ThroughputMonitor& m, cloud::CloudId cloud, double seconds) {
  m.record(cloud, Direction::kDownload, 1000, seconds);
}

// Clouds 0-2 take the k regular blocks at t = 0; what else each cloud
// holds is up to the test.
std::vector<BlockTask> launch_regular(DownloadScheduler& s) {
  std::vector<BlockTask> tasks;
  for (const cloud::CloudId c : {0, 1, 2}) {
    auto task = s.next_task(c, 0.0);
    EXPECT_TRUE(task.has_value());
    if (task.has_value()) tasks.push_back(*task);
  }
  return tasks;
}

TEST(DownloadSchedulerTest, EqualCloudsHedgeOnlyPastTheHoldersP95) {
  // Clouds 3 and 4 each hold a spare block.
  DownloadScheduler s(
      3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}})});
  ThroughputMonitor m;
  for (const cloud::CloudId c : five_clouds()) measure(m, c, 1.0);
  const std::vector<BlockTask> regular = launch_regular(s);
  ASSERT_EQ(regular.size(), 3u);
  // Two blocks land on time; the third stays pinned on cloud 2.
  s.on_complete(regular[0], true);
  s.on_complete(regular[1], true);
  // Equal links: an idle cloud is no faster, so it waits for lateness.
  EXPECT_FALSE(s.next_task(3, 0.5).has_value());
  EXPECT_FALSE(s.next_hedge_task(3, 0.5, m).has_value());
  EXPECT_FALSE(s.next_hedge_task(4, 0.999, m).has_value());
  EXPECT_DOUBLE_EQ(s.next_hedge_deadline(0.5, m).value_or(-1), 1.0);
  // Past cloud 2's p95 the pinned block earns exactly one hedge.
  const auto hedge = s.next_hedge_task(3, 1.0, m);
  ASSERT_TRUE(hedge.has_value());
  EXPECT_EQ(hedge->block_index, 3u);
  EXPECT_FALSE(s.next_hedge_task(4, 1.0, m).has_value());
  // The overdue block no longer sets a deadline; the hedge itself does,
  // and once the hedge runs late too it earns one more.
  EXPECT_DOUBLE_EQ(s.next_hedge_deadline(1.0, m).value_or(-1), 2.0);
  EXPECT_FALSE(s.next_hedge_task(4, 1.5, m).has_value());
  EXPECT_TRUE(s.next_hedge_task(4, 2.0, m).has_value());
}

TEST(DownloadSchedulerTest, CloudWhoseP95BeatsHoldersP50MinusAgeHedgesAtOnce) {
  ThroughputMonitor m;
  for (const cloud::CloudId c : {0, 1, 2}) measure(m, c, 1.0);
  measure(m, 3, 0.1);  // p95 0.1 s per block vs the holders' p50 of 1 s
  {
    DownloadScheduler s(3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3}})});
    launch_regular(s);
    const auto hedge = s.next_hedge_task(3, 0.0, m);
    ASSERT_TRUE(hedge.has_value());
    EXPECT_EQ(hedge->block_index, 3u);
  }
  {
    // 0.95 s in, a holder is expected within 0.05 s: 0.1 s does not win,
    // and nothing is overdue yet.
    DownloadScheduler s(3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3}})});
    launch_regular(s);
    EXPECT_FALSE(s.next_hedge_task(3, 0.95, m).has_value());
    EXPECT_TRUE(s.next_hedge_task(3, 1.0, m).has_value());
  }
}

TEST(DownloadSchedulerTest, UnmeasuredHolderIsHedgedFromMeasuredIdleCloud) {
  DownloadScheduler s(3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3}})});
  ThroughputMonitor m;
  measure(m, 3, 1.0);  // only the idle cloud has a record
  launch_regular(s);
  // Unmeasured holders set no deadline: they are hedgeable already.
  EXPECT_FALSE(s.next_hedge_deadline(0.0, m).has_value());
  EXPECT_TRUE(s.next_hedge_task(3, 0.0, m).has_value());
}

TEST(DownloadSchedulerTest, UnmeasuredIdleCloudNeverHedges) {
  DownloadScheduler s(3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3}})});
  ThroughputMonitor m;
  measure(m, 0, 1.0);  // one holder measured and long overdue, two unknown
  launch_regular(s);
  EXPECT_FALSE(s.next_hedge_task(3, 100.0, m).has_value());
}

TEST(DownloadSchedulerTest, HedgesPerSegmentAndCloudStayWithinOnePlusHalfK) {
  // k = 3: a cloud holds at most 1 + 3/2 = 2 blocks of a segment in
  // flight, however late the holders run.
  DownloadScheduler s(3, {hedge_file({{0, 0}, {1, 1}, {2, 2}, {3, 3},
                                      {4, 3}, {5, 3}})});
  ThroughputMonitor m;
  for (const cloud::CloudId c : five_clouds()) measure(m, c, 1.0);
  launch_regular(s);
  const auto first = s.next_hedge_task(3, 5.0, m);
  const auto second = s.next_hedge_task(3, 5.0, m);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(s.next_hedge_task(3, 5.0, m).has_value());
  // A landed hedge frees the slot for the third block.
  s.on_complete(*first, true);
  const auto third = s.next_hedge_task(3, 5.0, m);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->block_index, 5u);
  // A cloud never hedges its own block.
  EXPECT_FALSE(s.next_hedge_task(0, 5.0, m).has_value());
}

// --- Rebalancer -------------------------------------------------------------------

metadata::SyncFolderImage image_with_segment() {
  metadata::SyncFolderImage image;
  metadata::SegmentInfo seg;
  seg.id = "s1";
  seg.size = 3000;
  seg.blocks = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  image.upsert_segment(seg);
  metadata::FileSnapshot snap;
  snap.path = "/f";
  snap.size = 3000;
  snap.segment_ids = {"s1"};
  image.upsert_file(snap);
  return image;
}

TEST(RebalanceTest, RemoveCloudReHomesItsBlocks) {
  auto image = image_with_segment();
  CodeParams params;
  params.num_clouds = 4;  // after removal
  const auto plan = plan_remove_cloud(image, 4, {0, 1, 2, 3}, params);
  // Everything on cloud 4 must be deleted; a replacement must be planned.
  ASSERT_EQ(plan.deletions.size(), 1u);
  EXPECT_EQ(plan.deletions[0].cloud, 4u);
  ASSERT_GE(plan.moves.size(), 1u);
  EXPECT_NE(plan.moves[0].to_cloud, 4u);

  apply_rebalance(image, plan);
  const auto* seg = image.find_segment("s1");
  std::set<std::uint32_t> distinct;
  for (const auto& b : seg->blocks) {
    EXPECT_NE(b.cloud, 4u);
    distinct.insert(b.block_index);
  }
  EXPECT_GE(distinct.size(), params.k);
}

TEST(RebalanceTest, AddCloudGivesFairShare) {
  auto image = image_with_segment();
  CodeParams params;
  params.num_clouds = 6;  // after addition
  const auto plan = plan_add_cloud(image, 5, {0, 1, 2, 3, 4, 5}, params);
  ASSERT_GE(plan.moves.size(), 1u);
  bool new_cloud_served = false;
  for (const auto& m : plan.moves) {
    if (m.to_cloud == 5) new_cloud_served = true;
  }
  EXPECT_TRUE(new_cloud_served);

  apply_rebalance(image, plan);
  const auto* seg = image.find_segment("s1");
  std::map<cloud::CloudId, int> per_cloud;
  std::set<std::uint32_t> distinct;
  for (const auto& b : seg->blocks) {
    ++per_cloud[b.cloud];
    distinct.insert(b.block_index);
    EXPECT_LE(per_cloud[b.cloud], static_cast<int>(params.max_per_cloud()));
  }
  EXPECT_GE(per_cloud[5], static_cast<int>(params.fair_share()));
  EXPECT_GE(distinct.size(), params.k);
}

TEST(RebalanceTest, EmptyImageEmptyPlan) {
  metadata::SyncFolderImage image;
  CodeParams params;
  EXPECT_TRUE(plan_remove_cloud(image, 0, {1, 2, 3, 4}, params).empty());
  EXPECT_TRUE(plan_add_cloud(image, 5, {0, 1, 2, 3, 4, 5}, params).empty());
}

TEST(RebalanceTest, UnreferencedSegmentsIgnored) {
  metadata::SyncFolderImage image;
  metadata::SegmentInfo seg;
  seg.id = "garbage";
  seg.blocks = {{0, 4}};
  image.upsert_segment(seg);  // refcount 0
  CodeParams params;
  params.num_clouds = 4;
  EXPECT_TRUE(plan_remove_cloud(image, 4, {0, 1, 2, 3}, params).empty());
}

}  // namespace
}  // namespace unidrive::sched
