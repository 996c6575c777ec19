// Tests for the streaming restore path: parallel RS decode equivalence,
// the verified k-subset search, the incremental StreamingDownloadDriver,
// LocalFs::FileWriter semantics, and the end-to-end DownloadPipeline —
// bounded-memory admission under slow clouds, cancellation under injected
// hangs, and corrupt-shard search convergence with out-of-order arrivals.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "cloud/async.h"
#include "cloud/faulty_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/executor.h"
#include "common/rng.h"
#include "common/timer_wheel.h"
#include "core/client.h"
#include "core/download_pipeline.h"
#include "core/local_fs.h"
#include "crypto/convergent.h"
#include "crypto/sha1.h"
#include "erasure/rs.h"
#include "metadata/image.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {
namespace {

using std::chrono::milliseconds;

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

// Adds per-request latency to the inner cloud's downloads (uploads pass
// through untouched) so completions arrive out of order and the admission
// gate actually fills up.
class SlowCloud final : public cloud::CloudProvider {
 public:
  SlowCloud(cloud::CloudPtr inner, milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override {
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    std::this_thread::sleep_for(delay_);
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    return inner_->remove(path);
  }

 private:
  cloud::CloudPtr inner_;
  milliseconds delay_;
};

// Segments `content` at `theta`, encodes `blocks_per_segment` distinct
// blocks per segment with `code`, uploads block b to cloud (b % clouds),
// records everything in `image`, and returns the file's snapshot.
metadata::FileSnapshot publish_file(const std::string& path,
                                    const Bytes& content, std::size_t theta,
                                    const erasure::RsCode& code,
                                    std::uint32_t blocks_per_segment,
                                    const cloud::MultiCloud& clouds,
                                    metadata::SyncFolderImage& image) {
  metadata::FileSnapshot snap;
  snap.path = path;
  snap.size = content.size();
  snap.content_hash = crypto::Sha1::hex(ByteSpan(content));
  for (std::size_t off = 0; off < content.size(); off += theta) {
    const std::size_t len = std::min(theta, content.size() - off);
    const Bytes seg(content.begin() + off, content.begin() + off + len);
    const std::string id = crypto::Sha1::hex(ByteSpan(seg));
    snap.segment_ids.push_back(id);
    if (image.find_segment(id) != nullptr) continue;  // dedup
    std::vector<std::uint32_t> indices;
    for (std::uint32_t b = 0; b < blocks_per_segment; ++b) {
      indices.push_back(b);
    }
    metadata::SegmentInfo info;
    info.id = id;
    info.size = len;
    info.refcount = 1;
    for (const erasure::Shard& shard : code.encode_shards(ByteSpan(seg),
                                                          indices)) {
      const auto target = static_cast<cloud::CloudId>(
          shard.index % clouds.size());
      EXPECT_TRUE(clouds[target]
                      ->upload(metadata::block_path(id, shard.index),
                               ByteSpan(shard.data))
                      .is_ok());
      info.blocks.push_back({shard.index, target});
    }
    image.upsert_segment(info);
  }
  image.upsert_file(snap);
  return snap;
}

// Builds async twins of `providers` over `io`; the caller keeps the
// returned vector alive for the pipeline's lifetime.
cloud::AsyncMultiCloud async_twins(const cloud::MultiCloud& providers,
                                   Executor* io) {
  cloud::AsyncContext ctx;
  ctx.io = io;
  cloud::AsyncMultiCloud twins;
  for (const auto& p : providers) twins.push_back(cloud::to_async(p, ctx));
  return twins;
}

FindAsyncCloudFn async_lookup(const cloud::AsyncMultiCloud& twins) {
  return [&twins](cloud::CloudId id) -> cloud::AsyncCloud* {
    return twins[id].get();
  };
}

// Test transfer launcher: computes each fetch's outcome with `outcome` on
// `executor` and completes from there — never on the launching stack, as
// the AsyncCloud contract requires (cloud/async.h invariant 1).
sched::AsyncTransferFn complete_on(
    Executor& executor,
    std::function<Status(const sched::BlockTask&)> outcome) {
  return [&executor, outcome = std::move(outcome)](
             const sched::BlockTask& task, sched::TransferDoneFn done) {
    executor.submit([outcome, task, done = std::move(done)] {
      done(outcome(task));
    });
    return cloud::AsyncHandle{};
  };
}

// Blocks every injected hang until the test opens the gate.
struct HangGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard<std::mutex> g(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

// --- parallel decode --------------------------------------------------------

TEST(ParallelDecodeTest, MatchesSerialDecodeOnArbitrarySubsets) {
  const erasure::RsCode code(16, 4);
  Rng rng(21);
  const Bytes segment = rng.bytes(200001);  // deliberately not shard-aligned
  const std::vector<erasure::Shard> all = code.encode(ByteSpan(segment));

  // An unsorted, non-contiguous k-subset, as the corrupt-shard search
  // produces them.
  const std::vector<erasure::Shard> subset = {all[5], all[9], all[2],
                                              all[11]};
  const auto serial = code.decode(subset, segment.size());
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial.value(), segment);

  const std::vector<const erasure::Shard*> borrowed = {&all[5], &all[9],
                                                       &all[2], &all[11]};
  for (const std::size_t threads : {1, 4}) {
    Executor executor(threads);
    const auto parallel =
        code.decode_subset(borrowed, segment.size(), &executor);
    ASSERT_TRUE(parallel.is_ok());
    EXPECT_EQ(parallel.value(), segment) << threads << " threads";
  }
}

TEST(ParallelDecodeTest, SafeFromPoolThreadAndRejectsBadInput) {
  const erasure::RsCode code(8, 3);
  Rng rng(22);
  const Bytes segment = rng.bytes(60000);
  const auto all = code.encode(ByteSpan(segment));

  // Fan-out from a pool thread must not deadlock (decode tasks run on the
  // same executor the row fan-out uses).
  Executor executor(1);
  std::atomic<bool> ok{false};
  executor.submit([&] {
    const std::vector<const erasure::Shard*> subset = {&all[1], &all[4],
                                                       &all[6]};
    const auto decoded = code.decode_subset(subset, segment.size(), &executor);
    ok.store(decoded.is_ok() && decoded.value() == segment);
  });
  for (int spin = 0; spin < 5000 && !ok.load(); ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(ok.load());

  // Too few shards fail the same way the serial path does.
  const std::vector<const erasure::Shard*> short_set = {&all[0], &all[1]};
  EXPECT_FALSE(
      code.decode_subset(short_set, segment.size(), &executor).is_ok());
}

// --- decode_verified --------------------------------------------------------

TEST(DecodeVerifiedTest, FindsCleanSubsetAroundOneCorruptShard) {
  const erasure::RsCode code(16, 3);
  Rng rng(23);
  const Bytes segment = rng.bytes(90001);
  metadata::SegmentInfo info;
  info.id = crypto::Sha1::hex(ByteSpan(segment));
  info.size = segment.size();

  std::vector<erasure::Shard> shards =
      code.encode_shards(ByteSpan(segment), {0, 1, 2, 3});
  shards[1].data[7] ^= 0xFF;  // silent corruption, size unchanged

  Executor executor(4);
  for (Executor* exec : {static_cast<Executor*>(nullptr), &executor}) {
    const auto decoded = decode_verified(code, shards, info, 3, exec);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), segment);
  }
}

TEST(DecodeVerifiedTest, FailsWhenNoCleanSubsetExists) {
  const erasure::RsCode code(16, 3);
  Rng rng(24);
  const Bytes segment = rng.bytes(30000);
  metadata::SegmentInfo info;
  info.id = crypto::Sha1::hex(ByteSpan(segment));
  info.size = segment.size();

  // Two corrupt shards among four: every 3-subset contains at least one.
  std::vector<erasure::Shard> shards =
      code.encode_shards(ByteSpan(segment), {0, 1, 2, 3});
  shards[0].data[0] ^= 0x01;
  shards[3].data[5] ^= 0x80;
  const auto decoded = decode_verified(code, shards, info, 3, nullptr);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kCorrupt);
}

// --- StreamingDownloadDriver ------------------------------------------------

TEST(StreamingDownloadDriverTest, IncrementalFeedSettlesEverySegment) {
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);

  std::mutex mu;
  std::map<std::string, std::set<std::uint32_t>> fetched;
  std::mutex settled_mu;
  std::map<std::string, bool> settled;
  sched::StreamingDownloadDriver driver(
      /*k=*/2, {0, 1, 2}, sched::DriverConfig{2}, monitor, executor,
      complete_on(*executor,
                  [&](const sched::BlockTask& task) {
                    std::lock_guard<std::mutex> g(mu);
                    fetched[task.segment_id].insert(task.block_index);
                    return Status::ok();
                  }),
      nullptr, nullptr, [&](const std::string& id, bool ok) {
        std::lock_guard<std::mutex> g(settled_mu);
        settled[id] = ok;
      });

  // Files arrive one by one while fetches are already running.
  for (int i = 0; i < 3; ++i) {
    sched::DownloadFileSpec spec;
    spec.path = "/f" + std::to_string(i);
    sched::DownloadSegmentSpec seg;
    seg.id = "seg" + std::to_string(i);
    seg.size = 64 << 10;
    for (std::uint32_t b = 0; b < 3; ++b) {
      seg.locations.push_back({b, static_cast<cloud::CloudId>(b)});
    }
    spec.segments.push_back(std::move(seg));
    driver.add_file(std::move(spec));
    std::this_thread::sleep_for(milliseconds(2));
  }
  driver.close();
  driver.wait();

  for (int i = 0; i < 3; ++i) {
    const std::string id = "seg" + std::to_string(i);
    ASSERT_EQ(settled.count(id), 1u) << id;
    EXPECT_TRUE(settled[id]);
    // The budget asks for k distinct blocks; hedging may add more.
    EXPECT_GE(fetched[id].size(), 2u);
  }
}

TEST(StreamingDownloadDriverTest, CancelFailsPendingSegmentsWithoutDeadlock) {
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> entered{0};
  std::mutex settled_mu;
  std::map<std::string, bool> settled;
  sched::StreamingDownloadDriver driver(
      /*k=*/2, {0, 1}, sched::DriverConfig{2}, monitor, executor,
      complete_on(*executor,
                  [&](const sched::BlockTask&) {
                    entered.fetch_add(1);
                    std::unique_lock<std::mutex> lock(gate_mu);
                    gate_cv.wait(lock, [&] { return gate_open; });
                    return Status::ok();
                  }),
      nullptr, nullptr, [&](const std::string& id, bool ok) {
        std::lock_guard<std::mutex> g(settled_mu);
        settled[id] = ok;
      });

  sched::DownloadFileSpec spec;
  spec.path = "/wedged";
  sched::DownloadSegmentSpec seg;
  seg.id = "wedged-seg";
  seg.size = 4 << 10;
  seg.locations = {{0, 0}, {1, 1}};
  spec.segments.push_back(std::move(seg));
  driver.add_file(std::move(spec));

  for (int spin = 0; spin < 5000 && entered.load() == 0; ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_GT(entered.load(), 0);

  driver.cancel();  // pending segment settles ok=false immediately
  {
    std::lock_guard<std::mutex> g(settled_mu);
    ASSERT_EQ(settled.count("wedged-seg"), 1u);
    EXPECT_FALSE(settled["wedged-seg"]);
  }
  {
    std::lock_guard<std::mutex> g(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  driver.wait();  // stuck transfers drained, no deadlock
}

// Cloud 0 fails its first three fetches: the driver disables it for the
// job, and a fetch already in flight there re-admits it once it succeeds.
// Every other fetch is parked until cloud 0 is disabled.
TEST(StreamingDownloadDriverTest, DisablesAFailingCloudAndReadmitsItOnSuccess) {
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  auto obs = std::make_shared<obs::Observability>();
  std::mutex mu;
  int cloud0_launches = 0;
  bool released = false;
  std::vector<std::pair<cloud::CloudId, sched::TransferDoneFn>> parked;
  const auto complete = [&executor](sched::TransferDoneFn done, Status s) {
    executor->submit([done = std::move(done), s] { done(s); });
  };
  std::mutex settled_mu;
  std::map<std::string, bool> settled;
  sched::StreamingDownloadDriver driver(
      /*k=*/2, {0, 1, 2}, sched::DriverConfig{2}, monitor, executor,
      [&](const sched::BlockTask& task, sched::TransferDoneFn done) {
        std::lock_guard<std::mutex> g(mu);
        if (task.cloud == 0 && ++cloud0_launches <= 3) {
          complete(std::move(done),
                   make_error(ErrorCode::kUnavailable, "injected"));
        } else if (released) {
          complete(std::move(done), Status::ok());
        } else {
          parked.emplace_back(task.cloud, std::move(done));
        }
        return cloud::AsyncHandle{};
      },
      nullptr, obs, [&](const std::string& id, bool ok) {
        std::lock_guard<std::mutex> g(settled_mu);
        settled[id] = ok;
      });

  // Every segment has one block on each cloud, so cloud 0 always has work.
  sched::DownloadFileSpec spec;
  spec.path = "/f";
  for (int i = 0; i < 4; ++i) {
    sched::DownloadSegmentSpec seg;
    seg.id = "seg" + std::to_string(i);
    seg.size = 64 << 10;
    seg.locations = {{0, 0}, {1, 1}, {2, 2}};
    spec.segments.push_back(std::move(seg));
  }
  driver.add_file(std::move(spec));

  const auto counter = [&](const std::string& name) {
    return obs->metrics.snapshot().counter_value(name);
  };
  for (int spin = 0; spin < 5000 && counter("driver.cloud_disabled") == 0;
       ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(counter("driver.cloud_disabled"), 1u);
  std::vector<std::pair<cloud::CloudId, sched::TransferDoneFn>> release;
  {
    std::lock_guard<std::mutex> g(mu);
    released = true;
    release.swap(parked);
  }
  // Each of cloud 0's first two failures freed a connection that took
  // another block, so one fetch is still in flight to the disabled cloud.
  EXPECT_EQ(std::count_if(release.begin(), release.end(),
                          [](const auto& p) { return p.first == 0; }),
            1);
  for (auto& [cloud, done] : release) complete(std::move(done), Status::ok());
  driver.close();
  driver.wait();

  ASSERT_EQ(settled.size(), 4u);
  for (const auto& [id, ok] : settled) EXPECT_TRUE(ok) << id;
  EXPECT_EQ(counter("driver.down.cloud0.err"), 3u);
  EXPECT_EQ(counter("driver.cloud_disabled"), 1u);
  EXPECT_EQ(counter("driver.cloud_readmitted"), 1u);
}

// Records the cloud of every launch, in launch order, then completes like
// complete_on.
struct LaunchLog {
  std::mutex mu;
  std::vector<cloud::CloudId> clouds;

  sched::AsyncTransferFn wrap(sched::AsyncTransferFn inner) {
    return [this, inner = std::move(inner)](const sched::BlockTask& task,
                                            sched::TransferDoneFn done) {
      {
        std::lock_guard<std::mutex> g(mu);
        clouds.push_back(task.cloud);
      }
      return inner(task, std::move(done));
    };
  }
};

sched::DownloadFileSpec one_segment_file(
    const std::string& id, std::vector<metadata::BlockLocation> locations) {
  sched::DownloadFileSpec spec;
  spec.path = "/" + id;
  sched::DownloadSegmentSpec seg;
  seg.id = id;
  seg.size = 64 << 10;  // 32 KiB blocks at k = 2
  seg.locations = std::move(locations);
  spec.segments.push_back(std::move(seg));
  return spec;
}

TEST(StreamingDownloadDriverTest, PollsTheFastestRankedCloudFirst) {
  // The config lists the slow cloud first; the monitor ranks cloud 1 first.
  sched::ThroughputMonitor monitor;
  monitor.record(0, sched::Direction::kDownload, 1 << 20, 1.0);
  monitor.record(1, sched::Direction::kDownload, 64 << 20, 1.0);
  auto executor = std::make_shared<Executor>(2);
  LaunchLog log;
  {
    sched::StreamingDownloadDriver driver(
        /*k=*/2, {0, 1}, sched::DriverConfig{2}, monitor, executor,
        log.wrap(complete_on(*executor, [](const sched::BlockTask&) {
          return Status::ok();
        })));
    driver.add_file(one_segment_file("seg", {{0, 0}, {1, 0}, {2, 1},
                                             {3, 1}}));
    driver.close();
    driver.wait();
  }
  ASSERT_GE(log.clouds.size(), 2u);
  EXPECT_EQ(log.clouds[0], 1u);
  EXPECT_EQ(log.clouds[1], 1u);
}

TEST(StreamingDownloadDriverTest, DestructionCancelsAnArmedHedgeTimer) {
  TimerWheel& wheel = TimerWheel::shared();
  const std::size_t idle_timers = wheel.pending();
  {
    // Both clouds on record at 10 s per 32 KiB block: the hedge timer for
    // the in-flight blocks is armed ~10 s out and outlives the job.
    sched::ThroughputMonitor monitor;
    for (const cloud::CloudId c : {0u, 1u}) {
      monitor.record(c, sched::Direction::kDownload, 32 << 10, 10.0);
    }
    auto executor = std::make_shared<Executor>(2);
    HangGate gate;
    std::atomic<int> entered{0};
    sched::StreamingDownloadDriver driver(
        /*k=*/2, {0, 1}, sched::DriverConfig{2}, monitor, executor,
        complete_on(*executor, [&](const sched::BlockTask&) {
          entered.fetch_add(1);
          gate.wait();
          return Status::ok();
        }));
    driver.add_file(one_segment_file("seg", {{0, 0}, {1, 1}}));
    EXPECT_EQ(wheel.pending(), idle_timers + 1);
    for (int spin = 0; spin < 5000 && entered.load() < 2; ++spin) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    gate.release();
    driver.close();
    driver.wait();
    EXPECT_EQ(wheel.pending(), idle_timers + 1);  // still armed
  }
  EXPECT_EQ(wheel.pending(), idle_timers);

  // Timers that come due while the driver is torn down: deadlines of
  // ~0.3 ms race the destructor.
  for (int round = 0; round < 20; ++round) {
    sched::ThroughputMonitor monitor;
    for (const cloud::CloudId c : {0u, 1u, 2u}) {
      monitor.record(c, sched::Direction::kDownload, 32 << 10, 3e-4);
    }
    auto executor = std::make_shared<Executor>(2);
    HangGate gate;
    {
      sched::StreamingDownloadDriver driver(
          /*k=*/2, {0, 1, 2}, sched::DriverConfig{2}, monitor, executor,
          complete_on(*executor, [&](const sched::BlockTask&) {
            gate.wait();
            return Status::ok();
          }));
      driver.add_file(one_segment_file("seg", {{0, 0}, {1, 1}, {2, 2}}));
      std::this_thread::sleep_for(std::chrono::microseconds(200 + 20 * round));
      gate.release();
    }
    EXPECT_EQ(wheel.pending(), idle_timers);
  }
}

// --- LocalFs::FileWriter ----------------------------------------------------

// A folder whose writers are the shared buffered writer with a publish step
// that records the buffer it is handed (address, capacity, bytes) before
// storing a copy in an inner MemoryLocalFs.
class RecordingFs final : public LocalFs {
 public:
  struct Published {
    std::string path;
    const std::uint8_t* data = nullptr;
    std::size_t capacity = 0;
    Bytes bytes;
  };

  Result<std::unique_ptr<FileWriter>> open_write(
      const std::string& path) override {
    return buffered_writer([this, path](Bytes data) -> Result<double> {
      {
        std::lock_guard<std::mutex> lock(mu_);
        published_.push_back({path, data.data(), data.capacity(), data});
      }
      UNI_RETURN_IF_ERROR(inner_.write(path, data));
      return inner_.mtime(path);
    });
  }
  std::vector<Published> published() const {
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }
  Published published(const std::string& path) const {
    for (const Published& p : published()) {
      if (p.path == path) return p;
    }
    return {};
  }

  Result<Bytes> read(const std::string& path) const override {
    return inner_.read(path);
  }
  Status write(const std::string& path, ByteSpan data) override {
    return inner_.write(path, data);
  }
  Status remove(const std::string& path) override {
    return inner_.remove(path);
  }
  Status make_dir(const std::string& path) override {
    return inner_.make_dir(path);
  }
  Status remove_dir(const std::string& path) override {
    return inner_.remove_dir(path);
  }
  [[nodiscard]] std::vector<std::string> list_files() const override {
    return inner_.list_files();
  }
  [[nodiscard]] std::vector<std::string> list_dirs() const override {
    return inner_.list_dirs();
  }
  [[nodiscard]] Result<std::uint64_t> size(
      const std::string& path) const override {
    return inner_.size(path);
  }
  [[nodiscard]] Result<double> mtime(const std::string& path) const override {
    return inner_.mtime(path);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Published> published_;
  MemoryLocalFs inner_;
};

TEST(FileWriterTest, OwnedAppendsPublishWithoutCopy) {
  RecordingFs fs;
  Rng rng(32);

  // One append: the writer publishes that allocation itself.
  {
    auto writer = fs.open_write("/one.bin");
    ASSERT_TRUE(writer.is_ok());
    Bytes piece = rng.bytes(5000);
    const Bytes expected = piece;
    const std::uint8_t* const at = piece.data();
    ASSERT_TRUE(writer.value()->append(std::move(piece)).is_ok());
    ASSERT_TRUE(writer.value()->commit().is_ok());
    const auto published = fs.published();
    ASSERT_EQ(published.size(), 1u);
    EXPECT_EQ(published[0].data, at);
    EXPECT_EQ(published[0].bytes, expected);
    EXPECT_EQ(fs.read("/one.bin").value(), expected);
  }

  // Several appends: their byte-exact concatenation, as one buffer.
  {
    auto writer = fs.open_write("/many.bin");
    ASSERT_TRUE(writer.is_ok());
    Bytes joined;
    for (const std::size_t n : {3000u, 1u, 0u, 7000u}) {
      const Bytes piece = rng.bytes(n);
      joined.insert(joined.end(), piece.begin(), piece.end());
      ASSERT_TRUE(writer.value()->append(piece).is_ok());
    }
    EXPECT_EQ(fs.published().size(), 1u);  // nothing published pre-commit
    ASSERT_TRUE(writer.value()->commit().is_ok());
    const auto published = fs.published();
    ASSERT_EQ(published.size(), 2u);
    EXPECT_EQ(published[1].bytes, joined);
    EXPECT_EQ(fs.read("/many.bin").value(), joined);
  }

  // An abort after appends leaves no trace.
  {
    auto writer = fs.open_write("/gone.bin");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value()->append(rng.bytes(100)).is_ok());
    ASSERT_TRUE(writer.value()->append(rng.bytes(200)).is_ok());
    writer.value()->abort();
    EXPECT_FALSE(writer.value()->commit().is_ok());
  }
  EXPECT_EQ(fs.published().size(), 2u);
  EXPECT_FALSE(fs.read("/gone.bin").is_ok());
  EXPECT_EQ(fs.list_files(),
            (std::vector<std::string>{"/many.bin", "/one.bin"}));
}

TEST(FileWriterTest, BufferedWriterPublishesOnlyOnCommit) {
  MemoryLocalFs fs;
  auto writer = fs.open_write("/w.txt");
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer.value()->append(bytes_from_string("he")).is_ok());
  ASSERT_TRUE(writer.value()->append(bytes_from_string("llo")).is_ok());
  EXPECT_FALSE(fs.read("/w.txt").is_ok());  // nothing visible pre-commit
  const Result<double> published = writer.value()->commit();
  ASSERT_TRUE(published.is_ok());
  EXPECT_EQ(fs.read("/w.txt").value(), bytes_from_string("hello"));
  // The commit reports the mtime of the bytes it published.
  EXPECT_EQ(published.value(), fs.mtime("/w.txt").value());
  // The writer is closed: further appends and commits are rejected.
  EXPECT_FALSE(writer.value()->append(bytes_from_string("x")).is_ok());
  EXPECT_FALSE(writer.value()->commit().is_ok());
}

TEST(FileWriterTest, AbortAndDestructionLeaveNoTrace) {
  MemoryLocalFs fs;
  {
    auto writer = fs.open_write("/a.bin");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value()->append(bytes_from_string("xx")).is_ok());
    writer.value()->abort();
    writer.value()->abort();  // idempotent
  }
  {
    auto writer = fs.open_write("/b.bin");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value()->append(bytes_from_string("yy")).is_ok());
    // destroyed without commit
  }
  EXPECT_FALSE(fs.read("/a.bin").is_ok());
  EXPECT_FALSE(fs.read("/b.bin").is_ok());
  EXPECT_TRUE(fs.list_files().empty());
}

TEST(FileWriterTest, DiskWriterStreamsThroughPartFileAndRenames) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("unidrive_writer_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  {
    DiskLocalFs fs(root);
    auto writer = fs.open_write("/docs/out.bin");
    ASSERT_TRUE(writer.is_ok());
    Rng rng(31);
    const Bytes part1 = rng.bytes(10000);
    const Bytes part2 = rng.bytes(5000);
    ASSERT_TRUE(writer.value()->append(part1).is_ok());
    ASSERT_TRUE(writer.value()->append(part2).is_ok());
    EXPECT_FALSE(fs.read("/docs/out.bin").is_ok());  // only the .part exists
    const Result<double> published = writer.value()->commit();
    ASSERT_TRUE(published.is_ok());
    Bytes joined = part1;
    joined.insert(joined.end(), part2.begin(), part2.end());
    EXPECT_EQ(fs.read("/docs/out.bin").value(), joined);
    // Statted on the .part before the rename, which keeps the mtime.
    EXPECT_EQ(published.value(), fs.mtime("/docs/out.bin").value());
    // The temp file was renamed away, not left beside the result.
    EXPECT_EQ(fs.list_files(),
              std::vector<std::string>{"/docs/out.bin"});

    auto aborted = fs.open_write("/docs/gone.bin");
    ASSERT_TRUE(aborted.is_ok());
    ASSERT_TRUE(aborted.value()->append(part1).is_ok());
    aborted.value()->abort();
    EXPECT_EQ(fs.list_files(),
              std::vector<std::string>{"/docs/out.bin"});
  }
  std::filesystem::remove_all(root);
}

// --- DownloadPipeline: end-to-end restores ----------------------------------

TEST(RestorePipelineTest, RestoresMultiFileBatchBitExact) {
  const std::size_t k = 3;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(4);
  metadata::SyncFolderImage image;
  Rng rng(41);

  const Bytes big = rng.bytes(300 << 10);  // 5 segments
  // One shared segment: /dup duplicates /big's first segment, and repeats
  // it twice so one decoded plaintext feeds two file positions.
  Bytes dup(big.begin(), big.begin() + theta);
  dup.insert(dup.end(), big.begin(), big.begin() + theta);
  const Bytes empty;

  const auto snap_big =
      publish_file("/big.bin", big, theta, code, 5, clouds, image);
  const auto snap_dup =
      publish_file("/dup.bin", dup, theta, code, 5, clouds, image);
  const auto snap_empty =
      publish_file("/empty", empty, theta, code, 5, clouds, image);

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2, 3}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, obs);
  pipeline.add_file(snap_big, image);
  pipeline.add_file(snap_dup, image);
  pipeline.add_file(snap_empty, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.is_ok()) << r.path << ": " << r.status.message();
  }
  EXPECT_EQ(fs.read("/big.bin").value(), big);
  EXPECT_EQ(fs.read("/dup.bin").value(), dup);
  EXPECT_EQ(fs.read("/empty").value(), empty);
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);

  const auto metrics = obs->metrics.snapshot();
  EXPECT_EQ(metrics.gauge_value("restore.inflight_bytes"), 0.0);
  EXPECT_GT(metrics.gauge_value("restore.inflight_bytes_peak"), 0.0);
}

TEST(RestorePipelineTest, InflightBytesStayUnderCapUnderSlowClouds) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(4);
  metadata::SyncFolderImage image;
  Rng rng(42);

  const Bytes content = rng.bytes(1 << 20);  // 16 segments
  const auto snap =
      publish_file("/slow.bin", content, theta, code, 4, clouds, image);

  // Every download takes a few milliseconds, so the producer runs far
  // ahead of the fetch stage and leans on the admission gate.
  cloud::MultiCloud slow;
  for (const auto& c : clouds) {
    slow.push_back(std::make_shared<SlowCloud>(c, milliseconds(3)));
  }

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(slow, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  MemoryLocalFs fs;
  PipelineConfig config;
  // A 64 KiB segment's restore footprint is 128 KiB (k shards of 32 KiB
  // plus the plaintext): at most four segments fit in flight at once.
  config.max_inflight_bytes = 512 << 10;
  DownloadPipeline pipeline(k, code, {0, 1, 2, 3}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins), config,
                            fs, nullptr, obs);
  pipeline.add_file(snap, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/slow.bin").value(), content);

  const auto metrics = obs->metrics.snapshot();
  const double peak = metrics.gauge_value("restore.inflight_bytes_peak");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(config.max_inflight_bytes));
  EXPECT_EQ(metrics.gauge_value("restore.inflight_bytes"), 0.0);
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

TEST(RestorePipelineTest, AsyncTransfersRestoreBitExact) {
  const std::size_t k = 3;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(4);
  metadata::SyncFolderImage image;
  Rng rng(47);

  const Bytes big = rng.bytes(300 << 10);
  const auto snap =
      publish_file("/async.bin", big, theta, code, 5, clouds, image);

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2, 3}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, nullptr);
  pipeline.add_file(snap, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/async.bin").value(), big);
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

// One cloud stalls far past its p95 and no other completion is pending:
// only the driver's hedge timer can notice, and the restore must finish on
// the other clouds long before the stall ends.
TEST(RestorePipelineTest, HedgeTimerRescuesABlockStalledPastItsP95) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(49);

  const Bytes content = rng.bytes(theta);  // one segment, block b on cloud b
  const auto snap =
      publish_file("/stall.bin", content, theta, code, 3, clouds, image);

  // Cloud 0 hangs on every request until the gate opens.
  HangGate gate;
  cloud::FaultProfile hang_profile;
  hang_profile.hang_rate = 1.0;
  hang_profile.hang_seconds = 1.0;
  auto stalling = std::make_shared<cloud::FaultyCloud>(
      clouds[0], hang_profile, /*seed=*/1, [&gate](Duration) { gate.wait(); });
  const cloud::MultiCloud providers = {stalling, clouds[1], clouds[2]};

  // On record, cloud 0 is the fastest (0.2 s per 32 KiB block at p95), so
  // it takes a block first; clouds 1 and 2 are slower, so neither wins a
  // hedge at once and the stalled block turns overdue at ~0.2 s.
  sched::ThroughputMonitor monitor;
  monitor.record(0, sched::Direction::kDownload, 32 << 10, 0.2);
  monitor.record(1, sched::Direction::kDownload, 32 << 10, 0.3);
  monitor.record(2, sched::Direction::kDownload, 32 << 10, 0.4);

  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(providers, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, obs);
  const auto start = std::chrono::steady_clock::now();
  pipeline.add_file(snap, image);
  // The file commits once its segment decodes, while the stalled request
  // still hangs.
  bool restored = false;
  for (int spin = 0; spin < 5000 && !restored; ++spin) {
    restored = fs.read("/stall.bin").is_ok();
    if (!restored) std::this_thread::sleep_for(milliseconds(1));
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(stalling->hangs(), 1u);
  gate.release();
  const auto results = pipeline.finish();

  ASSERT_TRUE(restored) << "the stalled block was never hedged";
  EXPECT_LT(elapsed, 2.0);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/stall.bin").value(), content);
  EXPECT_EQ(obs->metrics.snapshot().counter_value("driver.hedge_tasks"), 1u);
}

// finish() returns once every segment is decided, not once every launched
// fetch has landed: the block stalled on cloud 0 was hedged and made
// redundant, so it must not hold the restore. It lands after the return,
// the pipeline then reads drained(), and the destructor returns.
TEST(RestorePipelineTest, FinishReturnsBeforeRedundantFetchLands) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(50);

  const Bytes content = rng.bytes(theta);  // one segment, block b on cloud b
  const auto snap =
      publish_file("/early.bin", content, theta, code, 3, clouds, image);

  HangGate gate;
  cloud::FaultProfile hang_profile;
  hang_profile.hang_rate = 1.0;
  hang_profile.hang_seconds = 1.0;
  auto stalling = std::make_shared<cloud::FaultyCloud>(
      clouds[0], hang_profile, /*seed=*/1, [&gate](Duration) { gate.wait(); });
  const cloud::MultiCloud providers = {stalling, clouds[1], clouds[2]};

  // As in HedgeTimerRescuesABlockStalledPastItsP95: cloud 0 ranks first and
  // takes a block, which turns overdue at ~0.2 s and is hedged.
  sched::ThroughputMonitor monitor;
  monitor.record(0, sched::Direction::kDownload, 32 << 10, 0.2);
  monitor.record(1, sched::Direction::kDownload, 32 << 10, 0.3);
  monitor.record(2, sched::Direction::kDownload, 32 << 10, 0.4);

  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(providers, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  MemoryLocalFs fs;
  const auto start = std::chrono::steady_clock::now();
  // Opens the gate after 2 s, whether or not finish() returned.
  std::jthread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    gate.release();
  });
  {
    DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                              monitor, executor, async_lookup(twins),
                              PipelineConfig{}, fs, nullptr, obs);
    pipeline.add_file(snap, image);
    const auto results = pipeline.finish();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(elapsed, 1.0) << "finish() waited out the redundant fetch";
    EXPECT_FALSE(pipeline.drained());
    EXPECT_EQ(
        obs->metrics.snapshot().counter_value("restore.detached_fetches"),
        1u);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
    EXPECT_EQ(fs.read("/early.bin").value(), content);

    opener.join();
    for (int spin = 0; spin < 5000 && !pipeline.drained(); ++spin) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    EXPECT_TRUE(pipeline.drained());
  }
  EXPECT_EQ(stalling->hangs(), 1u);
  // The late completion still ran the engine's bookkeeping.
  EXPECT_EQ(obs->metrics.snapshot().counter_value("driver.down.cloud0.ok"),
            1u);
}

// One segment feeds a position in each of two files, and both files are
// admitted before its fetch lands (every cloud is gated until then). When
// it decodes, the earlier waiter (/a) copies the plaintext and the last
// one (/b) takes it. The segment's size is not a multiple of k, so the
// decode's own buffer is recognisable by its capacity: k shards' worth,
// trimmed to the segment's size.
TEST(RestorePipelineTest, SharedSegmentIsCopiedForEarlierWaiterAndMovedToLast) {
  const std::size_t k = 3;
  const std::size_t size = 100000;
  const erasure::RsCode code(16, k);
  ASSERT_NE(k * code.shard_size(size), size);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(51);

  const Bytes content = rng.bytes(size);  // one segment, block b on cloud b
  const auto snap_a =
      publish_file("/a.bin", content, size, code, 3, clouds, image);
  const auto snap_b =
      publish_file("/b.bin", content, size, code, 3, clouds, image);
  ASSERT_EQ(snap_a.segment_ids, snap_b.segment_ids);

  HangGate gate;
  cloud::FaultProfile hang_profile;
  hang_profile.hang_rate = 1.0;
  hang_profile.hang_seconds = 1.0;
  cloud::MultiCloud gated;
  for (const auto& c : clouds) {
    gated.push_back(std::make_shared<cloud::FaultyCloud>(
        c, hang_profile, /*seed=*/1, [&gate](Duration) { gate.wait(); }));
  }

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(gated, executor.get());
  RecordingFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr,
                            std::make_shared<obs::Observability>());
  pipeline.add_file(snap_a, image);
  pipeline.add_file(snap_b, image);
  gate.release();
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.is_ok()) << r.path << ": " << r.status.message();
  }
  EXPECT_EQ(fs.read("/a.bin").value(), content);
  EXPECT_EQ(fs.read("/b.bin").value(), content);
  ASSERT_EQ(fs.published().size(), 2u);
  const RecordingFs::Published a = fs.published("/a.bin");
  const RecordingFs::Published b = fs.published("/b.bin");
  EXPECT_EQ(a.bytes, content);
  EXPECT_EQ(b.bytes, content);
  EXPECT_NE(a.capacity, k * code.shard_size(size))
      << "the earlier waiter took the decoded buffer";
  EXPECT_EQ(b.capacity, k * code.shard_size(size))
      << "the last waiter copied the decoded buffer";
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

// Cancel mid-flight with completion-based fetches wedged in an injected
// hang: the blocked producer and all reserved bytes must be released, and
// no partial file may survive.
TEST(RestorePipelineTest, AsyncCancelUnderHangingCloudReleasesProducer) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(2);
  metadata::SyncFolderImage image;
  Rng rng(48);

  const Bytes content = rng.bytes(128 << 10);  // two 64 KiB segments
  const auto snap =
      publish_file("/ahang.bin", content, theta, code, 2, clouds, image);

  HangGate gate;
  cloud::FaultProfile hang_profile;
  hang_profile.hang_rate = 1.0;
  hang_profile.hang_seconds = 1.0;
  cloud::MultiCloud faulty;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> handles;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    auto f = std::make_shared<cloud::FaultyCloud>(
        clouds[i], hang_profile, /*seed=*/i + 1,
        [&gate](Duration) { gate.wait(); });
    handles.push_back(f);
    faulty.push_back(f);
  }

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(faulty, executor.get());
  MemoryLocalFs fs;
  PipelineConfig config;
  config.max_inflight_bytes = 200 << 10;
  {
    DownloadPipeline pipeline(k, code, {0, 1}, sched::DriverConfig{2},
                              monitor, executor, async_lookup(twins), config,
                              fs, nullptr, nullptr);

    std::atomic<bool> producer_done{false};
    std::thread producer([&] {
      pipeline.add_file(snap, image);
      producer_done.store(true);
    });

    for (int spin = 0; spin < 5000; ++spin) {
      if (handles[0]->hangs() + handles[1]->hangs() > 0) break;
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_GT(handles[0]->hangs() + handles[1]->hangs(), 0u);
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(producer_done.load());

    pipeline.cancel();
    producer.join();
    EXPECT_TRUE(producer_done.load());

    gate.release();  // let the wedged completions resolve
    const auto results = pipeline.finish();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].status.is_ok());
    EXPECT_EQ(pipeline.inflight_bytes(), 0u);
    EXPECT_FALSE(fs.read("/ahang.bin").is_ok());
    EXPECT_TRUE(fs.list_files().empty());
  }
}

TEST(RestorePipelineTest, CorruptShardSearchConvergesWithOutOfOrderBlocks) {
  const std::size_t k = 3;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(4);
  metadata::SyncFolderImage image;
  Rng rng(44);

  const Bytes content = rng.bytes(384 << 10);  // 6 segments
  const auto snap =
      publish_file("/healed.bin", content, theta, code, 4, clouds, image);

  // Corrupt block 1 of the FIRST segment in place on its cloud. With
  // blocks 0..3 on clouds 0..3 and budget k=3, blocks {0,1,2} are fetched
  // first, the verified decode fails, and the search must pull block 3.
  const std::string& first_seg = snap.segment_ids.front();
  const Bytes junk = rng.bytes(code.shard_size(theta));
  ASSERT_TRUE(clouds[1]
                  ->upload(metadata::block_path(first_seg, 1), ByteSpan(junk))
                  .is_ok());

  // Skewed latencies: cloud 0 is slowest, so block arrivals — and whole
  // segment decodes — complete out of snapshot order; the writer must
  // still assemble in order.
  const milliseconds delays[] = {milliseconds(12), milliseconds(1),
                                 milliseconds(2), milliseconds(3)};
  cloud::MultiCloud slow;
  for (std::size_t i = 0; i < clouds.size(); ++i) {
    slow.push_back(std::make_shared<SlowCloud>(clouds[i], delays[i]));
  }

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(slow, executor.get());
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2, 3}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, nullptr);
  pipeline.add_file(snap, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/healed.bin").value(), content);
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

TEST(RestorePipelineTest, UnrecoverableCorruptionFailsWithoutPartialWrite) {
  const std::size_t k = 3;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(45);

  const Bytes content = rng.bytes(100 << 10);  // 2 segments
  // Exactly k blocks per segment: after a corruption there is no extra
  // supply, so the search must exhaust and fail the file.
  const auto snap =
      publish_file("/doomed.bin", content, theta, code, 3, clouds, image);
  const std::string& first_seg = snap.segment_ids.front();
  const Bytes junk = rng.bytes(code.shard_size(theta));
  ASSERT_TRUE(clouds[2]
                  ->upload(metadata::block_path(first_seg, 2), ByteSpan(junk))
                  .is_ok());

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, nullptr);
  pipeline.add_file(snap, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].status.is_ok());
  EXPECT_EQ(results[0].status.code(), ErrorCode::kCorrupt);
  EXPECT_FALSE(fs.read("/doomed.bin").is_ok());
  EXPECT_TRUE(fs.list_files().empty());
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

// Cancel and destroy the pipeline while the corrupt-shard search runs:
// the decode task that asks the driver for another block must keep the
// pipeline alive until that call returns.
TEST(RestorePipelineTest, TeardownDuringCorruptShardSearchIsSafe) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(50);

  // Block b of every segment on cloud b, blocks 0 and 1 rotted: whichever
  // two blocks land first fail to verify, so every segment searches.
  const auto publish_rotted = [&](const std::string& path, std::size_t size) {
    const auto snap =
        publish_file(path, rng.bytes(size), theta, code, 3, clouds, image);
    for (const std::string& seg : snap.segment_ids) {
      for (const std::uint32_t b : {0u, 1u}) {
        const Bytes junk = rng.bytes(code.shard_size(theta));
        EXPECT_TRUE(clouds[b]
                        ->upload(metadata::block_path(seg, b), ByteSpan(junk))
                        .is_ok());
      }
    }
    return snap;
  };
  const auto snap = publish_rotted("/search.bin", theta);
  const auto many = publish_rotted("/race.bin", 8 * theta);
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  MemoryLocalFs fs;

  // The search's extra block (the third download) hangs in flight while
  // the pipeline is cancelled and torn down.
  {
    HangGate gate;
    std::atomic<int> downloads{0};
    cloud::FaultProfile hang_profile;
    hang_profile.hang_rate = 1.0;
    hang_profile.hang_seconds = 1.0;
    cloud::MultiCloud gated;
    for (std::size_t i = 0; i < clouds.size(); ++i) {
      gated.push_back(std::make_shared<cloud::FaultyCloud>(
          clouds[i], hang_profile, /*seed=*/i + 1, [&](Duration) {
            if (downloads.fetch_add(1) >= 2) gate.wait();
          }));
    }
    cloud::AsyncMultiCloud twins = async_twins(gated, executor.get());
    auto pipeline = std::make_unique<DownloadPipeline>(
        k, code, std::vector<cloud::CloudId>{0, 1, 2}, sched::DriverConfig{2},
        monitor, executor, async_lookup(twins), PipelineConfig{}, fs, nullptr,
        nullptr);
    pipeline->add_file(snap, image);
    for (int spin = 0; spin < 5000 && downloads.load() < 3; ++spin) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    ASSERT_EQ(downloads.load(), 3);
    pipeline->cancel();
    std::thread teardown([&] { pipeline.reset(); });
    std::this_thread::sleep_for(milliseconds(10));
    gate.release();
    teardown.join();
  }

  // Teardown races the searches of eight segments: cancelled at staggered
  // points of the restore, then destroyed directly or after finish().
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  for (int round = 0; round < 20; ++round) {
    auto pipeline = std::make_unique<DownloadPipeline>(
        k, code, std::vector<cloud::CloudId>{0, 1, 2}, sched::DriverConfig{2},
        monitor, executor, async_lookup(twins), PipelineConfig{}, fs, nullptr,
        nullptr);
    pipeline->add_file(many, image);
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    pipeline->cancel();
    if (round % 2 == 1) {
      const auto results = pipeline->finish();
      ASSERT_EQ(results.size(), 1u);
      EXPECT_FALSE(results[0].status.is_ok());
    }
    pipeline.reset();
  }
  EXPECT_TRUE(fs.list_files().empty());
}

TEST(RestorePipelineTest, MissingSegmentFailsOnlyThatFile) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(46);

  const Bytes good = rng.bytes(80 << 10);
  const auto snap_good =
      publish_file("/good.bin", good, theta, code, 3, clouds, image);

  metadata::FileSnapshot snap_bad;
  snap_bad.path = "/bad.bin";
  snap_bad.size = 10;
  snap_bad.content_hash = "0000000000000000000000000000000000000000";
  snap_bad.segment_ids = {"not-a-segment"};

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, nullptr);
  pipeline.add_file(snap_good, image);
  pipeline.add_file(snap_bad, image);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_FALSE(results[1].status.is_ok());
  EXPECT_EQ(fs.read("/good.bin").value(), good);
  EXPECT_FALSE(fs.read("/bad.bin").is_ok());
}

TEST(RestorePipelineTest, RejectsSegmentListThatContradictsItsContentHash) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  metadata::SyncFolderImage image;
  Rng rng(47);
  const Bytes content = rng.bytes(3 * theta);
  const metadata::FileSnapshot published =
      publish_file("/f.bin", content, theta, code, 3, clouds, image);
  ASSERT_EQ(published.segment_ids.size(), 3u);

  // One set of segments, all of which verify, under four content hashes.
  const auto variant = [&](const std::string& path, std::string hash) {
    metadata::FileSnapshot snap = published;
    snap.path = path;
    snap.content_hash = std::move(hash);
    return snap;
  };
  std::vector<std::string> reordered = published.segment_ids;
  std::swap(reordered[0], reordered[2]);
  const std::vector<metadata::FileSnapshot> snaps = {
      variant("/list.bin", crypto::file_content_hash(published.segment_ids)),
      variant("/contradicted.bin", crypto::file_content_hash(reordered)),
      variant("/malformed.bin", "c0ffee"),
      variant("/legacy-mismatch.bin",
              crypto::Sha1::hex(ByteSpan(rng.bytes(100)))),
  };

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  MemoryLocalFs fs;
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, nullptr);
  for (const metadata::FileSnapshot& snap : snaps) {
    pipeline.add_file(snap, image);
  }
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), snaps.size());
  EXPECT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/list.bin").value(), content);
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), ErrorCode::kCorrupt) << snaps[i].path;
    EXPECT_FALSE(fs.read(snaps[i].path).is_ok()) << snaps[i].path;
  }
}

// --- DownloadPipeline: local source -------------------------------------------

// Two versions of one file at fixed-size segments: `before` is the image
// the folder reflects (v1), `after` adds v2's segments and snapshot.
struct TwoVersions {
  metadata::SyncFolderImage before;
  metadata::SyncFolderImage after;
  metadata::FileSnapshot snapshot;  // v2

  [[nodiscard]] std::unordered_set<std::string> wanted() const {
    return {snapshot.segment_ids.begin(), snapshot.segment_ids.end()};
  }
};

TwoVersions publish_versions(const std::string& path, const Bytes& v1,
                             const Bytes& v2, std::size_t theta,
                             const erasure::RsCode& code,
                             std::uint32_t blocks_per_segment,
                             const cloud::MultiCloud& clouds) {
  TwoVersions out;
  publish_file(path, v1, theta, code, blocks_per_segment, clouds, out.before);
  out.after = out.before;
  out.snapshot = publish_file(path, v2, theta, code, blocks_per_segment,
                              clouds, out.after);
  return out;
}

TEST(RestorePipelineTest, TamperedLocalSourceFallsBackToCloudFetch) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(3);
  Rng rng(48);
  const Bytes v1 = rng.bytes(4 * theta);
  Bytes v2 = v1;
  const Bytes tail = rng.bytes(theta);
  std::copy(tail.begin(), tail.end(), v2.end() - static_cast<long>(theta));
  const TwoVersions versions =
      publish_versions("/f.bin", v1, v2, theta, code, 3, clouds);

  // The folder's copy of v1 rotted inside its first segment.
  MemoryLocalFs fs;
  Bytes rotted = v1;
  rotted[100] ^= 0x01;
  ASSERT_TRUE(fs.write("/f.bin", ByteSpan(rotted)).is_ok());
  const HeldSegments held(versions.before, fs, versions.wanted());

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  DownloadPipeline pipeline(k, code, {0, 1, 2}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins),
                            PipelineConfig{}, fs, nullptr, obs);
  pipeline.add_file(versions.snapshot, versions.after, &held);
  const auto results = pipeline.finish();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/f.bin").value(), v2);
  // The rotted segment and the rewritten one come from the clouds.
  const auto metrics = obs->metrics.snapshot();
  EXPECT_EQ(metrics.counter_value("restore.segments"), 2u);
  EXPECT_EQ(metrics.counter_value("restore.reused_segments"), 2u);
}

TEST(RestorePipelineTest, LocalReuseKeepsInflightBytesUnderCap) {
  const std::size_t k = 2;
  const std::size_t theta = 64 << 10;
  const erasure::RsCode code(16, k);
  cloud::MultiCloud clouds = make_clouds(4);
  Rng rng(49);
  const Bytes v1 = rng.bytes(1 << 20);  // 16 segments
  // Every other segment is rewritten; the rest come from the local copy.
  Bytes v2 = v1;
  for (std::size_t seg = 1; seg < 16; seg += 2) {
    const Bytes fresh = rng.bytes(theta);
    std::copy(fresh.begin(), fresh.end(),
              v2.begin() + static_cast<long>(seg * theta));
  }
  const TwoVersions versions =
      publish_versions("/slow.bin", v1, v2, theta, code, 4, clouds);
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/slow.bin", ByteSpan(v1)).is_ok());
  const HeldSegments held(versions.before, fs, versions.wanted());

  // Slow fetches keep the local segments waiting for their turn to be
  // written, charged against the window meanwhile.
  cloud::MultiCloud slow;
  for (const auto& c : clouds) {
    slow.push_back(std::make_shared<SlowCloud>(c, milliseconds(3)));
  }
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(slow, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  PipelineConfig config;
  config.max_inflight_bytes = 512 << 10;
  DownloadPipeline pipeline(k, code, {0, 1, 2, 3}, sched::DriverConfig{2},
                            monitor, executor, async_lookup(twins), config,
                            fs, nullptr, obs);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sampled_peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const std::size_t now = pipeline.inflight_bytes();
      if (now > sampled_peak.load()) sampled_peak.store(now);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  pipeline.add_file(versions.snapshot, versions.after, &held);
  const auto results = pipeline.finish();
  stop.store(true);
  sampler.join();

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.is_ok()) << results[0].status.message();
  EXPECT_EQ(fs.read("/slow.bin").value(), v2);
  const auto metrics = obs->metrics.snapshot();
  EXPECT_EQ(metrics.counter_value("restore.reused_segments"), 8u);
  EXPECT_EQ(metrics.counter_value("restore.segments"), 8u);
  EXPECT_LE(sampled_peak.load(), config.max_inflight_bytes);
  const double peak = metrics.gauge_value("restore.inflight_bytes_peak");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(config.max_inflight_bytes));
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
}

}  // namespace
}  // namespace unidrive::core
