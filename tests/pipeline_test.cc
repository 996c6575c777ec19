// Tests for the staged sync pipeline: the Executor/BoundedQueue substrate,
// parallel erasure encode, the incremental StreamingUploadDriver, and the
// end-to-end UploadPipeline including cancellation under injected cloud
// hangs, the bounded-memory admission gate, and latency waits that hold
// no pool thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "cloud/async.h"
#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/executor.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "core/upload_pipeline.h"
#include "erasure/rs.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {
namespace {

Bytes text(const std::string& s) { return bytes_from_string(s); }

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

ClientConfig test_config(const std::string& device) {
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.driver.connections_per_cloud = 2;
  return cfg;
}

// Scoped setter for UNIDRIVE_PIPELINE_THREADS.
class ScopedPipelineThreadsEnv {
 public:
  explicit ScopedPipelineThreadsEnv(const char* value) {
    const char* old = std::getenv("UNIDRIVE_PIPELINE_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv("UNIDRIVE_PIPELINE_THREADS", value, 1);
  }
  ~ScopedPipelineThreadsEnv() {
    if (had_old_) {
      setenv("UNIDRIVE_PIPELINE_THREADS", old_.c_str(), 1);
    } else {
      unsetenv("UNIDRIVE_PIPELINE_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// --- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, FifoAndCloseDrains) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed + drained
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueueTest, CancelReleasesBlockedProducerAndDropsItems) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.cancel();
  producer.join();
  EXPECT_FALSE(q.pop().has_value());  // contents dropped
  EXPECT_EQ(q.depth(), 0u);
}

// --- Executor ---------------------------------------------------------------

TEST(ExecutorTest, ParallelApplyCoversAllIndices) {
  Executor executor(4);
  std::vector<std::atomic<int>> hits(100);
  executor.parallel_apply(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorTest, ParallelApplySafeFromPoolThread) {
  // A submitted task fanning out again must not deadlock (the caller
  // participates in the fan-out).
  Executor executor(1);
  std::promise<int> done;
  executor.submit([&] {
    std::atomic<int> sum{0};
    executor.parallel_apply(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    done.set_value(sum.load());
  });
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(fut.get(), 45);
}

TEST(ExecutorTest, EnvVariableOverridesThreadCount) {
  ScopedPipelineThreadsEnv env("1");
  EXPECT_EQ(Executor::default_threads(8), 1u);
}

TEST(ExecutorTest, FloorAppliesWithoutEnvOverride) {
  // Whatever the hardware, the caller's floor is respected.
  ScopedPipelineThreadsEnv env("0");  // treated as unset (must be > 0)
  EXPECT_GE(Executor::default_threads(16), 16u);
}

// --- parallel encode --------------------------------------------------------

TEST(ParallelEncodeTest, MatchesSerialEncodeForEveryShard) {
  const erasure::RsCode code(16, 4);
  Rng rng(7);
  const Bytes segment = rng.bytes(200001);  // deliberately not shard-aligned
  std::vector<std::uint32_t> indices;
  for (std::uint32_t i = 0; i < 16; ++i) indices.push_back(i);

  const std::vector<erasure::Shard> serial =
      code.encode_shards(ByteSpan(segment), indices);
  for (const std::size_t threads : {1, 4}) {
    Executor executor(threads);
    std::vector<Bytes> parallel(indices.size(),
                                Bytes(code.shard_size(segment.size())));
    std::vector<std::uint8_t*> out;
    for (Bytes& row : parallel) out.push_back(row.data());
    code.encode_shards_parallel(ByteSpan(segment), indices, out, executor);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].index, indices[i]);
      EXPECT_EQ(parallel[i], serial[i].data) << "shard " << i;
    }
  }
}

// --- StreamingUploadDriver --------------------------------------------------

// Test transfer launcher: computes each transfer's outcome with `outcome`
// on `executor` and completes from there — never on the launching stack,
// as the AsyncCloud contract requires (cloud/async.h invariant 1).
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

// One single-segment upload job per name, like the scheduler tests use.
sched::UploadFileSpec one_file(const std::string& name) {
  sched::UploadFileSpec f;
  f.path = "/" + name;
  f.segments.push_back({name + "_seg", 3000});
  return f;
}

TEST(StreamingDriverTest, IncrementalFeedPreservesPlacementInvariants) {
  const sched::CodeParams params{4, 3, 2, 3};
  ASSERT_TRUE(params.validate().is_ok());
  const std::vector<cloud::CloudId> clouds{0, 1, 2, 3};
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);

  std::mutex mu;
  std::map<std::string, std::set<std::uint32_t>> uploaded;
  std::mutex settled_mu;
  std::set<std::string> settled;
  sched::StreamingUploadDriver driver(
      params, clouds, sched::DriverConfig{2}, monitor, executor,
      complete_on(*executor,
                  [&](const sched::BlockTask& task) {
                    std::lock_guard<std::mutex> g(mu);
                    uploaded[task.segment_id].insert(task.block_index);
                    return Status::ok();
                  }),
      nullptr, nullptr,
      [&](const std::string& id) {
        std::lock_guard<std::mutex> g(settled_mu);
        settled.insert(id);
      });

  // Files arrive one by one while transfers are already running.
  for (int i = 0; i < 3; ++i) {
    sched::UploadFileSpec spec;
    spec.path = "/f" + std::to_string(i);
    spec.segments.push_back({"seg" + std::to_string(i), 64 << 10});
    driver.add_file(std::move(spec));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  driver.close();
  driver.wait();

  for (int i = 0; i < 3; ++i) {
    const std::string id = "seg" + std::to_string(i);
    const auto locations = driver.locations(id);
    // Availability floor: >= k distinct blocks landed.
    std::set<std::uint32_t> distinct;
    std::map<cloud::CloudId, std::size_t> per_cloud;
    for (const auto& b : locations) {
      distinct.insert(b.block_index);
      ++per_cloud[b.cloud];
      EXPECT_LT(b.block_index, params.code_n());
    }
    EXPECT_GE(distinct.size(), params.k);
    // Security ceiling holds per cloud.
    for (const auto& [cloud, count] : per_cloud) {
      EXPECT_LE(count, params.max_per_cloud());
    }
    // Every placed block was actually transferred, and vice versa.
    EXPECT_EQ(uploaded[id].size(), distinct.size());
    // Memory-release contract: every segment settled by the end.
    EXPECT_EQ(settled.count(id), 1u);
  }
}

TEST(StreamingDriverTest, ToleratesFailuresAndStillCompletes) {
  const sched::CodeParams params;  // paper defaults: N=5, k=3, Ks=2, Kr=3
  const std::vector<cloud::CloudId> clouds{0, 1, 2, 3, 4};
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  Rng rng(3);
  std::mutex rng_mutex;
  sched::StreamingUploadDriver driver(
      params, clouds, sched::DriverConfig{}, monitor, executor,
      complete_on(*executor, [&](const sched::BlockTask&) -> Status {
        std::lock_guard<std::mutex> g(rng_mutex);
        if (rng.bernoulli(0.3)) {
          return make_error(ErrorCode::kUnavailable, "flaky");
        }
        return Status::ok();
      }));
  for (const char* name : {"a", "b", "c"}) driver.add_file(one_file(name));
  driver.close();
  driver.wait();

  // Failed blocks return to the pool and are reassigned: every segment
  // still reaches availability (>= k distinct blocks placed).
  for (const char* name : {"a", "b", "c"}) {
    std::set<std::uint32_t> distinct;
    for (const auto& b : driver.locations(std::string(name) + "_seg")) {
      distinct.insert(b.block_index);
    }
    EXPECT_GE(distinct.size(), params.k) << name;
  }
}

TEST(StreamingDriverTest, RecordsThroughputSamples) {
  const std::vector<cloud::CloudId> clouds{0, 1, 2, 3, 4};
  sched::ThroughputMonitor monitor(123.0);
  auto executor = std::make_shared<Executor>(4);
  sched::StreamingUploadDriver driver(
      sched::CodeParams{}, clouds, sched::DriverConfig{}, monitor, executor,
      complete_on(*executor,
                  [](const sched::BlockTask&) { return Status::ok(); }));
  driver.add_file(one_file("a"));
  driver.close();
  driver.wait();
  // In-channel probing: at least one cloud's estimate moved off the
  // default.
  bool moved = false;
  for (const cloud::CloudId c : clouds) {
    if (monitor.estimate(c, sched::Direction::kUpload) != 123.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

// --- UploadPipeline: cancellation under a hanging cloud ---------------------

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

// --- UploadPipeline: completion-based transfers -----------------------------

// Builds async twins of `providers` over `io`; async_lookup() turns them
// into the pipeline's FindAsyncCloudFn. The twins must outlive the
// pipeline, so the caller keeps the returned vector alive.
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

TEST(UploadPipelineTest, AsyncTransfersRoundTripDirectly) {
  const sched::CodeParams params{4, 3, 2, 3};
  ASSERT_TRUE(params.validate().is_ok());

  cloud::MultiCloud clouds = make_clouds(4);
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());

  UploadPipeline pipeline(params, erasure::RsCode(16, params.k),
                          {0, 1, 2, 3}, sched::DriverConfig{2}, monitor,
                          executor, async_lookup(twins), PipelineConfig{},
                          nullptr, nullptr);

  Rng rng(21);
  for (int i = 0; i < 6; ++i) {
    pipeline.feed("seg" + std::to_string(i), rng.bytes(64 << 10));
  }
  const auto result = pipeline.finish();
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  ASSERT_EQ(result.value().size(), 6u);
  for (const auto& seg : result.value()) {
    EXPECT_GE(seg.blocks.size(), params.k) << seg.id;
  }
  EXPECT_EQ(pipeline.inflight_bytes(), 0u);
  std::uint64_t stored = 0;
  for (const auto& c : clouds) {
    stored +=
        std::static_pointer_cast<cloud::MemoryCloud>(c)->stored_bytes();
  }
  EXPECT_GT(stored, 0u);
}

// Cancelling mid-flight while a cloud hangs must release the blocked
// producer and every reserved byte, and finish() must drain without the
// cloud ever answering promptly.
TEST(UploadPipelineTest, AsyncCancelUnderHangingCloudReleasesProducer) {
  const sched::CodeParams params{2, 2, 1, 2};
  ASSERT_TRUE(params.validate().is_ok());

  HangGate gate;
  cloud::FaultProfile hang_profile;
  hang_profile.hang_rate = 1.0;
  hang_profile.hang_seconds = 1.0;
  cloud::MultiCloud faulty;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> handles;
  for (int i = 0; i < 2; ++i) {
    auto f = std::make_shared<cloud::FaultyCloud>(
        std::make_shared<cloud::MemoryCloud>(static_cast<cloud::CloudId>(i),
                                             "c" + std::to_string(i)),
        hang_profile, /*seed=*/i + 1, [&gate](Duration) { gate.wait(); });
    handles.push_back(f);
    faulty.push_back(f);
  }

  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(faulty, executor.get());
  PipelineConfig pipeline_config;
  // One 64 KiB segment's footprint (plaintext + 4 shards of 32 KiB) fits;
  // a second does not, so its producer blocks on the admission gate.
  pipeline_config.max_inflight_bytes = 200 << 10;

  {
    UploadPipeline pipeline(params, erasure::RsCode(16, params.k), {0, 1},
                            sched::DriverConfig{2}, monitor, executor,
                            async_lookup(twins), pipeline_config, nullptr,
                            nullptr);

    Rng rng(12);
    pipeline.feed("hang-seg", rng.bytes(64 << 10));
    for (int spin = 0; spin < 5000; ++spin) {
      if (handles[0]->hangs() + handles[1]->hangs() > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(handles[0]->hangs() + handles[1]->hangs(), 0u);

    std::atomic<bool> producer_done{false};
    std::thread producer([&] {
      pipeline.feed("blocked-seg", rng.bytes(64 << 10));
      producer_done.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(producer_done.load());

    pipeline.cancel();
    producer.join();
    EXPECT_TRUE(producer_done.load());

    gate.release();  // let the wedged completions resolve
    const auto result = pipeline.finish();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(pipeline.inflight_bytes(), 0u);
  }
  // The pipeline destructor waited out every launched completion, so the
  // async twins (and their executor) can be torn down safely here.
}

// A block RPC's latency wait parks on the timer wheel, not on a pool
// thread, so 8 latent clouds x 4 connections overlap their round trips on
// a 2-thread pool. A transfer plane that held a thread for each request
// would need at least (blocks placed x latency / pool threads) of wall
// time; the pipeline must drain in under half of that.
TEST(UploadPipelineTest, LatencyWaitsDoNotPinPoolThreads) {
  constexpr std::size_t kClouds = 8;
  constexpr std::size_t kPoolThreads = 2;
  constexpr std::size_t kSegments = 16;
  constexpr double kLatencySec = 0.050;
  const sched::CodeParams params{kClouds, 3, 2, 3};
  ASSERT_TRUE(params.validate().is_ok());

  cloud::LinkProfile link;
  link.request_latency_sec = kLatencySec;
  cloud::MultiCloud clouds;
  std::vector<cloud::CloudId> ids;
  for (const auto& c : make_clouds(kClouds)) {
    clouds.push_back(std::make_shared<cloud::LatentCloud>(c, link));
    ids.push_back(c->id());
  }
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(kPoolThreads);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());

  UploadPipeline pipeline(params, erasure::RsCode(params.code_n(), params.k),
                          ids, sched::DriverConfig{4}, monitor, executor,
                          async_lookup(twins), PipelineConfig{}, nullptr,
                          nullptr);

  Rng rng(31);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kSegments; ++i) {
    pipeline.feed("seg" + std::to_string(i), rng.bytes(64 << 10));
  }
  const auto result = pipeline.finish();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(result.is_ok()) << result.status().message();
  ASSERT_EQ(result.value().size(), kSegments);
  std::size_t blocks = 0;
  for (const auto& seg : result.value()) {
    EXPECT_GE(seg.blocks.size(), params.k) << seg.id;
    blocks += seg.blocks.size();
  }
  const double pinned_seconds =
      static_cast<double>(blocks) * kLatencySec / kPoolThreads;
  EXPECT_LT(elapsed, pinned_seconds / 2)
      << blocks << " blocks at " << kLatencySec * 1e3 << " ms on "
      << kPoolThreads << " pool threads";
}

// --- UploadPipeline: recycled shard buffers --------------------------------

std::uint64_t counter(const obs::ObsPtr& obs, const std::string& name) {
  return obs->metrics.snapshot().counter_value(name);
}

// The client's shard pool outlives its upload rounds: after a round of
// three 1 MiB segments, a second round's segment of the same size encodes
// into recycled buffers only. (The first round already recycles whatever
// settled before a later segment encoded, so its own split between fresh
// and recycled buffers depends on timing.)
TEST(UploadPipelineTest, ShardBuffersAreRecycledAcrossRounds) {
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs = std::make_shared<MemoryLocalFs>();
  ClientConfig cfg = test_config("a");
  cfg.theta = 1 << 20;  // a 1 MiB file is one segment, shards ~341 KiB
  UniDriveClient client(clouds, fs, cfg);
  const obs::ObsPtr& obs = client.observability();
  const std::size_t code_n = client.code_params().code_n();

  Rng rng(71);
  for (const std::size_t files : {3, 1}) {
    const std::uint64_t reused = counter(obs, "pipeline.shard_pool.reused");
    const std::uint64_t allocated =
        counter(obs, "pipeline.shard_pool.allocated");
    for (std::size_t i = 0; i < files; ++i) {
      ASSERT_TRUE(fs->write("/f" + std::to_string(rng.next()),
                            ByteSpan(rng.bytes(1 << 20)))
                      .is_ok());
    }
    const auto report = client.sync();
    ASSERT_TRUE(report.is_ok()) << report.status().message();
    ASSERT_EQ(report.value().segments_uploaded, files);
    const std::uint64_t fresh =
        counter(obs, "pipeline.shard_pool.allocated") - allocated;
    const std::uint64_t recycled =
        counter(obs, "pipeline.shard_pool.reused") - reused;
    EXPECT_EQ(fresh + recycled, files * code_n);
    if (files == 1) {
      EXPECT_EQ(fresh, 0u);
      EXPECT_EQ(recycled, code_n);
    }
    // Every shard came back once its round settled.
    EXPECT_EQ(counter(obs, "pipeline.shard_pool.kept"),
              counter(obs, "pipeline.shard_pool.reused") +
                  counter(obs, "pipeline.shard_pool.allocated"));
  }
}

// Pooled bytes plus the bytes the pipeline admitted stay within
// max_inflight_bytes, and shards under the pool's floor are never pooled.
TEST(UploadPipelineTest, PooledAndInflightBytesStayUnderCap) {
  const sched::CodeParams params{4, 3, 2, 3};  // 8 coded shards per segment
  ASSERT_TRUE(params.validate().is_ok());
  cloud::MultiCloud clouds = make_clouds(4);
  sched::ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  cloud::AsyncMultiCloud twins = async_twins(clouds, executor.get());
  auto obs = std::make_shared<obs::Observability>();
  PipelineConfig config;
  config.max_inflight_bytes = 4 << 20;
  auto pool = std::make_shared<ShardPool>(config.max_inflight_bytes, obs);

  // Shards of a 300 KiB segment are 100 KiB (under the floor), of a
  // 600 KiB one 200 KiB; twelve large segments would pool ~19 MiB unbounded.
  Rng rng(72);
  const auto round = [&](std::size_t segment_bytes, int segments) {
    UploadPipeline pipeline(params, erasure::RsCode(16, params.k),
                            {0, 1, 2, 3}, sched::DriverConfig{2}, monitor,
                            executor, async_lookup(twins), config, nullptr,
                            obs, nullptr, {}, pool);
    for (int i = 0; i < segments; ++i) {
      pipeline.feed("seg" + std::to_string(rng.next()),
                    rng.bytes(segment_bytes));
    }
    const auto result = pipeline.finish();
    ASSERT_TRUE(result.is_ok()) << result.status().message();
  };

  round(300 << 10, 12);
  EXPECT_EQ(counter(obs, "pipeline.shard_pool.kept"), 0u);
  EXPECT_EQ(pool->pooled_bytes(), 0u);

  round(600 << 10, 12);
  round(600 << 10, 12);
  EXPECT_GT(counter(obs, "pipeline.shard_pool.kept"), 0u);
  EXPECT_GT(counter(obs, "pipeline.shard_pool.reused"), 0u);
  EXPECT_GT(counter(obs, "pipeline.shard_pool.freed"), 0u);  // the cap bit

  // Small shards neither take a pooled buffer nor join the pool (which
  // their admissions may trim).
  const std::uint64_t reused = counter(obs, "pipeline.shard_pool.reused");
  const std::uint64_t kept = counter(obs, "pipeline.shard_pool.kept");
  const std::size_t pooled = pool->pooled_bytes();
  round(300 << 10, 12);
  EXPECT_EQ(counter(obs, "pipeline.shard_pool.reused"), reused);
  EXPECT_EQ(counter(obs, "pipeline.shard_pool.kept"), kept);
  EXPECT_LE(pool->pooled_bytes(), pooled);

  // A shard a late transfer completion still holds comes back after new
  // bytes were admitted: it is freed, not pooled past the cap.
  std::shared_ptr<const Bytes> late = pool->share(pool->take(256 << 10));
  const std::size_t admitted = config.max_inflight_bytes - (128 << 10);
  pool->charge(admitted);
  const std::size_t trimmed = pool->pooled_bytes();
  late.reset();
  EXPECT_EQ(pool->pooled_bytes(), trimmed);
  pool->discharge(admitted);

  const auto metrics = obs->metrics.snapshot();
  EXPECT_GT(metrics.gauge_value("pipeline.shard_pool.peak_bytes"), 0.0);
  EXPECT_LE(metrics.gauge_value("pipeline.shard_pool.peak_bytes"),
            static_cast<double>(config.max_inflight_bytes));
  EXPECT_LE(pooled, config.max_inflight_bytes);
}

// --- end-to-end sync through the pipeline -----------------------------------

TEST(PipelineSyncTest, RoundTripsAcrossDevices) {
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, test_config("a"));

  Rng rng(3);
  const Bytes big = rng.bytes(600 << 10);  // ~10 segments at theta=64K
  ASSERT_TRUE(fs_a->write("/big.bin", ByteSpan(big)).is_ok());
  ASSERT_TRUE(fs_a->write("/note.txt", ByteSpan(text("hello"))).is_ok());

  const auto report = a.sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().committed);
  EXPECT_GT(report.value().segments_uploaded, 1u);
  EXPECT_TRUE(report.value().materialize.is_ok());

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient b(clouds, fs_b, test_config("b"));
  const auto applied = b.sync();
  ASSERT_TRUE(applied.is_ok());
  EXPECT_TRUE(applied.value().applied_cloud);
  EXPECT_EQ(fs_b->read("/big.bin").value(), big);
  EXPECT_EQ(fs_b->read("/note.txt").value(), text("hello"));
}

TEST(PipelineSyncTest, InflightBytesStayUnderCapAndDrainToZero) {
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs = std::make_shared<MemoryLocalFs>();
  ClientConfig cfg = test_config("a");
  // Tight cap: a 64 KiB segment's footprint is ~235 KiB (plaintext + 8
  // shards of ~21 KiB), so at most two segments fit in flight at once.
  cfg.pipeline.max_inflight_bytes = 512 << 10;
  UniDriveClient client(clouds, fs, cfg);

  Rng rng(5);
  ASSERT_TRUE(fs->write("/big.bin", ByteSpan(rng.bytes(2 << 20))).is_ok());
  const auto report = client.sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_GT(report.value().segments_uploaded, 10u);

  const auto& metrics = report.value().metrics;
  const double peak = metrics.gauge_value("pipeline.inflight_bytes_peak");
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, static_cast<double>(cfg.pipeline.max_inflight_bytes));
  // Everything reserved was released by the end of the round.
  EXPECT_EQ(metrics.gauge_value("pipeline.inflight_bytes"), 0.0);
}

TEST(PipelineSyncTest, SingleThreadedDegradationStillRoundTrips) {
  ScopedPipelineThreadsEnv env("1");
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, test_config("a"));
  Rng rng(6);
  const Bytes data = rng.bytes(200 << 10);
  ASSERT_TRUE(fs_a->write("/one.bin", ByteSpan(data)).is_ok());
  const auto report = a.sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().committed);

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient b(clouds, fs_b, test_config("b"));
  ASSERT_TRUE(b.sync().is_ok());
  EXPECT_EQ(fs_b->read("/one.bin").value(), data);
}

// The in-flight RPC gauges must report launches during the round and
// drain to zero by its end.
TEST(PipelineSyncTest, AsyncModeReportsInflightRpcGauges) {
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds, fs, test_config("a"));
  Rng rng(9);
  ASSERT_TRUE(fs->write("/gauged.bin", ByteSpan(rng.bytes(300 << 10))).is_ok());
  const auto report = client.sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().committed);

  const auto& metrics = report.value().metrics;
  EXPECT_GT(metrics.gauge_value("driver.up.rpcs_inflight_peak"), 0.0);
  EXPECT_EQ(metrics.gauge_value("driver.up.rpcs_inflight"), 0.0);
}

// --- directory-failure surfacing (apply_cloud_image bugfix) -----------------

// Forwards to MemoryLocalFs but refuses to create directories.
class FailingDirFs final : public LocalFs {
 public:
  Result<Bytes> read(const std::string& path) const override {
    return inner_.read(path);
  }
  Status write(const std::string& path, ByteSpan data) override {
    return inner_.write(path, data);
  }
  Status remove(const std::string& path) override {
    return inner_.remove(path);
  }
  Status make_dir(const std::string&) override {
    return make_error(ErrorCode::kInternal, "injected make_dir failure");
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
  MemoryLocalFs inner_;
};

TEST(PipelineSyncTest, DirectoryFailuresSurfaceInReport) {
  cloud::MultiCloud clouds = make_clouds(4);
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, test_config("a"));
  ASSERT_TRUE(fs_a->make_dir("/docs").is_ok());
  ASSERT_TRUE(fs_a->write("/readme", ByteSpan(text("root file"))).is_ok());
  ASSERT_TRUE(a.sync().is_ok());

  auto fs_b = std::make_shared<FailingDirFs>();
  UniDriveClient b(clouds, fs_b, test_config("b"));
  const auto report = b.sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().applied_cloud);
  // The old code swallowed make_dir failures with (void); now they are
  // recorded and the materialization status reflects the incomplete folder.
  ASSERT_EQ(report.value().dir_failures.size(), 1u);
  EXPECT_EQ(report.value().dir_failures[0], "/docs");
  EXPECT_FALSE(report.value().materialize.is_ok());
  // Files still materialized despite the directory failure.
  EXPECT_EQ(fs_b->read("/readme").value(), text("root file"));
}

}  // namespace
}  // namespace unidrive::core
