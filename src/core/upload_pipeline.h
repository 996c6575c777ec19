// UploadPipeline — the staged, streaming data-plane write path:
//
//   scan/CDC  ──feed()──►  [dedup probe]  ──►  [bounded encode queue]  ──►  encode workers
//   (a window of           (pool-hit short-circuit)      (seal + RS fan-out
//   files read, cut                                      on the shared
//   and hashed on the                                    Executor, rows read
//   Executor)                                            in place, coded rows
//                                                        into ShardPool
//                                                        buffers)
//                                                              │ add_file()
//                                                              ▼
//                                                     StreamingUploadDriver
//                                                     (place + transfer)
//
// Backpressure and bounded memory: feed() is an admission gate that
// reserves a segment's full footprint — plaintext + code_n coded shards —
// against PipelineConfig::max_inflight_bytes and blocks the producer until
// enough in-flight bytes drain. The charge is released in stages: the
// plaintext portion as soon as the encode worker has produced the shards,
// the shard portion when the transfer stage reports the segment settled
// (every placed block acked, nothing more assignable). A segment larger
// than the whole cap is admitted alone (the gate opens when the pipeline
// is empty) so progress is always possible. The coded rows live in buffers
// of the client's ShardPool, which keeps pooled + in-flight bytes within
// the same cap, so the bound covers the recycled buffers too.
//
// Block transfers launch through the completion-based AsyncCloud twins of
// the guarded clouds, so no executor thread is held while a request is on
// the wire.
//
// finish() closes the stream, drains every stage, and returns one
// SegmentInfo record per fed segment — including the availability floor
// (>= k distinct blocks placed, or kUnavailable). cancel() aborts all
// stages without deadlocking even when a cloud call hangs: queued work is
// dropped, running transfers finish their current request, and all
// reserved bytes are released.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/async.h"
#include "cloud/health.h"
#include "common/executor.h"
#include "dedup/pool_index.h"
#include "erasure/rs.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "sched/monitor.h"
#include "sched/plan.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {

struct PipelineConfig {
  // Shared executor width; 0 = max(clouds * connections, hardware). The
  // UNIDRIVE_PIPELINE_THREADS environment variable overrides either.
  std::size_t threads = 0;
  // Admission cap on plaintext + shard bytes resident in the pipeline.
  std::size_t max_inflight_bytes = 256u << 20;
};

// Resolves a cloud id to the async (completion-based) twin of its guarded
// provider, or nullptr.
using FindAsyncCloudFn = std::function<cloud::AsyncCloud*(cloud::CloudId)>;

// Coded-row buffers recycled across upload rounds, so the encode stage
// stops faulting in fresh pages every round. A client owns one; a shard
// handed out by share() returns when its last reference drops (on settle,
// or when a late transfer completion lets go of it), and its deleter keeps
// the pool alive. Three bounds:
//   - pooled bytes plus the in-flight bytes pipelines charge() never exceed
//     `cap` (PipelineConfig::max_inflight_bytes): an admission trims the
//     pool, and a returning buffer that would break the bound is freed;
//   - buffers under kMinPooledBytes, glibc's default mmap threshold, are
//     never pooled: malloc serves them from its bins without page faults;
//   - a request for n bytes takes only a buffer of capacity within
//     [n, n + n/4], so a large buffer never pins memory for a small request.
// Counters: pipeline.shard_pool.{reused,allocated,kept,freed}; gauges:
// pipeline.shard_pool.bytes and .peak_bytes (pooled + in-flight).
class ShardPool : public std::enable_shared_from_this<ShardPool> {
 public:
  static constexpr std::size_t kMinPooledBytes = 128 << 10;

  ShardPool(std::size_t cap, obs::ObsPtr obs);

  // A buffer of n bytes (contents unspecified), recycled when one fits.
  [[nodiscard]] Bytes take(std::size_t n);
  // `buffer` as a shard that returns to the pool when released.
  [[nodiscard]] std::shared_ptr<const Bytes> share(Bytes buffer);

  // In-flight bytes a pipeline admitted or released. charge() trims the
  // pool so that pooled + in-flight stays within the cap.
  void charge(std::size_t n);
  void discharge(std::size_t n);

  [[nodiscard]] std::size_t pooled_bytes() const;

 private:
  void give_back(Bytes buffer);
  // Evicts pooled buffers until pooled + in-flight fits the cap.
  void trim_locked(std::vector<Bytes>& evicted);
  void publish_locked();

  const std::size_t cap_;
  obs::ObsPtr obs_;
  mutable std::mutex mu_;
  std::multimap<std::size_t, Bytes> free_;  // keyed by capacity
  std::size_t pooled_ = 0;
  std::size_t inflight_ = 0;
  std::size_t peak_ = 0;
};

// With a non-null `pool`, feed() probes the content-addressed segment pool
// before encode: a hit skips encode + transfer entirely and only a
// file→segment reference is committed. Coded rows come from `shard_pool`
// (the client's); without one the pipeline recycles through its own.
class UploadPipeline {
 public:
  UploadPipeline(const sched::CodeParams& params, erasure::RsCode code,
                 std::vector<cloud::CloudId> clouds,
                 sched::DriverConfig driver_config,
                 sched::ThroughputMonitor& monitor,
                 std::shared_ptr<Executor> executor,
                 FindAsyncCloudFn find_cloud, PipelineConfig pipeline_config,
                 std::shared_ptr<cloud::CloudHealthRegistry> health,
                 obs::ObsPtr obs, dedup::PoolIndexPtr pool = nullptr,
                 std::string folder = {},
                 std::shared_ptr<ShardPool> shard_pool = nullptr);
  ~UploadPipeline();

  UploadPipeline(const UploadPipeline&) = delete;
  UploadPipeline& operator=(const UploadPipeline&) = delete;

  // Hand one new segment to the pipeline. Blocks while the in-flight-bytes
  // cap is reached (backpressure on the scanner). Duplicate ids are
  // dropped. Returns immediately after cancel().
  void feed(const std::string& id, Bytes bytes);

  // End of stream: drain every stage and return the segment records (with
  // final block locations) in feed order. kUnavailable if any segment
  // ended below k distinct blocks. Call exactly once.
  Result<std::vector<metadata::SegmentInfo>> finish();

  // Abort: stop assigning work, drop queued segments, release every
  // blocked producer and all reserved bytes. In-flight cloud requests
  // complete; finish() afterwards reports the cancellation.
  void cancel();

  // Bytes currently reserved against the cap (for tests).
  [[nodiscard]] std::size_t inflight_bytes() const;

  // Accounting for segments short-circuited by a pool hit this round:
  // their bytes never entered the encode queue and no block RPC was issued,
  // yet finish() still returns full SegmentInfo records for them (block
  // locations come from the pool). Surfaced in SyncReport.
  struct DedupStats {
    std::size_t segments = 0;
    std::uint64_t bytes_saved = 0;
    std::uint64_t blocks_saved = 0;
  };
  [[nodiscard]] DedupStats dedup_stats() const;

 private:
  struct EncodeJob {
    std::string id;
    Bytes bytes;
  };

  void encode_worker();
  void on_segment_settled(const std::string& id);  // under the driver lock
  // Transfer launcher handed to the driver (called under its lock).
  // Fast-fail paths defer the completion via the executor — the AsyncCloud
  // contract forbids running it on the caller's stack.
  cloud::AsyncHandle transfer_async(const sched::BlockTask& task,
                                    sched::TransferDoneFn done);
  void release_bytes_locked(std::size_t n);  // mem_mutex_ held
  void release_retained_pins();  // roll back pool pins of an aborted round
  // Releases every remaining charge, then drops the cached shards, which
  // return to the shard pool once no transfer holds them.
  void release_all();
  void join_encode_workers();
  // Segment records in feed order, from the drained driver.
  Result<std::vector<metadata::SegmentInfo>> build_results();

  sched::CodeParams params_;
  erasure::RsCode code_;
  std::shared_ptr<Executor> executor_;
  FindAsyncCloudFn find_cloud_;
  dedup::PoolIndexPtr pool_;
  std::string folder_;
  PipelineConfig config_;
  obs::ObsPtr obs_;
  std::shared_ptr<ShardPool> shard_pool_;

  // Admission gate + accounting, mirrored into shard_pool_ (whose lock
  // nests under it). mem_mutex_ is a leaf lock everywhere except feed(),
  // which holds nothing else.
  mutable std::mutex mem_mutex_;
  std::condition_variable mem_cv_;
  std::size_t inflight_ = 0;
  std::size_t peak_inflight_ = 0;
  // Remaining charged bytes per fed segment (plaintext drops off after
  // encode, the shard part on settle).
  std::map<std::string, std::size_t> footprint_;
  bool workers_started_ = false;
  std::atomic<bool> cancelled_{false};

  // Feed order and sizes, for building the result records.
  std::vector<std::pair<std::string, std::uint64_t>> fed_;
  std::set<std::string> fed_ids_;

  // Pool-hit bookkeeping (guarded by mem_mutex_): block locations to emit
  // for short-circuited segments, the ids whose pool pin this round created
  // (released again if the round aborts), and the savings tally.
  std::map<std::string, std::vector<metadata::BlockLocation>> deduped_;
  std::vector<std::string> retained_;
  DedupStats dedup_;

  // scan -> encode channel.
  BoundedQueue<EncodeJob> queue_;
  std::vector<std::thread> encode_threads_;

  // Encoded shards awaiting transfer, indexed by block index. shared_ptr
  // so a transfer in progress keeps its shard alive across the settle that
  // drops the cache entry; the last reference returns it to shard_pool_.
  std::mutex cache_mutex_;
  std::map<std::string, std::vector<std::shared_ptr<const Bytes>>> shards_;

  // Transfer stage. Declared last, destroyed first: its destructor drains
  // outstanding transfers that call back into this object.
  sched::StreamingUploadDriver driver_;
};

}  // namespace unidrive::core
