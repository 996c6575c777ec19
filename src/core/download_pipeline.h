// DownloadPipeline — the staged, streaming data-plane restore path, the
// mirror image of UploadPipeline:
//
//   apply/restore  ──add_file()──►  [admission gate]  ──►  StreamingDownloadDriver
//   (producer)                       (bounded prefetch      (fetch k distinct
//        │                            window)                blocks per segment)
//        │ held segment                                            │ on_fetched
//        ▼                                                         ▼
//   local source                                            decode tasks
//   (HeldSegments: ranged read                              (RS row fan-out on
//   of the folder's own copy,                               the shared Executor,
//   checked against the id;                                 checked against the
//   misses and mismatches go                                segment id)
//   to the driver)                                                 │
//        │                                                         ▼
//        └────────────────────────────────────────────────►  in-order file write
//                                                           (LocalFs::FileWriter)
//
// Bounded memory: add_file() admits each segment of a restore batch in
// snapshot order, reserving its full footprint — k coded shards plus the
// decoded plaintext — against PipelineConfig::max_inflight_bytes and
// blocking the producer until enough in-flight bytes drain. A segment the
// local source supplies reserves its plaintext only. The charge is
// released in stages: the shard portion as soon as the segment decodes,
// the plaintext portion once every file position referencing the segment
// has been written. Peak memory is therefore bounded by the window, not by
// file or batch size. A segment larger than the whole cap is admitted
// alone (the gate opens when the pipeline is empty) so progress is always
// possible. Deliberately uncharged overshoot: straggler-hedge duplicates
// and corrupt-search extra blocks (both rare, both one block at a time).
// A redundant block landing after finish() is dropped on arrival, never
// cached.
//
// Integrity: every segment, decoded or read locally, is verified against
// its id (SHA-256 of the plaintext; legacy ids are SHA-1). On a decode
// mismatch the pipeline runs the corrupt-shard search — request one more
// distinct block from the driver, retry every k-subset — until a clean
// subset decodes or supply runs out. Completed files additionally verify
// total size and the snapshot's content hash before the FileWriter
// commits; a failed file never leaves a partial write behind (the writer
// aborts).
//
// One long-lived scheduler/driver pair serves the whole batch: per-cloud
// connection pools stay busy across segment and file boundaries, and
// straggler hedging spans the batch. finish() returns one status per file
// in feed order as soon as every segment is decided (decoded and written,
// or failed): fetches a hedge or a faster holder made redundant may still
// be in flight. They land later, metered and fed to the throughput
// monitor, and the owner keeps the pipeline alive until drained(); the
// destructor waits them out. cancel() aborts without deadlocking even when
// a cloud call hangs: pending segments fail fast, running transfers finish
// their current request, and all reserved bytes are released.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cloud/async.h"
#include "cloud/health.h"
#include "common/executor.h"
#include "core/local_fs.h"
#include "core/upload_pipeline.h"  // PipelineConfig, FindAsyncCloudFn
#include "crypto/sha1.h"
#include "erasure/rs.h"
#include "metadata/image.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "sched/monitor.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {

// Decodes `segment` from any k-subset of `shards` whose plaintext matches
// the segment's content hash (its id). |shards| stays small (<= code_n),
// so the combinatorial search is cheap; with at most one corrupt shard a
// single extra block already guarantees a clean subset. With a non-null
// executor each candidate decode fans its k data rows out in parallel.
Result<Bytes> decode_verified(const erasure::RsCode& code,
                              const std::vector<erasure::Shard>& shards,
                              const metadata::SegmentInfo& segment,
                              std::size_t k, Executor* executor);

// The local source of a restore: where the folder already holds each
// wanted segment of `image`, the image the folder reflects — every file
// position (path, offset, size) that references it. Built once per restore
// batch. read() copies one range and checks it against the segment id, so
// a file edited since `image` was committed is skipped, never trusted.
class HeldSegments {
 public:
  HeldSegments(const metadata::SyncFolderImage& image, const LocalFs& fs,
               const std::unordered_set<std::string>& wanted);

  // Verified plaintext of `segment_id` from the first clean local copy;
  // kNotFound when no referencing file still holds one.
  Result<Bytes> read(const std::string& segment_id) const;

 private:
  struct Location {
    std::string path;
    std::uint64_t offset = 0;
    std::size_t size = 0;
  };
  const LocalFs& fs_;
  std::unordered_map<std::string, std::vector<Location>> where_;
};

class DownloadPipeline {
 public:
  struct FileResult {
    std::string path;
    Status status = Status::ok();
    double mtime = 0;  // of the published bytes, when status is ok
  };

  DownloadPipeline(std::size_t k, erasure::RsCode code,
                   std::vector<cloud::CloudId> clouds,
                   sched::DriverConfig driver_config,
                   sched::ThroughputMonitor& monitor,
                   std::shared_ptr<Executor> executor,
                   FindAsyncCloudFn find_cloud, PipelineConfig pipeline_config,
                   LocalFs& fs,
                   std::shared_ptr<cloud::CloudHealthRegistry> health,
                   obs::ObsPtr obs);
  ~DownloadPipeline();

  DownloadPipeline(const DownloadPipeline&) = delete;
  DownloadPipeline& operator=(const DownloadPipeline&) = delete;

  // Enqueue one file restore; segments resolve against `image` (only
  // consulted during this call). Segments `held` supplies are read from
  // the folder instead of fetched; `held` is only consulted during this
  // call. Blocks while the in-flight-bytes cap is reached (backpressure on
  // the caller). Returns immediately after cancel().
  void add_file(const metadata::FileSnapshot& snapshot,
                const metadata::SyncFolderImage& image,
                const HeldSegments* held = nullptr);

  // End of stream: wait until every segment is decided and every file
  // committed or aborted, stop assigning fetches, and return one status
  // per file, in feed order. Fetches still in flight are not waited for
  // (restore.detached_fetches counts them); their bytes are dropped when
  // they land. Call exactly once.
  std::vector<FileResult> finish();

  // True once no fetch is in flight. After finish() it only turns from
  // false to true; destroying a pipeline that is not drained blocks until
  // it is.
  [[nodiscard]] bool drained() const;

  // Abort: stop assigning fetches, fail pending segments, release every
  // blocked producer and all reserved bytes. In-flight cloud requests
  // complete; unfinished files are aborted (no partial writes survive).
  void cancel();

  // Bytes currently reserved against the cap (for tests).
  [[nodiscard]] std::size_t inflight_bytes() const;

 private:
  struct SegState {
    metadata::SegmentInfo info;
    // Remaining charged bytes, split so each stage releases its portion.
    std::size_t shard_charge = 0;
    std::size_t plain_charge = 0;
    Bytes plain;           // decoded plaintext (until all waiters consume)
    bool resolved = false;  // decoded or failed
    bool decoded = false;
    bool decode_attempted = false;  // distinguishes kUnavailable / kCorrupt
    Status failure = Status::ok();
    // File positions (file index, segment position) awaiting this segment.
    std::size_t waiters_remaining = 0;
  };

  struct FileState {
    std::string path;
    std::uint64_t expected_size = 0;
    std::string content_hash;
    std::vector<std::string> segs;  // segment ids, snapshot order
    std::size_t admitted = 0;       // prefix of segs fed to the driver
    std::size_t next_write = 0;     // next position to append
    std::unique_ptr<LocalFs::FileWriter> writer;  // released once closed
    crypto::Sha1 hasher;
    std::uint64_t written = 0;
    Status status = Status::ok();
    double mtime = 0;     // of the committed bytes
    bool closed = false;  // committed or aborted
  };

  // Admission gate: waits for room in the prefetch window, then reserves
  // `footprint`. False (nothing reserved) once cancelled.
  bool reserve(std::size_t footprint);
  // Local source: reserves the plaintext, reads `seg` through `held` and
  // admits it to file `file_index` as already decoded. False (nothing
  // reserved) when no clean local copy exists or the pipeline was
  // cancelled; the caller's fetch path then handles both.
  bool admit_held(std::size_t file_index, const metadata::SegmentInfo& seg,
                  const HeldSegments& held);

  // Driver callback (under the driver lock): bookkeeping only, the heavy
  // lifting is posted to the executor.
  void on_segment_fetched(const std::string& id, bool ok);
  // Executor task: decode + verify (ok) or fail (not ok) one segment.
  void process_segment(const std::string& id, bool ok);
  // Transfer launcher handed to the driver (called under its lock). The
  // fetched bytes land in shard_cache_ before `done` fires; fast-fail paths
  // defer the completion via the executor.
  cloud::AsyncHandle transfer_async(const sched::BlockTask& task,
                                    sched::TransferDoneFn done);

  // All *_locked helpers require mu_ held.
  void resolve_failed_locked(const std::string& id, SegState& seg,
                             Status status);
  void advance_files_locked();
  void advance_file_locked(std::size_t file_index);
  void fail_file_locked(FileState& file, Status status);
  void finalize_file_locked(FileState& file);
  void consume_waiter_locked(const std::string& seg_id);
  void maybe_release_segment_locked(const std::string& seg_id);
  void release_bytes(std::size_t n);

  std::size_t k_;
  erasure::RsCode code_;
  std::shared_ptr<Executor> executor_;
  FindAsyncCloudFn find_cloud_;
  PipelineConfig config_;
  LocalFs& fs_;
  obs::ObsPtr obs_;

  // Admission gate + accounting. mem_mutex_ is a leaf lock.
  mutable std::mutex mem_mutex_;
  std::condition_variable mem_cv_;
  std::size_t inflight_ = 0;
  std::size_t peak_inflight_ = 0;
  std::atomic<bool> cancelled_{false};

  // Fetched shard bytes, keyed by segment id then block index. Written by
  // transfer completions, consumed by decode tasks; set finished_ stops
  // the writes once finish() returned.
  mutable std::mutex cache_mutex_;
  std::map<std::string, std::map<std::uint32_t, Bytes>> shard_cache_;
  bool finished_ = false;

  // Pipeline state: files in feed order, live segments by id. cv_ signals
  // segment resolution and file completion.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<FileState> files_;
  std::map<std::string, SegState> segments_;
  std::size_t unresolved_segments_ = 0;
  std::size_t open_files_ = 0;
  std::size_t decode_queue_ = 0;  // fetched segments awaiting their decode task

  // Created last, destroyed first: its destructor drains outstanding
  // transfers that call back into this object.
  std::unique_ptr<sched::StreamingDownloadDriver> driver_;
};

}  // namespace unidrive::core
