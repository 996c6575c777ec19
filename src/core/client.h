// UniDriveClient — the complete server-less, client-centric sync engine.
//
// One instance represents one device. sync() runs one round of Algorithm 1:
//
//   if local changes exist:
//       upload new data blocks (data plane, over-provisioned scheduling)
//       acquire quorum lock
//       if cloud update pending: fetch, 3-way merge (conflicts keep both)
//       commit metadata (delta-sync: delta-only unless it outgrew lambda)
//       release lock
//   else if cloud update pending:
//       fetch metadata, download needed blocks, apply to the local folder
//
// Content data and metadata are deliberately decoupled: blocks are immutable
// and uploaded before the metadata that references them is committed, so
// concurrent uploaders never corrupt each other — the lock serializes only
// the (small) metadata commit.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "cloud/async.h"
#include "cloud/health.h"
#include "cloud/provider.h"
#include "cloud/retrying_cloud.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/change_scanner.h"
#include "core/download_pipeline.h"
#include "core/local_fs.h"
#include "core/upload_pipeline.h"
#include "crypto/cipher.h"
#include "erasure/rs.h"
#include "lock/lock_manager.h"
#include "metadata/diff.h"
#include "metadata/sharded_store.h"
#include "obs/obs.h"
#include "repair/durability.h"
#include "sched/monitor.h"
#include "sched/rebalance.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {

struct ClientConfig {
  std::string device = "device";
  std::string passphrase = "unidrive";
  // Metadata cipher: DES for paper fidelity (default), AES-128-CTR or
  // ChaCha20 for hardware speed. Decrypt is tag-dispatched, so changing
  // this never orphans previously written metadata.
  crypto::CipherKind cipher = crypto::CipherKind::kDes;
  std::size_t k = 3;    // data blocks per segment
  std::size_t ks = 2;   // security requirement
  std::size_t kr = 3;   // reliability requirement
  std::size_t theta = 4 << 20;  // target segment size
  lock::LockConfig lock;
  sched::DriverConfig driver;
  // Staged data plane (upload and restore): shared executor width, encode
  // stage, bounded in-flight bytes.
  PipelineConfig pipeline;
  metadata::DeltaPolicy delta_policy;
  // Sharded metadata plane: shard count, per-shard compaction bound, cache.
  metadata::ShardConfig meta;
  // Unified resilience layer: every enrolled cloud is wrapped exactly once
  // in a cloud::RetryingCloud combining this retry policy with a circuit
  // breaker shared across sync rounds — no other layer retries.
  RetryPolicy retry;
  cloud::BreakerConfig breaker;
  // All blocking pauses (retry backoff, lock contention backoff) go through
  // this; tests and simulations substitute a virtual-time sleep.
  SleepFn sleep = real_sleep();
  // When set, the client persists its last committed state (v_o, the image
  // it has already reconciled with) to this host file and reloads it at
  // construction — without it a restarted process would treat the whole
  // cloud state as "concurrent changes" and manufacture conflicts.
  std::string state_file;
  // Durability floor: a segment counts as under-replicated (and trips
  // SyncReport.degraded) when its surviving distinct blocks drop below
  // k + redundancy_floor. 0 = only decodability (surviving < k) degrades.
  std::size_t redundancy_floor = 1;
  // Content-addressed segment pool (DESIGN.md §13). When set, the upload
  // pipeline probes it before encode — a hit commits only a file→segment
  // reference — and GC keeps blocks that another folder still references.
  // Clients whose data plane lands on the same physical clouds should share
  // one index; `folder_id` keys its cross-folder refcounts, so all devices
  // of one sync folder must use the same id and distinct folders over the
  // same clouds must use distinct ids. Null = no cross-client dedup (the
  // scanner still dedups within the folder's own image).
  //
  // No default id: two folders silently sharing one id would be counted as
  // ONE folder by the refcount index, and each folder's GC could then
  // delete blocks the other still references. When `pool` is set and this
  // is left empty, the client derives a process-unique id at construction
  // (safe — every client then protects its own references — but devices of
  // one folder stop sharing refcounts, so set it explicitly).
  dedup::PoolIndexPtr pool;
  std::string folder_id;
};

struct SyncReport {
  bool committed = false;        // a local update was pushed to the clouds
  bool applied_cloud = false;    // a cloud update was applied locally
  std::size_t files_uploaded = 0;
  std::size_t segments_uploaded = 0;
  // Segments the upload path short-circuited on a segment-pool hit: their
  // references were committed but no encode or block RPC happened, and
  // `dedup_bytes_saved` plaintext bytes never left the device. Counted
  // separately from segments_uploaded so degraded-mode accounting (how much
  // actually moved this round) stays truthful.
  std::size_t segments_deduped = 0;
  std::uint64_t dedup_bytes_saved = 0;
  std::size_t files_downloaded = 0;
  std::size_t files_removed = 0;
  std::vector<metadata::ConflictRecord> conflicts;
  metadata::VersionStamp version;
  // Degraded mode: true when at least one cloud's circuit breaker was not
  // closed at the end of the round, OR when any segment's surviving
  // redundancy is below the configured floor (durability.under_replicated
  // > 0) — reachability and data health both count.
  bool degraded = false;
  std::vector<cloud::CloudHealthSnapshot> cloud_health;
  // Data-health rollup over the committed image at the end of the round:
  // the defect ledger (scrub findings) joined with breaker admissibility.
  repair::DurabilitySummary durability;
  // Folder materialization outcome. `materialize` is non-OK when the local
  // folder could not be brought fully up to the committed image (directory
  // create/remove failures below, or a file that could not be
  // reconstructed); the metadata commit itself still stands.
  Status materialize;
  std::vector<std::string> dir_failures;  // dirs that failed to (un)make
  // Point-in-time copy of the client's metrics registry, taken at the end
  // of the round. Counters are cumulative over the client's lifetime (they
  // are NOT reset per round); see obs/metrics.h for the name families.
  obs::MetricsSnapshot metrics;
};

class UniDriveClient {
 public:
  UniDriveClient(cloud::MultiCloud clouds, std::shared_ptr<LocalFs> fs,
                 ClientConfig config, Clock& clock = RealClock::instance(),
                 Rng rng = Rng(0));

  // One synchronization round. Safe to call repeatedly (e.g. on a timer).
  Result<SyncReport> sync();

  // Cheap cloud-update probe (the version-file check, period tau).
  [[nodiscard]] bool cloud_update_pending();

  // Deletes over-provisioned blocks beyond every cloud's fair share and
  // commits the trimmed block map (run after all devices synced a file).
  Status cleanup_overprovisioned();

  // Deletes the cloud blocks of segments no snapshot references any more
  // (dereferenced by edits falling off the history, deletions, or conflict
  // resolution) and drops them from the pool. Returns the number of
  // segments collected.
  Result<std::size_t> collect_garbage();

  // Rolls a file back to its most recent superseded snapshot (the paper
  // keeps per-file snapshot history in the image for exactly this): the
  // restored version becomes a NEW local edit committed by the next sync().
  Status restore_previous_version(const std::string& path);

  // Superseded snapshots of a file, most recent first.
  [[nodiscard]] std::vector<metadata::FileSnapshot> file_history(
      const std::string& path) const {
    return image_.history(path);
  }

  // Resolves a keep-both conflict produced by a previous sync. kKeepTheirs
  // drops the conflict copy (the cloud version at `record.path` stands);
  // kKeepMine promotes the conflict copy's content back to the original
  // path. Either way the copy is removed; the next sync() commits the
  // resolution for all devices.
  enum class ConflictChoice { kKeepTheirs, kKeepMine };
  Status resolve_conflict(const metadata::ConflictRecord& record,
                          ConflictChoice choice);

  // Multi-cloud membership changes (Section 6.2). Both re-plan placement,
  // execute the moves/deletions, and commit updated metadata.
  Status add_cloud(cloud::CloudPtr new_cloud);
  Status remove_cloud(cloud::CloudId cloud);

  [[nodiscard]] const metadata::SyncFolderImage& image() const noexcept {
    return image_;
  }
  [[nodiscard]] const cloud::MultiCloud& clouds() const noexcept {
    return clouds_;
  }
  // Shared per-cloud health/breaker state; outlives individual sync rounds.
  [[nodiscard]] const std::shared_ptr<cloud::CloudHealthRegistry>& health()
      const noexcept {
    return health_;
  }
  [[nodiscard]] sched::CodeParams code_params() const;
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }
  // The shared metrics/tracing sink every layer of this client reports
  // into. Never null; lives as long as the client.
  [[nodiscard]] const obs::ObsPtr& observability() const noexcept {
    return obs_;
  }
  [[nodiscard]] Clock& clock() const noexcept { return clock_; }

  // --- scrub-and-repair surface (src/repair) -------------------------------
  // The defect ledger shared with the scrubber/repair engine. Never null.
  [[nodiscard]] const std::shared_ptr<repair::DurabilityTracker>& durability()
      const noexcept {
    return durability_;
  }
  // The exact code this client encodes/decodes with (pinned codec length —
  // block indices remain stable across membership changes).
  [[nodiscard]] erasure::RsCode codec() const;
  // Guarded (resilience-decorated) blocking provider / its async twin.
  [[nodiscard]] cloud::CloudProvider* guarded_cloud(cloud::CloudId id) const {
    return find_cloud(id);
  }
  [[nodiscard]] cloud::AsyncCloud* async_cloud(cloud::CloudId id) const {
    return find_async_cloud(id);
  }
  [[nodiscard]] const cloud::AsyncMultiCloud& async_clouds() const noexcept {
    return async_clouds_;
  }
  // Plaintext of a committed segment for repair: the verified local file
  // slice when one exists, otherwise a hash-verified multi-cloud decode
  // that never trusts any placement in `exclude` (the defective ones).
  Result<Bytes> reconstruct_segment(
      const std::string& segment_id,
      const std::vector<metadata::BlockLocation>& exclude);
  // Commits repaired block placements through commit() (fetch-latest,
  // re-validate each segment against the freshest image, upsert, commit).
  // Like every commit, it advances v_o only when it was built on v_o.
  Status commit_repaired_placements(
      std::vector<metadata::SegmentInfo> repaired);

 private:
  // Data plane: a staged UploadPipeline wired to this client's executor,
  // shard pool, guarded clouds and observability.
  [[nodiscard]] std::unique_ptr<UploadPipeline> make_pipeline(
      const sched::CodeParams& params);
  // Restore mirror: a streaming DownloadPipeline into `fs` over the same
  // executor, guards and observability (overlapped fetch → parallel decode
  // → in-order write with a bounded prefetch window). First reaps the
  // drained entries of draining_restores_.
  [[nodiscard]] std::unique_ptr<DownloadPipeline> make_download_pipeline(
      LocalFs& fs);
  // finish() of a restore built by make_download_pipeline: returns once
  // every segment is decided, and parks the pipeline in draining_restores_
  // while redundant fetches are still in flight.
  std::vector<DownloadPipeline::FileResult> finish_restore(
      std::unique_ptr<DownloadPipeline> pipeline);

  // Plaintext of a segment of `image`, restored through a DownloadPipeline
  // into a scratch folder: the verified local copy `held` reads when one
  // exists, otherwise a verified decode from the multi-cloud (with the
  // corrupt-shard search) that never trusts a placement in `exclude`.
  Result<Bytes> segment_content(
      const metadata::SyncFolderImage& image, const HeldSegments& held,
      const std::string& segment_id,
      const std::vector<metadata::BlockLocation>& exclude);

  // Uploads moved blocks (re-encoded) and deletes shed ones per `plan`.
  void execute_rebalance(const metadata::SyncFolderImage& image,
                         const sched::RebalancePlan& plan,
                         const erasure::RsCode& code,
                         cloud::CloudProvider* added);

  // Applies the difference between image_ and `target` to the local folder
  // (downloads, then deletions, except a path in the way of a download or
  // a new directory, which goes first); updates image_ on success.
  // Segments the folder already holds are read from it, and every restored
  // file seeds the scan cache. Directory create/remove failures do not
  // abort the apply (files are still materialized) but are reported in
  // `dir_failures` so sync() can surface an incomplete materialization
  // instead of silently dropping them.
  struct ApplyOutcome {
    std::size_t downloaded = 0;
    std::size_t removed = 0;
    std::vector<std::string> dir_failures;
  };
  Result<ApplyOutcome> apply_cloud_image(
      const metadata::SyncFolderImage& target);

  // One staged attempt of a commit: the image to commit, the changes that
  // take the committed image `basis` to it, and that version.
  struct StagedCommit {
    metadata::SyncFolderImage next;
    std::vector<metadata::Change> changes;
    metadata::VersionStamp basis;
  };
  // Turns `next`, a freshly fetched committed image, into the image to
  // commit, in place, and returns the changes that take the cloud there.
  // None means there is nothing to commit.
  using Rebase = std::function<std::vector<metadata::Change>(
      metadata::SyncFolderImage& next)>;

  // The one commit path (Algorithm 1's locked commit) for sync, trim, GC,
  // repair and membership. Starting from `first`, or else from `rebase`
  // applied to a fresh fetch_latest(), each attempt locks the dirty shards
  // plus `extra_scopes`, reads the fence, rebases under the locks when the
  // fence is past the basis, stages each shard, takes the root for the flip
  // only, flips, releases and absorbs foreign shards; a fence conflict
  // restages. Returns the image that stands: the committed one, or the
  // rebased one when nothing was left to commit. v_o advances to it only
  // when the commit was built on v_o: its basis is v_o's version and no
  // foreign shard was absorbed (sync() then writes it to the folder itself).
  Result<metadata::SyncFolderImage> commit(
      const Rebase& rebase, std::optional<StagedCommit> first = std::nullopt,
      const std::vector<lock::Scope>& extra_scopes = {});

  // add_cloud (`joining`) and remove_cloud (`leaving`): under every scope
  // on the old membership, plans the rebalance on a fresh image, executes
  // and applies it; then swaps clouds_, rebuilds the guards and commits the
  // rebalanced block map on the new membership.
  Status change_membership(cloud::CloudPtr joining,
                           std::optional<cloud::CloudId> leaving);

  // Folds shards that advanced between `fenced` and `committed` by foreign
  // writers into `next` (our shards in `own` are kept as-is). Falls back to
  // advertising the fenced version on fetch failure so the next round
  // reconciles through the normal cloud-update path. Returns whether any
  // foreign shard had advanced.
  bool absorb_foreign_shards(metadata::SyncFolderImage& next,
                             const metadata::ShardManifest& fenced,
                             const metadata::ShardManifest& committed,
                             const std::vector<metadata::ShardId>& own);

  // Every shard scope plus root — the stop-the-world set membership changes
  // take while they rewrite placements across the whole image.
  [[nodiscard]] std::vector<lock::Scope> all_scopes() const;

  [[nodiscard]] std::vector<cloud::CloudId> cloud_ids() const;
  // Resolves to the GUARDED provider — all I/O goes through the resilience
  // decorator, never the raw cloud.
  [[nodiscard]] cloud::CloudProvider* find_cloud(cloud::CloudId id) const;
  // Resolves to the guarded provider's completion-based twin (the same
  // decorator chain, async all the way down to the SyncAdapter leaf).
  [[nodiscard]] cloud::AsyncCloud* find_async_cloud(cloud::CloudId id) const;

  // Re-wraps clouds_ and rebuilds store_/lock_ after membership changes.
  void rebuild_guards();
  // Builds the async twins of guarded_ over executor_.
  void rebuild_async_clouds();

  // State persistence (no-ops when config_.state_file is empty).
  void load_state();
  void persist_state() const;

  cloud::MultiCloud clouds_;  // raw providers, as enrolled
  std::shared_ptr<LocalFs> fs_;
  ClientConfig config_;
  Clock& clock_;
  Rng rng_;
  // Declared before health_/guarded_/store_/lock_: they all capture it.
  obs::ObsPtr obs_;
  // Defect ledger shared with the repair subsystem; captures obs_.
  std::shared_ptr<repair::DurabilityTracker> durability_;
  std::shared_ptr<cloud::CloudHealthRegistry> health_;
  cloud::MultiCloud guarded_;  // clouds_, each wrapped in a RetryingCloud
  // Shared thread pool for the sync pipeline, the transfer drivers, the
  // async runtime's SyncAdapter leaf RPCs and the metadata plane's per-cloud
  // fan-outs (store_ runs on it); sized for clouds * connections
  // unless config_.pipeline.threads (or UNIDRIVE_PIPELINE_THREADS)
  // overrides. Rebuilt on membership changes.
  std::shared_ptr<Executor> executor_;
  // Coded-row buffers every upload round recycles, bounded with the
  // pipeline's in-flight bytes by config_.pipeline.max_inflight_bytes.
  std::shared_ptr<ShardPool> shard_pool_;
  // The completion-based twin of each guarded cloud. The twins share
  // breaker/counter/quota/link state with their blocking halves.
  cloud::AsyncMultiCloud async_clouds_;

  metadata::SyncFolderImage image_;  // v_o: last known committed state
  metadata::ShardedMetaStore store_;
  lock::LockManager locks_;
  sched::ThroughputMonitor monitor_;
  ScanCache scan_cache_;  // (size, mtime) fingerprints; avoids re-hashing
  // Finished restores whose redundant fetches are still in flight. Their
  // completions use executor_, async_clouds_, monitor_ and obs_, so this is
  // declared last (destroyed first: each destructor waits its stragglers
  // out) and cleared, waiting, before rebuild_guards() replaces the
  // executor and the async clouds. Client state like image_: only the
  // thread that drives the client touches it.
  std::vector<std::unique_ptr<DownloadPipeline>> draining_restores_;
};

}  // namespace unidrive::core
