// ShardedMetaStore — the transactional, shard-granular metadata plane.
//
// State model (all objects immutable, all written through KvStore):
//
//   root pointer  ->  manifest object  ->  per-shard { base object,
//                                                      delta objects... }
//
// A commit touching changes C:
//   1. (shard scopes held) For each dirty shard, publish_shard() writes ONE
//      new delta object carrying C's slice — or, when the shard's delta
//      chain outgrew λ, folds chain+slice into a new base object
//      (compaction). Cost: O(slice), or amortized O(shard) on folds. The
//      staged ShardEntry is returned, referencing the new objects.
//   2. (root scope held) commit_manifest() re-reads the current manifest,
//      verifies each dirty shard is unchanged since the fenced basis
//      (optimistic concurrency: a mismatch is kConflict, retry from fresh
//      state), splices the staged entries in, writes the new manifest
//      object and flips the root pointer — the atomic commit point for ALL
//      dirty shards at once. Superseded objects are pruned only after the
//      flip, so a crash at any step leaves either the old root with its
//      complete object set, or the new one (plus harmless garbage).
//
// Reads: fetch_manifest() is O(1) in folder size; fetch_shards() replays
// shards' base+deltas, served incrementally from a per-shard cache (a
// re-fetch at an unchanged shard version is free; a shard that advanced by
// k deltas replays exactly k). fetch_latest() assembles the full image only
// for callers that genuinely need all shards. A pull reads the root once:
// check_update() returns the root it read and fetch_latest() starts from
// it. Every base and delta object the cache lacks is fetched in ONE
// concurrent wave, then each chain replays in order.
//
// Write-to-majority / read-from-all is inherited from KvStore for every
// object and the root pointer: the newest committed state is found whenever
// a majority of clouds is reachable.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "metadata/codec.h"
#include "metadata/kv.h"
#include "metadata/shard.h"

namespace unidrive::metadata {

struct FetchedMetadata {
  SyncFolderImage image;   // every shard absorbed, refcounts rebuilt
  VersionStamp version;    // == image.version()
};

struct ShardConfig {
  std::uint32_t num_shards = 16;
  // Fold a shard's chain into a new base when it exceeds this many delta
  // objects, regardless of byte-size λ — bounds replay depth (and the
  // first-seen window for pruned-object retries).
  std::size_t max_delta_objects = 32;
  // Per-shard fetch cache: remembers each shard's last reconstruction and
  // replays only the delta suffix on re-fetch. Costs O(folder) resident
  // memory on readers that touch every shard; population-scale simulations
  // with many idle clients may turn it off.
  bool cache = true;
};

class ShardedMetaStore {
 public:
  // `pool` runs the KV fan-outs and the shard-object wave; a client passes
  // its own, and null means Executor::shared().
  ShardedMetaStore(cloud::MultiCloud clouds, const std::string& passphrase,
                   ShardConfig config, obs::ObsPtr obs = nullptr,
                   crypto::CipherKind cipher = crypto::CipherKind::kDes,
                   std::shared_ptr<Executor> pool = nullptr);

  // --- reads ---------------------------------------------------------------

  // The cheap cloud-update probe (the paper's version-file check): one root
  // read. Returns that root when its version (the global commit stamp) is
  // newer than `local`, for the caller to hand to fetch_latest(), and
  // nullopt when it is not. kNotFound when nothing was ever committed;
  // kOutage when no cloud answered.
  Result<std::optional<RootPointer>> check_update(const VersionStamp& local);

  // The current manifest. kNotFound before the first commit.
  Result<ShardManifest> fetch_manifest();

  // Each entry's shard image (base + delta replay), served from the
  // per-shard cache when the entry is unchanged; a cached prefix of an
  // entry's chain replays only the delta suffix. Every object the cache
  // lacks is fetched in one concurrent wave. Each returned image's version
  // is its shard's own stamp. Segment refcounts are shard-local artifacts;
  // callers assembling multiple shards must rebuild_refcounts() at the end.
  // On failure the failed shards' cache entries are dropped.
  Result<std::vector<SyncFolderImage>> fetch_shards(
      const std::vector<ShardEntry>& entries);

  // Full image: every shard fetched and absorbed, refcounts rebuilt,
  // version = manifest version. Starts from `root` when the caller already
  // read it (check_update), else reads the root itself. Retries once from a
  // fresh root when an object is missing under the first one — a
  // concurrent compaction pruned it, or the handed root went stale.
  Result<FetchedMetadata> fetch_latest(
      std::optional<RootPointer> root = std::nullopt);

  // --- writes --------------------------------------------------------------

  // Stages one dirty shard: writes the new delta object (or folded base)
  // and returns the ShardEntry to splice into the manifest. `current` is
  // the shard's entry in the fenced manifest (nullptr for a brand-new
  // shard); `full_next` is the post-commit full image, used only as the
  // fold source when the shard cache cannot supply the shard state.
  // `stamp` becomes the shard's new version. No root/manifest mutation
  // happens here — a crash strands unreferenced objects at worst.
  Result<ShardEntry> publish_shard(ShardId id, const ShardEntry* current,
                                   const std::vector<Change>& changes,
                                   const SyncFolderImage& full_next,
                                   const VersionStamp& stamp,
                                   const DeltaPolicy& policy);

  // The atomic commit: splices `dirty` into the CURRENT manifest (re-read
  // under the held root scope), writes the new manifest object and flips
  // the root, fenced on `fenced.version`. kConflict when any dirty shard
  // moved past its fenced entry (caller must restage from fresh state).
  // Returns the manifest actually committed — its non-dirty entries may be
  // newer than `fenced`'s (foreign commits that landed in between), which
  // the caller is expected to absorb.
  Result<ShardManifest> commit_manifest(const std::vector<ShardEntry>& dirty,
                                        const ShardManifest& fenced,
                                        const VersionStamp& stamp);

  // --- misc ----------------------------------------------------------------

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return config_.num_shards;
  }
  [[nodiscard]] const cloud::MultiCloud& clouds() const noexcept {
    return kv_.clouds();
  }
  [[nodiscard]] KvStore& kv() noexcept { return kv_; }

  // Drops the per-shard caches (tests; memory-pressure hooks).
  void clear_cache();

 private:
  Result<ShardManifest> decode_manifest(const std::string& key);
  // The manifest `root` names; adopts its shard count.
  Result<ShardManifest> manifest_at(const RootPointer& root);
  // Best-effort removal of objects superseded by a committed fold, plus
  // manifest objects older than the previous generation.
  void prune_superseded(const std::vector<ShardEntry>& dirty,
                        const ShardManifest& fenced);

  KvStore kv_;
  MetadataCodec codec_;
  ShardConfig config_;
  obs::ObsPtr obs_;

  struct CachedShard {
    ShardEntry entry;
    SyncFolderImage image;
  };
  std::map<ShardId, CachedShard> cache_;
};

}  // namespace unidrive::metadata
