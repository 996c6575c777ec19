#include "metadata/sharded_store.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace unidrive::metadata {

namespace {

// True when `prefix` is a prefix of `chain` (delta-chain incremental replay).
bool is_prefix(const std::vector<DeltaRef>& prefix,
               const std::vector<DeltaRef>& chain) {
  if (prefix.size() > chain.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), chain.begin());
}

}  // namespace

ShardedMetaStore::ShardedMetaStore(cloud::MultiCloud clouds,
                                   const std::string& passphrase,
                                   ShardConfig config, obs::ObsPtr obs,
                                   crypto::CipherKind cipher,
                                   std::shared_ptr<Executor> pool)
    : kv_(std::move(clouds), "/meta/kv", obs, std::move(pool)),
      codec_(passphrase, cipher),
      config_(config),
      obs_(std::move(obs)) {
  if (config_.num_shards == 0) config_.num_shards = 1;
}

void ShardedMetaStore::clear_cache() { cache_.clear(); }

Result<std::optional<RootPointer>> ShardedMetaStore::check_update(
    const VersionStamp& local) {
  UNI_ASSIGN_OR_RETURN(RootPointer root, kv_.fetch_root());
  if (!(local < root.version)) return std::optional<RootPointer>();
  return std::optional<RootPointer>(std::move(root));
}

Result<ShardManifest> ShardedMetaStore::decode_manifest(
    const std::string& key) {
  // Validate on the way in so a torn/corrupt minority copy is skipped in
  // favor of the next cloud's.
  auto bytes = kv_.get(key, [this](ByteSpan b) {
    auto plain = codec_.decode_blob(b);
    return plain.is_ok() &&
           ShardManifest::deserialize(ByteSpan(plain.value())).is_ok();
  });
  if (!bytes.is_ok()) return bytes.status();
  UNI_ASSIGN_OR_RETURN(const Bytes plain,
                       codec_.decode_blob(ByteSpan(bytes.value())));
  return ShardManifest::deserialize(ByteSpan(plain));
}

Result<ShardManifest> ShardedMetaStore::manifest_at(const RootPointer& root) {
  auto manifest = decode_manifest(root.manifest_key);
  if (manifest.is_ok() && manifest.value().num_shards != config_.num_shards) {
    // The committed shard count is authoritative (chosen by whoever
    // initialized the store): adopt it so every writer routes identically.
    config_.num_shards = manifest.value().num_shards;
    cache_.clear();
  }
  return manifest;
}

Result<ShardManifest> ShardedMetaStore::fetch_manifest() {
  UNI_ASSIGN_OR_RETURN(const RootPointer root, kv_.fetch_root());
  return manifest_at(root);
}

Result<std::vector<SyncFolderImage>> ShardedMetaStore::fetch_shards(
    const std::vector<ShardEntry>& entries) {
  // Plan: where each shard's replay starts, and which objects it needs that
  // the cache lacks. A shard's objects sit contiguously in `objects`, base
  // (if fetched) first, then its deltas in chain order.
  struct Replay {
    const SyncFolderImage* cached = nullptr;  // start image, or none
    std::size_t first_object = 0;
  };
  struct Object {
    const std::string* key = nullptr;
    bool base = false;
    std::optional<SyncFolderImage> image;  // decoded base
    std::optional<DeltaLog> log;           // decoded delta
    Status status;
  };
  std::vector<Replay> replays(entries.size());
  std::vector<Object> objects;
  const auto need = [&objects](const std::string& key, bool base) {
    Object& o = objects.emplace_back();
    o.key = &key;
    o.base = base;
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ShardEntry& entry = entries[i];
    Replay& replay = replays[i];
    replay.first_object = objects.size();
    std::size_t replay_from = 0;
    const auto cached = cache_.find(entry.id);
    if (cached != cache_.end() && cached->second.entry == entry) {
      obs::add_counter(obs_.get(), "meta.shard.fetch.short_circuit");
      replay.cached = &cached->second.image;
      continue;
    }
    if (cached != cache_.end() &&
        cached->second.entry.base_key == entry.base_key &&
        is_prefix(cached->second.entry.deltas, entry.deltas)) {
      // Incremental: the cached reconstruction is a committed prefix of
      // this entry; replay only the delta suffix.
      replay.cached = &cached->second.image;
      replay_from = cached->second.entry.deltas.size();
    } else if (!entry.base_key.empty()) {
      need(entry.base_key, true);
    }
    for (std::size_t d = replay_from; d < entry.deltas.size(); ++d) {
      need(entry.deltas[d].key, false);
    }
  }

  // One wave: every missing object at once, each through get(). A copy is
  // decoded once, by the validator that accepts it.
  kv_.pool().parallel_apply(objects.size(), [&](std::size_t i) {
    Object& o = objects[i];
    o.status = kv_.get(*o.key, [&](ByteSpan b) {
                    if (o.base) {
                      auto image = codec_.decode_image(b);
                      if (!image.is_ok()) return false;
                      o.image = std::move(image).take();
                      return true;
                    }
                    auto log = codec_.decode_delta(b);
                    if (!log.is_ok()) return false;
                    o.log = std::move(log).take();
                    return true;
                  }).status();
  });

  // Replay each chain in order.
  std::vector<SyncFolderImage> images;
  images.reserve(entries.size());
  Status failed = Status::ok();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ShardEntry& entry = entries[i];
    const Replay& replay = replays[i];
    const std::size_t end = i + 1 < entries.size()
                                ? replays[i + 1].first_object
                                : objects.size();
    Status status = Status::ok();
    SyncFolderImage image;
    if (replay.cached != nullptr) image = *replay.cached;
    for (std::size_t o = replay.first_object; o < end && status.is_ok();
         ++o) {
      if (!objects[o].status.is_ok()) {
        status = objects[o].status;
      } else if (objects[o].base) {
        image = std::move(*objects[o].image);
      } else {
        apply_delta(image, *objects[o].log);
      }
    }
    if (status.is_ok() && image.version() < entry.version) {
      // The reconstruction never reached the advertised shard stamp: the
      // chain is inconsistent (should be impossible given immutable keys).
      status = make_error(ErrorCode::kCorrupt,
                          "shard " + std::to_string(entry.id) +
                              " replay stopped at " +
                              image.version().to_string() + " short of " +
                              entry.version.to_string());
    }
    if (!status.is_ok()) {
      cache_.erase(entry.id);
      if (failed.is_ok()) failed = status;
      continue;
    }
    if (config_.cache && end > replay.first_object) {
      cache_[entry.id] = CachedShard{entry, image};
    }
    images.push_back(std::move(image));
  }
  if (!failed.is_ok()) return failed;
  return images;
}

Result<FetchedMetadata> ShardedMetaStore::fetch_latest(
    std::optional<RootPointer> root) {
  obs::Span span = obs::start_span(obs_.get(), "meta.fetch_latest");
  Status last_error = Status::ok();
  for (int attempt = 0; attempt < 2; ++attempt) {
    // The first attempt starts from the root the caller handed over, if
    // any; the retry always reads a fresh one.
    if (attempt > 0 || !root.has_value()) {
      UNI_ASSIGN_OR_RETURN(root, kv_.fetch_root());
    }
    // A concurrent compaction may have pruned an object after the root was
    // read (fetch_shards drops the failed shards' cache): retry once from a
    // fresh root before giving up.
    auto manifest = manifest_at(*root);
    if (!manifest.is_ok()) {
      last_error = manifest.status();
      continue;
    }
    auto shards = fetch_shards(manifest.value().entries);
    if (!shards.is_ok()) {
      last_error = shards.status();
      continue;
    }
    FetchedMetadata out;
    for (const SyncFolderImage& shard : shards.value()) {
      out.image.absorb(shard);
    }
    out.image.rebuild_refcounts();
    out.image.prune_segment_stubs();
    out.image.set_version(manifest.value().version);
    out.version = manifest.value().version;
    obs::add_counter(obs_.get(), "meta.fetch.ok");
    return out;
  }
  obs::add_counter(obs_.get(), "meta.fetch.err");
  return last_error;
}

Result<ShardEntry> ShardedMetaStore::publish_shard(
    ShardId id, const ShardEntry* current, const std::vector<Change>& changes,
    const SyncFolderImage& full_next, const VersionStamp& stamp,
    const DeltaPolicy& policy) {
  obs::Span span = obs::start_span(obs_.get(), "meta.shard.publish");

  // The staged delta object for this commit.
  DeltaLog log;
  log.append(CommitRecord{stamp, changes});
  const Bytes delta_bytes = codec_.encode_delta(log);

  ShardEntry next;
  next.id = id;
  next.version = stamp;
  std::uint64_t chain_bytes = delta_bytes.size();
  if (current != nullptr) {
    next.base_key = current->base_key;
    next.base_size = current->base_size;
    next.deltas = current->deltas;
    for (const DeltaRef& d : current->deltas) chain_bytes += d.size;
  }

  const bool fold = policy.should_merge(next.base_size, chain_bytes) ||
                    next.deltas.size() + 1 > config_.max_delta_objects;
  if (!fold) {
    DeltaRef ref;
    ref.key = shard_delta_key(id, stamp);
    ref.size = delta_bytes.size();
    UNI_RETURN_IF_ERROR(kv_.put(ref.key, ByteSpan(delta_bytes)));
    next.deltas.push_back(std::move(ref));

    // Keep the shard cache current without touching the full image: apply
    // this commit's slice onto the cached reconstruction when it matches
    // the fenced entry, otherwise just invalidate.
    const auto cached = cache_.find(id);
    if (config_.cache && cached != cache_.end() && current != nullptr &&
        cached->second.entry == *current) {
      for (const Change& c : changes) apply_change(cached->second.image, c);
      cached->second.image.set_version(stamp);
      cached->second.entry = next;
    } else if (config_.cache && cached == cache_.end() &&
               current == nullptr) {
      // Brand-new shard: its whole state IS this commit's slice.
      SyncFolderImage fresh;
      for (const Change& c : changes) apply_change(fresh, c);
      fresh.set_version(stamp);
      cache_[id] = CachedShard{next, std::move(fresh)};
    } else {
      cache_.erase(id);
    }
    return next;
  }

  // Compaction (λ): fold chain + this commit into one new base object.
  // Prefer the cached reconstruction (O(shard) CPU, no I/O, no full-image
  // scan); fall back to extracting this shard's subtree from `full_next`.
  SyncFolderImage folded;
  const auto cached = cache_.find(id);
  if (cached != cache_.end() && current != nullptr &&
      cached->second.entry == *current) {
    folded = cached->second.image;
    for (const Change& c : changes) apply_change(folded, c);
  } else {
    const std::uint32_t shards = config_.num_shards;
    folded = full_next.extract(
        [&](const std::string& path) {
          return shard_of_path(path, shards) == id;
        },
        [&](const std::string& seg) {
          return shard_of_segment(seg, shards) == id;
        });
  }
  folded.set_version(stamp);

  const Bytes base_bytes = codec_.encode_image(folded);
  next.base_key = shard_base_key(id, stamp);
  next.base_size = base_bytes.size();
  next.deltas.clear();
  UNI_RETURN_IF_ERROR(kv_.put(next.base_key, ByteSpan(base_bytes)));
  obs::add_counter(obs_.get(), "meta.shard.compactions");
  if (config_.cache) {
    cache_[id] = CachedShard{next, std::move(folded)};
  } else {
    cache_.erase(id);
  }
  return next;
}

Result<ShardManifest> ShardedMetaStore::commit_manifest(
    const std::vector<ShardEntry>& dirty, const ShardManifest& fenced,
    const VersionStamp& stamp) {
  // "meta.publish" is the span name every dashboard and test knows for "the
  // metadata commit point"; the sharded flip keeps it.
  obs::Span span = obs::start_span(obs_.get(), "meta.publish");
  const double started =
      obs_ != nullptr ? obs_->clock().now() : 0.0;

  // Re-read the authoritative manifest under the held root scope.
  ShardManifest current;
  std::optional<VersionStamp> fence_version;
  auto root = kv_.fetch_root();
  if (root.is_ok()) {
    UNI_ASSIGN_OR_RETURN(current, decode_manifest(root.value().manifest_key));
    fence_version = root.value().version;
  } else if (root.code() == ErrorCode::kNotFound) {
    current.num_shards = config_.num_shards;
  } else {
    return root.status();
  }

  // Optimistic concurrency: every dirty shard must still be at the version
  // our staging was based on. With per-shard locks held this always holds;
  // without them (lock-free optimistic mode) a loss here is a clean retry.
  for (const ShardEntry& d : dirty) {
    const ShardEntry* now = current.find(d.id);
    const ShardEntry* was = fenced.find(d.id);
    const bool unchanged =
        (now == nullptr && was == nullptr) ||
        (now != nullptr && was != nullptr && now->version == was->version);
    if (!unchanged) {
      obs::add_counter(obs_.get(), "meta.shard.commit.conflict");
      return make_error(ErrorCode::kConflict,
                        "shard " + std::to_string(d.id) +
                            " advanced past the fenced version");
    }
  }

  ShardManifest next = current;
  if (next.num_shards == 0) next.num_shards = config_.num_shards;
  for (const ShardEntry& d : dirty) next.upsert(d);
  // The manifest stamp must dominate every root version ever published —
  // foreign commits may have advanced the root past the caller's basis.
  VersionStamp final_stamp = stamp;
  final_stamp.counter = std::max(final_stamp.counter,
                                 current.version.counter + 1);
  next.version = final_stamp;

  const Bytes manifest_bytes = codec_.encode_blob(ByteSpan(next.serialize()));
  const std::string key = manifest_key(final_stamp);
  UNI_RETURN_IF_ERROR(kv_.put(key, ByteSpan(manifest_bytes)));

  RootPointer root_next;
  root_next.version = final_stamp;
  root_next.manifest_key = key;
  UNI_RETURN_IF_ERROR(kv_.put_root(root_next, fence_version));

  // Only AFTER the flip is it safe to prune: until then the old root must
  // remain fully readable.
  prune_superseded(dirty, fenced);

  obs::add_counter(obs_.get(), "meta.shard.commits");
  obs::observe(obs_.get(), "meta.shard.dirty", static_cast<double>(dirty.size()));
  obs::set_gauge(obs_.get(), "meta.shard.entries",
                 static_cast<double>(next.entries.size()));
  obs::set_gauge(obs_.get(), "meta.shard.manifest_bytes",
                 static_cast<double>(manifest_bytes.size()));
  if (obs_ != nullptr) {
    obs::observe(obs_.get(), "meta.shard.commit.latency",
                 obs_->clock().now() - started);
  }
  return next;
}

void ShardedMetaStore::prune_superseded(const std::vector<ShardEntry>& dirty,
                                        const ShardManifest& fenced) {
  std::vector<std::string> keys;
  for (const ShardEntry& d : dirty) {
    const ShardEntry* was = fenced.find(d.id);
    if (was == nullptr || was->base_key == d.base_key) continue;
    // This commit folded the shard: the fenced base and every delta folded
    // into the new one are superseded.
    if (!was->base_key.empty()) keys.push_back(was->base_key);
    for (const DeltaRef& ref : was->deltas) keys.push_back(ref.key);
  }
  // Manifest GC: generations older than the fenced one can no longer win a
  // read-from-all (the new root shadows them on a majority); the fenced
  // generation itself is kept for readers mid-flight on the old root.
  if (fenced.version.counter > 0) {
    auto names = kv_.list("m");
    if (names.is_ok()) {
      for (const std::string& name : names.value()) {
        const std::uint64_t counter =
            std::strtoull(name.c_str(), nullptr, 10);
        if (counter != 0 && counter < fenced.version.counter) {
          keys.push_back("m/" + name);
        }
      }
    }
  }
  kv_.remove(keys);  // one wave
  obs::add_counter(obs_.get(), "meta.shard.pruned", keys.size());
}

}  // namespace unidrive::metadata
