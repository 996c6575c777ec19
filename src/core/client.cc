#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "core/kernel_gauges.h"
#include "crypto/convergent.h"
#include "metadata/delta.h"
#include "sched/rebalance.h"

namespace unidrive::core {

using metadata::Change;
using metadata::FileSnapshot;
using metadata::SegmentInfo;
using metadata::SyncFolderImage;
using metadata::VersionStamp;

namespace {

// The RS codec length is pinned (not derived from the current N) so a block
// index means the same codeword row forever: blocks encoded before an
// add/remove-cloud rebalance stay decodable alongside blocks encoded after.
// The scheduler still bounds *placement* by CodeParams::code_n().
constexpr std::size_t kCodecLength = 64;

erasure::RsCode codec_for(const sched::CodeParams& params) {
  return erasure::RsCode(kCodecLength, params.k);
}

// Shared pool width: explicit config wins, otherwise default_threads()
// (env override, else max(transfer concurrency, hardware)).
std::shared_ptr<Executor> make_executor(const ClientConfig& config,
                                        std::size_t num_clouds) {
  const std::size_t floor =
      std::max<std::size_t>(1, num_clouds * config.driver.connections_per_cloud);
  const std::size_t threads = config.pipeline.threads > 0
                                  ? config.pipeline.threads
                                  : Executor::default_threads(floor);
  return std::make_shared<Executor>(threads);
}

}  // namespace

UniDriveClient::UniDriveClient(cloud::MultiCloud clouds,
                               std::shared_ptr<LocalFs> fs,
                               ClientConfig config, Clock& clock, Rng rng)
    : clouds_(std::move(clouds)),
      fs_(std::move(fs)),
      config_(std::move(config)),
      clock_(clock),
      rng_(rng),
      obs_(std::make_shared<obs::Observability>(clock_)),
      durability_(std::make_shared<repair::DurabilityTracker>(obs_)),
      health_(std::make_shared<cloud::CloudHealthRegistry>(config_.breaker,
                                                           clock_, obs_)),
      guarded_(cloud::guard_clouds(clouds_, config_.retry, health_, clock_,
                                   config_.sleep, rng_, obs_)),
      executor_(make_executor(config_, clouds_.size())),
      shard_pool_(std::make_shared<ShardPool>(
          config_.pipeline.max_inflight_bytes, obs_)),
      store_(guarded_, config_.passphrase, config_.meta, obs_,
             config_.cipher, executor_),
      locks_(guarded_, config_.device, config_.lock, clock_, rng_.fork(),
             config_.sleep, obs_),
      monitor_() {
  export_kernel_gauges(obs_.get());
  rebuild_async_clouds();
  load_state();
  if (config_.pool != nullptr) {
    // The pool's refcounts are keyed by folder id; an empty (unset) id gets
    // a process-unique one so two unrelated clients can never collapse into
    // one folder and GC each other's blocks. Dedup still works (probes are
    // by content), but devices of one folder should share an explicit id.
    if (config_.folder_id.empty()) {
      static std::atomic<std::uint64_t> next_anonymous_folder{0};
      config_.folder_id =
          "folder-auto-" +
          std::to_string(next_anonymous_folder.fetch_add(1)) + "-" +
          config_.device;
      UNI_LOG(kWarn) << "client with a shared segment pool but no folder_id;"
                     << " derived unique id " << config_.folder_id;
    }
    // Register the persisted state's references in the shared segment pool,
    // so other folders' GC protects our segments from the first round on.
    config_.pool->absorb_image(config_.folder_id, image_);
  }
}

void UniDriveClient::rebuild_guards() {
  // The parked restores' stragglers run on the executor and async clouds
  // replaced below: wait them out first.
  draining_restores_.clear();
  guarded_ = cloud::guard_clouds(clouds_, config_.retry, health_, clock_,
                                 config_.sleep, rng_, obs_);
  executor_ = make_executor(config_, clouds_.size());
  store_ = metadata::ShardedMetaStore(guarded_, config_.passphrase,
                                      config_.meta, obs_, config_.cipher,
                                      executor_);
  locks_ = lock::LockManager(guarded_, config_.device, config_.lock, clock_,
                             rng_.fork(), config_.sleep, obs_);
  rebuild_async_clouds();
}

void UniDriveClient::rebuild_async_clouds() {
  async_clouds_.clear();
  cloud::AsyncContext ctx;
  ctx.io = executor_.get();
  ctx.obs = obs_;
  async_clouds_.reserve(guarded_.size());
  for (const cloud::CloudPtr& c : guarded_) {
    async_clouds_.push_back(cloud::to_async(c, ctx));
  }
}

void UniDriveClient::load_state() {
  if (config_.state_file.empty()) return;
  std::ifstream in(config_.state_file, std::ios::binary);
  if (!in) return;  // first run
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto image = SyncFolderImage::deserialize(ByteSpan(data));
  if (image.is_ok()) {
    image_ = std::move(image).take();
  } else {
    UNI_LOG(kWarn) << "discarding corrupt client state file "
                   << config_.state_file;
  }
}

void UniDriveClient::persist_state() const {
  if (config_.state_file.empty()) return;
  const Bytes data = image_.serialize();
  // Write-then-rename so a crash never leaves a torn state file.
  const std::string tmp = config_.state_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      UNI_LOG(kWarn) << "cannot persist client state to " << tmp;
      return;
    }
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, config_.state_file, ec);
  if (ec) {
    UNI_LOG(kWarn) << "state rename failed: " << ec.message();
  }
}

sched::CodeParams UniDriveClient::code_params() const {
  sched::CodeParams p;
  p.num_clouds = clouds_.size();
  p.k = config_.k;
  p.ks = config_.ks;
  p.kr = config_.kr;
  return p;
}

std::vector<cloud::CloudId> UniDriveClient::cloud_ids() const {
  std::vector<cloud::CloudId> ids;
  ids.reserve(clouds_.size());
  for (const cloud::CloudPtr& c : clouds_) ids.push_back(c->id());
  return ids;
}

cloud::CloudProvider* UniDriveClient::find_cloud(cloud::CloudId id) const {
  for (const cloud::CloudPtr& c : guarded_) {
    if (c->id() == id) return c.get();
  }
  return nullptr;
}

cloud::AsyncCloud* UniDriveClient::find_async_cloud(cloud::CloudId id) const {
  for (const cloud::AsyncCloudPtr& c : async_clouds_) {
    if (c->id() == id) return c.get();
  }
  return nullptr;
}

bool UniDriveClient::cloud_update_pending() {
  const auto update = store_.check_update(image_.version());
  return update.is_ok() && update.value().has_value();
}

// --- data plane -------------------------------------------------------------

std::unique_ptr<UploadPipeline> UniDriveClient::make_pipeline(
    const sched::CodeParams& params) {
  return std::make_unique<UploadPipeline>(
      params, codec_for(params), cloud_ids(), config_.driver, monitor_,
      executor_, [this](cloud::CloudId id) { return find_async_cloud(id); },
      config_.pipeline, health_, obs_, config_.pool, config_.folder_id,
      shard_pool_);
}

std::unique_ptr<DownloadPipeline> UniDriveClient::make_download_pipeline(
    LocalFs& fs) {
  std::erase_if(draining_restores_,
                [](const auto& restore) { return restore->drained(); });
  const sched::CodeParams params = code_params();
  return std::make_unique<DownloadPipeline>(
      params.k, codec_for(params), cloud_ids(), config_.driver, monitor_,
      executor_, [this](cloud::CloudId id) { return find_async_cloud(id); },
      config_.pipeline, fs, health_, obs_);
}

std::vector<DownloadPipeline::FileResult> UniDriveClient::finish_restore(
    std::unique_ptr<DownloadPipeline> pipeline) {
  std::vector<DownloadPipeline::FileResult> results = pipeline->finish();
  if (!pipeline->drained()) draining_restores_.push_back(std::move(pipeline));
  return results;
}

Result<UniDriveClient::ApplyOutcome> UniDriveClient::apply_cloud_image(
    const SyncFolderImage& target) {
  const metadata::ImageDiff diff = metadata::diff_images(image_, target);
  ApplyOutcome outcome;

  // The folder already holds a file's target content when this device
  // produced it. This round's scan fingerprinted every local file into the
  // scan cache, so a lookup answers without reading the file again.
  const auto holds_content = [this](const FileSnapshot& snapshot) {
    const auto size = fs_->size(snapshot.path);
    if (!size.is_ok()) return false;
    const std::string* hash = scan_cache_.lookup(
        snapshot.path, size.value(), fs_->mtime(snapshot.path).value_or(0.0));
    return hash != nullptr && *hash == snapshot.content_hash;
  };
  std::vector<const FileSnapshot*> to_download;
  std::vector<std::string> to_delete;
  for (const auto& [path, change] : diff.files) {
    if (change.kind == metadata::EntryChangeKind::kDeleted) {
      to_delete.push_back(path);
    } else if (!holds_content(*change.snapshot)) {
      to_download.push_back(&*change.snapshot);
    }
  }

  const auto remove_file = [&](const std::string& path) {
    if (fs_->remove(path).is_ok()) ++outcome.removed;
    scan_cache_.forget(path);
  };
  const auto remove_dir = [&](const std::string& d) {
    const Status s = fs_->remove_dir(d);
    // Already gone is the desired end state, not a failure.
    if (!s.is_ok() && s.code() != ErrorCode::kNotFound) {
      outcome.dir_failures.push_back(d);
      UNI_LOG(kWarn) << "remove_dir " << d << " failed: " << s.to_string();
    }
  };

  // Deletions wait for the batch (below), except the ones standing where
  // it writes: a file replaced by a directory of the same name (/x by
  // /x/y), or a directory replaced by a file, goes first.
  std::set<std::string> incoming(diff.added_dirs.begin(),
                                 diff.added_dirs.end());
  for (const FileSnapshot* snapshot : to_download) {
    incoming.insert(snapshot->path);
  }
  const auto under = [](const std::string& path, const std::string& dir) {
    return path.size() > dir.size() && path[dir.size()] == '/' &&
           path.compare(0, dir.size(), dir) == 0;
  };
  const auto in_the_way = [&](const std::string& gone) {
    if (incoming.count(gone) != 0) return true;
    const auto next = incoming.lower_bound(gone + "/");
    return next != incoming.end() && under(*next, gone);
  };
  std::vector<std::string> early_dirs;
  std::vector<std::string> later_dirs;
  for (const std::string& d : diff.removed_dirs) {
    (in_the_way(d) ? early_dirs : later_dirs).push_back(d);
  }
  std::vector<std::string> later_files;
  for (const std::string& path : to_delete) {
    const bool early =
        in_the_way(path) ||
        std::any_of(early_dirs.begin(), early_dirs.end(),
                    [&](const std::string& d) { return under(path, d); });
    if (early) {
      remove_file(path);
    } else {
      later_files.push_back(path);
    }
  }
  for (const std::string& d : early_dirs) remove_dir(d);

  // Directory failures must not be swallowed: a file materialized into a
  // missing directory fails too, and the caller needs to know the folder
  // does not fully reflect the committed image.
  for (const std::string& d : diff.added_dirs) {
    const Status s = fs_->make_dir(d);
    if (!s.is_ok()) {
      outcome.dir_failures.push_back(d);
      UNI_LOG(kWarn) << "make_dir " << d << " failed: " << s.to_string();
    }
  }

  Status batch = Status::ok();
  if (!to_download.empty()) {
    // The whole batch streams through ONE restore pipeline (connection
    // pools and hedging span file boundaries; the prefetch window bounds
    // memory). Segments the folder already holds, per image_, are read
    // from it; only the rest are fetched. Restore needs only k, so it runs
    // even when the placement params fail CodeParams::validate().
    std::unordered_set<std::string> wanted;
    for (const FileSnapshot* snapshot : to_download) {
      wanted.insert(snapshot->segment_ids.begin(),
                    snapshot->segment_ids.end());
    }
    const HeldSegments held(image_, *fs_, wanted);
    auto pipeline = make_download_pipeline(*fs_);
    for (const FileSnapshot* snapshot : to_download) {
      pipeline->add_file(*snapshot, target, &held);
    }
    const std::vector<DownloadPipeline::FileResult> results =
        finish_restore(std::move(pipeline));
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.is_ok()) {
        if (batch.is_ok()) batch = results[i].status;
        continue;
      }
      ++outcome.downloaded;
      // The restore checked these bytes against the snapshot's content
      // hash: seed the scan cache so the next scan need not read them.
      scan_cache_.update(results[i].path, to_download[i]->size,
                         results[i].mtime, to_download[i]->content_hash);
    }
  }

  // The other deletions run whether the batch succeeded or not: a moved
  // file restores from its old path first, and a failed batch cannot
  // leave deleted files behind for the next scan to re-commit.
  for (const std::string& path : later_files) remove_file(path);
  for (const std::string& d : later_dirs) remove_dir(d);
  UNI_RETURN_IF_ERROR(batch);

  image_ = target;
  return outcome;
}

// --- control plane ----------------------------------------------------------

std::vector<lock::Scope> UniDriveClient::all_scopes() const {
  std::vector<lock::Scope> scopes;
  scopes.reserve(store_.num_shards() + 1);
  for (std::uint32_t s = 0; s < store_.num_shards(); ++s) {
    scopes.push_back(lock::Scope::of_shard(s));
  }
  scopes.push_back(lock::Scope::root());
  return scopes;
}

bool UniDriveClient::absorb_foreign_shards(
    SyncFolderImage& next, const metadata::ShardManifest& fenced,
    const metadata::ShardManifest& committed,
    const std::vector<metadata::ShardId>& own) {
  std::set<metadata::ShardId> foreign;
  for (const metadata::ShardEntry& e : committed.entries) {
    if (std::find(own.begin(), own.end(), e.id) != own.end()) continue;
    const metadata::ShardEntry* was = fenced.find(e.id);
    if (was == nullptr || was->version < e.version) foreign.insert(e.id);
  }
  if (foreign.empty()) return false;

  // Rebuild the image as (our shards, untouched) + (foreign shards, as
  // committed). Everything routed to a foreign shard is dropped first so a
  // concurrent deletion in that shard does not resurrect through us.
  const std::uint32_t n = committed.num_shards;
  SyncFolderImage merged = next.extract(
      [&](const std::string& path) {
        return foreign.count(metadata::shard_of_path(path, n)) == 0;
      },
      [&](const std::string& seg) {
        return foreign.count(metadata::shard_of_segment(seg, n)) == 0;
      });
  std::vector<metadata::ShardEntry> entries;
  for (const metadata::ShardId id : foreign) {
    if (const metadata::ShardEntry* e = committed.find(id)) {
      entries.push_back(*e);
    }
  }
  auto shards = store_.fetch_shards(entries);
  if (!shards.is_ok()) {
    // The foreign writer's objects are not visible right now: keep our
    // own content but advertise the fenced basis, so the next round sees
    // a cloud update and reconciles through the normal merge path.
    obs::add_counter(obs_.get(), "meta.shard.absorb.err");
    next.set_version(fenced.version);
    return true;
  }
  for (const SyncFolderImage& shard : shards.value()) merged.absorb(shard);
  merged.rebuild_refcounts();
  merged.prune_segment_stubs();
  merged.set_version(committed.version);
  obs::add_counter(obs_.get(), "meta.shard.absorb.ok", foreign.size());
  next = std::move(merged);
  return true;
}

Result<SyncFolderImage> UniDriveClient::commit(
    const Rebase& rebase, std::optional<StagedCommit> first,
    const std::vector<lock::Scope>& extra_scopes) {
  StagedCommit staged;
  if (first.has_value()) {
    staged = std::move(*first);
  } else {
    auto fetched = store_.fetch_latest();
    if (!fetched.is_ok() && fetched.code() != ErrorCode::kNotFound) {
      return fetched.status();
    }
    staged.next = fetched.is_ok() ? std::move(fetched).take().image : image_;
    staged.basis = staged.next.version();
    staged.changes = rebase(staged.next);
  }

  constexpr int kMaxAttempts = 4;
  Status last = Status::ok();
  for (int attempt = 0; attempt < kMaxAttempts && !staged.changes.empty();
       ++attempt) {
    const std::uint32_t n = store_.num_shards();
    metadata::ShardManifest fenced;
    std::vector<metadata::ShardId> own;
    metadata::ShardManifest committed;
    {
      const lock::ReleaseOnExit release(locks_);
      auto slices = metadata::split_changes_by_shard(staged.changes, n);
      std::vector<lock::Scope> scopes = extra_scopes;
      for (const metadata::ShardSlice& s : slices) {
        scopes.push_back(lock::Scope::of_shard(s.shard));
      }
      UNI_RETURN_IF_ERROR(locks_.acquire_all(scopes));

      auto manifest = store_.fetch_manifest();
      if (manifest.is_ok()) {
        fenced = std::move(manifest).take();
      } else if (manifest.code() == ErrorCode::kNotFound) {
        fenced.num_shards = n;  // first commit ever
      } else {
        return manifest.status();
      }
      // The published manifest was created with a different shard count
      // (that choice is authoritative): re-route and re-lock.
      if (store_.num_shards() != n) continue;

      if (staged.basis < fenced.version) {
        // A foreign commit landed after the basis: rebase onto it.
        UNI_ASSIGN_OR_RETURN(metadata::FetchedMetadata fresh,
                             store_.fetch_latest());
        staged.basis = fresh.image.version();
        staged.changes = rebase(fresh.image);
        staged.next = std::move(fresh.image);
        if (staged.changes.empty()) break;
        // The rebase may have routed changes into shards we do not hold
        // yet (conflict copies in other subtrees): re-lock the full set.
        slices = metadata::split_changes_by_shard(staged.changes, n);
        const bool covered = std::all_of(
            slices.begin(), slices.end(), [&](const metadata::ShardSlice& s) {
              return locks_.held(lock::Scope::of_shard(s.shard));
            });
        if (!covered) {
          last = make_error(ErrorCode::kLockContention,
                            "rebase widened the dirty shard set");
          continue;
        }
      }

      VersionStamp stamp;
      stamp.device = config_.device;
      stamp.counter =
          std::max(fenced.version.counter, image_.version().counter) + 1;
      stamp.timestamp = clock_.now();
      staged.next.set_version(stamp);

      // Stage every dirty shard WITHOUT the root scope — the heavy object
      // uploads run concurrently with other writers' disjoint commits.
      std::vector<metadata::ShardEntry> dirty;
      dirty.reserve(slices.size());
      for (const metadata::ShardSlice& slice : slices) {
        UNI_ASSIGN_OR_RETURN(
            metadata::ShardEntry entry,
            store_.publish_shard(slice.shard, fenced.find(slice.shard),
                                 slice.changes, staged.next, stamp,
                                 config_.delta_policy));
        own.push_back(slice.shard);
        dirty.push_back(std::move(entry));
      }

      // Root scope only for the manifest flip — the global choke point
      // stays as narrow as the commit protocol allows.
      UNI_RETURN_IF_ERROR(locks_.acquire(lock::Scope::root()));
      auto flipped = store_.commit_manifest(dirty, fenced, stamp);
      if (!flipped.is_ok()) {
        if (flipped.code() != ErrorCode::kConflict) return flipped.status();
        last = flipped.status();
        continue;  // restage from fresh state
      }
      committed = std::move(flipped).take();
    }

    staged.next.set_version(committed.version);
    const bool foreign =
        absorb_foreign_shards(staged.next, fenced, committed, own);
    if (!foreign && staged.basis == image_.version()) {
      image_ = staged.next;
      if (config_.pool != nullptr) {
        config_.pool->absorb_image(config_.folder_id, image_);
      }
    }
    return std::move(staged.next);
  }
  if (staged.changes.empty()) return std::move(staged.next);
  return last.is_ok() ? make_error(ErrorCode::kLockContention,
                                   "commit retry budget exhausted")
                      : last;
}

Result<SyncReport> UniDriveClient::sync() {
  SyncReport report;
  obs::add_counter(obs_.get(), "sync.rounds");
  obs::Span round_span = obs::start_span(obs_.get(), "sync.round");

  const chunker::SegmenterParams seg_params{config_.theta};
  const sched::CodeParams params = code_params();
  const Status params_valid = params.validate();

  // Stand the pipeline up BEFORE the scan so CDC output streams straight
  // into encode/transfer while the scanner is still walking files. Its
  // segment-pool pins live until after the metadata commit below. Invalid
  // CodeParams get no pipeline: the scan then only notes that new segment
  // data exists, so the validation error surfaces only in rounds that have
  // data to upload (a round that only deletes still commits).
  std::unique_ptr<UploadPipeline> pipeline;
  if (params_valid.is_ok()) pipeline = make_pipeline(params);
  bool has_new_data = false;

  ScanResult scan;
  {
    obs::Span scan_span = round_span.child("sync.scan");
    scan = scan_local_changes(*fs_, image_, seg_params, config_.device,
                              &scan_cache_, *executor_,
                              [&](const std::string& id, Bytes bytes) {
                                has_new_data = true;
                                if (pipeline != nullptr) {
                                  pipeline->feed(id, std::move(bytes));
                                }
                              },
                              config_.pipeline.max_inflight_bytes);
  }
  obs::add_counter(obs_.get(), "sync.files_hashed", scan.files_hashed);

  if (!scan.changes.empty()) {
    // --- local update path (Algorithm 1, lines 2-14) ---
    // Data plane first: blocks must hit the clouds before metadata does.
    std::vector<SegmentInfo> uploaded;
    {
      obs::Span upload_span = round_span.child("sync.upload_segments");
      if (pipeline == nullptr) {
        if (has_new_data) return params_valid;
      } else {
        UNI_ASSIGN_OR_RETURN(uploaded, pipeline->finish());
        const UploadPipeline::DedupStats dedup = pipeline->dedup_stats();
        report.segments_deduped = dedup.segments;
        report.dedup_bytes_saved = dedup.bytes_saved;
        // `uploaded` carries one record per fed segment, dedup hits
        // included; clamp so a result subset can never underflow size_t.
        report.segments_uploaded = uploaded.size() >= dedup.segments
                                       ? uploaded.size() - dedup.segments
                                       : 0;
      }
    }

    // Build v_l = v_o + epsilon (+ fresh segment records).
    SyncFolderImage local = image_;
    std::vector<Change> committed_changes;
    for (const SegmentInfo& seg : uploaded) {
      Change c = Change::upsert_segment(seg);
      apply_change(local, c);
      committed_changes.push_back(std::move(c));
    }
    for (const Change& c : scan.changes.aggregated()) {
      apply_change(local, c);
      committed_changes.push_back(c);
      if (c.kind == metadata::ChangeKind::kUpsertFile) ++report.files_uploaded;
    }

    // Built on v_o, with no fetch. When a foreign commit landed since our
    // last reconcile, the rebase is a 3-way merge against the cloud image
    // (conflicts keep both copies); the merge may have rewritten paths
    // (conflict copies), so the change list becomes the diff cloud->merged
    // for the shard delta logs.
    const Rebase merge = [&](SyncFolderImage& fresh) {
      obs::Span merge_span = obs::start_span(obs_.get(), "sync.merge");
      metadata::MergeResult merged =
          metadata::merge_images(image_, local, fresh, config_.device);
      merge_span.end();
      report.conflicts = merged.conflicts;
      obs::add_counter(obs_.get(), "sync.conflicts", merged.conflicts.size());
      std::vector<Change> changes;
      for (const auto& [id, seg] : merged.merged.segments()) {
        if (fresh.find_segment(id) == nullptr) {
          changes.push_back(Change::upsert_segment(seg));
        }
      }
      const metadata::ImageDiff d = metadata::diff_images(fresh, merged.merged);
      for (const auto& [path, ec] : d.files) {
        if (ec.kind == metadata::EntryChangeKind::kDeleted) {
          changes.push_back(Change::delete_file(path));
        } else {
          changes.push_back(Change::upsert_file(*ec.snapshot));
        }
      }
      for (const std::string& dir : d.added_dirs) {
        changes.push_back(Change::add_dir(dir));
      }
      for (const std::string& dir : d.removed_dirs) {
        changes.push_back(Change::delete_dir(dir));
      }
      fresh = std::move(merged.merged);
      return changes;
    };
    SyncFolderImage committed;
    {
      obs::Span commit_span = round_span.child("sync.commit");
      UNI_ASSIGN_OR_RETURN(
          committed,
          commit(merge, StagedCommit{local, std::move(committed_changes),
                                     image_.version()}));
    }
    report.committed = true;

    // Bring the local folder up to the committed state (conflict copies,
    // concurrently added files from other devices). The local folder
    // currently reflects v_l, so diff from there.
    image_ = local;
    obs::Span apply_span = round_span.child("sync.apply_cloud");
    auto applied = apply_cloud_image(committed);
    apply_span.end();
    if (!applied.is_ok()) {
      image_ = committed;  // folder lags, but metadata is authoritative
      report.materialize = applied.status();
    } else {
      const ApplyOutcome& outcome = applied.value();
      report.files_downloaded += outcome.downloaded;
      report.files_removed += outcome.removed;
      report.applied_cloud = outcome.downloaded + outcome.removed > 0;
      report.dir_failures = outcome.dir_failures;
      if (!outcome.dir_failures.empty()) {
        report.materialize = Status(
            ErrorCode::kUnavailable,
            "folder materialization incomplete: " +
                std::to_string(outcome.dir_failures.size()) +
                " directory operation(s) failed");
      }
    }
  } else if (auto update = store_.check_update(image_.version());
             update.is_ok() && update.value().has_value()) {
    // --- cloud update path (Algorithm 1, lines 15-18) ---
    // The fetch starts from the root the update check read.
    UNI_ASSIGN_OR_RETURN(const metadata::FetchedMetadata fetched,
                         store_.fetch_latest(std::move(update).take()));
    obs::Span apply_span = round_span.child("sync.apply_cloud");
    UNI_ASSIGN_OR_RETURN(const ApplyOutcome outcome,
                         apply_cloud_image(fetched.image));
    apply_span.end();
    report.files_downloaded = outcome.downloaded;
    report.files_removed = outcome.removed;
    report.applied_cloud = true;
    report.dir_failures = outcome.dir_failures;
    if (!outcome.dir_failures.empty()) {
      report.materialize = Status(
          ErrorCode::kUnavailable,
          "folder materialization incomplete: " +
              std::to_string(outcome.dir_failures.size()) +
              " directory operation(s) failed");
    }
  }

  // Reconcile the shared segment pool with the round's final committed
  // state: newly committed segments become dedupable for everyone, dropped
  // ones shed our reference. Runs while the pipeline (and its probe pins)
  // is still alive, so there is no unprotected window.
  if (config_.pool != nullptr) {
    config_.pool->absorb_image(config_.folder_id, image_);
  }

  report.version = image_.version();
  report.cloud_health = health_->snapshot_all();
  report.durability = durability_->summarize(
      image_, config_.k, config_.redundancy_floor,
      [this](cloud::CloudId id) { return health_->admissible(id); });
  repair::publish_durability_gauges(report.durability, obs_.get());
  // Degraded = reduced reachability OR eroded durability: an open breaker,
  // or any segment whose surviving redundancy fell below the floor.
  report.degraded =
      !health_->all_closed() || report.durability.under_replicated > 0;
  persist_state();
  round_span.end();
  report.metrics = obs_->metrics.snapshot();
  return report;
}

// --- maintenance -------------------------------------------------------------

Status UniDriveClient::cleanup_overprovisioned() {
  const sched::CodeParams params = code_params();
  const Rebase trim = [&](SyncFolderImage& next) {
    std::vector<Change> changes;
    for (const auto& [id, seg] : next.segments()) {
      std::map<cloud::CloudId, std::size_t> per_cloud;
      SegmentInfo trimmed = seg;
      std::vector<metadata::BlockLocation> keep;
      for (const metadata::BlockLocation& b : seg.blocks) {
        if (per_cloud[b.cloud] < params.fair_share()) {
          keep.push_back(b);
          ++per_cloud[b.cloud];
        } else {
          // Surplus: delete the block from the cloud (best effort,
          // idempotent if the commit below retries).
          cloud::CloudProvider* provider = find_cloud(b.cloud);
          if (provider != nullptr) {
            (void)provider->remove(metadata::block_path(id, b.block_index));
          }
        }
      }
      if (keep.size() != seg.blocks.size()) {
        trimmed.blocks = std::move(keep);
        changes.push_back(Change::upsert_segment(trimmed));
      }
    }
    for (const Change& c : changes) apply_change(next, c);
    return changes;
  };
  return commit(trim).status();
}

Result<std::size_t> UniDriveClient::collect_garbage() {
  std::size_t collected = 0;
  const Rebase collect = [&](SyncFolderImage& next) {
    collected = 0;
    std::vector<Change> changes;
    for (const std::string& seg_id : next.garbage_segments()) {
      const SegmentInfo* seg = next.find_segment(seg_id);
      if (seg == nullptr) continue;
      // Cross-folder guard: blocks live in a shared content-addressed
      // namespace, so a segment another folder still references must
      // keep its physical blocks — we only drop our own record.
      // try_begin_gc atomically removes the pool entry when nobody else
      // holds it, so a concurrent probe can no longer hand out the
      // locations we are about to delete.
      const bool delete_blocks =
          config_.pool == nullptr ||
          config_.pool->try_begin_gc(config_.folder_id, seg_id);
      if (delete_blocks) {
        // Blocks first, metadata second: a crash in between leaves a
        // harmless pool entry pointing at deleted blocks (retried next
        // GC), never a referenced segment without blocks.
        for (const metadata::BlockLocation& b : seg->blocks) {
          cloud::CloudProvider* provider = find_cloud(b.cloud);
          if (provider != nullptr) {
            (void)provider->remove(
                metadata::block_path(seg_id, b.block_index));
          }
        }
        // Deletes done: lift the tombstone so probes (held off while
        // the removes were in flight — a racing re-upload of the same
        // content would land on the exact paths being deleted) can
        // miss-and-upload safely again.
        if (config_.pool != nullptr) config_.pool->finish_gc(seg_id);
      } else {
        obs::add_counter(obs_.get(), "dedup.gc.shared_keep");
      }
      changes.push_back(Change::drop_segment(seg_id));
    }
    collected = changes.size();
    for (const Change& c : changes) apply_change(next, c);
    return changes;
  };
  UNI_RETURN_IF_ERROR(commit(collect).status());
  return collected;
}

Status UniDriveClient::resolve_conflict(const metadata::ConflictRecord& record,
                                        ConflictChoice choice) {
  if (record.conflict_copy.empty()) {
    // Nothing was copied (e.g. delete-vs-edit); the cloud version already
    // stands — only kKeepTheirs is meaningful and it is a no-op.
    return choice == ConflictChoice::kKeepTheirs
               ? Status::ok()
               : make_error(ErrorCode::kInvalidArgument,
                            "conflict has no local copy to promote");
  }
  if (choice == ConflictChoice::kKeepMine) {
    UNI_ASSIGN_OR_RETURN(const Bytes mine, fs_->read(record.conflict_copy));
    UNI_RETURN_IF_ERROR(fs_->write(record.path, ByteSpan(mine)));
  }
  UNI_RETURN_IF_ERROR(fs_->remove(record.conflict_copy));
  return Status::ok();
}

Status UniDriveClient::restore_previous_version(const std::string& path) {
  const std::vector<FileSnapshot> history = image_.history(path);
  if (history.empty()) {
    return make_error(ErrorCode::kNotFound,
                      "no superseded snapshot for " + path);
  }
  // Materialize the old content locally; the next sync() scans it as a
  // fresh local edit and commits it through the normal pipeline (so other
  // devices receive it like any other change). Segments are still in the
  // pool — history snapshots keep them referenced — and the ones the
  // current version shares with the old one are read from the folder.
  const FileSnapshot& previous = history.front();
  const HeldSegments held(image_, *fs_,
                          {previous.segment_ids.begin(),
                           previous.segment_ids.end()});
  auto pipeline = make_download_pipeline(*fs_);
  pipeline->add_file(previous, image_, &held);
  return finish_restore(std::move(pipeline)).front().status;
}

// Plaintext bytes of a segment, for re-encoding blocks during rebalances
// and repairs, restored the way a pull restores a file: the verified local
// copy `held` reads when one exists, otherwise a fetch + verified decode
// (with the corrupt-shard search) from the multi-cloud that never trusts a
// placement in `exclude` — membership changes must work even when the
// local copy is missing (e.g. a freshly joined device administering the
// multi-cloud). The one-segment file lands in a scratch in-memory folder,
// which hands back the buffer the restore published, uncopied.
Result<Bytes> UniDriveClient::segment_content(
    const SyncFolderImage& image, const HeldSegments& held,
    const std::string& segment_id,
    const std::vector<metadata::BlockLocation>& exclude) {
  const SegmentInfo* seg = image.find_segment(segment_id);
  if (seg == nullptr) {
    return make_error(ErrorCode::kNotFound, "unknown segment " + segment_id);
  }
  SegmentInfo trusted = *seg;
  std::erase_if(trusted.blocks, [&](const metadata::BlockLocation& loc) {
    return std::find(exclude.begin(), exclude.end(), loc) != exclude.end();
  });
  SyncFolderImage source;
  source.upsert_segment(trusted);
  // No content hash: the segment is verified against its id.
  FileSnapshot snapshot;
  snapshot.path = "/" + segment_id;
  snapshot.size = trusted.size;
  snapshot.segment_ids = {segment_id};

  // A parked pipeline outlives `scratch`; it holds no reference into it
  // once the file committed or aborted.
  MemoryLocalFs scratch;
  auto pipeline = make_download_pipeline(scratch);
  pipeline->add_file(snapshot, source, &held);
  UNI_RETURN_IF_ERROR(finish_restore(std::move(pipeline)).front().status);
  return scratch.take(snapshot.path);
}

erasure::RsCode UniDriveClient::codec() const {
  return codec_for(code_params());
}

Result<Bytes> UniDriveClient::reconstruct_segment(
    const std::string& segment_id,
    const std::vector<metadata::BlockLocation>& exclude) {
  // Without a clean local copy, decode from the clouds WITHOUT the
  // defective placements — a corrupt block must never poison its own
  // repair.
  return segment_content(image_, HeldSegments(image_, *fs_, {segment_id}),
                         segment_id, exclude);
}

Status UniDriveClient::commit_repaired_placements(
    std::vector<SegmentInfo> repaired) {
  if (repaired.empty()) return Status::ok();
  bool committed = false;
  const Rebase rehome = [&](SyncFolderImage& next) {
    std::vector<Change> changes;
    for (const SegmentInfo& seg : repaired) {
      const SegmentInfo* current = next.find_segment(seg.id);
      // Vanished (GC'd) or already identical: repair is moot/duplicate.
      if (current == nullptr || current->blocks == seg.blocks) continue;
      SegmentInfo updated = *current;  // keep commit-side refcount/size
      updated.blocks = seg.blocks;
      changes.push_back(Change::upsert_segment(std::move(updated)));
    }
    committed = !changes.empty();
    for (const Change& c : changes) apply_change(next, c);
    return changes;
  };
  const Status status = commit(rehome).status();
  if (status.is_ok() && committed) {
    obs::add_counter(obs_.get(), "repair.placement_commits");
  }
  return status;
}

// Executes a rebalance plan: re-encode + upload moved blocks, delete shed
// ones. Best effort per block (unreachable clouds are skipped; the plan is
// re-derivable later).
void UniDriveClient::execute_rebalance(const SyncFolderImage& image,
                                       const sched::RebalancePlan& plan,
                                       const erasure::RsCode& code,
                                       cloud::CloudProvider* added) {
  std::unordered_set<std::string> moved;
  for (const sched::BlockMove& move : plan.moves) {
    moved.insert(move.segment_id);
  }
  const HeldSegments held(image_, *fs_, moved);
  for (const sched::BlockMove& move : plan.moves) {
    auto content = segment_content(image, held, move.segment_id, {});
    if (!content.is_ok()) {
      UNI_LOG(kWarn) << "rebalance: cannot reconstruct segment "
                     << move.segment_id << ": "
                     << content.status().to_string();
      continue;
    }
    // segment_content returns plaintext; stored blocks are coded over the
    // convergent-sealed payload (identity for legacy SHA-1 ids).
    const Bytes sealed =
        crypto::convergent_seal(move.segment_id, ByteSpan(content.value()));
    const auto shards = code.encode_shards(ByteSpan(sealed), {move.block_index});
    cloud::CloudProvider* target =
        added != nullptr && added->id() == move.to_cloud ? added
                                                         : find_cloud(move.to_cloud);
    if (target != nullptr) {
      (void)target->upload(
          metadata::block_path(move.segment_id, move.block_index),
          ByteSpan(shards.front().data));
    }
  }
  for (const sched::BlockDeletion& del : plan.deletions) {
    cloud::CloudProvider* provider = find_cloud(del.cloud);
    if (provider != nullptr) {
      (void)provider->remove(
          metadata::block_path(del.segment_id, del.block_index));
    }
  }
}

Status UniDriveClient::add_cloud(cloud::CloudPtr new_cloud) {
  return change_membership(std::move(new_cloud), std::nullopt);
}

Status UniDriveClient::remove_cloud(cloud::CloudId removed) {
  return change_membership(nullptr, removed);
}

Status UniDriveClient::change_membership(
    cloud::CloudPtr joining, std::optional<cloud::CloudId> leaving) {
  std::vector<cloud::CloudId> ids;  // the new membership
  for (const cloud::CloudPtr& c : clouds_) {
    if (c->id() != leaving) ids.push_back(c->id());
  }
  if (ids.size() == clouds_.size() && leaving.has_value()) {
    return make_error(ErrorCode::kInvalidArgument, "cloud not enrolled");
  }
  if (joining != nullptr) ids.push_back(joining->id());
  sched::CodeParams params = code_params();
  params.num_clouds = ids.size();
  UNI_RETURN_IF_ERROR(params.validate());

  std::vector<Change> block_map;
  {
    // Membership changes rewrite placements across every shard: hold every
    // scope (stop-the-world) on the OLD membership while the rebalance runs.
    const lock::ReleaseOnExit release(locks_);
    UNI_RETURN_IF_ERROR(locks_.acquire_all(all_scopes()));
    auto fetched = store_.fetch_latest();
    if (!fetched.is_ok() && fetched.code() != ErrorCode::kNotFound) {
      return fetched.status();
    }
    SyncFolderImage next =
        fetched.is_ok() ? std::move(fetched).take().image : image_;
    const sched::RebalancePlan plan =
        joining != nullptr
            ? sched::plan_add_cloud(next, joining->id(), ids, params)
            : sched::plan_remove_cloud(next, *leaving, ids, params);
    // The joining cloud gets the same resilience guard as enrolled ones for
    // the rebalance uploads.
    std::optional<cloud::RetryingCloud> added;
    if (joining != nullptr) {
      added.emplace(joining, config_.retry, health_, clock_, config_.sleep,
                    rng_.fork(), obs_);
    }
    execute_rebalance(next, plan, codec_for(params),
                      added.has_value() ? &*added : nullptr);
    sched::apply_rebalance(next, plan);
    for (const auto& [id, seg] : next.segments()) {
      block_map.push_back(Change::upsert_segment(seg));
    }
  }  // released on the OLD membership before rebuilding

  std::erase_if(clouds_,
                [&](const cloud::CloudPtr& c) { return c->id() == leaving; });
  if (joining != nullptr) clouds_.push_back(std::move(joining));
  rebuild_guards();
  // Splice the rebalanced block map onto the freshest committed image: a
  // writer may have committed in the guard-rebuild window, and clobbering
  // its image with our pre-swap copy would lose that update. upsert_segment
  // keeps the fresh image's refcounts.
  const Rebase splice = [&](SyncFolderImage& next) {
    for (const Change& c : block_map) apply_change(next, c);
    return block_map;
  };
  return commit(splice, std::nullopt, all_scopes()).status();
}

}  // namespace unidrive::core
