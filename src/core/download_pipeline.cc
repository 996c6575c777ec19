#include "core/download_pipeline.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "crypto/convergent.h"

namespace unidrive::core {

using metadata::FileSnapshot;
using metadata::SegmentInfo;
using metadata::SyncFolderImage;

Result<Bytes> decode_verified(const erasure::RsCode& code,
                              const std::vector<erasure::Shard>& shards,
                              const SegmentInfo& segment, std::size_t k,
                              Executor* executor) {
  std::vector<std::size_t> pick(k);
  std::function<Result<Bytes>(std::size_t, std::size_t)> search =
      [&](std::size_t depth, std::size_t start) -> Result<Bytes> {
    if (depth == k) {
      std::vector<erasure::Shard> subset;
      subset.reserve(k);
      for (const std::size_t i : pick) subset.push_back(shards[i]);
      auto decoded = executor != nullptr
                         ? code.decode_shards_parallel(subset, segment.size,
                                                       *executor)
                         : code.decode(subset, segment.size);
      if (decoded.is_ok()) {
        // Decoded bytes are the sealed payload; open unseals (identity for
        // legacy SHA-1 ids) and verifies against the id's hash family.
        auto opened = crypto::convergent_open(segment.id,
                                              std::move(decoded).take());
        if (opened.is_ok()) return opened;
      }
      return make_error(ErrorCode::kCorrupt, "subset failed");
    }
    for (std::size_t i = start; i + (k - depth) <= shards.size(); ++i) {
      pick[depth] = i;
      auto result = search(depth + 1, i + 1);
      if (result.is_ok()) return result;
    }
    return make_error(ErrorCode::kCorrupt, "no verifiable subset");
  };
  return search(0, 0);
}

HeldSegments::HeldSegments(const SyncFolderImage& image, const LocalFs& fs,
                           const std::unordered_set<std::string>& wanted)
    : fs_(fs) {
  for (const auto& [path, snapshot] : image.files()) {
    // Offsets need a segment lookup each: only files holding a wanted
    // segment pay for them.
    if (std::none_of(snapshot.segment_ids.begin(), snapshot.segment_ids.end(),
                     [&](const std::string& sid) {
                       return wanted.count(sid) != 0;
                     })) {
      continue;
    }
    std::uint64_t offset = 0;
    for (const std::string& sid : snapshot.segment_ids) {
      const SegmentInfo* seg = image.find_segment(sid);
      if (seg == nullptr) break;  // later offsets are unknown
      if (wanted.count(sid) != 0) {
        where_[sid].push_back({path, offset, seg->size});
      }
      offset += seg->size;
    }
  }
}

Result<Bytes> HeldSegments::read(const std::string& segment_id) const {
  const auto it = where_.find(segment_id);
  if (it != where_.end()) {
    for (const Location& at : it->second) {
      auto piece = fs_.read_range(at.path, at.offset, at.size);
      // Trust but verify: the file may have changed since the image was
      // committed. Dispatches on the id's hash family.
      if (piece.is_ok() &&
          crypto::verify_segment_id(segment_id, ByteSpan(piece.value()))) {
        return piece;
      }
    }
  }
  return make_error(ErrorCode::kNotFound,
                    "no verified local copy of segment " + segment_id);
}

DownloadPipeline::DownloadPipeline(
    std::size_t k, erasure::RsCode code, std::vector<cloud::CloudId> clouds,
    sched::DriverConfig driver_config, sched::ThroughputMonitor& monitor,
    std::shared_ptr<Executor> executor, FindAsyncCloudFn find_cloud,
    PipelineConfig pipeline_config, LocalFs& fs,
    std::shared_ptr<cloud::CloudHealthRegistry> health, obs::ObsPtr obs)
    : k_(k),
      code_(std::move(code)),
      executor_(std::move(executor)),
      find_cloud_(std::move(find_cloud)),
      config_(pipeline_config),
      fs_(fs),
      obs_(std::move(obs)) {
  driver_ = std::make_unique<sched::StreamingDownloadDriver>(
      k_, std::move(clouds), driver_config, monitor, executor_,
      [this](const sched::BlockTask& task, sched::TransferDoneFn done) {
        return transfer_async(task, std::move(done));
      },
      std::move(health), obs_,
      [this](const std::string& id, bool ok) { on_segment_fetched(id, ok); });
}

DownloadPipeline::~DownloadPipeline() {
  cancel();
  // Transfers drain first (no more fetched callbacks), then the decode
  // tasks those callbacks already queued.
  driver_->wait();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return decode_queue_ == 0; });
}

bool DownloadPipeline::drained() const { return driver_->in_flight() == 0; }

std::size_t DownloadPipeline::inflight_bytes() const {
  std::lock_guard<std::mutex> guard(mem_mutex_);
  return inflight_;
}

void DownloadPipeline::release_bytes(std::size_t n) {
  std::lock_guard<std::mutex> guard(mem_mutex_);
  inflight_ -= std::min(inflight_, n);
  obs::set_gauge(obs_.get(), "restore.inflight_bytes",
                 static_cast<double>(inflight_));
  mem_cv_.notify_all();
}

void DownloadPipeline::cancel() {
  cancelled_.store(true);
  {
    std::lock_guard<std::mutex> guard(mem_mutex_);
    mem_cv_.notify_all();
  }
  driver_->cancel();  // pending segments get their ok=false callback
}

bool DownloadPipeline::reserve(std::size_t footprint) {
  // An oversized reservation (footprint > cap) is admitted once the
  // pipeline is empty, so it cannot wedge.
  std::unique_lock<std::mutex> mem(mem_mutex_);
  mem_cv_.wait(mem, [&] {
    return cancelled_.load() || inflight_ == 0 ||
           inflight_ + footprint <= config_.max_inflight_bytes;
  });
  if (cancelled_.load()) return false;
  inflight_ += footprint;
  peak_inflight_ = std::max(peak_inflight_, inflight_);
  obs::set_gauge(obs_.get(), "restore.inflight_bytes",
                 static_cast<double>(inflight_));
  obs::set_gauge(obs_.get(), "restore.inflight_bytes_peak",
                 static_cast<double>(peak_inflight_));
  return true;
}

bool DownloadPipeline::admit_held(std::size_t file_index,
                                  const SegmentInfo& seg,
                                  const HeldSegments& held) {
  // Plaintext only: a local copy never holds coded shards.
  if (!reserve(seg.size)) return false;
  auto plain = held.read(seg.id);
  if (!plain.is_ok()) {
    release_bytes(seg.size);
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  FileState& f = files_[file_index];
  if (f.closed) {
    // The file failed meanwhile: nothing will consume the plaintext.
    release_bytes(seg.size);
    return true;
  }
  SegState state;
  state.info = seg;
  state.plain_charge = seg.size;
  state.plain = std::move(plain).take();
  state.resolved = true;
  state.decoded = true;
  state.waiters_remaining = 1;
  segments_.emplace(seg.id, std::move(state));
  ++f.admitted;
  obs::add_counter(obs_.get(), "restore.reused_segments");
  advance_file_locked(file_index);
  return true;
}

void DownloadPipeline::add_file(const FileSnapshot& snapshot,
                                const SyncFolderImage& image,
                                const HeldSegments* held) {
  std::size_t fi = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fi = files_.size();
    files_.emplace_back();
    FileState& f = files_.back();
    f.path = snapshot.path;
    f.expected_size = snapshot.size;
    f.content_hash = snapshot.content_hash;
    f.segs = snapshot.segment_ids;
    ++open_files_;
    auto writer = fs_.open_write(snapshot.path);
    if (writer.is_ok()) {
      f.writer = std::move(writer).take();
    } else {
      fail_file_locked(f, writer.status());
    }
    if (cancelled_.load() && !f.closed) {
      fail_file_locked(f, make_error(ErrorCode::kUnavailable,
                                     "restore pipeline cancelled"));
    }
  }
  obs::add_counter(obs_.get(), "restore.files");

  for (const std::string& seg_id : snapshot.segment_ids) {
    {
      // Attach to a live in-window admission of the same segment (dedup
      // across and within files); the write advances when it resolves.
      std::lock_guard<std::mutex> lock(mu_);
      FileState& f = files_[fi];
      if (f.closed) return;
      const auto it = segments_.find(seg_id);
      if (it != segments_.end()) {
        ++it->second.waiters_remaining;
        ++f.admitted;
        advance_file_locked(fi);
        continue;
      }
    }

    const SegmentInfo* seg = image.find_segment(seg_id);
    if (seg == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      fail_file_locked(files_[fi],
                       make_error(ErrorCode::kCorrupt,
                                  "snapshot references unknown segment " +
                                      seg_id));
      return;
    }
    if (held != nullptr && admit_held(fi, *seg, *held)) continue;

    const std::size_t shard_charge = k_ * code_.shard_size(seg->size);
    const std::size_t plain_charge = seg->size;
    const std::size_t footprint = shard_charge + plain_charge;
    if (!reserve(footprint)) {
      std::lock_guard<std::mutex> lock(mu_);
      fail_file_locked(files_[fi], make_error(ErrorCode::kUnavailable,
                                              "restore pipeline cancelled"));
      return;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (files_[fi].closed) {
        // The file failed meanwhile: nothing would consume the segment.
        release_bytes(footprint);
        return;
      }
      SegState state;
      state.info = *seg;
      state.shard_charge = shard_charge;
      state.plain_charge = plain_charge;
      state.waiters_remaining = 1;
      segments_.emplace(seg_id, std::move(state));
      ++unresolved_segments_;
      ++files_[fi].admitted;
    }
    obs::add_counter(obs_.get(), "restore.segments");

    // Feed the long-lived driver (never under mu_). If the driver was
    // cancelled meanwhile, it drops the spec without arming a callback —
    // resolve the segment as failed ourselves so finish() converges.
    sched::DownloadFileSpec spec;
    spec.path = snapshot.path;
    spec.segments.push_back({seg_id, seg->size, seg->blocks});
    driver_->add_file(std::move(spec));
    if (driver_->cancelled()) {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = segments_.find(seg_id);
      if (it != segments_.end() && !it->second.resolved) {
        resolve_failed_locked(seg_id, it->second,
                              make_error(ErrorCode::kUnavailable,
                                         "restore pipeline cancelled"));
        advance_files_locked();
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Finalizes an empty file, or one whose every segment attached to an
  // already-resolved admission.
  advance_file_locked(fi);
}

cloud::AsyncHandle DownloadPipeline::transfer_async(
    const sched::BlockTask& task, sched::TransferDoneFn done) {
  if (cancelled_.load()) {
    executor_->submit([done = std::move(done)] {
      done(make_error(ErrorCode::kUnavailable, "restore pipeline cancelled"));
    });
    return {};
  }
  cloud::AsyncCloud* provider = find_cloud_(task.cloud);
  if (provider == nullptr) {
    executor_->submit([done = std::move(done)] {
      done(make_error(ErrorCode::kInternal, "unknown cloud"));
    });
    return {};
  }
  const std::string seg = task.segment_id;
  const std::uint32_t index = task.block_index;
  // The fetched bytes are stored before `done` fires, so the driver's
  // segment-fetched callback always sees them; `this` stays valid because
  // the pipeline destructor waits out the driver, which waits out every
  // launched completion — also one landing after finish() returned.
  return provider->download_async(
      metadata::block_path(seg, index),
      [this, seg, index, done = std::move(done)](Result<Bytes> data) {
        if (!data.is_ok()) {
          done(data.status());
          return;
        }
        {
          std::lock_guard<std::mutex> cache(cache_mutex_);
          // Keep the first copy (a hedge duplicate may land second). After
          // finish() nothing decodes: a late redundant block is dropped.
          if (!finished_) {
            shard_cache_[seg].emplace(index, std::move(data).take());
          }
        }
        done(Status::ok());
      });
}

// Fired under the driver lock: bookkeeping + handoff only. mu_ here is
// safe — no code path takes the driver lock while holding mu_.
void DownloadPipeline::on_segment_fetched(const std::string& id, bool ok) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++decode_queue_;
    obs::set_gauge(obs_.get(), "restore.queue.decode",
                   static_cast<double>(decode_queue_));
  }
  executor_->submit([this, id, ok] { process_segment(id, ok); });
}

void DownloadPipeline::process_segment(const std::string& id, bool ok) {
  SegmentInfo info;
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = segments_.find(id);
    stale = it == segments_.end() || it->second.resolved;
    if (!stale) info = it->second.info;
  }

  Result<Bytes> decoded = make_error(ErrorCode::kUnavailable, "not fetched");
  bool searching = false;
  if (!stale && ok && !cancelled_.load()) {
    std::vector<erasure::Shard> shards;
    {
      std::lock_guard<std::mutex> cache(cache_mutex_);
      for (const auto& [index, bytes] : shard_cache_[id]) {
        shards.push_back({index, bytes});
      }
    }
    const TimePoint start = RealClock::instance().now();
    decoded = decode_verified(code_, shards, info, k_, executor_.get());
    obs::observe(obs_.get(), "restore.stage.decode.latency",
                 RealClock::instance().now() - start);
    if (!decoded.is_ok() && !cancelled_.load()) {
      // Corrupt-shard search: some fetched shard is bad but unidentifiable;
      // raise the budget by one distinct block and re-try when it lands.
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = segments_.find(id);
        if (it != segments_.end()) it->second.decode_attempted = true;
      }
      UNI_LOG(kWarn) << "segment " << id << " failed integrity check with "
                     << shards.size() << " blocks; fetching another";
      // Re-arms the fetched callback. Called without mu_ (a cancelled
      // driver fires that callback synchronously, and it takes mu_), yet
      // still counted in decode_queue_: neither the destructor nor a
      // cancelled finish() may free the driver while the call runs.
      driver_->request_extra_block(id);
      searching = true;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = segments_.find(id);
  if (!searching && it != segments_.end() && !it->second.resolved) {
    SegState& seg = it->second;
    if (decoded.is_ok()) {
      seg.resolved = true;
      seg.decoded = true;
      seg.plain = std::move(decoded).take();
      --unresolved_segments_;
      release_bytes(seg.shard_charge);
      seg.shard_charge = 0;
      {
        std::lock_guard<std::mutex> cache(cache_mutex_);
        shard_cache_.erase(id);
      }
      advance_files_locked();
      maybe_release_segment_locked(id);
    } else {
      Status failure =
          cancelled_.load()
              ? make_error(ErrorCode::kUnavailable,
                           "restore pipeline cancelled")
              : (seg.decode_attempted
                     ? make_error(ErrorCode::kCorrupt,
                                  "segment " + id +
                                      ": no verifiable block combination "
                                      "exists")
                     : make_error(ErrorCode::kUnavailable,
                                  "could not fetch k blocks for segment " +
                                      id));
      resolve_failed_locked(id, seg, std::move(failure));
      advance_files_locked();
    }
  }
  --decode_queue_;
  obs::set_gauge(obs_.get(), "restore.queue.decode",
                 static_cast<double>(decode_queue_));
  // Notify under the lock: finish() may destroy this object right after.
  cv_.notify_all();
}

void DownloadPipeline::resolve_failed_locked(const std::string& id,
                                             SegState& seg, Status status) {
  seg.resolved = true;
  seg.decoded = false;
  seg.failure = std::move(status);
  --unresolved_segments_;
  release_bytes(seg.shard_charge + seg.plain_charge);
  seg.shard_charge = 0;
  seg.plain_charge = 0;
  {
    std::lock_guard<std::mutex> cache(cache_mutex_);
    shard_cache_.erase(id);
  }
  maybe_release_segment_locked(id);
}

void DownloadPipeline::advance_files_locked() {
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    advance_file_locked(fi);
  }
}

void DownloadPipeline::advance_file_locked(std::size_t file_index) {
  FileState& f = files_[file_index];
  if (f.closed) return;
  while (f.next_write < f.admitted) {
    const std::string& seg_id = f.segs[f.next_write];
    const auto it = segments_.find(seg_id);
    if (it == segments_.end()) {
      // A live waiter keeps its segment in the map; absence is a logic
      // error, not a recoverable state.
      fail_file_locked(f, make_error(ErrorCode::kInternal,
                                     "segment state lost for " + seg_id));
      return;
    }
    SegState& seg = it->second;
    if (!seg.resolved) break;
    if (!seg.decoded) {
      fail_file_locked(f, seg.failure);
      return;
    }
    if (f.writer != nullptr) {
      const Status appended = f.writer->append(ByteSpan(seg.plain));
      if (!appended.is_ok()) {
        fail_file_locked(f, appended);
        return;
      }
    }
    f.hasher.update(ByteSpan(seg.plain));
    f.written += seg.plain.size();
    ++f.next_write;
    consume_waiter_locked(seg_id);
  }
  if (!f.closed && f.next_write == f.segs.size()) finalize_file_locked(f);
}

void DownloadPipeline::consume_waiter_locked(const std::string& seg_id) {
  const auto it = segments_.find(seg_id);
  if (it == segments_.end()) return;
  if (it->second.waiters_remaining > 0) --it->second.waiters_remaining;
  maybe_release_segment_locked(seg_id);
}

void DownloadPipeline::maybe_release_segment_locked(
    const std::string& seg_id) {
  const auto it = segments_.find(seg_id);
  if (it == segments_.end()) return;
  SegState& seg = it->second;
  // Keep unresolved segments until their callback lands (it will), and
  // resolved ones while any file position still needs the plaintext.
  if (!seg.resolved || seg.waiters_remaining > 0) return;
  release_bytes(seg.shard_charge + seg.plain_charge);
  segments_.erase(it);
}

void DownloadPipeline::fail_file_locked(FileState& f, Status status) {
  if (f.closed) return;
  f.closed = true;
  --open_files_;
  f.status = std::move(status);
  if (f.writer != nullptr) f.writer->abort();
  f.writer.reset();
  // Release this file's claim on every admitted-but-unwritten segment.
  for (std::size_t p = f.next_write; p < f.admitted; ++p) {
    consume_waiter_locked(f.segs[p]);
  }
  f.next_write = f.admitted;
  cv_.notify_all();
}

void DownloadPipeline::finalize_file_locked(FileState& f) {
  if (f.closed) return;
  f.closed = true;
  --open_files_;
  if (f.writer == nullptr) {
    f.status = make_error(ErrorCode::kInternal, "no writer for " + f.path);
  } else if (f.written != f.expected_size) {
    f.writer->abort();
    f.status = make_error(ErrorCode::kCorrupt,
                          "assembled size mismatch for " + f.path);
  } else if (!f.content_hash.empty() &&
             [&] {
               const crypto::Sha1::Digest d = f.hasher.finish();
               return to_hex(ByteSpan(d.data(), d.size())) != f.content_hash;
             }()) {
    f.writer->abort();
    f.status = make_error(ErrorCode::kCorrupt,
                          "content hash mismatch for " + f.path);
  } else {
    const Result<double> committed = f.writer->commit();
    f.status = committed.status();
    if (committed.is_ok()) f.mtime = committed.value();
  }
  // A closed file holds no writer: a draining pipeline keeps no reference
  // into the folder it restored into.
  f.writer.reset();
  cv_.notify_all();
}

std::vector<DownloadPipeline::FileResult> DownloadPipeline::finish() {
  driver_->close();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return cancelled_.load() ||
             (unresolved_segments_ == 0 && decode_queue_ == 0 &&
              open_files_ == 0);
    });
  }
  // All segments decided (or the job was cancelled): stop assignment and
  // return without waiting out the fetches still in flight — a hedge or a
  // faster holder made them redundant. No segment is open in the driver
  // any more, so the cancel sweep fails nothing; after a cancel() it fails
  // the pending ones, whose decode tasks are awaited below. The stragglers
  // land after the return, and the owner keeps this object alive until
  // drained().
  driver_->cancel();
  obs::add_counter(obs_.get(), "restore.detached_fetches",
                   driver_->in_flight());
  std::vector<FileResult> results;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return decode_queue_ == 0; });
    // Cancelled leftovers: segments whose spec never reached the driver,
    // files still open. (Resolving may erase map entries — collect first.)
    std::vector<std::string> unresolved;
    for (const auto& [id, seg] : segments_) {
      if (!seg.resolved) unresolved.push_back(id);
    }
    for (const std::string& id : unresolved) {
      const auto it = segments_.find(id);
      if (it == segments_.end()) continue;
      resolve_failed_locked(id, it->second,
                            make_error(ErrorCode::kUnavailable,
                                       "restore pipeline cancelled"));
    }
    advance_files_locked();
    for (FileState& f : files_) {
      if (!f.closed) {
        fail_file_locked(f, make_error(ErrorCode::kUnavailable,
                                       "restore pipeline cancelled"));
      }
    }
    results.reserve(files_.size());
    for (FileState& f : files_) {
      results.push_back({f.path, f.status, f.mtime});
    }
  }
  {
    std::lock_guard<std::mutex> cache(cache_mutex_);
    shard_cache_.clear();
    finished_ = true;
  }
  // Anything still charged (cancelled mid-flight) is released now.
  {
    std::lock_guard<std::mutex> guard(mem_mutex_);
    inflight_ = 0;
    obs::set_gauge(obs_.get(), "restore.inflight_bytes", 0.0);
    mem_cv_.notify_all();
  }
  return results;
}

}  // namespace unidrive::core
