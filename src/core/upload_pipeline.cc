#include "core/upload_pipeline.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "crypto/convergent.h"

namespace unidrive::core {

using metadata::SegmentInfo;

namespace {
// Dedicated encode-stage workers popping the bounded queue. Each encode
// additionally fans its shard rows out over the shared executor.
constexpr std::size_t kEncodeWorkers = 2;
// Capacity of the scan -> encode queue (segments).
constexpr std::size_t kEncodeQueueCapacity = 4;
}  // namespace

ShardPool::ShardPool(std::size_t cap, obs::ObsPtr obs)
    : cap_(cap), obs_(std::move(obs)) {}

Bytes ShardPool::take(std::size_t n) {
  if (n >= kMinPooledBytes) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = free_.lower_bound(n);
    if (it != free_.end() && it->first <= n + n / 4) {
      Bytes buffer = std::move(it->second);
      pooled_ -= it->first;
      free_.erase(it);
      publish_locked();
      lock.unlock();
      obs::add_counter(obs_.get(), "pipeline.shard_pool.reused");
      buffer.resize(n);
      return buffer;
    }
  }
  obs::add_counter(obs_.get(), "pipeline.shard_pool.allocated");
  return Bytes(n);
}

std::shared_ptr<const Bytes> ShardPool::share(Bytes buffer) {
  return std::shared_ptr<Bytes>(
      new Bytes(std::move(buffer)), [pool = shared_from_this()](Bytes* shard) {
        pool->give_back(std::move(*shard));
        delete shard;
      });
}

void ShardPool::give_back(Bytes buffer) {
  const std::size_t bytes = buffer.capacity();
  bool kept = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes >= kMinPooledBytes && pooled_ + inflight_ + bytes <= cap_) {
      pooled_ += bytes;
      free_.emplace(bytes, std::move(buffer));
      publish_locked();
      kept = true;
    }
  }
  // A buffer not kept is freed on return, outside the lock.
  obs::add_counter(obs_.get(), kept ? "pipeline.shard_pool.kept"
                                    : "pipeline.shard_pool.freed");
}

void ShardPool::charge(std::size_t n) {
  std::vector<Bytes> evicted;  // freed on return, outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  inflight_ += n;
  trim_locked(evicted);
  publish_locked();
}

void ShardPool::discharge(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_ -= std::min(inflight_, n);
  publish_locked();
}

std::size_t ShardPool::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pooled_;
}

void ShardPool::trim_locked(std::vector<Bytes>& evicted) {
  while (!free_.empty() && pooled_ + inflight_ > cap_) {
    const auto largest = std::prev(free_.end());
    pooled_ -= largest->first;
    evicted.push_back(std::move(largest->second));
    free_.erase(largest);
    obs::add_counter(obs_.get(), "pipeline.shard_pool.freed");
  }
}

void ShardPool::publish_locked() {
  peak_ = std::max(peak_, pooled_ + inflight_);
  obs::set_gauge(obs_.get(), "pipeline.shard_pool.bytes",
                 static_cast<double>(pooled_));
  obs::set_gauge(obs_.get(), "pipeline.shard_pool.peak_bytes",
                 static_cast<double>(peak_));
}

UploadPipeline::UploadPipeline(const sched::CodeParams& params,
                               erasure::RsCode code,
                               std::vector<cloud::CloudId> clouds,
                               sched::DriverConfig driver_config,
                               sched::ThroughputMonitor& monitor,
                               std::shared_ptr<Executor> executor,
                               FindAsyncCloudFn find_cloud,
                               PipelineConfig pipeline_config,
                               std::shared_ptr<cloud::CloudHealthRegistry> health,
                               obs::ObsPtr obs, dedup::PoolIndexPtr pool,
                               std::string folder,
                               std::shared_ptr<ShardPool> shard_pool)
    : params_(params),
      code_(std::move(code)),
      executor_(std::move(executor)),
      find_cloud_(std::move(find_cloud)),
      pool_(std::move(pool)),
      folder_(std::move(folder)),
      config_(pipeline_config),
      obs_(std::move(obs)),
      shard_pool_(shard_pool != nullptr
                      ? std::move(shard_pool)
                      : std::make_shared<ShardPool>(
                            pipeline_config.max_inflight_bytes, obs_)),
      queue_(kEncodeQueueCapacity),
      driver_(
          params_, std::move(clouds), driver_config, monitor, executor_,
          [this](const sched::BlockTask& task, sched::TransferDoneFn done) {
            return transfer_async(task, std::move(done));
          },
          std::move(health), obs_,
          [this](const std::string& id) { on_segment_settled(id); }) {}

UploadPipeline::~UploadPipeline() {
  cancel();
  join_encode_workers();
  // An aborted round leaves no charge in the client's shard pool.
  release_all();
  // driver_ cancels and drains in its own destructor.
}

std::size_t UploadPipeline::inflight_bytes() const {
  std::lock_guard<std::mutex> guard(mem_mutex_);
  return inflight_;
}

void UploadPipeline::release_bytes_locked(std::size_t n) {
  const std::size_t released = std::min(inflight_, n);
  inflight_ -= released;
  shard_pool_->discharge(released);
  obs::set_gauge(obs_.get(), "pipeline.inflight_bytes",
                 static_cast<double>(inflight_));
  mem_cv_.notify_all();
}

void UploadPipeline::feed(const std::string& id, Bytes bytes) {
  if (cancelled_.load()) return;
  const std::size_t plain = bytes.size();
  // Full footprint reserved up front: the plaintext now in hand plus every
  // coded shard the encode stage will materialize for it.
  const std::size_t footprint =
      plain + code_.shard_size(plain) * params_.code_n();

  {
    std::unique_lock<std::mutex> lock(mem_mutex_);
    if (fed_ids_.count(id) != 0) return;  // dedup (defensive; scanner dedups)
    // Content-addressed pool probe: if another file, version, folder, or
    // user already placed this exact segment, skip encode + transfer and
    // record the pooled locations to emit from finish(). The pin taken here
    // keeps cross-folder GC from freeing the blocks before our commit; it
    // is rolled back if the round aborts. pool_'s mutex is a leaf under
    // mem_mutex_.
    if (pool_ != nullptr) {
      auto probe = pool_->probe_and_retain(folder_, id, plain, params_.k);
      obs::add_counter(obs_.get(), probe.hit ? "dedup.hit" : "dedup.miss");
      if (probe.hit) {
        fed_ids_.insert(id);
        fed_.emplace_back(id, plain);
        if (probe.newly_retained) retained_.push_back(id);
        dedup_.segments += 1;
        dedup_.bytes_saved += plain;
        dedup_.blocks_saved += probe.blocks.size();
        obs::add_counter(obs_.get(), "dedup.bytes_saved", plain);
        obs::add_counter(obs_.get(), "dedup.blocks_saved",
                         probe.blocks.size());
        deduped_.emplace(id, std::move(probe.blocks));
        return;
      }
    }
    // Admission gate: wait for room. An oversized segment (footprint >
    // cap) is admitted once the pipeline is empty, so it cannot wedge.
    mem_cv_.wait(lock, [&] {
      return cancelled_.load() || inflight_ == 0 ||
             inflight_ + footprint <= config_.max_inflight_bytes;
    });
    if (cancelled_.load()) return;
    fed_ids_.insert(id);
    fed_.emplace_back(id, plain);
    inflight_ += footprint;
    shard_pool_->charge(footprint);
    footprint_[id] = footprint;
    peak_inflight_ = std::max(peak_inflight_, inflight_);
    obs::set_gauge(obs_.get(), "pipeline.inflight_bytes",
                   static_cast<double>(inflight_));
    obs::set_gauge(obs_.get(), "pipeline.inflight_bytes_peak",
                   static_cast<double>(peak_inflight_));
    if (!workers_started_) {
      workers_started_ = true;
      encode_threads_.reserve(kEncodeWorkers);
      for (std::size_t i = 0; i < kEncodeWorkers; ++i) {
        encode_threads_.emplace_back([this] { encode_worker(); });
      }
    }
  }

  if (!queue_.push(EncodeJob{id, std::move(bytes)})) {
    // Stream cancelled while blocked on the queue: roll the charge back.
    std::lock_guard<std::mutex> lock(mem_mutex_);
    release_bytes_locked(footprint_[id]);
    footprint_.erase(id);
    return;
  }
  obs::set_gauge(obs_.get(), "pipeline.queue.encode",
                 static_cast<double>(queue_.depth()));
}

void UploadPipeline::encode_worker() {
  std::vector<std::uint32_t> indices(params_.code_n());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  while (auto job = queue_.pop()) {
    obs::set_gauge(obs_.get(), "pipeline.queue.encode",
                   static_cast<double>(queue_.depth()));
    const std::size_t plain = job->bytes.size();
    const TimePoint start = RealClock::instance().now();
    // Convergent seal before encode (in place, so the admission-gate charge
    // still covers the bytes): blocks stored in the shared pool are coded
    // ciphertext, deterministic per segment so dedup survives encryption.
    crypto::convergent_seal_inplace(job->id, job->bytes);
    std::vector<Bytes> rows(indices.size());
    std::vector<std::uint8_t*> out(indices.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = shard_pool_->take(code_.shard_size(plain));
      out[i] = rows[i].data();
    }
    code_.encode_shards_parallel(ByteSpan(job->bytes), indices, out,
                                 *executor_);
    obs::observe(obs_.get(), "pipeline.stage.encode.latency",
                 RealClock::instance().now() - start);
    Bytes().swap(job->bytes);  // plaintext no longer needed

    std::vector<std::shared_ptr<const Bytes>> shards(indices.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      shards[indices[i]] = shard_pool_->share(std::move(rows[i]));
    }
    {
      std::lock_guard<std::mutex> cache(cache_mutex_);
      shards_[job->id] = std::move(shards);
    }
    {
      std::lock_guard<std::mutex> lock(mem_mutex_);
      auto it = footprint_.find(job->id);
      if (it != footprint_.end()) {
        const std::size_t drop = std::min(it->second, plain);
        it->second -= drop;
        release_bytes_locked(drop);
      }
    }
    if (!cancelled_.load()) {
      sched::UploadFileSpec spec;
      spec.path = job->id;  // data-plane job: one pseudo-file per segment
      spec.segments.push_back({job->id, plain});
      driver_.add_file(std::move(spec));
    }
  }
}

// Runs under the streaming driver's lock; the driver has already abandoned
// the segment, so these bytes can never be requested again. The charge is
// released first, so the shards returning to the pool are not counted
// twice against the cap.
void UploadPipeline::on_segment_settled(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    const auto it = footprint_.find(id);
    if (it != footprint_.end()) {
      release_bytes_locked(it->second);
      footprint_.erase(it);
    }
  }
  std::vector<std::shared_ptr<const Bytes>> settled;
  {
    std::lock_guard<std::mutex> cache(cache_mutex_);
    const auto it = shards_.find(id);
    if (it == shards_.end()) return;
    settled = std::move(it->second);
    shards_.erase(it);
  }
  // `settled` drops here, outside the locks: every shard no transfer still
  // holds goes back to the pool.
}

cloud::AsyncHandle UploadPipeline::transfer_async(
    const sched::BlockTask& task, sched::TransferDoneFn done) {
  std::shared_ptr<const Bytes> shard;
  {
    std::lock_guard<std::mutex> cache(cache_mutex_);
    const auto it = shards_.find(task.segment_id);
    if (it != shards_.end() && task.block_index < it->second.size()) {
      shard = it->second[task.block_index];
    }
  }
  if (shard == nullptr) {
    const std::string id = task.segment_id;
    executor_->submit([done = std::move(done), id] {
      done(make_error(ErrorCode::kInternal,
                      "shard bytes unavailable for segment " + id));
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
  // The captured shared_ptr keeps the shard bytes alive until the
  // completion runs (or the handle is cancelled) — a settle that drops the
  // cache entry cannot invalidate the span on the wire. The completion lets
  // go before it reports, so a drained driver holds no shard.
  return provider->upload_async(
      metadata::block_path(task.segment_id, task.block_index),
      ByteSpan(*shard),
      [shard, done = std::move(done)](Status status) mutable {
        shard.reset();
        done(std::move(status));
      });
}

void UploadPipeline::cancel() {
  {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    cancelled_.store(true);
    mem_cv_.notify_all();
  }
  queue_.cancel();
  driver_.cancel();
  release_retained_pins();
}

// Roll back pool pins taken by this round's probes. Pins already superseded
// by a committed image (the client absorbs after commit) are unaffected —
// release() drops only the uncommitted pin — so calling this after a
// successful round (the destructor does) is harmless.
void UploadPipeline::release_retained_pins() {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    ids.swap(retained_);
  }
  if (pool_ == nullptr) return;
  for (const std::string& id : ids) pool_->release(folder_, id);
}

UploadPipeline::DedupStats UploadPipeline::dedup_stats() const {
  std::lock_guard<std::mutex> lock(mem_mutex_);
  return dedup_;
}

void UploadPipeline::release_all() {
  {
    std::lock_guard<std::mutex> lock(mem_mutex_);
    footprint_.clear();
    release_bytes_locked(inflight_);
  }
  std::map<std::string, std::vector<std::shared_ptr<const Bytes>>> shards;
  {
    std::lock_guard<std::mutex> cache(cache_mutex_);
    shards.swap(shards_);
  }
}

void UploadPipeline::join_encode_workers() {
  for (std::thread& t : encode_threads_) {
    if (t.joinable()) t.join();
  }
  encode_threads_.clear();
}

Result<std::vector<SegmentInfo>> UploadPipeline::build_results() {
  // Per-round placement accounting: where the availability-first scheduler
  // actually put the blocks, and how many were over-provisioned extras.
  std::size_t placed = 0;
  std::vector<SegmentInfo> out;
  out.reserve(fed_.size());
  for (const auto& [id, size] : fed_) {
    SegmentInfo info;
    info.id = id;
    info.size = size;
    // Pool hits short-circuited encode + transfer: their locations come
    // from the pooled copy and count toward no placement counters (no RPC
    // was issued for them this round).
    const auto dedup_it = deduped_.find(id);
    if (dedup_it != deduped_.end()) {
      info.blocks = dedup_it->second;
      out.push_back(std::move(info));
      continue;
    }
    info.blocks = driver_.locations(id);
    for (const metadata::BlockLocation& b : info.blocks) {
      obs::add_counter(obs_.get(),
                       "sched.blocks.cloud" + std::to_string(b.cloud));
      ++placed;
    }
    out.push_back(std::move(info));
  }
  obs::add_counter(obs_.get(), "sched.blocks.placed", placed);
  obs::add_counter(obs_.get(), "sched.overprovisioned",
                   driver_.overprovisioned_blocks().size());
  obs::add_counter(obs_.get(), "sched.segments", fed_.size());

  for (const SegmentInfo& info : out) {
    // Availability is the hard floor: fewer than k blocks means the
    // segment is not recoverable from the multi-cloud at all.
    std::set<std::uint32_t> distinct;
    for (const metadata::BlockLocation& b : info.blocks) {
      distinct.insert(b.block_index);
    }
    if (distinct.size() < params_.k) {
      return make_error(ErrorCode::kUnavailable,
                        "segment " + info.id +
                            " failed to reach availability");
    }
  }
  return out;
}

Result<std::vector<SegmentInfo>> UploadPipeline::finish() {
  // Drain stage by stage: no more scan input -> encode workers exit once
  // the queue empties -> no more add_file -> the driver drains.
  queue_.close();
  join_encode_workers();
  driver_.close();
  driver_.wait();

  // Anything still charged (cancelled mid-flight, or segments whose
  // settle callback never fired) is released now; the driver is drained,
  // so no transfer can touch the cache anymore.
  release_all();

  if (cancelled_.load()) {
    if (fed_.empty()) return std::vector<SegmentInfo>{};
    return make_error(ErrorCode::kUnavailable, "upload pipeline cancelled");
  }
  return build_results();
}

}  // namespace unidrive::core
