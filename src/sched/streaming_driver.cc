#include "sched/streaming_driver.h"

#include <algorithm>
#include <optional>

#include "common/clock.h"
#include "common/logging.h"

namespace unidrive::sched {

StreamingUploadDriver::StreamingUploadDriver(
    CodeParams params, std::vector<cloud::CloudId> clouds,
    DriverConfig config, ThroughputMonitor& monitor,
    std::shared_ptr<Executor> executor, AsyncTransferFn transfer,
    UploadOptions options, std::shared_ptr<cloud::CloudHealthRegistry> health,
    obs::ObsPtr obs, SegmentSettledFn on_settled)
    : clouds_(std::move(clouds)),
      config_(config),
      monitor_(monitor),
      executor_(std::move(executor)),
      transfer_(std::move(transfer)),
      health_(std::move(health)),
      obs_(std::move(obs)),
      on_settled_(std::move(on_settled)),
      scheduler_(params, clouds_, {}, options) {
  for (const cloud::CloudId c : clouds_) {
    free_conns_[c] = config_.connections_per_cloud;
  }
  if (obs_) {
    for (const cloud::CloudId c : clouds_) {
      ok_counters_[c] =
          &obs_->metrics.counter("driver.up.cloud" + std::to_string(c) +
                                 ".ok");
      err_counters_[c] =
          &obs_->metrics.counter("driver.up.cloud" + std::to_string(c) +
                                 ".err");
    }
    latency_hist_ = &obs_->metrics.histogram("driver.up.latency");
    inflight_gauge_ = &obs_->metrics.gauge("driver.up.rpcs_inflight");
    inflight_peak_gauge_ =
        &obs_->metrics.gauge("driver.up.rpcs_inflight_peak");
    threads_gauge_ = &obs_->metrics.gauge("driver.up.exec_threads_active");
  }
  // Up-front breaker gate: a cloud tripped in an earlier round starts this
  // job disabled unless its probe timer expired.
  if (health_ != nullptr) {
    for (const cloud::CloudId c : clouds_) {
      if (!health_->admissible(c)) {
        scheduler_.set_cloud_enabled(c, false);
        disabled_.insert(c);
      }
    }
  }
}

StreamingUploadDriver::~StreamingUploadDriver() {
  cancel();
  wait();
}

bool StreamingUploadDriver::done() const {
  return outstanding_ == 0 &&
         (cancelled_ || (closed_ && scheduler_.finished()));
}

void StreamingUploadDriver::add_file(UploadFileSpec file) {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_ || cancelled_) return;
  for (const UploadSegmentSpec& seg : file.segments) {
    unsettled_.insert(seg.id);
  }
  scheduler_.add_file(std::move(file));
  pump();
  // With every cloud capped or down the new segments may already be
  // unassignable; settle them now so a producer blocked on a memory cap
  // is not left waiting for a completion that will never come.
  sweep_settled();
}

void StreamingUploadDriver::close() {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_) return;
  closed_ = true;
  cv_.notify_all();
}

void StreamingUploadDriver::cancel() {
  std::lock_guard<std::mutex> guard(lock_);
  if (cancelled_) return;
  cancelled_ = true;
  cv_.notify_all();
}

void StreamingUploadDriver::wait() {
  std::unique_lock<std::mutex> guard(lock_);
  cv_.wait(guard, [&] { return done(); });
}

bool StreamingUploadDriver::cancelled() const {
  std::lock_guard<std::mutex> guard(lock_);
  return cancelled_;
}

std::vector<metadata::BlockLocation> StreamingUploadDriver::locations(
    const std::string& segment_id) const {
  std::lock_guard<std::mutex> guard(lock_);
  return scheduler_.locations(segment_id);
}

std::vector<std::pair<std::string, metadata::BlockLocation>>
StreamingUploadDriver::overprovisioned_blocks() const {
  std::lock_guard<std::mutex> guard(lock_);
  return scheduler_.overprovisioned_blocks();
}

void StreamingUploadDriver::pump() {
  if (cancelled_ || scheduler_.finished()) return;
  for (const cloud::CloudId c : clouds_) {
    while (free_conns_[c] > 0) {
      const std::optional<BlockTask> task = scheduler_.next_task(c);
      if (!task.has_value()) break;
      launch(c, *task);
    }
  }
}

void StreamingUploadDriver::sweep_settled() {
  for (auto it = unsettled_.begin(); it != unsettled_.end();) {
    if (!scheduler_.segment_settled(*it)) {
      ++it;
      continue;
    }
    // Abandon BEFORE releasing the bytes: a cloud re-admitted later must
    // never be assigned a block whose shards are gone.
    scheduler_.abandon_segment(*it);
    if (on_settled_) on_settled_(*it);
    it = unsettled_.erase(it);
  }
}

void StreamingUploadDriver::note_inflight() {
  if (inflight_gauge_ == nullptr) return;
  inflight_gauge_->set(static_cast<double>(outstanding_));
  if (outstanding_ > inflight_peak_) {
    inflight_peak_ = outstanding_;
    inflight_peak_gauge_->set(static_cast<double>(inflight_peak_));
  }
  threads_gauge_->set(static_cast<double>(executor_->active()));
}

void StreamingUploadDriver::launch(cloud::CloudId cloud,
                                   const BlockTask& task) {
  --free_conns_[cloud];
  ++outstanding_;
  note_inflight();
  // Launched under lock_ — safe because completions never run on the
  // caller's stack (cloud/async.h invariant 1). The handle is deliberately
  // dropped: the driver never cancels an in-flight RPC, so every launch is
  // balanced by exactly one finish_transfer.
  const TimePoint start = RealClock::instance().now();
  transfer_(task, [this, task, cloud, start](Status status) {
    finish_transfer(cloud, task, status, start);
  });
}

void StreamingUploadDriver::finish_transfer(cloud::CloudId cloud,
                                            const BlockTask& task,
                                            const Status& status,
                                            TimePoint start) {
  const TimePoint end = RealClock::instance().now();
  if (obs_ != nullptr) {
    (status.is_ok() ? ok_counters_ : err_counters_).at(cloud)->add();
    latency_hist_->observe(end - start);
  }
  if (status.is_ok()) {
    monitor_.record(cloud, Direction::kUpload,
                    static_cast<double>(task.bytes),
                    std::max(1e-9, end - start));
  } else {
    monitor_.record_failure(cloud, Direction::kUpload, end - start);
    UNI_LOG(kDebug) << "transfer failed on cloud " << cloud << ": "
                    << status.to_string();
  }

  std::lock_guard<std::mutex> guard(lock_);
  scheduler_.on_complete(task, status.is_ok());
  if (status.is_ok()) {
    consecutive_failures_[cloud] = 0;
    if (disabled_.erase(cloud) != 0) {
      scheduler_.set_cloud_enabled(cloud, true);
      obs::add_counter(obs_.get(), "driver.cloud_readmitted");
      UNI_LOG(kInfo) << "cloud " << cloud << " re-admitted";
    }
  } else {
    ++consecutive_failures_[cloud];
    const bool down =
        (health_ != nullptr && !health_->admissible(cloud)) ||
        consecutive_failures_[cloud] >= config_.max_consecutive_failures;
    if (down && disabled_.insert(cloud).second) {
      scheduler_.set_cloud_enabled(cloud, false);
      obs::add_counter(obs_.get(), "driver.cloud_disabled");
      UNI_LOG(kInfo) << "cloud " << cloud
                     << " disabled after repeated failures";
    }
  }
  ++free_conns_[cloud];
  --outstanding_;
  note_inflight();
  pump();
  sweep_settled();
  // Notify under the lock: wait() may destroy this object right after.
  cv_.notify_all();
}

// --- StreamingDownloadDriver ------------------------------------------------

StreamingDownloadDriver::StreamingDownloadDriver(
    std::size_t k, std::vector<cloud::CloudId> clouds, DriverConfig config,
    ThroughputMonitor& monitor, std::shared_ptr<Executor> executor,
    AsyncTransferFn transfer,
    std::shared_ptr<cloud::CloudHealthRegistry> health, obs::ObsPtr obs,
    SegmentFetchedFn on_fetched)
    : clouds_(std::move(clouds)),
      config_(config),
      monitor_(monitor),
      executor_(std::move(executor)),
      transfer_(std::move(transfer)),
      health_(std::move(health)),
      obs_(std::move(obs)),
      on_fetched_(std::move(on_fetched)),
      scheduler_(k, {}) {
  for (const cloud::CloudId c : clouds_) {
    free_conns_[c] = config_.connections_per_cloud;
  }
  if (obs_) {
    for (const cloud::CloudId c : clouds_) {
      ok_counters_[c] =
          &obs_->metrics.counter("driver.down.cloud" + std::to_string(c) +
                                 ".ok");
      err_counters_[c] =
          &obs_->metrics.counter("driver.down.cloud" + std::to_string(c) +
                                 ".err");
    }
    latency_hist_ = &obs_->metrics.histogram("driver.down.latency");
    inflight_gauge_ = &obs_->metrics.gauge("driver.down.rpcs_inflight");
    inflight_peak_gauge_ =
        &obs_->metrics.gauge("driver.down.rpcs_inflight_peak");
    threads_gauge_ = &obs_->metrics.gauge("driver.down.exec_threads_active");
  }
  if (health_ != nullptr) {
    for (const cloud::CloudId c : clouds_) {
      if (!health_->admissible(c)) {
        scheduler_.set_cloud_enabled(c, false);
        disabled_.insert(c);
      }
    }
  }
}

StreamingDownloadDriver::~StreamingDownloadDriver() {
  cancel();
  wait();
  // Once cancelled, pump() arms no timer, so this set is final. Cancel
  // without lock_: a callback already running blocks cancel() until it
  // returns, and it needs lock_ to finish.
  std::map<TimePoint, TimerWheel::TimerId> timers;
  {
    std::lock_guard<std::mutex> guard(lock_);
    timers.swap(hedge_timers_);
  }
  for (const auto& [at, id] : timers) TimerWheel::shared().cancel(id);
}

bool StreamingDownloadDriver::done() const {
  return outstanding_ == 0 &&
         (cancelled_ || (closed_ && scheduler_.finished()));
}

void StreamingDownloadDriver::add_file(DownloadFileSpec file) {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_ || cancelled_) return;
  for (const DownloadSegmentSpec& seg : file.segments) {
    pending_.insert(seg.id);
  }
  scheduler_.add_file(std::move(file));
  pump();
  // A segment with too little reachable supply (all holders down) is
  // undecidable-forever unless reported now.
  sweep_decided();
}

void StreamingDownloadDriver::request_extra_block(
    const std::string& segment_id) {
  std::lock_guard<std::mutex> guard(lock_);
  if (cancelled_) {
    if (on_fetched_) on_fetched_(segment_id, false);
    return;
  }
  scheduler_.raise_budget(segment_id, 1);
  pending_.insert(segment_id);
  pump();
  sweep_decided();  // supply may already be exhausted: fail immediately
}

void StreamingDownloadDriver::close() {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_) return;
  closed_ = true;
  cv_.notify_all();
}

void StreamingDownloadDriver::cancel() {
  std::lock_guard<std::mutex> guard(lock_);
  if (cancelled_) return;
  cancelled_ = true;
  sweep_decided();  // every pending segment gets its ok=false callback
  cv_.notify_all();
}

void StreamingDownloadDriver::wait() {
  std::unique_lock<std::mutex> guard(lock_);
  cv_.wait(guard, [&] { return done(); });
}

bool StreamingDownloadDriver::cancelled() const {
  std::lock_guard<std::mutex> guard(lock_);
  return cancelled_;
}

void StreamingDownloadDriver::pump() {
  if (cancelled_ || scheduler_.finished()) return;
  const TimePoint now = RealClock::instance().now();
  // Idle connections are offered work fastest cloud first (the in-channel
  // throughput monitor's ranking): with over-provisioning this is what
  // routes surplus blocks to the fast clouds.
  const std::vector<cloud::CloudId> ranked =
      monitor_.ranked(Direction::kDownload, clouds_);
  for (const cloud::CloudId c : ranked) {
    while (free_conns_[c] > 0) {
      const std::optional<BlockTask> task = scheduler_.next_task(c, now);
      if (!task.has_value()) break;
      launch(c, *task, /*is_hedge=*/false);
    }
  }
  // Straggler hedging: once nothing regular is assignable, duplicate work
  // that runs late on its holder.
  for (const cloud::CloudId c : ranked) {
    while (free_conns_[c] > 0) {
      const std::optional<BlockTask> task =
          scheduler_.next_hedge_task(c, now, monitor_);
      if (!task.has_value()) break;
      launch(c, *task, /*is_hedge=*/true);
    }
  }
  arm_hedge_timer(now);
}

void StreamingDownloadDriver::arm_hedge_timer(TimePoint now) {
  const std::optional<TimePoint> deadline =
      scheduler_.next_hedge_deadline(now, monitor_);
  // An earlier timer re-pumps, and that pump arms the later deadline.
  if (!deadline.has_value() ||
      (!hedge_timers_.empty() && hedge_timers_.begin()->first <= *deadline)) {
    return;
  }
  const TimePoint at = *deadline;
  // Armed under lock_, and the callback takes lock_ before touching
  // hedge_timers_, so the id is recorded before the callback can run. It
  // runs on the wheel thread, as a completion from a wheel-timed cloud
  // does: a short pump under lock_ that only launches async transfers.
  hedge_timers_[at] = TimerWheel::shared().schedule(at - now, [this, at] {
    std::lock_guard<std::mutex> guard(lock_);
    hedge_timers_.erase(at);
    pump();
    sweep_decided();
    cv_.notify_all();
  });
}

void StreamingDownloadDriver::sweep_decided() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool decided = false;
    bool ok = false;
    if (scheduler_.segment_complete(*it)) {
      decided = true;
      ok = true;
    } else if (cancelled_ || scheduler_.segment_failed(*it)) {
      decided = true;
    }
    if (!decided) {
      ++it;
      continue;
    }
    if (on_fetched_) on_fetched_(*it, ok);
    it = pending_.erase(it);
  }
}

void StreamingDownloadDriver::note_inflight() {
  if (inflight_gauge_ == nullptr) return;
  inflight_gauge_->set(static_cast<double>(outstanding_));
  if (outstanding_ > inflight_peak_) {
    inflight_peak_ = outstanding_;
    inflight_peak_gauge_->set(static_cast<double>(inflight_peak_));
  }
  threads_gauge_->set(static_cast<double>(executor_->active()));
}

void StreamingDownloadDriver::launch(cloud::CloudId cloud,
                                     const BlockTask& task, bool is_hedge) {
  --free_conns_[cloud];
  ++outstanding_;
  if (is_hedge) obs::add_counter(obs_.get(), "driver.hedge_tasks");
  note_inflight();
  // Launched under lock_ — safe because completions never run on the
  // caller's stack (cloud/async.h invariant 1). The handle is deliberately
  // dropped: the driver never cancels an in-flight RPC, so every launch is
  // balanced by exactly one finish_transfer.
  const TimePoint start = RealClock::instance().now();
  transfer_(task, [this, task, cloud, start](Status status) {
    finish_transfer(cloud, task, status, start);
  });
}

void StreamingDownloadDriver::finish_transfer(cloud::CloudId cloud,
                                              const BlockTask& task,
                                              const Status& status,
                                              TimePoint start) {
  const TimePoint end = RealClock::instance().now();
  if (obs_ != nullptr) {
    (status.is_ok() ? ok_counters_ : err_counters_).at(cloud)->add();
    latency_hist_->observe(end - start);
  }
  if (status.is_ok()) {
    monitor_.record(cloud, Direction::kDownload,
                    static_cast<double>(task.bytes),
                    std::max(1e-9, end - start));
  } else {
    monitor_.record_failure(cloud, Direction::kDownload, end - start);
    UNI_LOG(kDebug) << "fetch failed on cloud " << cloud << ": "
                    << status.to_string();
  }

  std::lock_guard<std::mutex> guard(lock_);
  scheduler_.on_complete(task, status.is_ok());
  if (status.is_ok()) {
    consecutive_failures_[cloud] = 0;
    if (disabled_.erase(cloud) != 0) {
      scheduler_.set_cloud_enabled(cloud, true);
      obs::add_counter(obs_.get(), "driver.cloud_readmitted");
      UNI_LOG(kInfo) << "cloud " << cloud << " re-admitted";
    }
  } else {
    ++consecutive_failures_[cloud];
    const bool down =
        (health_ != nullptr && !health_->admissible(cloud)) ||
        consecutive_failures_[cloud] >= config_.max_consecutive_failures;
    if (down && disabled_.insert(cloud).second) {
      scheduler_.set_cloud_enabled(cloud, false);
      obs::add_counter(obs_.get(), "driver.cloud_disabled");
      UNI_LOG(kInfo) << "cloud " << cloud
                     << " disabled after repeated failures";
    }
  }
  ++free_conns_[cloud];
  --outstanding_;
  note_inflight();
  pump();
  sweep_decided();
  // Notify under the lock: wait() may destroy this object right after.
  cv_.notify_all();
}

}  // namespace unidrive::sched
