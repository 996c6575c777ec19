#include "sched/streaming_driver.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"

namespace unidrive::sched {

// --- TransferEngine ------------------------------------------------------------

template <class Scheduler, class FileSpec>
TransferEngine<Scheduler, FileSpec>::TransferEngine(
    Direction direction, Scheduler scheduler,
    std::vector<cloud::CloudId> clouds, DriverConfig config,
    ThroughputMonitor& monitor, std::shared_ptr<Executor> executor,
    AsyncTransferFn transfer,
    std::shared_ptr<cloud::CloudHealthRegistry> health, obs::ObsPtr obs)
    : clouds_(std::move(clouds)),
      monitor_(monitor),
      obs_(std::move(obs)),
      scheduler_(std::move(scheduler)),
      direction_(direction),
      executor_(std::move(executor)),
      transfer_(std::move(transfer)),
      health_(std::move(health)) {
  for (const cloud::CloudId c : clouds_) {
    free_conns_[c] = config.connections_per_cloud;
  }
  if (obs_) {
    const std::string prefix =
        direction_ == Direction::kUpload ? "driver.up." : "driver.down.";
    for (const cloud::CloudId c : clouds_) {
      const std::string cloud = prefix + "cloud" + std::to_string(c);
      ok_counters_[c] = &obs_->metrics.counter(cloud + ".ok");
      err_counters_[c] = &obs_->metrics.counter(cloud + ".err");
    }
    latency_hist_ = &obs_->metrics.histogram(prefix + "latency");
    inflight_gauge_ = &obs_->metrics.gauge(prefix + "rpcs_inflight");
    inflight_peak_gauge_ = &obs_->metrics.gauge(prefix + "rpcs_inflight_peak");
    threads_gauge_ = &obs_->metrics.gauge(prefix + "exec_threads_active");
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

template <class Scheduler, class FileSpec>
bool TransferEngine<Scheduler, FileSpec>::done() const {
  return outstanding_ == 0 &&
         (cancelled_ || (closed_ && scheduler_.finished()));
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::add_file(FileSpec file) {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_ || cancelled_) return;
  for (const auto& seg : file.segments) open_.insert(seg.id);
  scheduler_.add_file(std::move(file));
  pump();
  // With every cloud capped or down the new segments may already be
  // decided; report them now, or nothing ever would (a producer blocked on
  // a memory cap waits for exactly that report).
  sweep();
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::close() {
  std::lock_guard<std::mutex> guard(lock_);
  if (closed_) return;
  closed_ = true;
  cv_.notify_all();
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::cancel() {
  std::lock_guard<std::mutex> guard(lock_);
  if (cancelled_) return;
  cancelled_ = true;
  sweep();
  cv_.notify_all();
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::wait() {
  std::unique_lock<std::mutex> guard(lock_);
  cv_.wait(guard, [&] { return done(); });
}

template <class Scheduler, class FileSpec>
std::size_t TransferEngine<Scheduler, FileSpec>::in_flight() const {
  std::lock_guard<std::mutex> guard(lock_);
  return outstanding_;
}

template <class Scheduler, class FileSpec>
bool TransferEngine<Scheduler, FileSpec>::cancelled() const {
  std::lock_guard<std::mutex> guard(lock_);
  return cancelled_;
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::pump() {
  if (cancelled_ || scheduler_.finished()) return;
  dispatch();
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::note_inflight() {
  if (inflight_gauge_ == nullptr) return;
  inflight_gauge_->set(static_cast<double>(outstanding_));
  if (outstanding_ > inflight_peak_) {
    inflight_peak_ = outstanding_;
    inflight_peak_gauge_->set(static_cast<double>(inflight_peak_));
  }
  threads_gauge_->set(static_cast<double>(executor_->active()));
}

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::launch(cloud::CloudId cloud,
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

template <class Scheduler, class FileSpec>
void TransferEngine<Scheduler, FileSpec>::finish_transfer(
    cloud::CloudId cloud, const BlockTask& task, const Status& status,
    TimePoint start) {
  const TimePoint end = RealClock::instance().now();
  if (obs_ != nullptr) {
    (status.is_ok() ? ok_counters_ : err_counters_).at(cloud)->add();
    latency_hist_->observe(end - start);
  }
  if (status.is_ok()) {
    monitor_.record(cloud, direction_, static_cast<double>(task.bytes),
                    std::max(1e-9, end - start));
  } else {
    monitor_.record_failure(cloud, direction_, end - start);
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
        consecutive_failures_[cloud] >= kMaxConsecutiveFailures;
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
  sweep();
  // Notify under the lock: wait() may destroy this object right after.
  cv_.notify_all();
}

template class TransferEngine<UploadScheduler, UploadFileSpec>;
template class TransferEngine<DownloadScheduler, DownloadFileSpec>;

// --- StreamingUploadDriver -----------------------------------------------------

StreamingUploadDriver::StreamingUploadDriver(
    CodeParams params, std::vector<cloud::CloudId> clouds,
    DriverConfig config, ThroughputMonitor& monitor,
    std::shared_ptr<Executor> executor, AsyncTransferFn transfer,
    std::shared_ptr<cloud::CloudHealthRegistry> health, obs::ObsPtr obs,
    SegmentSettledFn on_settled)
    : TransferEngine(Direction::kUpload, UploadScheduler(params, clouds, {}),
                     clouds, config, monitor, std::move(executor),
                     std::move(transfer), std::move(health), std::move(obs)),
      on_settled_(std::move(on_settled)) {}

StreamingUploadDriver::~StreamingUploadDriver() {
  cancel();
  wait();
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

void StreamingUploadDriver::dispatch() {
  for (const cloud::CloudId c : clouds_) {
    fill(c, [&] { return scheduler_.next_task(c); });
  }
}

void StreamingUploadDriver::sweep() {
  for (auto it = open_.begin(); it != open_.end();) {
    if (!scheduler_.segment_settled(*it)) {
      ++it;
      continue;
    }
    // Abandon BEFORE releasing the bytes: a cloud re-admitted later must
    // never be assigned a block whose shards are gone.
    scheduler_.abandon_segment(*it);
    if (on_settled_) on_settled_(*it);
    it = open_.erase(it);
  }
}

// --- StreamingDownloadDriver ---------------------------------------------------

StreamingDownloadDriver::StreamingDownloadDriver(
    std::size_t k, std::vector<cloud::CloudId> clouds, DriverConfig config,
    ThroughputMonitor& monitor, std::shared_ptr<Executor> executor,
    AsyncTransferFn transfer,
    std::shared_ptr<cloud::CloudHealthRegistry> health, obs::ObsPtr obs,
    SegmentFetchedFn on_fetched)
    : TransferEngine(Direction::kDownload, DownloadScheduler(k, {}),
                     std::move(clouds), config, monitor, std::move(executor),
                     std::move(transfer), std::move(health), std::move(obs)),
      on_fetched_(std::move(on_fetched)) {}

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

void StreamingDownloadDriver::request_extra_block(
    const std::string& segment_id) {
  std::lock_guard<std::mutex> guard(lock_);
  if (cancelled_) {
    if (on_fetched_) on_fetched_(segment_id, false);
    return;
  }
  scheduler_.raise_budget(segment_id, 1);
  open_.insert(segment_id);
  pump();
  sweep();  // supply may already be exhausted: fail immediately
}

void StreamingDownloadDriver::dispatch() {
  const TimePoint now = RealClock::instance().now();
  // Idle connections are offered work fastest cloud first (the in-channel
  // throughput monitor's ranking): with over-provisioning this is what
  // routes surplus blocks to the fast clouds.
  const std::vector<cloud::CloudId> ranked =
      monitor_.ranked(Direction::kDownload, clouds_);
  for (const cloud::CloudId c : ranked) {
    fill(c, [&] { return scheduler_.next_task(c, now); });
  }
  // Straggler hedging: once nothing regular is assignable, duplicate work
  // that runs late on its holder.
  for (const cloud::CloudId c : ranked) {
    fill(c, [&] {
      std::optional<BlockTask> task =
          scheduler_.next_hedge_task(c, now, monitor_);
      if (task.has_value()) obs::add_counter(obs_.get(), "driver.hedge_tasks");
      return task;
    });
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
    sweep();
    cv_.notify_all();
  });
}

void StreamingDownloadDriver::sweep() {
  for (auto it = open_.begin(); it != open_.end();) {
    const bool ok = scheduler_.segment_complete(*it);
    if (!ok && !cancelled_ && !scheduler_.segment_failed(*it)) {
      ++it;
      continue;
    }
    if (on_fetched_) on_fetched_(*it, ok);
    it = open_.erase(it);
  }
}

}  // namespace unidrive::sched
