// Streaming transfer drivers — one transfer engine with an upload and a
// download front end. Both accept files *incrementally* while transfers
// are already running, so the CPU stages (encode / decode) overlap the
// network instead of the driver draining a frozen plan. They are the only
// engine that moves data blocks.
//
// TransferEngine is the half both directions share. It is event-driven:
// it tracks free connections per cloud and, under one lock, lets its front
// end "pump" the scheduler — assigning a block to every free connection
// that can get one and launching it through the completion-based
// AsyncTransferFn. A completion feeds the scheduler and the throughput
// monitor (in-channel probing) and pumps again, because a completion can
// unlock work for any cloud (e.g. over-provisioning kicks in when the fast
// cloud finishes its fair share). No thread is held while a request is on
// the wire, so in-flight transfers are bounded by the per-cloud connection
// budget, not by a thread count. After every pump the front end sweeps the
// segments it was fed and reports each one whose outcome is known.
//
// Fault handling: with a shared CloudHealthRegistry, a cloud whose circuit
// breaker is open starts the job disabled in the scheduler (its blocks
// reroute to the remaining clouds), and because the registry outlives the
// job, a cloud tripped in round N starts round N+1 half-open. Per-job
// consecutive-failure counting (kMaxConsecutiveFailures) additionally
// disables clouds that fail without looking unavailable (e.g. out of
// quota); any success re-admits a disabled cloud.
//
// The front ends keep only their scheduler, their pump and their sweep:
//  * StreamingUploadDriver polls clouds in enrolment order and sweeps for
//    *settled* segments;
//  * StreamingDownloadDriver polls fastest-first, then hedges stragglers
//    and arms a timer for the next hedge deadline, and sweeps for
//    *decided* segments.
//
// cancel() stops all future assignment; transfers already running finish
// (cloud calls are not interruptible) and are awaited by wait(). An owner
// that must not wait — the restore pipeline, once every segment is decided
// — cancels, returns, and polls in_flight() until the stragglers land; each
// still runs its full completion (metering, monitor, scheduler books), and
// a cancelled engine neither pumps nor arms a hedge timer.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/async.h"
#include "cloud/health.h"
#include "cloud/provider.h"
#include "common/executor.h"
#include "common/timer_wheel.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "sched/download_scheduler.h"
#include "sched/monitor.h"
#include "sched/plan.h"
#include "sched/upload_scheduler.h"

namespace unidrive::sched {

struct DriverConfig {
  std::size_t connections_per_cloud = 5;
};

// Consecutive failed transfers before a CLOUD is disabled for the job (per
// cloud, not per block — a flapping cloud must not livelock a job).
inline constexpr int kMaxConsecutiveFailures = 3;

// Invoked under the driver lock when a segment's shard bytes can be
// released. Must not call back into the driver.
using SegmentSettledFn = std::function<void(const std::string& segment_id)>;

// Completion of one async block transfer, invoked exactly once.
using TransferDoneFn = std::function<void(Status)>;

// Transfer launcher: starts the block transfer (for uploads, PUT the
// shard; for downloads, GET and store it) and returns immediately; `done`
// fires from the I/O runtime when it resolves. The drivers call this UNDER
// their lock — implementations must follow the AsyncCloud contract
// (cloud/async.h invariant 1): never invoke `done` on the caller's stack.
using AsyncTransferFn =
    std::function<cloud::AsyncHandle(const BlockTask&, TransferDoneFn)>;

// The shared half of both drivers: per-cloud connection slots, launch and
// completion bookkeeping, monitor feedback, the breaker gate with per-job
// disable and re-admit, the driver.{up,down}.* instruments, and the job's
// close/cancel/wait life cycle. A front end supplies dispatch() and
// sweep(), both called with lock_ held, and cancels and waits in its own
// destructor (the hooks run from completions until wait() returns).
template <class Scheduler, class FileSpec>
class TransferEngine {
 public:
  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  // Feed one more file into the running job. Ignored after close/cancel.
  void add_file(FileSpec file);

  // No more files will be added; wait() returns once the scheduler drains.
  void close();

  // Stop assigning new blocks and sweep once more (the download sweep
  // fails every pending segment). In-flight transfers complete and are
  // reported to the scheduler, then wait() returns.
  void cancel();

  // Blocks until the job is done: nothing in flight AND (cancelled, or
  // closed with the scheduler finished).
  void wait();

  // The idle query: transfers launched and not yet completed, 0 when the
  // engine is idle. Unlike wait() it never blocks, so an owner can return
  // once the job's outcome is known and watch a cancelled engine drain.
  [[nodiscard]] std::size_t in_flight() const;

  [[nodiscard]] bool cancelled() const;

 protected:
  TransferEngine(Direction direction, Scheduler scheduler,
                 std::vector<cloud::CloudId> clouds, DriverConfig config,
                 ThroughputMonitor& monitor,
                 std::shared_ptr<Executor> executor, AsyncTransferFn transfer,
                 std::shared_ptr<cloud::CloudHealthRegistry> health,
                 obs::ObsPtr obs);
  ~TransferEngine() = default;

  // Front-end hooks, lock_ held. dispatch() hands idle connections their
  // next blocks (through fill()); sweep() reports every fed segment in
  // open_ whose outcome is known and erases it.
  virtual void dispatch() = 0;
  virtual void sweep() = 0;

  // dispatch() unless the job is cancelled or the scheduler finished.
  void pump();
  // Launches next() on `cloud` while the cloud has an idle connection and
  // next() yields a block.
  template <class NextTask>
  void fill(cloud::CloudId cloud, NextTask next) {
    while (free_conns_[cloud] > 0) {
      const std::optional<BlockTask> task = next();
      if (!task.has_value()) return;
      launch(cloud, *task);
    }
  }

  const std::vector<cloud::CloudId> clouds_;
  ThroughputMonitor& monitor_;
  const obs::ObsPtr obs_;

  mutable std::mutex lock_;
  std::condition_variable cv_;
  Scheduler scheduler_;
  bool cancelled_ = false;
  // Segments fed whose outcome the sweep has not reported yet.
  std::set<std::string> open_;

 private:
  [[nodiscard]] bool done() const;
  // Requires lock_ held.
  void launch(cloud::CloudId cloud, const BlockTask& task);
  // Everything that happens once a transfer's Status is known: metering,
  // monitor feedback, scheduler completion, pump and sweep. Runs from the
  // completion; takes lock_ itself.
  void finish_transfer(cloud::CloudId cloud, const BlockTask& task,
                       const Status& status, TimePoint start);
  void note_inflight();

  const Direction direction_;
  const std::shared_ptr<Executor> executor_;  // read only by the threads gauge
  const AsyncTransferFn transfer_;
  const std::shared_ptr<cloud::CloudHealthRegistry> health_;

  std::map<cloud::CloudId, std::size_t> free_conns_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
  std::map<cloud::CloudId, int> consecutive_failures_;
  std::set<cloud::CloudId> disabled_;
  std::map<cloud::CloudId, obs::Counter*> ok_counters_;
  std::map<cloud::CloudId, obs::Counter*> err_counters_;
  obs::Histogram* latency_hist_ = nullptr;
  // RPCs launched and not yet completed (outstanding_, pool-queued ones
  // included, so not only RPCs on the wire) vs "threads in use"
  // (Executor::active).
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* inflight_peak_gauge_ = nullptr;
  obs::Gauge* threads_gauge_ = nullptr;
  std::size_t inflight_peak_ = 0;
};

// StreamingUploadDriver — the transfer stage of the sync pipeline: the
// encode stage calls add_file() as soon as a segment's shards exist,
// close() when the scan is exhausted, and wait() for the drain. The
// embedded UploadScheduler keeps the batch policy intact — files added
// later rank after earlier ones in the availability-first order,
// over-provisioning and the per-cloud security cap apply unchanged —
// because all policy still lives in the scheduler; the driver only feeds
// it and executes its decisions, polling clouds in enrolment order.
//
// Memory release: when a segment "settles" (nothing in flight and no
// future task can place another block — fully served, or every enabled
// cloud is capped/down), the driver abandons it in the scheduler and fires
// the SegmentSettledFn, letting the pipeline drop the shard bytes early.
// Abandoning first makes the release safe: even if a disabled cloud is
// later re-admitted, the scheduler will never ask for those bytes again.
// The settled sweep also runs when clouds go down mid-run, so a producer
// blocked on an in-flight-bytes cap is always unblocked eventually.
class StreamingUploadDriver final
    : public TransferEngine<UploadScheduler, UploadFileSpec> {
 public:
  StreamingUploadDriver(CodeParams params,
                        std::vector<cloud::CloudId> clouds,
                        DriverConfig config, ThroughputMonitor& monitor,
                        std::shared_ptr<Executor> executor,
                        AsyncTransferFn transfer,
                        std::shared_ptr<cloud::CloudHealthRegistry> health =
                            nullptr,
                        obs::ObsPtr obs = nullptr,
                        SegmentSettledFn on_settled = nullptr);
  // Cancels and waits for in-flight transfers if the job is still open.
  ~StreamingUploadDriver();

  // Snapshot accessors; meaningful once the relevant segment settled or
  // after wait().
  [[nodiscard]] std::vector<metadata::BlockLocation> locations(
      const std::string& segment_id) const;
  [[nodiscard]] std::vector<std::pair<std::string, metadata::BlockLocation>>
  overprovisioned_blocks() const;
  [[nodiscard]] const CodeParams& params() const noexcept {
    return scheduler_.params();
  }

 private:
  void dispatch() override;
  void sweep() override;

  SegmentSettledFn on_settled_;
};

// StreamingDownloadDriver — the fetch stage of the restore pipeline: a
// single long-lived DownloadScheduler + pump fed all segments of a restore
// batch incrementally, instead of one scheduler/driver pair per segment.
// The per-cloud connection pools therefore stay busy across segment and
// file boundaries, fastest-cloud-first polling (the throughput monitor's
// ranking, refreshed every pump) and straggler hedging (next_hedge_task)
// operate over the whole batch, and the consumer is notified the moment
// any segment's k distinct blocks have landed — not when the whole job
// drains. A block stalled on a cloud yields no completion to pump on, so
// each pump also arms a TimerWheel timer at the scheduler's
// next_hedge_deadline(); the destructor cancels every armed timer.
//
// The transfer launcher GETs the block and stores the shard before its
// completion fires (must be thread-safe). When a segment reaches its
// distinct-block budget the SegmentFetchedFn fires with ok=true; when the
// scheduler proves the budget unreachable (supply exhausted / clouds down)
// it fires with ok=false. request_extra_block() raises the budget for the
// corrupt-shard search: the segment re-arms and the callback fires again
// when the extra block lands (or supply runs out).
//
// Every segment fed is guaranteed a callback: fetched, failed, or — after
// cancel() — cancelled (ok=false).
class StreamingDownloadDriver final
    : public TransferEngine<DownloadScheduler, DownloadFileSpec> {
 public:
  // Fired under the driver lock when a segment's fate is decided: ok=true
  // after its budget of distinct blocks was fetched, ok=false when it can
  // never be. Must not call back into the driver (post to an executor for
  // anything heavier than bookkeeping).
  using SegmentFetchedFn =
      std::function<void(const std::string& segment_id, bool ok)>;

  StreamingDownloadDriver(std::size_t k, std::vector<cloud::CloudId> clouds,
                          DriverConfig config, ThroughputMonitor& monitor,
                          std::shared_ptr<Executor> executor,
                          AsyncTransferFn transfer,
                          std::shared_ptr<cloud::CloudHealthRegistry> health =
                              nullptr,
                          obs::ObsPtr obs = nullptr,
                          SegmentFetchedFn on_fetched = nullptr);
  ~StreamingDownloadDriver();

  // Corrupt-shard search: fetch one more distinct block of the segment.
  // The segment becomes pending again and its SegmentFetchedFn re-fires.
  // Allowed after close() (verification outlives the feed phase).
  void request_extra_block(const std::string& segment_id);

 private:
  void dispatch() override;
  void sweep() override;
  void arm_hedge_timer(TimePoint now);

  SegmentFetchedFn on_fetched_;
  // Armed hedge timers by deadline; a callback erases its own entry.
  std::map<TimePoint, TimerWheel::TimerId> hedge_timers_;
};

}  // namespace unidrive::sched
