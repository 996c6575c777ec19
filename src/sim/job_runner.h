// JobRunner — the virtual-time transfer driver shared by transfer_run.cc
// (single synchronous jobs) and e2e.cc (concurrent uploaders/downloaders).
// Mirrors the sched streaming drivers: per-cloud connection slots, polls
// idle slots fastest-cloud-first, feeds completions to the scheduler and
// the throughput monitor, disables persistently failing clouds. Download
// jobs under dynamic polling hedge stragglers with the same
// DownloadScheduler::next_hedge_task as the real driver, and wake at its
// next_hedge_deadline() through SimEnv::schedule_at.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "sched/monitor.h"
#include "sim/sim_cloud.h"
#include "sim/transfer_run.h"

namespace unidrive::sim {

template <typename Scheduler>
class JobRunner : public std::enable_shared_from_this<JobRunner<Scheduler>> {
  // An explicit branch, not a probe for the member: a download scheduler
  // whose API drifts fails to compile instead of silently losing hedging.
  static constexpr bool kDownload =
      std::is_same_v<Scheduler, sched::DownloadScheduler>;
  static_assert(kDownload ||
                std::is_same_v<Scheduler, sched::UploadScheduler>);

 public:
  // `scheduler` may be owned (shared_ptr) so asynchronous jobs keep their
  // state alive for as long as callbacks may fire.
  JobRunner(SimEnv& env, std::vector<SimCloud*> clouds,
            std::shared_ptr<Scheduler> scheduler,
            sched::ThroughputMonitor& monitor, RunConfig config,
            sched::Direction direction)
      : env_(env),
        clouds_(std::move(clouds)),
        scheduler_(std::move(scheduler)),
        monitor_(monitor),
        config_(config),
        direction_(direction) {
    for (SimCloud* c : clouds_) {
      free_slots_[c->id()] = config_.connections_per_cloud;
      by_id_[c->id()] = c;
      ids_.push_back(c->id());
    }
  }

  void start(std::function<void()> on_done) {
    on_done_ = std::move(on_done);
    start_time_ = env_.now();
    env_.schedule(config_.timeout, [self = this->shared_from_this()] {
      if (!self->done_) self->finish();
    });
    sync_health_gates();  // clouds tripped in earlier rounds start disabled
    check_done();         // a job may be trivially finished (no files)
    poll();
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] double start_time() const noexcept { return start_time_; }
  [[nodiscard]] double finish_time() const noexcept { return finish_time_; }
  [[nodiscard]] std::uint64_t transfers() const noexcept { return transfers_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }

  // Fires after every block completion (progress observers hook in here).
  std::function<void()> on_progress;

 private:
  // With a health registry, the scheduler's per-cloud enablement mirrors the
  // breakers: open-breaker clouds get their blocks rerouted, and a breaker
  // whose probe timer expired re-enables its cloud so the next dispatch acts
  // as the half-open probe.
  void sync_health_gates() {
    if (config_.health == nullptr) return;
    for (const cloud::CloudId id : ids_) {
      scheduler_->set_cloud_enabled(id, config_.health->admissible(id));
    }
  }

  [[nodiscard]] bool may_dispatch_to(cloud::CloudId id) const {
    return config_.health == nullptr || config_.health->admissible(id);
  }

  void poll() {
    if (done_) return;
    sync_health_gates();
    // Fastest clouds are offered work first: with over-provisioning this is
    // what routes surplus blocks to the fast clouds.
    const auto ranked =
        config_.dynamic_polling ? monitor_.ranked(direction_, ids_) : ids_;
    bool dispatched = true;
    while (dispatched) {
      dispatched = false;
      for (const cloud::CloudId id : ranked) {
        if (free_slots_[id] == 0 || !may_dispatch_to(id)) continue;
        std::optional<sched::BlockTask> task;
        if constexpr (kDownload) {
          task = scheduler_->next_task(id, env_.now());
        } else {
          task = scheduler_->next_task(id);
        }
        if (!task.has_value()) continue;
        dispatch(*task);
        dispatched = true;
      }
      // Straggler hedging (downloads, dynamic scheduling only): idle
      // connections duplicate work that runs late on its holder.
      if constexpr (kDownload) {
        if (!dispatched && config_.dynamic_polling) {
          for (const cloud::CloudId id : ranked) {
            if (free_slots_[id] == 0 || !may_dispatch_to(id)) continue;
            auto task = scheduler_->next_hedge_task(id, env_.now(), monitor_);
            if (!task.has_value()) continue;
            dispatch(*task);
            dispatched = true;
          }
        }
      }
    }
    if constexpr (kDownload) {
      if (config_.dynamic_polling) arm_hedge_timer();
    }
  }

  // A stalled cloud produces no completion to poll on: wake when the
  // earliest in-flight block becomes overdue. An earlier wake-up polls and
  // arms the later deadline then.
  void arm_hedge_timer() {
    const std::optional<double> deadline =
        scheduler_->next_hedge_deadline(env_.now(), monitor_);
    if (!deadline.has_value() ||
        (!hedge_timers_.empty() && *hedge_timers_.begin() <= *deadline)) {
      return;
    }
    hedge_timers_.insert(*deadline);
    env_.schedule_at(*deadline,
                     [self = this->shared_from_this(), at = *deadline] {
                       self->hedge_timers_.erase(at);
                       self->poll();
                     });
  }

  void dispatch(const sched::BlockTask& task) {
    UNI_DLOG << "t=" << env_.now() << " dispatch file" << task.file_index
             << " seg " << task.segment_id << " blk " << task.block_index
             << " -> cloud " << task.cloud;
    --free_slots_[task.cloud];
    // The transfer we are about to issue IS the breaker probe when the cloud
    // is half-open; allow_request() books the probe slot. admissible() was
    // checked just before in this single-threaded loop, so a refusal can
    // only mean the half-open probe quota filled within this poll — feed
    // the block back to the scheduler instead of sending it.
    if (config_.health != nullptr &&
        !config_.health->allow_request(task.cloud)) {
      ++free_slots_[task.cloud];
      scheduler_->on_complete(task, false);
      return;
    }
    const double begin = env_.now();
    auto completion = [self = this->shared_from_this(), task, begin](bool ok) {
      self->on_transfer_done(task, begin, ok);
    };
    SimCloud* cloud = by_id_[task.cloud];
    if (direction_ == sched::Direction::kUpload) {
      cloud->upload(static_cast<double>(task.bytes), std::move(completion));
    } else {
      cloud->download(static_cast<double>(task.bytes), std::move(completion));
    }
  }

  void on_transfer_done(const sched::BlockTask& task, double begin, bool ok) {
    UNI_DLOG << "t=" << env_.now() << " complete ok=" << ok << " seg "
             << task.segment_id << " blk " << task.block_index << " cloud "
             << task.cloud;
    ++free_slots_[task.cloud];
    ++transfers_;
    if (done_) return;  // timed out meanwhile; drop the result
    const double elapsed = env_.now() - begin;
    if (ok) {
      monitor_.record(task.cloud, direction_, static_cast<double>(task.bytes),
                      std::max(1e-9, elapsed));
      consecutive_failures_[task.cloud] = 0;
    } else {
      ++failures_;
      monitor_.record_failure(task.cloud, direction_, elapsed);
      if (config_.health == nullptr &&
          ++consecutive_failures_[task.cloud] >=
              config_.failure_disable_threshold) {
        scheduler_->set_cloud_enabled(task.cloud, false);
      }
    }
    if (config_.health != nullptr) {
      // The breaker decides instead of the per-run counter; poll() syncs the
      // scheduler gates from it right after.
      if (ok) {
        config_.health->record_success(task.cloud, elapsed);
      } else {
        config_.health->record_failure(task.cloud, elapsed);
      }
    }
    scheduler_->on_complete(task, ok);
    if (on_progress) on_progress();
    check_done();
    poll();
  }

  void check_done() {
    if (!done_ && scheduler_->finished()) finish();
  }

  void finish() {
    done_ = true;
    finish_time_ = env_.now();
    if (on_done_) {
      auto cb = std::move(on_done_);
      cb();
    }
  }

  SimEnv& env_;
  std::vector<SimCloud*> clouds_;
  std::shared_ptr<Scheduler> scheduler_;
  sched::ThroughputMonitor& monitor_;
  RunConfig config_;
  sched::Direction direction_;

  std::vector<cloud::CloudId> ids_;
  std::map<cloud::CloudId, std::size_t> free_slots_;
  std::map<cloud::CloudId, SimCloud*> by_id_;
  std::map<cloud::CloudId, int> consecutive_failures_;
  std::set<double> hedge_timers_;  // armed wake-ups, by virtual time
  std::function<void()> on_done_;
  bool done_ = false;
  double start_time_ = 0;
  double finish_time_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace unidrive::sim
