// Simulation driver for the UniDrive schedulers: runs an UploadScheduler or
// DownloadScheduler job against SimClouds in virtual time. The schedulers
// and the throughput monitor are the ones the real client's transfer
// engine drives, so the placement and fetch decisions are faithful; the
// dispatch loop is the sim's own JobRunner (sim/job_runner.h: virtual-time
// events, a static polling order for ablations, a job timeout).
#pragma once

#include <vector>

#include "cloud/health.h"
#include "sched/download_scheduler.h"
#include "sched/monitor.h"
#include "sched/upload_scheduler.h"
#include "sim/sim_cloud.h"

namespace unidrive::sim {

struct RunConfig {
  std::size_t connections_per_cloud = 5;
  // A cloud is disabled for the job after this many consecutive failures.
  // Only consulted when no health registry is supplied below.
  int failure_disable_threshold = 8;
  // Hard stop: give up on the whole job after this much virtual time.
  double timeout = 24 * 3600;
  // Dynamic scheduling: offer work to clouds fastest-first (in-channel
  // probing). Off = fixed order, the "multi-cloud benchmark" behaviour.
  bool dynamic_polling = true;
  // Optional shared circuit-breaker registry (pair it with a SimEnvClock so
  // probe timers run on virtual time). When set, per-run failure counting is
  // replaced by the registry: outcomes are recorded into it, open-breaker
  // clouds are not dispatched to, and — because the registry outlives the
  // run — a cloud tripped in one round starts the next round half-open.
  // Non-owning; must outlive the run.
  cloud::CloudHealthRegistry* health = nullptr;
};

struct UploadRunResult {
  bool all_available = false;
  bool all_reliable = false;
  double start_time = 0;
  double available_time = 0;  // when the LAST file became available
  double finish_time = 0;     // when the job fully finished (reliability)
  std::vector<double> file_available_time;  // per file, -1 if never
  std::uint64_t block_transfers = 0;
  std::uint64_t failed_transfers = 0;
};

UploadRunResult run_upload_job(SimEnv& env,
                               const std::vector<SimCloud*>& clouds,
                               sched::UploadScheduler& scheduler,
                               sched::ThroughputMonitor& monitor,
                               const RunConfig& config);

struct DownloadRunResult {
  bool all_complete = false;
  double start_time = 0;
  double finish_time = 0;
  std::vector<double> file_complete_time;  // per file, -1 if never
  std::uint64_t block_transfers = 0;
  std::uint64_t failed_transfers = 0;
};

DownloadRunResult run_download_job(SimEnv& env,
                                   const std::vector<SimCloud*>& clouds,
                                   sched::DownloadScheduler& scheduler,
                                   sched::ThroughputMonitor& monitor,
                                   const RunConfig& config);

}  // namespace unidrive::sim
