// Download scheduler (Section 6.2): only k distinct blocks are needed per
// segment — normal or over-provisioned, from whichever clouds. The driver
// polls idle connections in fastest-cloud-first order (using the in-channel
// throughput monitor), and this scheduler hands each poll the next needed
// block that the polling cloud can supply. Over-provisioning pays off here:
// fast clouds hold extra blocks, so they can serve more than their share.
//
// Straggler hedging asks more than a ranking: a block is duplicated only
// once it runs late against its holder's own latency record (the tail-at-
// scale rule of hedging past the 95th percentile), so on equal links a
// restore fetches ~k blocks per segment. A stalled cloud produces no
// completion to re-poll on, so drivers wake at next_hedge_deadline().
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "common/clock.h"
#include "metadata/types.h"
#include "sched/monitor.h"
#include "sched/upload_scheduler.h"  // BlockTask

namespace unidrive::sched {

struct DownloadSegmentSpec {
  std::string id;
  std::uint64_t size = 0;  // original segment size
  std::vector<metadata::BlockLocation> locations;
};

struct DownloadFileSpec {
  std::string path;
  std::vector<DownloadSegmentSpec> segments;
};

class DownloadScheduler {
 public:
  DownloadScheduler(std::size_t k, std::vector<DownloadFileSpec> files);

  // Streaming: append a file to the batch while the job is running (the
  // caller must serialize this with next_task/on_complete, like every
  // other mutating call). The new file ranks after all existing files in
  // the fastest-first polling order.
  void add_file(DownloadFileSpec file);

  // Raise a segment's distinct-block budget past k by `extra` blocks (the
  // corrupt-shard search: a decoded-but-unverifiable segment needs more
  // distinct blocks to find a clean k-subset). The segment becomes
  // incomplete again until the extra blocks land or supply runs out.
  void raise_budget(const std::string& segment_id, std::size_t extra);

  // Per-segment progress, for streaming drivers that notify a consumer as
  // soon as each segment's budget of distinct blocks has been fetched.
  [[nodiscard]] bool segment_complete(const std::string& segment_id) const;
  // True when the segment can never reach its budget with the enabled
  // clouds and remaining untried sources (counting in-flight requests as
  // potential successes, so the verdict is final).
  [[nodiscard]] bool segment_failed(const std::string& segment_id) const;

  // Next block an idle connection of `cloud` should fetch, or nullopt.
  // `now` stamps the launch, which the hedging rule ages.
  std::optional<BlockTask> next_task(cloud::CloudId cloud, TimePoint now);

  // Straggler hedging (part of dynamic scheduling): when `cloud` is idle,
  // fetch an EXTRA distinct block of a segment whose block b (bytes) has
  // been in flight on another cloud P for `a` seconds — whichever k blocks
  // land first complete the segment. `cloud` must be measured by `monitor`
  // (an unmeasured cloud never hedges), and one of these must hold:
  //   - P is unmeasured;
  //   - P is overdue: a >= b * p95(P);
  //   - `cloud` lands first even on a slow request:
  //     b * p95(cloud) < b * p50(P) - a.
  // Each such late block earns one hedge, and a cloud never holds more
  // than 1 + k/2 blocks of one segment in flight.
  std::optional<BlockTask> next_hedge_task(cloud::CloudId cloud,
                                           TimePoint now,
                                           const ThroughputMonitor& monitor);

  // The earliest time after `now` at which an in-flight block of an
  // incomplete segment becomes overdue on its measured holder, or nullopt.
  // Drivers arm a timer for it: a block stalled on a cloud yields no
  // completion to poll on.
  [[nodiscard]] std::optional<TimePoint> next_hedge_deadline(
      TimePoint now, const ThroughputMonitor& monitor) const;

  void on_complete(const BlockTask& task, bool success);

  void set_cloud_enabled(cloud::CloudId cloud, bool enabled);

  // A segment is complete when k distinct blocks are fetched; a file when
  // all its segments are; the job when all files are.
  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }
  [[nodiscard]] bool file_complete(std::size_t file_index) const;
  [[nodiscard]] bool all_complete() const;
  // True when all files are complete OR some file can never complete with
  // the enabled clouds (insufficient reachable blocks) and nothing is in
  // flight.
  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool file_failed(std::size_t file_index) const;
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  // Which block indices were fetched for a segment (driver assembles them).
  [[nodiscard]] std::vector<std::uint32_t> fetched_blocks(
      const std::string& segment_id) const;

 private:
  struct InFlight {
    cloud::CloudId cloud = 0;
    TimePoint launched = 0;
  };

  struct SegmentState {
    std::size_t file_index = 0;
    DownloadSegmentSpec spec;
    std::uint64_t block_bytes = 0;
    // Distinct blocks to fetch: k normally, raised by raise_budget() during
    // a corrupt-shard search.
    std::size_t budget = 0;
    std::set<std::uint32_t> done;
    std::map<std::uint32_t, InFlight> in_flight;
    std::set<std::uint32_t> failed_everywhere;  // exhausted all holders

    [[nodiscard]] bool complete() const noexcept {
      return done.size() >= budget;
    }
  };

  void append_file(DownloadFileSpec file);
  // Marks the first block of segment `si` that `cloud` holds and that is
  // neither fetched, in flight nor exhausted there as launched; nullopt if
  // there is none.
  std::optional<BlockTask> claim(std::size_t si, cloud::CloudId cloud,
                                 TimePoint now);
  [[nodiscard]] bool segment_stuck(const SegmentState& seg) const;
  [[nodiscard]] const SegmentState* find_segment(
      const std::string& segment_id) const;

  std::size_t k_;
  std::vector<DownloadFileSpec> files_;
  std::vector<SegmentState> segments_;
  std::vector<std::vector<std::size_t>> file_segments_;
  std::set<cloud::CloudId> disabled_;
  // Failures are transient (that's the measured cloud behaviour): each
  // (segment, block, cloud) triple may be retried a few times before the
  // scheduler stops considering that source.
  static constexpr int kMaxAttemptsPerSource = 3;
  std::map<std::tuple<std::size_t, std::uint32_t, cloud::CloudId>, int>
      failure_counts_;
  [[nodiscard]] bool source_exhausted(std::size_t segment,
                                      std::uint32_t block,
                                      cloud::CloudId cloud) const {
    const auto it = failure_counts_.find({segment, block, cloud});
    return it != failure_counts_.end() &&
           it->second >= kMaxAttemptsPerSource;
  }
  std::size_t in_flight_ = 0;
};

}  // namespace unidrive::sched
