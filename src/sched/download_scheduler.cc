#include "sched/download_scheduler.h"

#include <algorithm>
#include <cassert>

namespace unidrive::sched {

DownloadScheduler::DownloadScheduler(std::size_t k,
                                     std::vector<DownloadFileSpec> files)
    : k_(k) {
  assert(k_ > 0);
  for (DownloadFileSpec& file : files) append_file(std::move(file));
}

void DownloadScheduler::append_file(DownloadFileSpec file) {
  const std::size_t fi = files_.size();
  file_segments_.emplace_back();
  for (const DownloadSegmentSpec& seg : file.segments) {
    SegmentState ss;
    ss.file_index = fi;
    ss.spec = seg;
    ss.block_bytes = (seg.size + k_ - 1) / k_;
    ss.budget = k_;
    file_segments_[fi].push_back(segments_.size());
    segments_.push_back(std::move(ss));
  }
  files_.push_back(std::move(file));
}

void DownloadScheduler::add_file(DownloadFileSpec file) {
  append_file(std::move(file));
}

void DownloadScheduler::raise_budget(const std::string& segment_id,
                                     std::size_t extra) {
  // Last match wins (see find_segment): only the most recent admission of
  // a re-fed segment id re-arms.
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->spec.id == segment_id) {
      it->budget += extra;
      return;
    }
  }
}

const DownloadScheduler::SegmentState* DownloadScheduler::find_segment(
    const std::string& segment_id) const {
  // A streaming batch may re-feed a segment id after an earlier admission
  // completed (e.g. the same content appears again once its first copy was
  // written and released); per-id queries track the newest admission.
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->spec.id == segment_id) return &*it;
  }
  return nullptr;
}

bool DownloadScheduler::segment_complete(const std::string& segment_id) const {
  const SegmentState* seg = find_segment(segment_id);
  return seg != nullptr && seg->complete();
}

bool DownloadScheduler::segment_failed(const std::string& segment_id) const {
  const SegmentState* seg = find_segment(segment_id);
  return seg != nullptr && segment_stuck(*seg);
}

bool DownloadScheduler::file_complete(std::size_t file_index) const {
  for (const std::size_t si : file_segments_[file_index]) {
    if (!segments_[si].complete()) return false;
  }
  return true;
}

bool DownloadScheduler::all_complete() const {
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    if (!file_complete(fi)) return false;
  }
  return true;
}

bool DownloadScheduler::segment_stuck(const SegmentState& seg) const {
  if (seg.complete()) return false;
  // Count blocks still obtainable: located on an enabled cloud not yet
  // known-failed for that block, or already done/in-flight.
  std::set<std::uint32_t> reachable(seg.done.begin(), seg.done.end());
  for (const auto& [index, c] : seg.in_flight) reachable.insert(index);
  const std::size_t seg_index =
      static_cast<std::size_t>(&seg - segments_.data());
  for (const metadata::BlockLocation& loc : seg.spec.locations) {
    if (disabled_.count(loc.cloud) != 0) continue;
    if (source_exhausted(seg_index, loc.block_index, loc.cloud)) {
      continue;
    }
    reachable.insert(loc.block_index);
  }
  return reachable.size() < seg.budget;
}

bool DownloadScheduler::file_failed(std::size_t file_index) const {
  for (const std::size_t si : file_segments_[file_index]) {
    if (segment_stuck(segments_[si])) return true;
  }
  return false;
}

bool DownloadScheduler::finished() const {
  // Complete is complete: requests still in flight (e.g. a straggler block
  // on a slow cloud that a hedge made redundant) do not delay the job —
  // a real client simply abandons those connections.
  if (all_complete()) return true;
  if (in_flight_ > 0) return false;
  for (const SegmentState& seg : segments_) {
    if (!seg.complete() && !segment_stuck(seg)) return false;
  }
  return true;
}

std::optional<BlockTask> DownloadScheduler::claim(std::size_t si,
                                                  cloud::CloudId cloud,
                                                  TimePoint now) {
  SegmentState& seg = segments_[si];
  for (const metadata::BlockLocation& loc : seg.spec.locations) {
    if (loc.cloud != cloud) continue;
    if (seg.done.count(loc.block_index) != 0 ||
        seg.in_flight.count(loc.block_index) != 0) {
      continue;
    }
    if (source_exhausted(si, loc.block_index, cloud)) {
      continue;  // this source failed repeatedly; stop retrying it
    }
    seg.in_flight[loc.block_index] = {cloud, now};
    ++in_flight_;
    return BlockTask{seg.file_index, seg.spec.id, loc.block_index, cloud,
                     seg.block_bytes};
  }
  return std::nullopt;
}

std::optional<BlockTask> DownloadScheduler::next_task(cloud::CloudId cloud,
                                                      TimePoint now) {
  if (disabled_.count(cloud) != 0) return std::nullopt;
  // Files are scanned in order (availability-first: earlier files fill their
  // k-request budgets before later ones see any capacity), but a file this
  // cloud cannot serve NEVER blocks later files — a connection with nothing
  // to contribute to file i is better spent on file i+1, and a stuck file
  // must not deadlock the whole job.
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    for (const std::size_t si : file_segments_[fi]) {
      const SegmentState& seg = segments_[si];
      if (seg.complete()) continue;
      // Never request more than the still-needed distinct blocks.
      if (seg.done.size() + seg.in_flight.size() >= seg.budget) continue;
      if (auto task = claim(si, cloud, now)) return task;
    }
  }
  return std::nullopt;
}

namespace {

// When a block of `bytes` launched at `launched` turns overdue on a holder
// with quantiles `q`. next_hedge_task and next_hedge_deadline share this
// sum, so a timer armed for it finds the block late.
TimePoint overdue_at(TimePoint launched, double bytes,
                     const LatencyQuantiles& q) {
  return launched + bytes * q.p95;
}

// The hedging rule of next_hedge_task (see the header) for one block, seen
// from an idle measured cloud with quantiles `idle`.
bool worth_hedging(const std::optional<LatencyQuantiles>& holder,
                   const LatencyQuantiles& idle, double bytes,
                   TimePoint launched, TimePoint now) {
  if (!holder.has_value()) return true;
  if (now >= overdue_at(launched, bytes, *holder)) return true;
  return bytes * idle.p95 < bytes * holder->p50 - (now - launched);
}

}  // namespace

std::optional<BlockTask> DownloadScheduler::next_hedge_task(
    cloud::CloudId cloud, TimePoint now, const ThroughputMonitor& monitor) {
  if (disabled_.count(cloud) != 0) return std::nullopt;
  const std::optional<LatencyQuantiles> mine =
      monitor.latency(cloud, Direction::kDownload);
  if (!mine.has_value()) return std::nullopt;

  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    for (const std::size_t si : file_segments_[fi]) {
      const SegmentState& seg = segments_[si];
      if (seg.complete()) continue;
      const auto bytes = static_cast<double>(seg.block_bytes);
      std::size_t late = 0;
      std::size_t my_in_flight = 0;
      for (const auto& [index, flight] : seg.in_flight) {
        if (flight.cloud == cloud) {
          ++my_in_flight;
        } else if (worth_hedging(
                       monitor.latency(flight.cloud, Direction::kDownload),
                       *mine, bytes, flight.launched, now)) {
          ++late;
        }
      }
      // Each late block earns one hedge: the blocks claimed beyond the
      // budget are the hedges already launched.
      const std::size_t claimed = seg.done.size() + seg.in_flight.size();
      const std::size_t hedged =
          claimed > seg.budget ? claimed - seg.budget : 0;
      if (late <= hedged || my_in_flight >= 1 + k_ / 2) continue;
      if (auto task = claim(si, cloud, now)) return task;
    }
  }
  return std::nullopt;
}

std::optional<TimePoint> DownloadScheduler::next_hedge_deadline(
    TimePoint now, const ThroughputMonitor& monitor) const {
  std::optional<TimePoint> earliest;
  for (const SegmentState& seg : segments_) {
    if (seg.complete()) continue;
    for (const auto& [index, flight] : seg.in_flight) {
      const std::optional<LatencyQuantiles> q =
          monitor.latency(flight.cloud, Direction::kDownload);
      // An unmeasured holder is hedgeable already; what it waits for is an
      // idle measured cloud, and that comes with a completion.
      if (!q.has_value()) continue;
      const TimePoint overdue = overdue_at(
          flight.launched, static_cast<double>(seg.block_bytes), *q);
      if (overdue > now && (!earliest || overdue < *earliest)) {
        earliest = overdue;
      }
    }
  }
  return earliest;
}

void DownloadScheduler::on_complete(const BlockTask& task, bool success) {
  for (const std::size_t si : file_segments_[task.file_index]) {
    SegmentState& seg = segments_[si];
    if (seg.spec.id != task.segment_id) continue;
    const auto it = seg.in_flight.find(task.block_index);
    if (it == seg.in_flight.end() || it->second.cloud != task.cloud) return;
    seg.in_flight.erase(it);
    --in_flight_;
    if (success) {
      seg.done.insert(task.block_index);
    } else {
      ++failure_counts_[{si, task.block_index, task.cloud}];
    }
    return;
  }
}

void DownloadScheduler::set_cloud_enabled(cloud::CloudId cloud, bool enabled) {
  if (enabled) {
    disabled_.erase(cloud);
  } else {
    disabled_.insert(cloud);
  }
}

std::vector<std::uint32_t> DownloadScheduler::fetched_blocks(
    const std::string& segment_id) const {
  std::vector<std::uint32_t> out;
  const SegmentState* seg = find_segment(segment_id);
  if (seg != nullptr) out.assign(seg->done.begin(), seg->done.end());
  return out;
}

}  // namespace unidrive::sched
