#include "sched/monitor.h"

#include <algorithm>
#include <cmath>
#include <span>

namespace unidrive::sched {

namespace {

// Nearest-rank q-quantile of an ascending, non-empty range.
double nearest_rank(std::span<const double> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

void ThroughputMonitor::record(cloud::CloudId cloud, Direction dir,
                               double bytes, double seconds) {
  if (seconds <= 0 || bytes <= 0) return;
  const double sample = bytes / seconds;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(cloud, dir);
  const auto it = ewma_.find(key);
  if (it == ewma_.end()) {
    ewma_[key] = sample;
  } else {
    it->second = alpha_ * sample + (1 - alpha_) * it->second;
  }

  Window& w = windows_[key];
  w.samples[w.next] = seconds / bytes;
  w.next = (w.next + 1) % kLatencyWindow;
  w.count = std::min(w.count + 1, kLatencyWindow);
  std::array<double, kLatencyWindow> copy = w.samples;
  const std::span<double> sorted(copy.data(), w.count);
  std::sort(sorted.begin(), sorted.end());
  w.quantiles = {nearest_rank(sorted, 0.50), nearest_rank(sorted, 0.95)};
}

void ThroughputMonitor::record_failure(cloud::CloudId cloud, Direction dir,
                                       double seconds) {
  if (seconds < 1e-6) return;  // fail-fast, no channel time wasted
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ewma_.find(std::make_pair(cloud, dir));
  if (it != ewma_.end()) {
    it->second *= 1 - alpha_;  // EWMA update with a zero sample
  }
  // An unmeasured cloud stays unmeasured: it already ranks at the default
  // (bottom) estimate.
}

double ThroughputMonitor::estimate(cloud::CloudId cloud, Direction dir) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ewma_.find(std::make_pair(cloud, dir));
  return it == ewma_.end() ? default_estimate_ : it->second;
}

std::optional<LatencyQuantiles> ThroughputMonitor::latency(
    cloud::CloudId cloud, Direction dir) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = windows_.find(std::make_pair(cloud, dir));
  if (it == windows_.end()) return std::nullopt;
  return it->second.quantiles;
}

std::vector<cloud::CloudId> ThroughputMonitor::ranked(
    Direction dir, const std::vector<cloud::CloudId>& candidates) const {
  std::vector<std::pair<double, cloud::CloudId>> scored;
  scored.reserve(candidates.size());
  for (const cloud::CloudId c : candidates) {
    scored.emplace_back(estimate(c, dir), c);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<cloud::CloudId> out;
  out.reserve(scored.size());
  for (const auto& [score, c] : scored) out.push_back(c);
  return out;
}

void ThroughputMonitor::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ewma_.clear();
  windows_.clear();
}

}  // namespace unidrive::sched
