// In-channel bandwidth probing (Section 6.2).
//
// UniDrive never sends dedicated probe traffic and never tries to predict
// cloud performance; the last transmissions ARE the probe. Every completed
// block transfer is recorded as a (bytes, seconds) sample, and clouds are
// ranked by their recent average *per-connection* throughput (per-connection
// because several concurrent HTTP connections share each cloud's path and
// scheduling decisions are per block).
//
// The estimate is an exponentially weighted moving average so a cloud whose
// network degrades mid-transfer loses its rank within a few blocks. The
// EWMA ranks clouds; it says nothing about how late one request may run.
// For that the monitor also keeps each cloud's last kLatencyWindow
// successful transfers as seconds per byte and serves their p50 and p95:
// the download scheduler hedges a block only once it runs late against its
// own cloud's record (DownloadScheduler::next_hedge_task).
#pragma once

#include <array>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "cloud/provider.h"

namespace unidrive::sched {

enum class Direction : std::uint8_t { kUpload = 0, kDownload = 1 };

// Per-byte latency quantiles of one cloud, in seconds per byte, so blocks of
// any size compare: a b-byte block is expected within b * p50 seconds and
// late past b * p95.
struct LatencyQuantiles {
  double p50 = 0;
  double p95 = 0;
};

class ThroughputMonitor {
 public:
  // `default_estimate` seeds unknown clouds. The default is 0 — i.e. a
  // cloud with no samples ranks BELOW every measured cloud: being wrong
  // about an unmeasured cloud is cheap (it gets probed when the measured
  // ones are busy), whereas an optimistic default would keep routing blocks
  // to a cloud that is actually slow and make stragglers look "fast" to the
  // hedging logic. With all-equal seeds the first round degenerates to the
  // even assignment the paper starts from. `alpha` is the EWMA weight of
  // the newest sample.
  explicit ThroughputMonitor(double default_estimate = 0.0,
                             double alpha = 0.35) noexcept
      : default_estimate_(default_estimate), alpha_(alpha) {}

  void record(cloud::CloudId cloud, Direction dir, double bytes,
              double seconds);

  // A failed transfer moved zero payload in `seconds` of connection time;
  // fold it in as a zero-throughput sample so clouds that fail slowly
  // (burning a connection for the full stall before erroring) sink in the
  // ranking instead of coasting on their last good estimate. Instant
  // failures (seconds ~ 0, e.g. an open circuit breaker) are ignored: no
  // channel time was actually wasted, so they carry no bandwidth signal.
  void record_failure(cloud::CloudId cloud, Direction dir, double seconds);

  // Per-connection throughput estimate in bytes/sec.
  [[nodiscard]] double estimate(cloud::CloudId cloud, Direction dir) const;

  // Quantiles over the cloud's last kLatencyWindow successful transfers in
  // `dir`; nullopt while the cloud is unmeasured (no sample yet). Failures
  // never enter the window.
  [[nodiscard]] std::optional<LatencyQuantiles> latency(cloud::CloudId cloud,
                                                        Direction dir) const;

  static constexpr std::size_t kLatencyWindow = 32;

  // Candidates sorted fastest-first (stable for equal estimates).
  [[nodiscard]] std::vector<cloud::CloudId> ranked(
      Direction dir, const std::vector<cloud::CloudId>& candidates) const;

  void reset();

 private:
  double default_estimate_;
  double alpha_;
  // Ring of the newest seconds-per-byte samples; the quantiles are
  // recomputed on record() so latency() is a lookup.
  struct Window {
    std::array<double, kLatencyWindow> samples{};
    std::size_t count = 0;
    std::size_t next = 0;
    LatencyQuantiles quantiles;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<cloud::CloudId, Direction>, double> ewma_;
  std::map<std::pair<cloud::CloudId, Direction>, Window> windows_;
};

}  // namespace unidrive::sched
