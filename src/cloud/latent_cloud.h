// LatentCloud — real-time bandwidth/latency throttling decorator (token
// bucket + deadline-queue waits). Used by examples and by the integration
// and pipeline tests that exercise the transfer drivers against
// wall-clock time; large-scale performance experiments instead use the
// discrete-event simulator in src/sim.
//
// All waits are routed through a TimerWheel: the blocking verbs park the
// calling thread on a wheel timer (one wheel thread serves every pending
// delay), and the async surface (cloud/async.h AsyncLatentCloud) schedules
// its completion on the same wheel without occupying any thread at all.
// Both surfaces share one LinkState, so concurrent transfers — blocking or
// async — queue behind each other on the same simulated uplink.
#pragma once

#include <memory>
#include <mutex>

#include "cloud/provider.h"
#include "common/clock.h"
#include "common/timer_wheel.h"

namespace unidrive::cloud {

struct LinkProfile {
  double up_bytes_per_sec = 0;    // 0 = unlimited
  double down_bytes_per_sec = 0;  // 0 = unlimited
  double request_latency_sec = 0;
};

// Per-direction occupancy of one simulated link, shared between the
// blocking and async surfaces of the same LatentCloud.
struct LinkState {
  // Reserves `bytes` at `rate` bytes/sec starting no earlier than `now`
  // (RealClock seconds); returns how long the caller must wait from `now`
  // until its transfer completes. Thread-safe.
  double reserve(std::size_t bytes, double rate, bool upload_direction,
                 double now);

 private:
  std::mutex mu_;
  double up_free_at_ = 0;
  double down_free_at_ = 0;
};

class LatentCloud final : public CloudProvider {
 public:
  LatentCloud(CloudPtr inner, LinkProfile profile,
              TimerWheel& wheel = TimerWheel::shared())
      : inner_(std::move(inner)),
        profile_(profile),
        wheel_(&wheel),
        link_(std::make_shared<LinkState>()) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

  // Exposed so the async decorator shares the same link and profile.
  [[nodiscard]] const CloudPtr& inner() const noexcept { return inner_; }
  [[nodiscard]] const LinkProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const std::shared_ptr<LinkState>& link() const noexcept {
    return link_;
  }
  [[nodiscard]] TimerWheel& wheel() const noexcept { return *wheel_; }

 private:
  // Blocks for the request latency plus the bandwidth reservation.
  void throttle(std::size_t bytes, bool upload_direction);

  CloudPtr inner_;
  LinkProfile profile_;
  TimerWheel* wheel_;
  std::shared_ptr<LinkState> link_;
};

}  // namespace unidrive::cloud
