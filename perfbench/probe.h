// ProbeCloud — the benchmark's own view of every cloud request.
//
// One probe sits directly above each MemoryCloud and below the LatentCloud
// that simulates the link, so the client's decorator chain (and the native
// async chain cloud::to_async builds from it) is the one the program uses
// without the benchmark: the probe is the blocking leaf a SyncAdapter runs.
// Because it is below the latency layer, an upload/list/remove/create_dir
// arrives at the probe when its simulated round trip ends, and a download
// arrives when it starts (LatentCloud charges a download's delay after the
// inner call).
//
// Counting is always on (relaxed atomics, negligible next to a request).
// Recording every call with its arrival time is on only in traced runs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/metered_cloud.h"
#include "cloud/provider.h"

namespace unidrive::perfbench {

enum class Verb : std::uint8_t { kUpload, kDownload, kList, kCreateDir, kRemove };
enum class Area : std::uint8_t { kData, kMeta, kLock, kOther };

inline constexpr std::size_t kVerbs = 5;
inline constexpr std::size_t kAreas = 4;
inline constexpr std::size_t kMaxClouds = 8;

// Names as cloud::MeteredCloud spells them in its counters.
inline constexpr std::array<const char*, kVerbs> kVerbNames = {
    "upload", "download", "list", "create_dir", "remove"};
inline constexpr std::array<const char*, kAreas> kAreaNames = {
    "data", "meta", "lock", "other"};

inline Area area_of(const std::string& path) {
  const std::string area = cloud::request_area(path);
  if (area == "data") return Area::kData;
  if (area == "meta") return Area::kMeta;
  if (area == "lock") return Area::kLock;
  return Area::kOther;
}

// Seconds on the steady clock; shared by the probe and the round loop so
// RPC arrivals and sync spans sit on one time axis.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RpcRecord {
  double at = 0;  // arrival at the probe, now_s()
  std::uint32_t cloud = 0;
  Verb verb = Verb::kUpload;
  Area area = Area::kOther;
  std::uint64_t bytes = 0;  // payload up (upload) or down (download)
  bool ok = true;
};

// Call and byte totals, indexable so per-round deltas are plain subtraction.
struct ProbeCounts {
  // [cloud][verb][area][0 = ok, 1 = err]
  std::array<std::array<std::array<std::array<std::uint64_t, 2>, kAreas>,
                        kVerbs>,
             kMaxClouds>
      calls{};
  std::array<std::uint64_t, kAreas> bytes_up{};
  std::array<std::uint64_t, kAreas> bytes_down{};

  [[nodiscard]] std::uint64_t calls_in(Area area) const {
    std::uint64_t n = 0;
    for (const auto& cloud : calls) {
      for (const auto& verb : cloud) {
        n += verb[static_cast<std::size_t>(area)][0] +
             verb[static_cast<std::size_t>(area)][1];
      }
    }
    return n;
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (std::size_t a = 0; a < kAreas; ++a) n += calls_in(static_cast<Area>(a));
    return n;
  }
  [[nodiscard]] std::uint64_t errors() const {
    std::uint64_t n = 0;
    for (const auto& cloud : calls) {
      for (const auto& verb : cloud) {
        for (const auto& area : verb) n += area[1];
      }
    }
    return n;
  }
  [[nodiscard]] std::uint64_t total_bytes_up() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : bytes_up) n += b;
    return n;
  }
  [[nodiscard]] std::uint64_t total_bytes_down() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : bytes_down) n += b;
    return n;
  }
  ProbeCounts& operator-=(const ProbeCounts& base);
};

// Shared by the probes of one cloud set.
class ProbeLog {
 public:
  explicit ProbeLog(bool record) : record_(record) {}
  ProbeLog(const ProbeLog&) = delete;
  ProbeLog& operator=(const ProbeLog&) = delete;

  void note(std::uint32_t cloud, Verb verb, const std::string& path,
            std::uint64_t up, std::uint64_t down, bool ok);

  [[nodiscard]] ProbeCounts counts() const;
  // Records noted since the last take, oldest first (traced runs only).
  [[nodiscard]] std::vector<RpcRecord> take_records();

 private:
  bool record_;
  std::array<std::array<std::array<std::array<std::atomic<std::uint64_t>, 2>,
                                   kAreas>,
                        kVerbs>,
             kMaxClouds>
      calls_{};
  std::array<std::atomic<std::uint64_t>, kAreas> bytes_up_{};
  std::array<std::atomic<std::uint64_t>, kAreas> bytes_down_{};
  std::mutex mu_;
  std::vector<RpcRecord> records_;  // guarded by mu_
};

class ProbeCloud final : public cloud::CloudProvider {
 public:
  ProbeCloud(cloud::CloudPtr inner, std::shared_ptr<ProbeLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

 private:
  cloud::CloudPtr inner_;
  // Shared: a delayed request on the timer wheel may outlive its client.
  std::shared_ptr<ProbeLog> log_;
};

}  // namespace unidrive::perfbench
