// bench_sync_pipeline — one staged sync round on a latency-skewed 4-cloud
// setup (real-time LatentCloud throttling, not the discrete-event
// simulator: the point is wall-clock overlap of the scan, encode and
// transfer stages, which only exists in real time).
//
// Workload: 64 files x 512 KiB, theta = 256 KiB, four clouds with
// 3/4/6/9 ms request latency and 800/600/400/200 MB/s uplinks. The round
// streams segments into encode/transfer while later files are still being
// hashed, behind a 16 MiB in-flight cap.
//
// Emits BENCH_pipeline.json (CI artifact). Exit code 1 only if the round's
// peak in-flight bytes exceeded the configured cap or did not drain to 0 —
// the bounded-memory guarantee; the wall time is reported, not gated, so a
// loaded CI runner cannot turn a perf report into a flaky failure.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"

namespace unidrive::bench {
namespace {

constexpr int kFiles = 64;
constexpr std::size_t kFileBytes = 512 << 10;
constexpr std::size_t kTheta = 256 << 10;
constexpr std::size_t kInflightCap = 16u << 20;

struct RoundResult {
  double seconds = 0;
  std::size_t segments = 0;
  double inflight_peak = 0;
  double inflight_final = 0;
};

RoundResult run_round() {
  // Skewed links: the fastest cloud is 3x quicker per request and 4x wider
  // than the slowest, so the availability-first scheduler has real choices.
  const double latency[] = {0.003, 0.004, 0.006, 0.009};
  const double up_bw[] = {800e6, 600e6, 400e6, 200e6};
  cloud::MultiCloud clouds;
  for (int i = 0; i < 4; ++i) {
    cloud::LinkProfile link;
    link.request_latency_sec = latency[i];
    link.up_bytes_per_sec = up_bw[i];
    link.down_bytes_per_sec = up_bw[i];
    clouds.push_back(std::make_shared<cloud::LatentCloud>(
        std::make_shared<cloud::MemoryCloud>(static_cast<cloud::CloudId>(i),
                                             "cloud" + std::to_string(i)),
        link));
  }

  auto fs = std::make_shared<core::MemoryLocalFs>();
  core::ClientConfig cfg;
  cfg.device = "bench";
  cfg.theta = kTheta;
  cfg.pipeline.max_inflight_bytes = kInflightCap;
  core::UniDriveClient client(clouds, fs, cfg);

  Rng rng(42);
  for (int i = 0; i < kFiles; ++i) {
    const std::string path =
        "/data/file" + std::to_string(i / 10) + std::to_string(i % 10);
    if (!fs->write(path, ByteSpan(rng.bytes(kFileBytes))).is_ok()) {
      std::fprintf(stderr, "local write failed\n");
      std::exit(2);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const auto report = client.sync();
  const auto stop = std::chrono::steady_clock::now();
  if (!report.is_ok() || !report.value().committed) {
    std::fprintf(stderr, "sync round failed: %s\n",
                 report.status().to_string().c_str());
    std::exit(2);
  }

  RoundResult out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.segments = report.value().segments_uploaded;
  out.inflight_peak =
      report.value().metrics.gauge_value("pipeline.inflight_bytes_peak");
  out.inflight_final =
      report.value().metrics.gauge_value("pipeline.inflight_bytes");
  return out;
}

int run() {
  std::printf("bench_sync_pipeline: %d files x %zu KiB, theta %zu KiB, "
              "4 skewed clouds\n",
              kFiles, kFileBytes >> 10, kTheta >> 10);

  const RoundResult round = run_round();
  std::printf("  sync round : %6.3f s  (%zu segments, peak in-flight "
              "%.1f MiB, cap %.1f MiB)\n",
              round.seconds, round.segments, round.inflight_peak / (1 << 20),
              static_cast<double>(kInflightCap) / (1 << 20));

  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"files\": %d,\n"
                 "  \"file_bytes\": %zu,\n"
                 "  \"segments\": %zu,\n"
                 "  \"sync_s\": %.4f,\n"
                 "  \"inflight_peak_bytes\": %.0f,\n"
                 "  \"inflight_final_bytes\": %.0f,\n"
                 "  \"inflight_cap_bytes\": %zu\n"
                 "}\n",
                 kFiles, kFileBytes, round.segments, round.seconds,
                 round.inflight_peak, round.inflight_final, kInflightCap);
    std::fclose(json);
  }

  // Hard gate: bounded memory. The round must never hold more than the
  // configured cap, and everything must drain by the end.
  if (round.inflight_peak > static_cast<double>(kInflightCap) ||
      round.inflight_final != 0) {
    std::fprintf(stderr,
                 "FAIL: in-flight bytes out of bounds (peak %.0f, cap %zu, "
                 "final %.0f)\n",
                 round.inflight_peak, kInflightCap, round.inflight_final);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace unidrive::bench

int main() { return unidrive::bench::run(); }
