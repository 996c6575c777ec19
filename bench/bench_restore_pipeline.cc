// bench_restore_pipeline — streaming restore of a committed multi-cloud
// image on a latency-skewed 4-cloud setup (real-time LatentCloud
// throttling, not the discrete-event simulator: the point is wall-clock
// overlap of the fetch, decode and write stages, which only exists in real
// time).
//
// Workload: 48 files x 512 KiB, theta = 256 KiB, four clouds with skewed
// request latencies and downlinks. The data is uploaded once through raw
// in-memory clouds; a fresh reader then syncs it through latency-throttled
// views of the same clouds. The reader overlaps block fetches across
// segments and files, decodes in parallel and writes in snapshot order
// behind a bounded prefetch window.
//
// Emits BENCH_restore.json (CI artifact). Exit code 1 only if the restore
// round's peak in-flight bytes exceeded the configured cap or did not drain
// to 0 — the bounded-memory guarantee; the wall time is reported, not
// gated, so a loaded CI runner cannot turn a perf report into a flaky
// failure.
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

constexpr int kFiles = 48;
constexpr std::size_t kFileBytes = 512 << 10;
constexpr std::size_t kTheta = 256 << 10;
constexpr std::size_t kInflightCap = 16u << 20;

struct RoundResult {
  double seconds = 0;
  std::size_t files = 0;
  double inflight_peak = 0;
  double inflight_final = 0;
};

core::ClientConfig client_config(const std::string& device) {
  core::ClientConfig cfg;
  cfg.device = device;
  cfg.theta = kTheta;
  cfg.pipeline.max_inflight_bytes = kInflightCap;
  return cfg;
}

RoundResult run_round(const cloud::MultiCloud& raw) {
  // Skewed links: the fastest cloud answers 3x quicker and is 4x wider
  // than the slowest, so completions arrive thoroughly out of order.
  const double latency[] = {0.003, 0.004, 0.006, 0.009};
  const double down_bw[] = {800e6, 600e6, 400e6, 200e6};
  cloud::MultiCloud clouds;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    cloud::LinkProfile link;
    link.request_latency_sec = latency[i];
    link.up_bytes_per_sec = down_bw[i];
    link.down_bytes_per_sec = down_bw[i];
    clouds.push_back(std::make_shared<cloud::LatentCloud>(raw[i], link));
  }

  auto fs = std::make_shared<core::MemoryLocalFs>();
  core::UniDriveClient reader(clouds, fs, client_config("reader"));

  const auto start = std::chrono::steady_clock::now();
  const auto report = reader.sync();
  const auto stop = std::chrono::steady_clock::now();
  if (!report.is_ok() || !report.value().applied_cloud ||
      !report.value().materialize.is_ok()) {
    std::fprintf(stderr, "restore round failed: %s\n",
                 report.status().to_string().c_str());
    std::exit(2);
  }

  RoundResult out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.files = report.value().files_downloaded;
  out.inflight_peak =
      report.value().metrics.gauge_value("restore.inflight_bytes_peak");
  out.inflight_final =
      report.value().metrics.gauge_value("restore.inflight_bytes");
  return out;
}

int run() {
  std::printf("bench_restore_pipeline: %d files x %zu KiB, theta %zu KiB, "
              "4 skewed clouds\n",
              kFiles, kFileBytes >> 10, kTheta >> 10);

  // Publish the image once through raw (latency-free) clouds.
  cloud::MultiCloud raw;
  for (int i = 0; i < 4; ++i) {
    raw.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  {
    auto fs = std::make_shared<core::MemoryLocalFs>();
    core::UniDriveClient writer(raw, fs, client_config("writer"));
    Rng rng(42);
    for (int i = 0; i < kFiles; ++i) {
      const std::string path =
          "/data/file" + std::to_string(i / 10) + std::to_string(i % 10);
      if (!fs->write(path, ByteSpan(rng.bytes(kFileBytes))).is_ok()) {
        std::fprintf(stderr, "local write failed\n");
        return 2;
      }
    }
    const auto report = writer.sync();
    if (!report.is_ok() || !report.value().committed) {
      std::fprintf(stderr, "upload round failed: %s\n",
                   report.status().to_string().c_str());
      return 2;
    }
  }

  const RoundResult round = run_round(raw);
  std::printf("  restore    : %6.3f s  (%zu files, peak in-flight "
              "%.1f MiB, cap %.1f MiB)\n",
              round.seconds, round.files, round.inflight_peak / (1 << 20),
              static_cast<double>(kInflightCap) / (1 << 20));

  FILE* json = std::fopen("BENCH_restore.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"files\": %d,\n"
                 "  \"file_bytes\": %zu,\n"
                 "  \"restore_s\": %.4f,\n"
                 "  \"inflight_peak_bytes\": %.0f,\n"
                 "  \"inflight_final_bytes\": %.0f,\n"
                 "  \"inflight_cap_bytes\": %zu\n"
                 "}\n",
                 kFiles, kFileBytes, round.seconds, round.inflight_peak,
                 round.inflight_final, kInflightCap);
    std::fclose(json);
  }

  // Hard gate: bounded memory. The restore must never hold more than the
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
