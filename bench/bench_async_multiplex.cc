// bench_async_multiplex — the async completion layer's core claim: a fixed
// small thread pool multiplexes many more in-flight RPCs than it has
// threads, because requests park on the timer wheel / completion chain
// instead of pinning an executor thread for the round trip.
//
// Setup: 8 simulated high-latency clouds (LatentCloud, 40 ms per request,
// unlimited bandwidth — latency-bound on purpose), 16 files x 64 KiB at
// theta = 64 KiB, connections_per_cloud = 4. For each pool width in the
// UNIDRIVE_PIPELINE_THREADS sweep {1, 2, 4} one sync round runs; per round
// we record wall-clock time and the driver's peak in-flight RPC gauge.
//
// Emits BENCH_async.json (CI artifact). Hard gate on the 2-thread row:
// peak in-flight RPCs must be >= 4x the pool width (the multiplexing
// claim). Wall-clock times are reported, not gated.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"

namespace unidrive::bench {
namespace {

constexpr int kClouds = 8;
constexpr int kFiles = 16;
constexpr std::size_t kFileBytes = 64 << 10;
constexpr std::size_t kTheta = 64 << 10;
constexpr double kLatencySec = 0.040;
constexpr std::size_t kConnectionsPerCloud = 4;

struct RoundResult {
  double seconds = 0;
  std::size_t segments = 0;
  double rpcs_inflight_peak = 0;
};

RoundResult run_round(std::size_t threads) {
  // The sweep drives the real knob: the environment variable overrides
  // every configured pool width.
  setenv("UNIDRIVE_PIPELINE_THREADS", std::to_string(threads).c_str(), 1);

  cloud::MultiCloud clouds;
  for (int i = 0; i < kClouds; ++i) {
    cloud::LinkProfile link;
    link.request_latency_sec = kLatencySec;
    clouds.push_back(std::make_shared<cloud::LatentCloud>(
        std::make_shared<cloud::MemoryCloud>(static_cast<cloud::CloudId>(i),
                                             "cloud" + std::to_string(i)),
        link));
  }

  auto fs = std::make_shared<core::MemoryLocalFs>();
  core::ClientConfig cfg;
  cfg.device = "bench";
  cfg.theta = kTheta;
  cfg.driver.connections_per_cloud = kConnectionsPerCloud;
  core::UniDriveClient client(clouds, fs, cfg);

  Rng rng(7);
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
  unsetenv("UNIDRIVE_PIPELINE_THREADS");
  if (!report.is_ok() || !report.value().committed) {
    std::fprintf(stderr, "sync round failed: %s\n",
                 report.status().to_string().c_str());
    std::exit(2);
  }

  RoundResult out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.segments = report.value().segments_uploaded;
  out.rpcs_inflight_peak =
      report.value().metrics.gauge_value("driver.up.rpcs_inflight_peak");
  return out;
}

int run() {
  std::printf(
      "bench_async_multiplex: %d clouds @ %.0f ms latency, %d files x "
      "%zu KiB, %zu connections/cloud\n",
      kClouds, kLatencySec * 1e3, kFiles, kFileBytes >> 10,
      kConnectionsPerCloud);
  std::printf("  %-8s %10s %16s\n", "threads", "time (s)", "peak inflight");

  const std::vector<std::size_t> sweep = {1, 2, 4};
  std::vector<RoundResult> rounds(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    rounds[i] = run_round(sweep[i]);
    std::printf("  %-8zu %10.3f %16.0f\n", sweep[i], rounds[i].seconds,
                rounds[i].rpcs_inflight_peak);
  }

  FILE* json = std::fopen("BENCH_async.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"clouds\": %d,\n"
                 "  \"latency_ms\": %.0f,\n"
                 "  \"files\": %d,\n"
                 "  \"file_bytes\": %zu,\n"
                 "  \"connections_per_cloud\": %zu,\n"
                 "  \"sweep\": [\n",
                 kClouds, kLatencySec * 1e3, kFiles, kFileBytes,
                 kConnectionsPerCloud);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(json,
                   "    {\"threads\": %zu, \"seconds\": %.4f, "
                   "\"inflight_peak\": %.0f}%s\n",
                   sweep[i], rounds[i].seconds, rounds[i].rpcs_inflight_peak,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }

  // Hard gate on the 2-thread row (sweep index 1).
  const std::size_t threads = sweep[1];
  const RoundResult& r2 = rounds[1];
  if (r2.rpcs_inflight_peak < 4.0 * static_cast<double>(threads)) {
    std::fprintf(stderr,
                 "FAIL: peak in-flight RPCs %.0f < 4x pool width %zu — "
                 "the completion layer is not multiplexing\n",
                 r2.rpcs_inflight_peak, threads);
    return 1;
  }
  std::printf("  gate: peak inflight %.0f >= %zu (4x threads)\n",
              r2.rpcs_inflight_peak, 4 * threads);
  return 0;
}

}  // namespace
}  // namespace unidrive::bench

int main() { return unidrive::bench::run(); }
