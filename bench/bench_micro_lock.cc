// Microbenchmarks: quorum-lock acquisition cost in Web API round trips —
// the latency-free in-memory clouds expose the pure protocol cost.
#include <benchmark/benchmark.h>

#include <memory>

#include "cloud/memory_cloud.h"
#include "cloud/metered_cloud.h"
#include "common/clock.h"
#include "lock/quorum_lock.h"
#include "obs/obs.h"

namespace {

using namespace unidrive;

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "c" + std::to_string(i)));
  }
  return clouds;
}

void BM_LockAcquireRelease(benchmark::State& state) {
  auto clouds = make_clouds(static_cast<int>(state.range(0)));
  ManualClock clock;
  lock::LockConfig config;
  lock::QuorumLock lock(clouds, "bench", config, clock, Rng(1),
                        [&clock](Duration d) { clock.advance(d); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.acquire());
    lock.release();
  }
}
BENCHMARK(BM_LockAcquireRelease)->Arg(3)->Arg(5)->Arg(9);

void BM_LockApiRequestCount(benchmark::State& state) {
  // Counts the Web API calls of one uncontended acquire+release cycle: every
  // request lands in exactly one cloud.<name>.<verb>.<area>.ok|err counter.
  auto sink = std::make_shared<obs::Observability>();
  cloud::MultiCloud clouds;
  for (const auto& c : make_clouds(5)) {
    clouds.push_back(std::make_shared<cloud::MeteredCloud>(c, sink));
  }
  ManualClock clock;
  lock::QuorumLock lock(clouds, "bench", lock::LockConfig{}, clock, Rng(1),
                        [&clock](Duration d) { clock.advance(d); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.acquire());
    lock.release();
  }
  std::uint64_t requests = 0;
  for (const auto& [name, value] : sink->metrics.snapshot().counters) {
    if (name.starts_with("cloud.") &&
        (name.ends_with(".ok") || name.ends_with(".err"))) {
      requests += value;
    }
  }
  state.counters["api_calls_per_cycle"] = static_cast<double>(requests) /
                                          static_cast<double>(state.iterations());
}
BENCHMARK(BM_LockApiRequestCount);

void BM_LockRefresh(benchmark::State& state) {
  auto clouds = make_clouds(5);
  ManualClock clock;
  lock::QuorumLock lock(clouds, "bench", lock::LockConfig{}, clock, Rng(1),
                        [&clock](Duration d) { clock.advance(d); });
  benchmark::DoNotOptimize(lock.acquire());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.refresh());
  }
  lock.release();
}
BENCHMARK(BM_LockRefresh);

}  // namespace
