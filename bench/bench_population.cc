// bench_population — the population harness at fleet scale. Three stages:
//
//   1. Idle fleet: construct a million-client harness and verify the
//      light-state claim — O(bytes) per idle client, folder state not
//      materialized until touched.
//   2. Smoke soak (hard-gated): ~10k clients through the full "soak"
//      scenario — diurnal arrivals, quota exhaustion, cloud churn, a flash
//      crowd and every chaos fault injector including silent bit-rot and
//      block loss, with scrub-and-repair anchors running. Gates: ZERO lost
//      updates, ZERO unrecoverable segments, zero unledgered redundancy
//      erosion, zero stale devices, and the fleet sync-latency p99 under
//      two poll intervals.
//   3. Scale ladder: the paper's 272-user trial population up through
//      >= 100k clients under the steady scenario, with a bounded
//      resident-memory gate (sessions per rung are held roughly constant,
//      so RSS must not scale with fleet size).
//
// Emits BENCH_population.json (CI artifact). Scale knobs for the nightly
// soak: UNIDRIVE_POP_SMOKE_CLIENTS, UNIDRIVE_POP_SMOKE_HORIZON,
// UNIDRIVE_POP_SCENARIO, UNIDRIVE_POP_SCALE_CLIENTS, UNIDRIVE_POP_SEED,
// UNIDRIVE_POP_P99_LIMIT, UNIDRIVE_POP_RSS_LIMIT_MB.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/population/population.h"
#include "sim/population/scenario.h"

namespace unidrive::bench {
namespace {

using sim::population::FleetConfig;
using sim::population::FleetResult;
using sim::population::PopulationHarness;
using sim::population::Scenario;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 0));
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

// Resident set size in bytes (0 if unreadable — the memory gate is
// skipped on platforms without procfs).
std::uint64_t resident_bytes() {
  const std::int64_t kib = proc_status_kib("VmRSS");
  return kib < 0 ? 0 : static_cast<std::uint64_t>(kib) * 1024;
}

struct LatencyTail {
  double p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t count = 0;
};

LatencyTail latency_tail(const FleetResult& r) {
  LatencyTail t;
  const auto it = r.metrics.histograms.find("fleet.sync_latency");
  if (it == r.metrics.histograms.end()) return t;
  t.p50 = it->second.p50;
  t.p95 = it->second.p95;
  t.p99 = it->second.p99;
  t.count = it->second.count;
  return t;
}

struct StageRow {
  std::string name;
  std::size_t clients = 0;
  FleetResult result;
  LatencyTail tail;
  std::uint64_t rss_after = 0;
};

int run() {
  const std::uint64_t seed = env_u64("UNIDRIVE_POP_SEED", 42);
  const std::size_t smoke_clients =
      static_cast<std::size_t>(env_u64("UNIDRIVE_POP_SMOKE_CLIENTS", 10000));
  const double smoke_horizon =
      env_double("UNIDRIVE_POP_SMOKE_HORIZON", 1800.0);
  const char* scenario_env = std::getenv("UNIDRIVE_POP_SCENARIO");
  const std::string scenario_name =
      scenario_env != nullptr && *scenario_env != '\0' ? scenario_env : "soak";
  const std::size_t scale_clients =
      static_cast<std::size_t>(env_u64("UNIDRIVE_POP_SCALE_CLIENTS", 100000));
  // Under the chaos soak the tail legitimately stacks a poll interval on a
  // breaker-open window on a degraded (churn-rebalancing) sync — observed
  // p99 is ~1000 s. The gate catches the next regime up (retry storms,
  // repair starvation push p99 past 1800 s).
  const double p99_limit = env_double("UNIDRIVE_POP_P99_LIMIT", 1500.0);
  const std::uint64_t rss_limit =
      env_u64("UNIDRIVE_POP_RSS_LIMIT_MB", 2048) * (1ull << 20);

  int failures = 0;

  // --- stage 1: idle fleet ------------------------------------------------
  const std::uint64_t rss_start = resident_bytes();
  std::size_t idle_bytes_per_client = 0;
  std::uint64_t idle_rss_delta = 0;
  std::size_t idle_folders = 0;
  {
    FleetConfig cfg;
    cfg.seed = seed;
    cfg.num_clients = 1'000'000;
    PopulationHarness idle(cfg);
    idle_bytes_per_client = idle.idle_state_bytes();
    idle_folders = idle.num_folders();
    idle_rss_delta = resident_bytes() > rss_start
                         ? resident_bytes() - rss_start
                         : 0;
    std::printf(
        "stage idle: %zu clients, %zu folders declared, %zu bytes/idle "
        "client, %.1f MB resident for the whole idle fleet\n",
        idle.num_clients(), idle_folders, idle_bytes_per_client,
        static_cast<double>(idle_rss_delta) / (1 << 20));
    if (idle_bytes_per_client > 64) {
      std::fprintf(stderr,
                   "FAIL: idle client state %zu bytes > 64 — the light-state "
                   "model regressed\n",
                   idle_bytes_per_client);
      ++failures;
    }
    if (rss_start > 0 && idle_rss_delta > 256ull * cfg.num_clients) {
      std::fprintf(stderr,
                   "FAIL: idle fleet resident delta %.1f MB exceeds 256 "
                   "bytes/client\n",
                   static_cast<double>(idle_rss_delta) / (1 << 20));
      ++failures;
    }
  }

  // --- stage 2: hard-gated smoke soak ------------------------------------
  std::vector<StageRow> rows;
  {
    auto scenario = sim::population::make_scenario(scenario_name);
    if (!scenario.is_ok()) {
      std::fprintf(stderr, "unknown scenario '%s'\n", scenario_name.c_str());
      return 2;
    }
    FleetConfig cfg;
    cfg.seed = seed;
    cfg.num_clients = smoke_clients;
    cfg.horizon = smoke_horizon;
    StageRow row;
    row.name = "smoke_" + scenario_name;
    row.clients = smoke_clients;
    row.result = sim::population::run_scenario(cfg, scenario.value());
    row.tail = latency_tail(row.result);
    row.rss_after = resident_bytes();
    std::printf(
        "stage smoke (%s): %zu clients, %zu sessions, %zu commits, "
        "%zu conflicts, %zu audits (%zu strict), %zu segments deduped "
        "(%.1f MB saved), latency p50/p95/p99 = %.1f/%.1f/%.1f s\n",
        scenario_name.c_str(), smoke_clients, row.result.sessions,
        row.result.commits, row.result.conflicts, row.result.audits,
        row.result.strict_audited, row.result.segments_deduped,
        static_cast<double>(row.result.dedup_bytes_saved) / (1 << 20),
        row.tail.p50, row.tail.p95, row.tail.p99);

    if (row.result.commits == 0) {
      std::fprintf(stderr, "FAIL: smoke soak committed nothing\n");
      ++failures;
    }
    if (row.result.lost_updates != 0) {
      std::fprintf(stderr, "FAIL: %zu lost updates (gate: zero)\n",
                   row.result.lost_updates);
      ++failures;
    }
    if (row.result.unrecoverable_segments != 0) {
      std::fprintf(stderr, "FAIL: %zu unrecoverable segments (gate: zero)\n",
                   row.result.unrecoverable_segments);
      ++failures;
    }
    if (row.result.underrep_unledgered != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu under-replicated segments with no defect "
                   "ledger entry (gate: zero)\n",
                   row.result.underrep_unledgered);
      ++failures;
    }
    if (row.result.stale_devices != 0) {
      std::fprintf(stderr, "FAIL: %zu devices still stale at drain\n",
                   row.result.stale_devices);
      ++failures;
    }
    if (row.tail.count > 0 && row.tail.p99 > p99_limit) {
      std::fprintf(stderr, "FAIL: sync latency p99 %.1f s > %.1f s\n",
                   row.tail.p99, p99_limit);
      ++failures;
    }
    rows.push_back(std::move(row));
  }

  // --- stage 3: scale ladder ----------------------------------------------
  // Arrival rate is scaled down as the fleet grows so total sessions stay
  // roughly constant: any RSS growth across rungs is fleet-size overhead,
  // not workload.
  std::vector<std::size_t> ladder = {272, 10000};
  if (scale_clients > ladder.back()) ladder.push_back(scale_clients);
  auto steady = sim::population::make_scenario("steady");
  if (!steady.is_ok()) return 2;
  constexpr double kLadderHorizon = 1200.0;
  constexpr double kLadderSessions = 600.0;
  for (const std::size_t clients : ladder) {
    FleetConfig cfg;
    cfg.seed = seed + clients;
    cfg.num_clients = clients;
    cfg.horizon = kLadderHorizon;
    cfg.sessions_per_client_per_day =
        kLadderSessions * 86400.0 /
        (static_cast<double>(clients) * kLadderHorizon);
    StageRow row;
    row.name = "scale_" + std::to_string(clients);
    row.clients = clients;
    row.result = sim::population::run_scenario(cfg, steady.value());
    row.tail = latency_tail(row.result);
    row.rss_after = resident_bytes();
    std::printf(
        "stage scale %zu: %zu sessions, %zu commits, %zu folders touched, "
        "rss %.1f MB\n",
        clients, row.result.sessions, row.result.commits,
        row.result.folders_touched,
        static_cast<double>(row.rss_after) / (1 << 20));
    if (row.result.sessions == 0 || row.result.commits == 0) {
      std::fprintf(stderr, "FAIL: scale rung %zu ran no work\n", clients);
      ++failures;
    }
    if (row.result.lost_updates != 0 ||
        row.result.unrecoverable_segments != 0) {
      std::fprintf(stderr,
                   "FAIL: scale rung %zu lost %zu updates, %zu segments "
                   "unrecoverable (gates: zero)\n",
                   clients, row.result.lost_updates,
                   row.result.unrecoverable_segments);
      ++failures;
    }
    if (row.rss_after > rss_limit) {
      std::fprintf(stderr,
                   "FAIL: resident memory %.1f MB over the %.0f MB cap at "
                   "%zu clients\n",
                   static_cast<double>(row.rss_after) / (1 << 20),
                   static_cast<double>(rss_limit) / (1 << 20), clients);
      ++failures;
    }
  }

  // --- artifact -----------------------------------------------------------
  FILE* json = std::fopen("BENCH_population.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"scenario\": \"%s\",\n"
                 "  \"idle\": {\"clients\": 1000000, \"folders\": %zu, "
                 "\"bytes_per_client\": %zu, \"rss_delta_bytes\": %" PRIu64
                 "},\n"
                 "  \"stages\": [\n",
                 seed, scenario_name.c_str(), idle_folders,
                 idle_bytes_per_client, idle_rss_delta);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const StageRow& row = rows[i];
      const FleetResult& r = row.result;
      std::fprintf(
          json,
          "    {\"stage\": \"%s\", \"clients\": %zu, \"folders\": %zu, "
          "\"folders_touched\": %zu, \"sessions\": %zu, \"syncs\": %zu, "
          "\"sync_errors\": %zu, \"commits\": %zu, \"conflicts\": %zu, "
          "\"deferred\": %zu, \"peak_live_sessions\": %zu, "
          "\"audits\": %zu, \"strict_audited\": %zu, "
          "\"lost_updates\": %zu, \"unrecoverable_segments\": %zu, "
          "\"underrep_unledgered\": %zu, \"restore_failures\": %zu, "
          "\"stale_devices\": %zu, \"cloud_stored_bytes\": %" PRIu64 ", "
          "\"segments_deduped\": %zu, \"dedup_bytes_saved\": %" PRIu64 ", "
          "\"latency_p50_s\": %.3f, \"latency_p95_s\": %.3f, "
          "\"latency_p99_s\": %.3f, \"latency_samples\": %" PRIu64 ", "
          "\"rss_bytes\": %" PRIu64 "}%s\n",
          row.name.c_str(), row.clients, r.folders, r.folders_touched,
          r.sessions, r.syncs, r.sync_errors, r.commits, r.conflicts,
          r.deferred, r.peak_live_sessions, r.audits, r.strict_audited,
          r.lost_updates, r.unrecoverable_segments, r.underrep_unledgered,
          r.restore_failures, r.stale_devices, r.cloud_stored_bytes,
          r.segments_deduped, r.dedup_bytes_saved,
          row.tail.p50, row.tail.p95, row.tail.p99, row.tail.count,
          row.rss_after, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"gates\": {\"p99_limit_s\": %.1f, \"rss_limit_mb\": "
                 "%.0f, \"failures\": %d}\n"
                 "}\n",
                 p99_limit, static_cast<double>(rss_limit) / (1 << 20),
                 failures);
    std::fclose(json);
  }

  if (failures == 0) {
    std::printf(
        "gates: zero lost updates, zero unrecoverable segments, zero "
        "unledgered erosion, p99 <= %.0f s, rss <= %.0f MB — all held\n",
        p99_limit, static_cast<double>(rss_limit) / (1 << 20));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace unidrive::bench

int main() { return unidrive::bench::run(); }
