// bench_meta_scale — commit/catch-up cost of the sharded metadata plane
// (ShardedMetaStore: per-shard bases + delta logs, O(changed subtree)
// commits) as the folder grows, plus a concurrent-writer ladder with
// per-shard locks.
//
// Ladder: 10k -> 100k -> 1M files (UNIDRIVE_META_SCALE_FILES appends an
// extra point, e.g. 10000000). At each point we measure ONE-FILE commits
// at their amortized-worst moment — the fold the delta policy forces once
// the log outgrows λ. The fold touches one shard (shard count scales with
// the folder, so the shard stays O(changed subtree)). Reader catch-up
// after each commit re-fetches exactly the one advanced shard (version
// short-circuit serves the rest from cache). Each point reports the median
// of kFoldCommits such commits and catch-ups, taken round-robin across the
// points: one sample per point, taken one point after another, let a
// shared host's drift swing the ladder ratio across its gate.
//
// Writer ladder: 1 -> 1000 writers, each committing one token file to its
// own subtree through its own ShardedMetaStore + LockManager over shared
// clouds. Disjoint shards stage concurrently; only the root flip
// serializes.
//
// Emits BENCH_meta.json (CI artifact). Hard gates (exit 1):
//   * sharded commit latency grows sublinearly across the ladder
//     (O(changed subtree), not O(folder)): the 100x file-count span may
//     cost at most 10x in median commit latency;
//   * every ladder commit succeeded, and the writer ladder lost ZERO
//     updates (token oracle over the assembled image).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "lock/lock_manager.h"
#include "metadata/changelist.h"
#include "metadata/shard.h"
#include "metadata/sharded_store.h"

namespace unidrive::bench {
namespace {

using metadata::Change;
using metadata::DeltaPolicy;
using metadata::FileSnapshot;
using metadata::ShardConfig;
using metadata::ShardedMetaStore;
using metadata::ShardEntry;
using metadata::ShardManifest;
using metadata::SyncFolderImage;
using metadata::VersionStamp;

constexpr int kClouds = 3;
constexpr std::size_t kFilesPerDir = 1024;
constexpr int kFoldCommits = 5;  // samples per ladder point (median taken)

double now_sec() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// Peak resident set (MiB); -1 when unavailable.
double peak_rss_mib() {
  const std::int64_t kib = proc_status_kib("VmHWM");
  return kib < 0 ? -1 : static_cast<double>(kib) / 1024.0;
}

cloud::MultiCloud make_clouds() {
  cloud::MultiCloud clouds;
  for (int i = 0; i < kClouds; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

std::string file_path(std::size_t index) {
  return "/dir" + std::to_string(index / kFilesPerDir) + "/f" +
         std::to_string(index % kFilesPerDir);
}

FileSnapshot snapshot_of(const std::string& path) {
  FileSnapshot s;
  s.path = path;
  s.size = 4096;
  s.content_hash = "sha-" + path;
  s.origin_device = "bench";
  return s;
}

SyncFolderImage build_image(std::size_t files) {
  SyncFolderImage image;
  for (std::size_t i = 0; i < files; ++i) {
    image.upsert_file(snapshot_of(file_path(i)));
  }
  image.set_version({"bench", 1, 0.0});
  return image;
}

// Shard count scaling with the folder keeps each shard O(changed subtree):
// ~16k files per shard regardless of total size.
std::uint32_t shards_for(std::size_t files) {
  return std::max<std::uint32_t>(
      16, static_cast<std::uint32_t>(files / 16384));
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// One ladder point, live for the whole ladder so its commits can interleave
// with the other points'.
struct Point {
  std::size_t files = 0;
  std::uint32_t num_shards = 0;
  std::unique_ptr<ShardedMetaStore> store;   // the committing writer
  std::unique_ptr<ShardedMetaStore> reader;  // warm reader, cache primed
  SyncFolderImage next;                      // image the next commit extends
  std::vector<double> commit_s, catchup_s;
  double shard_commit_s = -1;   // median 1-file commit, shard fold forced
  double shard_catchup_s = -1;  // median warm reader: one shard re-fetched
  bool ok = false;
};

// Fold ALWAYS due: the amortized-worst commit, paid once the delta log
// outgrows λ.
constexpr DeltaPolicy kFoldNow{.merge_ratio = 0.0, .merge_floor = 0};

// Seeds the point with one bulk commit of every file (O(folder), paid once
// at setup) and primes a warm reader at v1.
bool seed_point(Point& p) {
  p.num_shards = shards_for(p.files);
  const auto clouds = make_clouds();
  ShardConfig cfg;
  cfg.num_shards = p.num_shards;
  p.store = std::make_unique<ShardedMetaStore>(clouds, "bench-pass", cfg);
  p.next = build_image(p.files);

  std::vector<Change> seed;
  seed.reserve(p.files);
  for (const auto& [path, snap] : p.next.files()) {
    seed.push_back(Change::upsert_file(snap));
  }
  ShardManifest fenced;
  fenced.num_shards = cfg.num_shards;
  std::vector<ShardEntry> dirty;
  for (const auto& slice : split_changes_by_shard(seed, cfg.num_shards)) {
    auto e = p.store->publish_shard(slice.shard, nullptr, slice.changes,
                                    p.next, {"bench", 1, 0.0}, kFoldNow);
    if (!e.is_ok()) return false;
    dirty.push_back(std::move(e).take());
  }
  if (!p.store->commit_manifest(dirty, fenced, {"bench", 1, 0.0}).is_ok()) {
    return false;
  }
  p.reader = std::make_unique<ShardedMetaStore>(clouds, "bench-pass", cfg);
  return p.reader->fetch_latest().is_ok();
}

// One measured 1-file commit at version `counter`, fold forced — but the
// fold touches ONE shard, whose size is bounded by the routing, not by the
// folder — then the warm reader's catch-up.
bool commit_once(Point& p, std::uint64_t counter) {
  const VersionStamp stamp{"bench", counter, 0.0};
  FileSnapshot s = snapshot_of(file_path(p.files / 2));
  s.content_hash = "sha-v" + std::to_string(counter);
  const metadata::ShardId shard =
      metadata::shard_of_path(s.path, p.num_shards);

  const double t0 = now_sec();
  p.next.upsert_file(s);
  p.next.set_version(stamp);
  std::vector<Change> one{Change::upsert_file(s)};
  auto fence = p.store->fetch_manifest();
  if (!fence.is_ok()) return false;
  auto entry = p.store->publish_shard(shard, fence.value().find(shard), one,
                                      p.next, stamp, kFoldNow);
  if (!entry.is_ok()) return false;
  if (!p.store->commit_manifest({entry.value()}, fence.value(), stamp)
           .is_ok()) {
    return false;
  }
  p.commit_s.push_back(now_sec() - t0);

  // Warm reader catch-up: every clean shard short-circuits from cache,
  // only the advanced shard is re-fetched and replayed.
  const double t1 = now_sec();
  auto caught = p.reader->fetch_latest();
  if (!caught.is_ok() || caught.value().image.files().size() != p.files) {
    return false;
  }
  p.catchup_s.push_back(now_sec() - t1);
  return true;
}

struct WriterResult {
  int writers = 0;
  double seconds = -1;
  double commits_per_sec = -1;
  bool zero_lost_updates = false;
};

WriterResult run_writers(int writers) {
  WriterResult r;
  r.writers = writers;

  auto clouds = make_clouds();
  ShardConfig cfg;
  cfg.num_shards = 64;
  const int threads =
      std::min<int>(writers, std::max(4u, std::thread::hardware_concurrency()));

  const double t0 = now_sec();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  std::atomic<int> next_writer{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ShardedMetaStore store(clouds, "bench-pass", cfg);
      lock::LockConfig lk;
      lk.retry.backoff_base = 0.0005;
      lk.retry.backoff_cap = 0.01;
      lk.retry.max_attempts = 256;
      lock::LockManager locks(clouds, "writer-thread" + std::to_string(t),
                              lk, RealClock::instance(),
                              Rng(0xbe9cull * (t + 1)));
      for (int w = next_writer.fetch_add(1); w < writers;
           w = next_writer.fetch_add(1)) {
        const std::string path = "/w" + std::to_string(w) + "/token";
        std::vector<Change> cs{Change::upsert_file(snapshot_of(path))};
        SyncFolderImage mine;
        metadata::apply_change(mine, cs.front());
        const metadata::ShardId shard =
            metadata::shard_of_path(path, cfg.num_shards);
        bool committed = false;
        for (int attempt = 0; attempt < 64 && !committed; ++attempt) {
          if (!locks.acquire(lock::Scope::of_shard(shard)).is_ok()) continue;
          ShardManifest fenced;
          auto m = store.fetch_manifest();
          if (m.is_ok()) {
            fenced = std::move(m).take();
          } else if (m.code() != ErrorCode::kNotFound) {
            locks.release_all();
            continue;
          } else {
            fenced.num_shards = cfg.num_shards;
          }
          const VersionStamp stamp{"w" + std::to_string(w),
                                   fenced.version.counter + 1, 0.0};
          auto entry = store.publish_shard(shard, fenced.find(shard), cs,
                                           mine, stamp, DeltaPolicy{});
          if (entry.is_ok() && locks.acquire(lock::Scope::root()).is_ok()) {
            committed =
                store.commit_manifest({entry.value()}, fenced, stamp).is_ok();
          }
          locks.release_all();
        }
        if (!committed) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  r.seconds = now_sec() - t0;
  r.commits_per_sec = r.seconds > 0 ? writers / r.seconds : -1;

  if (failures.load() != 0) return r;
  // Token oracle: every writer's file must be in the assembled image.
  ShardedMetaStore reader(clouds, "bench-pass", cfg);
  auto latest = reader.fetch_latest();
  if (!latest.is_ok()) return r;
  for (int w = 0; w < writers; ++w) {
    if (latest.value().image.find_file("/w" + std::to_string(w) +
                                       "/token") == nullptr) {
      return r;
    }
  }
  r.zero_lost_updates = true;
  return r;
}

int run() {
  std::vector<std::size_t> ladder{10'000, 100'000, 1'000'000};
  if (const char* extra = std::getenv("UNIDRIVE_META_SCALE_FILES")) {
    const auto v = static_cast<std::size_t>(std::strtoull(extra, nullptr, 0));
    if (v > ladder.back()) ladder.push_back(v);
  }

  std::printf("bench_meta_scale: sharded metadata plane, %d clouds, "
              "%zu files/dir, median of %d fold commits per point\n\n",
              kClouds, kFilesPerDir, kFoldCommits);
  std::printf("%10s %7s | %12s %12s\n", "files", "shards", "commit",
              "catchup");

  std::vector<Point> points(ladder.size());
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    points[i].files = ladder[i];
    points[i].ok = seed_point(points[i]);
  }
  // Round-robin over the points, so a host that slows down mid-ladder
  // slows every point alike instead of skewing the gate's ratio.
  for (int round = 0; round < kFoldCommits; ++round) {
    for (Point& p : points) {
      if (p.ok) p.ok = commit_once(p, 2 + static_cast<std::uint64_t>(round));
    }
  }
  for (Point& p : points) {
    if (p.ok) {
      p.shard_commit_s = median(p.commit_s);
      p.shard_catchup_s = median(p.catchup_s);
    }
    std::printf("%10zu %7u | %10.1f ms %10.1f ms\n", p.files, p.num_shards,
                p.shard_commit_s * 1e3, p.shard_catchup_s * 1e3);
  }

  std::printf("\nwriter ladder (sharded store, per-shard locks):\n");
  std::printf("%8s | %10s | %12s | %s\n", "writers", "seconds", "commits/s",
              "lost updates");
  std::vector<WriterResult> writer_results;
  for (const int writers : {1, 10, 100, 1000}) {
    WriterResult w = run_writers(writers);
    std::printf("%8d | %8.3f s | %12.1f | %s\n", w.writers, w.seconds,
                w.commits_per_sec, w.zero_lost_updates ? "none" : "LOST");
    writer_results.push_back(w);
  }

  const double rss = peak_rss_mib();
  std::printf("\npeak RSS: %.1f MiB\n", rss);

  // --- gates ----------------------------------------------------------------
  int failures = 0;
  for (const Point& p : points) {
    if (!p.ok) {
      std::fprintf(stderr, "GATE: ladder point %zu files failed to run\n",
                   p.files);
      ++failures;
    }
  }
  const Point& top = points.back();
  // O(changed subtree): 100x more files may cost at most 10x median commit
  // latency (it should be near-flat; the bound only absorbs timer noise on
  // tiny absolute numbers).
  const Point& base = points.front();
  if (top.ok && base.ok &&
      top.shard_commit_s > 10.0 * std::max(base.shard_commit_s, 1e-4)) {
    std::fprintf(stderr,
                 "GATE: sharded commit latency must scale with the changed "
                 "subtree, not the folder: %.1f ms at %zu files vs %.1f ms "
                 "at %zu files\n",
                 top.shard_commit_s * 1e3, top.files,
                 base.shard_commit_s * 1e3, base.files);
    ++failures;
  }
  for (const WriterResult& w : writer_results) {
    if (!w.zero_lost_updates) {
      std::fprintf(stderr,
                   "GATE: writer ladder at %d writers lost updates or "
                   "failed to commit\n",
                   w.writers);
      ++failures;
    }
  }

  FILE* json = std::fopen("BENCH_meta.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"fold_commits_per_point\": %d,\n",
                 kFoldCommits);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(
          json,
          "    {\"files\": %zu, \"num_shards\": %u, "
          "\"shard_commit_s\": %.6f, \"shard_catchup_s\": %.6f}%s\n",
          p.files, p.num_shards, p.shard_commit_s, p.shard_catchup_s,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"writer_ladder\": [\n");
    for (std::size_t i = 0; i < writer_results.size(); ++i) {
      const WriterResult& w = writer_results[i];
      std::fprintf(json,
                   "    {\"writers\": %d, \"seconds\": %.4f, "
                   "\"commits_per_sec\": %.1f, \"zero_lost_updates\": %s}%s\n",
                   w.writers, w.seconds, w.commits_per_sec,
                   w.zero_lost_updates ? "true" : "false",
                   i + 1 < writer_results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"peak_rss_mib\": %.1f,\n"
                 "  \"gate_failures\": %d\n}\n",
                 rss, failures);
    std::fclose(json);
  }

  if (failures != 0) {
    std::fprintf(stderr, "bench_meta_scale: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}

}  // namespace
}  // namespace unidrive::bench

int main() { return unidrive::bench::run(); }
