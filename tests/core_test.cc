#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <stdexcept>
#include <thread>

#include "chunker/segmenter.h"
#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "core/change_scanner.h"
#include "core/client.h"
#include "core/sync_daemon.h"
#include "core/local_fs.h"
#include "crypto/convergent.h"
#include "crypto/sha1.h"

namespace unidrive::core {
namespace {

Bytes text(const std::string& s) { return bytes_from_string(s); }

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

ClientConfig test_config(const std::string& device) {
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;  // small segments so tests stay fast
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.driver.connections_per_cloud = 2;
  return cfg;
}

std::uint64_t counter(const UniDriveClient& client, const std::string& name) {
  return client.observability()->metrics.snapshot().counter_value(name);
}

// Sum of the client's counters named <prefix>...<suffix>.
std::uint64_t counter_sum(const UniDriveClient& client,
                          const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t n = 0;
  for (const auto& [name, value] :
       client.observability()->metrics.snapshot().counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) n += value;
  }
  return n;
}

// --- LocalFs ------------------------------------------------------------------

TEST(MemoryLocalFsTest, ReadWriteRemove) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a.txt", ByteSpan(text("hi"))).is_ok());
  EXPECT_EQ(fs.read("/a.txt").value(), text("hi"));
  EXPECT_EQ(fs.read_range("/a.txt", 1, 1).value(), text("i"));
  EXPECT_EQ(fs.read_range("/a.txt", 2, 0).value(), Bytes{});
  EXPECT_EQ(fs.read_range("/a.txt", 1, 2).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.size("/a.txt").value(), 2u);
  EXPECT_TRUE(fs.remove("/a.txt").is_ok());
  EXPECT_EQ(fs.read("/a.txt").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.read_range("/a.txt", 0, 1).code(), ErrorCode::kNotFound);
}

TEST(MemoryLocalFsTest, MtimeAdvancesOnWrite) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("1"))).is_ok());
  const double t1 = fs.mtime("/a").value();
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("2"))).is_ok());
  EXPECT_GT(fs.mtime("/a").value(), t1);
}

TEST(MemoryLocalFsTest, ListSorted) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/b", ByteSpan(text("1"))).is_ok());
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("2"))).is_ok());
  ASSERT_TRUE(fs.write("/dir/c", ByteSpan(text("3"))).is_ok());
  EXPECT_EQ(fs.list_files(),
            (std::vector<std::string>{"/a", "/b", "/dir/c"}));
}

// Readers copy outside the folder's lock. Racing write, a writer's publish
// and remove of one path, every read that succeeds sees one whole version,
// and every range read a slice of one.
TEST(MemoryLocalFsTest, ReadersSeeWholeVersionsWhileWritersReplace) {
  MemoryLocalFs fs;
  // Version v holds (64 KiB + v * 4 KiB) bytes of the value v + 1, so a torn
  // copy mixes lengths or values.
  std::vector<Bytes> versions;
  for (std::size_t v = 0; v < 4; ++v) {
    versions.emplace_back((64 << 10) + v * (4 << 10),
                          static_cast<std::uint8_t>(v + 1));
  }
  const auto whole = [&](const Bytes& data) {
    return std::find(versions.begin(), versions.end(), data) !=
           versions.end();
  };
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        if (const auto data = fs.read("/f"); data.is_ok()) {
          ++reads;
          if (!whole(data.value())) ++torn;
        }
        if (const auto part = fs.read_range("/f", 1000, 60 << 10);
            part.is_ok()) {
          ++reads;
          const Bytes& bytes = part.value();
          if (bytes != Bytes(bytes.size(), bytes.front()) ||
              bytes.front() == 0 || bytes.front() > versions.size()) {
            ++torn;
          }
        }
      }
    });
  }
  for (std::size_t round = 0;
       round < 200 || (reads.load() < 100 && round < 100000); ++round) {
    EXPECT_TRUE(fs.write("/f", ByteSpan(versions[round % 4])).is_ok());
    auto writer = fs.open_write("/f").value();
    EXPECT_TRUE(writer->append(versions[(round + 1) % 4]).is_ok());
    EXPECT_TRUE(writer->commit().is_ok());
    EXPECT_TRUE(fs.remove("/f").is_ok());
  }
  done = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_GE(reads.load(), 100u);
  EXPECT_EQ(torn.load(), 0u);
}

TEST(DiskLocalFsTest, RoundTripOnRealDirectory) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "unidrive_fs_test").string();
  std::filesystem::remove_all(root);
  DiskLocalFs fs(root);
  ASSERT_TRUE(fs.write("/docs/a.txt", ByteSpan(text("hello"))).is_ok());
  EXPECT_EQ(fs.read("/docs/a.txt").value(), text("hello"));
  EXPECT_EQ(fs.read_range("/docs/a.txt", 1, 3).value(), text("ell"));
  EXPECT_EQ(fs.read_range("/docs/a.txt", 4, 2).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs.list_files(), std::vector<std::string>{"/docs/a.txt"});
  EXPECT_EQ(fs.size("/docs/a.txt").value(), 5u);
  EXPECT_TRUE(fs.remove("/docs/a.txt").is_ok());
  EXPECT_EQ(fs.read_range("/docs/a.txt", 0, 1).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(fs.list_files().empty());
  std::filesystem::remove_all(root);
}

// A multi-MiB file reads back byte-exact in one sized read, and an empty
// file reads back empty.
TEST(DiskLocalFsTest, ReadsMultiMiBFileExactly) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "unidrive_fs_read_test")
          .string();
  std::filesystem::remove_all(root);
  DiskLocalFs fs(root);
  Rng rng(7);
  const Bytes content = rng.bytes((5 << 20) + 7);
  ASSERT_TRUE(fs.write("/big.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs.write("/empty.bin", ByteSpan(Bytes{})).is_ok());
  const auto big = fs.read("/big.bin");
  ASSERT_TRUE(big.is_ok()) << big.status().to_string();
  EXPECT_EQ(big.value(), content);
  const auto empty = fs.read("/empty.bin");
  ASSERT_TRUE(empty.is_ok()) << empty.status().to_string();
  EXPECT_TRUE(empty.value().empty());
  EXPECT_EQ(fs.read("/missing.bin").code(), ErrorCode::kNotFound);
  std::filesystem::remove_all(root);
}

// --- change scanner -------------------------------------------------------------

// New segments in the order the scanner hands them to its sink (a segment
// handed over twice would appear twice).
using SunkSegments = std::vector<std::pair<std::string, Bytes>>;

// Scans at `theta` (64 KiB by default) on `executor` (the shared pool by
// default), collecting new segments into `sunk` when given.
ScanResult scan(const LocalFs& fs, const metadata::SyncFolderImage& image,
                ScanCache* cache = nullptr, SunkSegments* sunk = nullptr,
                std::size_t theta = 64 << 10,
                Executor& executor = *Executor::shared()) {
  return scan_local_changes(
      fs, image, chunker::SegmenterParams{theta}, "dev", cache, executor,
      [sunk](const std::string& id, Bytes bytes) {
        if (sunk != nullptr) sunk->emplace_back(id, std::move(bytes));
      });
}

// Commits `result`'s changes and sunk segments into `image`, as a sync
// round would.
void commit_scan(const ScanResult& result, const SunkSegments& sunk,
                 metadata::SyncFolderImage& image) {
  for (const metadata::Change& c : result.changes.changes()) {
    apply_change(image, c);
  }
  for (const auto& [id, data] : sunk) {
    metadata::SegmentInfo seg;
    seg.id = id;
    seg.size = data.size();
    seg.refcount = 1;
    image.upsert_segment(seg);
  }
}

TEST(ChangeScannerTest, DetectsAdditions) {
  MemoryLocalFs fs;
  Rng rng(1);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs.write("/new.bin", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments sunk;
  const ScanResult result = scan(fs, image, nullptr, &sunk);
  ASSERT_EQ(result.touched.size(), 1u);
  EXPECT_EQ(result.touched[0].path, "/new.bin");
  EXPECT_FALSE(sunk.empty());
  // Segment bytes must reassemble the file.
  std::size_t total = 0;
  for (const auto& [id, data] : sunk) total += data.size();
  EXPECT_EQ(total, content.size());
}

TEST(ChangeScannerTest, UnchangedFileNotReported) {
  MemoryLocalFs fs;
  Rng rng(2);
  const Bytes content = rng.bytes(50000);
  ASSERT_TRUE(fs.write("/f", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments sunk;
  commit_scan(scan(fs, image, nullptr, &sunk), sunk, image);
  const ScanResult second = scan(fs, image);
  EXPECT_TRUE(second.changes.empty());
}

TEST(ChangeScannerTest, DetectsDeletions) {
  MemoryLocalFs fs;
  metadata::SyncFolderImage image;
  metadata::FileSnapshot snap;
  snap.path = "/gone";
  snap.size = 3;
  snap.content_hash = "x";
  image.upsert_file(snap);
  const ScanResult result = scan(fs, image);
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_EQ(result.changes.changes()[0].kind,
            metadata::ChangeKind::kDeleteFile);
}

TEST(ChangeScannerTest, DedupAcrossIdenticalFiles) {
  MemoryLocalFs fs;
  Rng rng(3);
  const Bytes content = rng.bytes(30000);
  ASSERT_TRUE(fs.write("/a", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs.write("/b", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments sunk;
  const ScanResult result = scan(fs, image, nullptr, &sunk);
  EXPECT_EQ(result.touched.size(), 2u);
  // Identical content -> shared segments -> handed to the sink once.
  EXPECT_EQ(sunk.size(), 1u);
}

// Ids hashed one file ahead on the pool must match segment_file's, and the
// sink must see the same calls in the same order, whatever the pool width.
TEST(ChangeScannerTest, HashingAheadMatchesSegmentFile) {
  constexpr std::size_t kTheta = 64 << 10;
  MemoryLocalFs fs;
  Rng rng(6);
  const Bytes same = rng.bytes(200000);
  ASSERT_TRUE(fs.write("/f_same", ByteSpan(same)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments committed;
  commit_scan(scan(fs, image, nullptr, &committed), committed, image);

  const Bytes shared = rng.bytes(50 << 10);
  ASSERT_TRUE(fs.write("/a_empty", ByteSpan(Bytes{})).is_ok());
  ASSERT_TRUE(fs.write("/b_small", ByteSpan(rng.bytes(20 << 10))).is_ok());
  ASSERT_TRUE(fs.write("/c_multi", ByteSpan(rng.bytes(700 << 10))).is_ok());
  ASSERT_TRUE(fs.write("/d_dup", ByteSpan(shared)).is_ok());
  ASSERT_TRUE(fs.write("/e_dup", ByteSpan(shared)).is_ok());
  ASSERT_TRUE(fs.write("/f_same", ByteSpan(same)).is_ok());  // new mtime

  // The sink calls a serial segment_file scan makes, in order.
  SunkSegments expected;
  std::set<std::string> emitted;
  for (const std::string& path : fs.list_files()) {
    if (path == "/f_same") continue;
    const Bytes data = fs.read(path).value();
    for (const chunker::Segment& seg :
         chunker::segment_file(ByteSpan(data), chunker::SegmenterParams{kTheta})) {
      if (emitted.insert(seg.id).second) {
        expected.emplace_back(seg.id,
                              chunker::segment_bytes(ByteSpan(data), seg));
      }
    }
  }

  std::vector<ScanResult> results;
  std::vector<SunkSegments> sinks;
  for (const std::size_t threads : {8, 1}) {
    Executor executor(threads);
    sinks.emplace_back();
    results.push_back(
        scan(fs, image, nullptr, &sinks.back(), kTheta, executor));
  }
  for (std::size_t run = 0; run < results.size(); ++run) {
    const ScanResult& result = results[run];
    EXPECT_EQ(result.files_scanned, 6u);
    EXPECT_EQ(result.files_hashed, 6u);
    EXPECT_EQ(sinks[run], expected) << "run " << run;
    ASSERT_EQ(result.touched.size(), 5u);  // all but the unchanged file
    for (const metadata::FileSnapshot& snap : result.touched) {
      EXPECT_NE(snap.path, "/f_same");
      const Bytes data = fs.read(snap.path).value();
      std::vector<std::string> ids;
      for (const chunker::Segment& seg : chunker::segment_file(
               ByteSpan(data), chunker::SegmenterParams{kTheta})) {
        ids.push_back(seg.id);
      }
      EXPECT_EQ(snap.segment_ids, ids) << snap.path;
      EXPECT_EQ(snap.content_hash, crypto::file_content_hash(ids));
      EXPECT_EQ(snap.size, data.size());
    }
  }
  EXPECT_EQ(results[0].touched, results[1].touched);
  EXPECT_EQ(results[0].changes.aggregated().size(),
            results[1].changes.aggregated().size());
  EXPECT_TRUE(results[0].touched[0].segment_ids.empty());  // the empty file
  EXPECT_GT(results[0].touched[2].segment_ids.size(), 3u);  // multi-segment
}

// The sink calls a serial segment_file scan of `fs` makes against an empty
// pool, in path order, leaving out `skip`.
SunkSegments serial_sink_calls(const LocalFs& fs, std::size_t theta,
                               const std::string& skip = "") {
  SunkSegments calls;
  std::set<std::string> emitted;
  for (const std::string& path : fs.list_files()) {
    if (path == skip) continue;
    const Bytes data = fs.read(path).value();
    for (const chunker::Segment& seg : chunker::segment_file(
             ByteSpan(data), chunker::SegmenterParams{theta})) {
      if (emitted.insert(seg.id).second) {
        calls.emplace_back(seg.id, chunker::segment_bytes(ByteSpan(data), seg));
      }
    }
  }
  return calls;
}

// A MemoryLocalFs whose reads count how many are in flight, and for each
// path the most that were in flight while it was read. The first `wave`
// reads wait (up to 10 s) until `wave` are in flight at once; every read
// then stays open 2 ms, so a read the window should not admit overlaps.
// A read of `throw_on` throws.
class GatedReadFs final : public LocalFs {
 public:
  explicit GatedReadFs(std::size_t wave) : wave_(wave) {}

  MemoryLocalFs inner;
  std::string throw_on;

  [[nodiscard]] std::size_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }
  [[nodiscard]] std::size_t overlap(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    return overlap_.at(path);
  }

  Result<Bytes> read(const std::string& path) const override {
    if (path == throw_on) throw std::runtime_error("read of " + path);
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++in_flight_;
      peak_ = std::max(peak_, in_flight_);
      open_.insert(path);
      for (const std::string& p : open_) {
        overlap_[p] = std::max(overlap_[p], in_flight_);
      }
      cv_.notify_all();
      if (++started_ <= wave_) {
        cv_.wait_for(lock, std::chrono::seconds(10),
                     [&] { return in_flight_ >= wave_; });
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto data = inner.read(path);
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    open_.erase(path);
    return data;
  }
  Status write(const std::string& path, ByteSpan data) override {
    return inner.write(path, data);
  }
  Status remove(const std::string& path) override {
    return inner.remove(path);
  }
  Status make_dir(const std::string& path) override {
    return inner.make_dir(path);
  }
  Status remove_dir(const std::string& path) override {
    return inner.remove_dir(path);
  }
  [[nodiscard]] std::vector<std::string> list_files() const override {
    return inner.list_files();
  }
  [[nodiscard]] std::vector<std::string> list_dirs() const override {
    return inner.list_dirs();
  }
  [[nodiscard]] Result<std::uint64_t> size(
      const std::string& path) const override {
    return inner.size(path);
  }
  [[nodiscard]] Result<double> mtime(const std::string& path) const override {
    return inner.mtime(path);
  }

 private:
  const std::size_t wave_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::size_t in_flight_ = 0;
  mutable std::size_t peak_ = 0;
  mutable std::size_t started_ = 0;
  mutable std::set<std::string> open_;
  mutable std::map<std::string, std::size_t> overlap_;
};

// The scan reads a window of files at once: as many as the pool and the
// cores allow, never more, and a file larger than the byte bound alone.
// The sink still sees path order.
TEST(ChangeScannerTest, WindowBoundsFilesInFlight) {
  constexpr std::size_t kTheta = 64 << 10;
  constexpr std::size_t kMaxWindowBytes = 128 << 10;
  Executor executor(8);
  const std::size_t window = std::max<std::size_t>(
      2, std::min<std::size_t>(executor.size(),
                               std::thread::hardware_concurrency()));
  GatedReadFs fs(window);
  Rng rng(8);
  // Every window of 16 KiB files fits the byte bound; the big file does not.
  for (int i = 0; i < 12; ++i) {
    const std::string path = "/a" + std::to_string(100 + i);
    ASSERT_TRUE(fs.write(path, ByteSpan(rng.bytes(16 << 10))).is_ok());
  }
  ASSERT_TRUE(fs.write("/m_big", ByteSpan(rng.bytes(160 << 10))).is_ok());
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/z" + std::to_string(i);
    ASSERT_TRUE(fs.write(path, ByteSpan(rng.bytes(16 << 10))).is_ok());
  }
  const SunkSegments expected = serial_sink_calls(fs.inner, kTheta);

  SunkSegments sunk;
  const ScanResult result = scan_local_changes(
      fs, metadata::SyncFolderImage{}, chunker::SegmenterParams{kTheta}, "dev",
      nullptr, executor,
      [&sunk](const std::string& id, Bytes bytes) {
        sunk.emplace_back(id, std::move(bytes));
      },
      kMaxWindowBytes);

  EXPECT_EQ(fs.peak(), window);
  EXPECT_EQ(fs.overlap("/m_big"), 1u) << "the big file shared the window";
  EXPECT_EQ(sunk, expected);
  EXPECT_EQ(result.files_scanned, 17u);
  EXPECT_EQ(result.files_hashed, 17u);
  EXPECT_EQ(result.touched.size(), 17u);
}

// A read that throws on a pool thread fails the scan when its file is
// finalized, as a read on the scanning thread would, instead of stalling
// it.
TEST(ChangeScannerTest, ReadThatThrowsFailsTheScan) {
  Executor executor(4);
  GatedReadFs fs(0);
  fs.throw_on = "/c";
  Rng rng(9);
  for (const char* path : {"/a", "/b", "/c", "/d", "/e", "/f"}) {
    ASSERT_TRUE(fs.write(path, ByteSpan(rng.bytes(16 << 10))).is_ok());
  }
  EXPECT_THROW(scan(fs, metadata::SyncFolderImage{}, nullptr, nullptr,
                    64 << 10, executor),
               std::runtime_error);
}

// Every worker of the pool is busy: the producer runs each file's task and
// hashes its ids itself, so the scan completes with the sink calls a
// serial scan makes.
TEST(ChangeScannerTest, BusyPoolDoesNotStallScan) {
  constexpr std::size_t kTheta = 64 << 10;
  MemoryLocalFs fs;
  Rng rng(6);
  const Bytes same = rng.bytes(200000);
  ASSERT_TRUE(fs.write("/f_same", ByteSpan(same)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments committed;
  commit_scan(scan(fs, image, nullptr, &committed), committed, image);

  const Bytes shared = rng.bytes(50 << 10);
  ASSERT_TRUE(fs.write("/a_empty", ByteSpan(Bytes{})).is_ok());
  ASSERT_TRUE(fs.write("/b_small", ByteSpan(rng.bytes(20 << 10))).is_ok());
  ASSERT_TRUE(fs.write("/c_multi", ByteSpan(rng.bytes(700 << 10))).is_ok());
  ASSERT_TRUE(fs.write("/d_dup", ByteSpan(shared)).is_ok());
  ASSERT_TRUE(fs.write("/e_dup", ByteSpan(shared)).is_ok());
  ASSERT_TRUE(fs.write("/f_same", ByteSpan(same)).is_ok());  // new mtime
  const SunkSegments expected = serial_sink_calls(fs, kTheta, "/f_same");

  std::latch busy(2);
  std::latch release(1);
  Executor executor(2);
  for (int i = 0; i < 2; ++i) {
    executor.submit([&] {
      busy.count_down();
      release.wait();
    });
  }
  busy.wait();
  SunkSegments sunk;
  const ScanResult result = scan(fs, image, nullptr, &sunk, kTheta, executor);
  release.count_down();

  EXPECT_EQ(sunk, expected);
  EXPECT_EQ(result.files_scanned, 6u);
  EXPECT_EQ(result.files_hashed, 6u);
  ASSERT_EQ(result.touched.size(), 5u);
  EXPECT_GT(result.touched[2].segment_ids.size(), 3u);  // multi-segment
}

TEST(ChangeScannerTest, UnchangedFileIsRecognisedBySegmentIds) {
  MemoryLocalFs fs;
  Rng rng(4);
  const Bytes content = rng.bytes(300000);
  ASSERT_TRUE(fs.write("/f", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments sunk;
  commit_scan(scan(fs, image, nullptr, &sunk), sunk, image);
  const metadata::FileSnapshot* known = image.find_file("/f");
  ASSERT_NE(known, nullptr);
  ASSERT_GT(known->segment_ids.size(), 1u);
  EXPECT_EQ(known->content_hash, crypto::file_content_hash(known->segment_ids));

  // Cold cache, and a theta at which CDC would cut other segments: only a
  // check of the committed segments against the bytes finds no change.
  ScanCache cache;
  SunkSegments again;
  const ScanResult rescan = scan(fs, image, &cache, &again, 16 << 10);
  EXPECT_TRUE(rescan.changes.empty());
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(rescan.files_hashed, 1u);
  const std::string* cached =
      cache.lookup("/f", content.size(), fs.mtime("/f").value());
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(*cached, known->content_hash);
}

TEST(ChangeScannerTest, LegacySnapshotIsNotRecommitted) {
  // A folder committed before segment-list hashes: a whole-file SHA-1
  // content hash and SHA-1 segment ids at fixed 64 KiB offsets.
  const std::size_t theta = 64 << 10;
  MemoryLocalFs fs;
  Rng rng(5);
  const Bytes content = rng.bytes(3 * theta + 1000);
  ASSERT_TRUE(fs.write("/legacy", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  metadata::FileSnapshot snap;
  snap.path = "/legacy";
  snap.size = content.size();
  snap.content_hash = crypto::Sha1::hex(ByteSpan(content));
  for (std::size_t off = 0; off < content.size(); off += theta) {
    const std::size_t len = std::min(theta, content.size() - off);
    metadata::SegmentInfo seg;
    seg.id = crypto::Sha1::hex(ByteSpan(content).subspan(off, len));
    seg.size = len;
    seg.refcount = 1;
    image.upsert_segment(seg);
    snap.segment_ids.push_back(seg.id);
  }
  image.upsert_file(snap);

  ScanCache cache;  // cold
  SunkSegments sunk;
  const ScanResult first = scan(fs, image, &cache, &sunk);
  EXPECT_TRUE(first.changes.empty());
  EXPECT_TRUE(first.touched.empty());
  EXPECT_TRUE(sunk.empty());
  EXPECT_EQ(first.files_hashed, 1u);

  // The cache keeps the legacy hash, so the next scan reads nothing.
  const ScanResult second = scan(fs, image, &cache, &sunk);
  EXPECT_TRUE(second.changes.empty());
  EXPECT_EQ(second.files_hashed, 0u);
  EXPECT_TRUE(sunk.empty());
}

TEST(ChangeScannerTest, SameSizeEditIsDetected) {
  MemoryLocalFs fs;
  Rng rng(6);
  Bytes content = rng.bytes(300000);
  ASSERT_TRUE(fs.write("/f", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  SunkSegments sunk;
  commit_scan(scan(fs, image, nullptr, &sunk), sunk, image);
  const std::string old_hash = image.find_file("/f")->content_hash;

  content[150000] ^= 0x01;
  ASSERT_TRUE(fs.write("/f", ByteSpan(content)).is_ok());
  SunkSegments edited;
  const ScanResult result = scan(fs, image, nullptr, &edited);
  ASSERT_EQ(result.touched.size(), 1u);
  EXPECT_EQ(result.changes.size(), 1u);
  const metadata::FileSnapshot& snap = result.touched[0];
  EXPECT_EQ(snap.size, content.size());
  EXPECT_EQ(crypto::content_hash_kind(snap.content_hash),
            crypto::ContentHashKind::kSegmentList);
  EXPECT_EQ(snap.content_hash, crypto::file_content_hash(snap.segment_ids));
  EXPECT_NE(snap.content_hash, old_hash);
  // The segments around the flipped byte are new and sunk; the rest dedup
  // against the pool.
  ASSERT_FALSE(edited.empty());
  for (const auto& [id, data] : edited) {
    EXPECT_EQ(image.find_segment(id), nullptr) << id;
    EXPECT_TRUE(crypto::verify_segment_id(id, ByteSpan(data)));
  }
  for (const std::string& id : snap.segment_ids) {
    const bool sunk_now =
        std::any_of(edited.begin(), edited.end(),
                    [&](const auto& entry) { return entry.first == id; });
    EXPECT_TRUE(sunk_now || image.find_segment(id) != nullptr) << id;
  }
}

// --- end-to-end client -----------------------------------------------------------

// Records the path of every download, then delegates.
class RecordingCloud final : public cloud::CloudProvider {
 public:
  explicit RecordingCloud(cloud::CloudPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Status upload(const std::string& path, ByteSpan data) override {
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      downloads_.push_back(path);
    }
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    return inner_->remove(path);
  }

  [[nodiscard]] bool downloaded(const std::string& path) const {
    return downloads_of(path) > 0;
  }
  [[nodiscard]] std::size_t downloads_of(const std::string& path) const {
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<std::size_t>(
        std::count(downloads_.begin(), downloads_.end(), path));
  }
  [[nodiscard]] std::size_t data_downloads() const {
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<std::size_t>(
        std::count_if(downloads_.begin(), downloads_.end(),
                      [](const std::string& path) {
                        return path.starts_with(metadata::kDataDir);
                      }));
  }

 private:
  cloud::CloudPtr inner_;
  mutable std::mutex mu_;
  std::vector<std::string> downloads_;
};

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override { clouds_ = make_clouds(5); }

  std::unique_ptr<UniDriveClient> make_client(const std::string& device,
                                              std::shared_ptr<LocalFs> fs) {
    return std::make_unique<UniDriveClient>(clouds_, std::move(fs),
                                            test_config(device));
  }

  cloud::MultiCloud clouds_;
};

TEST_F(ClientTest, UploadThenSecondDeviceDownloads) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  Rng rng(10);
  const Bytes content = rng.bytes(200000);
  ASSERT_TRUE(fs_a->write("/data.bin", ByteSpan(content)).is_ok());

  auto up = client_a->sync();
  ASSERT_TRUE(up.is_ok()) << up.status().to_string();
  EXPECT_TRUE(up.value().committed);
  EXPECT_EQ(up.value().files_uploaded, 1u);

  auto down = client_b->sync();
  ASSERT_TRUE(down.is_ok()) << down.status().to_string();
  EXPECT_TRUE(down.value().applied_cloud);
  EXPECT_EQ(down.value().files_downloaded, 1u);
  EXPECT_EQ(fs_b->read("/data.bin").value(), content);
}

TEST_F(ClientTest, NoChangesNoCommit) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  auto report = client->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report.value().committed);
  EXPECT_FALSE(report.value().applied_cloud);
}

TEST_F(ClientTest, EditPropagates) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/note.txt", ByteSpan(text("version 1"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/note.txt").value(), text("version 1"));

  ASSERT_TRUE(fs_a->write("/note.txt", ByteSpan(text("version 2 !!"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/note.txt").value(), text("version 2 !!"));
}

TEST_F(ClientTest, DeletePropagates) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/f", ByteSpan(text("x"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  ASSERT_TRUE(fs_b->read("/f").is_ok());

  ASSERT_TRUE(fs_a->remove("/f").is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  auto report = client_b->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().files_removed, 1u);
  EXPECT_EQ(fs_b->read("/f").code(), ErrorCode::kNotFound);
}

TEST_F(ClientTest, ConflictKeepsBothVersions) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());

  // Divergent edits on both devices; A commits first, then B.
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("edit from A"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("edit from B"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  auto report_b = client_b->sync();
  ASSERT_TRUE(report_b.is_ok());
  ASSERT_EQ(report_b.value().conflicts.size(), 1u);

  // B's folder: cloud version (A's edit) at /doc, B's kept as conflict copy.
  EXPECT_EQ(fs_b->read("/doc").value(), text("edit from A"));
  const std::string copy = report_b.value().conflicts[0].conflict_copy;
  ASSERT_FALSE(copy.empty());
  EXPECT_EQ(fs_b->read(copy).value(), text("edit from B"));

  // A picks up both after its next sync.
  ASSERT_TRUE(client_a->sync().is_ok());
  EXPECT_EQ(fs_a->read("/doc").value(), text("edit from A"));
  EXPECT_EQ(fs_a->read(copy).value(), text("edit from B"));
}

TEST_F(ClientTest, ThreeDevicesConverge) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto fs_c = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  auto c = make_client("devC", fs_c);

  Rng rng(20);
  ASSERT_TRUE(fs_a->write("/fa", ByteSpan(rng.bytes(20000))).is_ok());
  ASSERT_TRUE(fs_b->write("/fb", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(fs_c->write("/fc", ByteSpan(rng.bytes(10000))).is_ok());

  // Two full rounds propagate everything everywhere.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a->sync().is_ok());
    ASSERT_TRUE(b->sync().is_ok());
    ASSERT_TRUE(c->sync().is_ok());
  }
  for (const auto& fs : {fs_a, fs_b, fs_c}) {
    EXPECT_EQ(fs->list_files().size(), 3u);
  }
  EXPECT_EQ(fs_a->read("/fb").value(), fs_b->read("/fb").value());
  EXPECT_EQ(fs_c->read("/fa").value(), fs_a->read("/fa").value());
}

TEST_F(ClientTest, SecurityNoSingleCloudCanReconstruct) {
  // With Ks=2, any single cloud must hold < k distinct blocks per segment.
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(30);
  ASSERT_TRUE(fs->write("/secret", ByteSpan(rng.bytes(120000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  const auto& image = client->image();
  for (const auto& [id, seg] : image.segments()) {
    std::map<cloud::CloudId, std::set<std::uint32_t>> per_cloud;
    for (const auto& b : seg.blocks) {
      per_cloud[b.cloud].insert(b.block_index);
    }
    for (const auto& [c, blocks] : per_cloud) {
      EXPECT_LT(blocks.size(), client->config().k)
          << "cloud " << c << " can decode segment " << id;
    }
  }
}

TEST_F(ClientTest, ReliabilityToleratesTwoCloudOutages) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  Rng rng(40);
  const Bytes content = rng.bytes(150000);
  ASSERT_TRUE(fs_a->write("/important", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());

  // Wrap clouds 0 and 1 in outage for a fresh downloader (Kr=3: any 3
  // clouds suffice).
  cloud::MultiCloud degraded;
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    auto faulty = std::make_shared<cloud::FaultyCloud>(
        clouds_[i], cloud::FaultProfile{}, i);
    if (i < 2) faulty->set_outage(true);
    degraded.push_back(faulty);
  }
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_b(degraded, fs_b, test_config("devB"));
  auto report = client_b.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(fs_b->read("/important").value(), content);
}

TEST_F(ClientTest, SyncSurvivesTransientFailures) {
  cloud::MultiCloud flaky;
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    cloud::FaultProfile profile;
    profile.base_failure_rate = 0.1;
    flaky.push_back(
        std::make_shared<cloud::FaultyCloud>(clouds_[i], profile, 55 + i));
  }
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_a(flaky, fs_a, test_config("devA"));
  Rng rng(50);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs_a->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client_a.sync().is_ok());

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_b(flaky, fs_b, test_config("devB"));
  ASSERT_TRUE(client_b.sync().is_ok());
  EXPECT_EQ(fs_b->read("/f").value(), content);
}

TEST_F(ClientTest, DedupUploadsSharedSegmentsOnce) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(60);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs->write("/copy1", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs->write("/copy2", ByteSpan(content)).is_ok());
  auto report = client->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().files_uploaded, 2u);

  // Segment refcounts must be 2; blocks stored once.
  for (const auto& [id, seg] : client->image().segments()) {
    EXPECT_EQ(seg.refcount, 2u);
  }
}

TEST_F(ClientTest, CleanupOverprovisionedTrimsSurplus) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(70);
  ASSERT_TRUE(fs->write("/f", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(client->cleanup_overprovisioned().is_ok());

  const auto params = client->code_params();
  for (const auto& [id, seg] : client->image().segments()) {
    std::map<cloud::CloudId, std::size_t> per_cloud;
    for (const auto& b : seg.blocks) ++per_cloud[b.cloud];
    for (const auto& [c, n] : per_cloud) {
      EXPECT_LE(n, params.fair_share());
    }
  }
  // File still recoverable afterwards by a fresh device.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_b = make_client("devB", fs_b);
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_TRUE(fs_b->read("/f").is_ok());
}

TEST_F(ClientTest, EmptyFileSyncs) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/empty", ByteSpan(Bytes{})).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  auto data = fs_b->read("/empty");
  ASSERT_TRUE(data.is_ok());
  EXPECT_TRUE(data.value().empty());
}

TEST_F(ClientTest, ManySmallFilesBatchSync) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(80);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs_a->write("/batch/f" + std::to_string(i),
                            ByteSpan(rng.bytes(2000 + i * 100)))
                    .is_ok());
  }
  auto up = a->sync();
  ASSERT_TRUE(up.is_ok());
  EXPECT_EQ(up.value().files_uploaded, 20u);
  auto down = b->sync();
  ASSERT_TRUE(down.is_ok());
  EXPECT_EQ(down.value().files_downloaded, 20u);
  EXPECT_EQ(fs_b->list_files().size(), 20u);
}

TEST_F(ClientTest, RestorePreviousVersionRoundTrip) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(91);
  const Bytes v1 = rng.bytes(60000);
  const Bytes v2 = rng.bytes(50000);
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v2)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  // The superseded snapshot is in the history and restorable.
  const auto history = client->file_history("/doc");
  ASSERT_EQ(history.size(), 1u);
  ASSERT_TRUE(client->restore_previous_version("/doc").is_ok());
  EXPECT_EQ(fs->read("/doc").value(), v1);

  // The restore commits like a normal edit and reaches other devices.
  ASSERT_TRUE(client->sync().is_ok());
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_b = make_client("devB", fs_b);
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/doc").value(), v1);
}

TEST_F(ClientTest, RestoreWithoutHistoryFails) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  ASSERT_TRUE(fs->write("/f", ByteSpan(text("only version"))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  EXPECT_EQ(client->restore_previous_version("/f").code(),
            ErrorCode::kNotFound);
}

TEST_F(ClientTest, GarbageCollectionReclaimsDereferencedSegments) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(92);
  const Bytes content = rng.bytes(80000);
  ASSERT_TRUE(fs->write("/junk", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  std::uint64_t stored_before = 0;
  for (const auto& c : clouds_) {
    stored_before +=
        std::static_pointer_cast<cloud::MemoryCloud>(c)->stored_bytes();
  }

  ASSERT_TRUE(fs->remove("/junk").is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  auto collected = client->collect_garbage();
  ASSERT_TRUE(collected.is_ok()) << collected.status().to_string();
  EXPECT_GE(collected.value(), 1u);

  std::uint64_t stored_after = 0;
  for (const auto& c : clouds_) {
    stored_after +=
        std::static_pointer_cast<cloud::MemoryCloud>(c)->stored_bytes();
  }
  // The segment blocks are gone; only (small) metadata remains.
  EXPECT_LT(stored_after, stored_before / 2);
  EXPECT_TRUE(client->image().garbage_segments().empty());

  // A second GC is a no-op.
  auto again = client->collect_garbage();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST_F(ClientTest, GarbageCollectionSparesHistorySegments) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(93);
  const Bytes v1 = rng.bytes(40000);
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(fs->write("/doc", ByteSpan(rng.bytes(40000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  ASSERT_TRUE(client->collect_garbage().is_ok());
  // v1's segments survive (held by the history) and remain restorable.
  ASSERT_TRUE(client->restore_previous_version("/doc").is_ok());
  EXPECT_EQ(fs->read("/doc").value(), v1);
}

TEST(ScanCacheTest, SecondScanReadsNothing) {
  MemoryLocalFs fs;
  Rng rng(94);
  ASSERT_TRUE(fs.write("/a", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(fs.write("/b", ByteSpan(rng.bytes(30000))).is_ok());
  metadata::SyncFolderImage image;
  ScanCache cache;

  auto first = scan(fs, image, &cache);
  EXPECT_EQ(first.files_hashed, 2u);
  for (const metadata::Change& c : first.changes.changes()) {
    apply_change(image, c);
  }

  auto second = scan(fs, image, &cache);
  EXPECT_TRUE(second.changes.empty());
  EXPECT_EQ(second.files_hashed, 0u);  // pure fingerprint hits
  EXPECT_EQ(second.files_scanned, 2u);
}

TEST(ScanCacheTest, EditInvalidatesFingerprint) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a", ByteSpan(bytes_from_string("v1"))).is_ok());
  metadata::SyncFolderImage image;
  ScanCache cache;
  auto first = scan(fs, image, &cache);
  for (const metadata::Change& c : first.changes.changes()) {
    apply_change(image, c);
  }
  ASSERT_TRUE(fs.write("/a", ByteSpan(bytes_from_string("v2"))).is_ok());
  auto second = scan(fs, image, &cache);
  EXPECT_EQ(second.files_hashed, 1u);
  ASSERT_EQ(second.touched.size(), 1u);
}

// Placement params that fail CodeParams::validate() (Kr = 6 > N = 5) only
// matter once there is segment data to place: such a client still commits
// rounds that carry none and restores what other devices committed
// (restore needs only k).
TEST_F(ClientTest, InvalidPlacementParamsFailOnlyRoundsWithNewData) {
  auto fs_w = std::make_shared<MemoryLocalFs>();
  auto writer = make_client("writer", fs_w);
  ASSERT_TRUE(fs_w->write("/keep", ByteSpan(text("from writer"))).is_ok());
  ASSERT_TRUE(fs_w->write("/drop", ByteSpan(text("doomed"))).is_ok());
  ASSERT_TRUE(writer->sync().is_ok());

  ClientConfig cfg = test_config("invalid");
  cfg.kr = 6;
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds_, fs, cfg);
  ASSERT_FALSE(client.code_params().validate().is_ok());

  const auto pulled = client.sync();
  ASSERT_TRUE(pulled.is_ok()) << pulled.status().to_string();
  EXPECT_EQ(fs->read("/keep").value(), text("from writer"));

  ASSERT_TRUE(fs->remove("/drop").is_ok());
  const auto deleted = client.sync();
  ASSERT_TRUE(deleted.is_ok()) << deleted.status().to_string();
  EXPECT_TRUE(deleted.value().committed);

  ASSERT_TRUE(fs->make_dir("/docs").is_ok());
  const auto dir_added = client.sync();
  ASSERT_TRUE(dir_added.is_ok()) << dir_added.status().to_string();
  EXPECT_TRUE(dir_added.value().committed);

  ASSERT_TRUE(fs->write("/new", ByteSpan(text("fresh bytes"))).is_ok());
  const auto rejected = client.sync();
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kInvalidArgument);

  // The commits that carried no segment data reached the other device.
  ASSERT_TRUE(writer->sync().is_ok());
  EXPECT_FALSE(fs_w->read("/drop").is_ok());
  const std::vector<std::string> dirs = fs_w->list_dirs();
  EXPECT_NE(std::find(dirs.begin(), dirs.end(), "/docs"), dirs.end());
}

TEST_F(ClientTest, ConflictResolutionKeepMine) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("A's edit"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("B's edit"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto rb = b->sync();
  ASSERT_TRUE(rb.is_ok());
  ASSERT_EQ(rb.value().conflicts.size(), 1u);

  // B decides its version wins.
  ASSERT_TRUE(b->resolve_conflict(rb.value().conflicts[0],
                                  core::UniDriveClient::ConflictChoice::kKeepMine)
                  .is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  EXPECT_EQ(fs_a->read("/doc").value(), text("B's edit"));
  // The conflict copy is gone everywhere.
  EXPECT_EQ(fs_a->list_files().size(), 1u);
  EXPECT_EQ(fs_b->list_files().size(), 1u);
}

TEST_F(ClientTest, ConflictResolutionKeepTheirs) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("A's edit"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("B's edit"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto rb = b->sync();
  ASSERT_TRUE(rb.is_ok());
  ASSERT_EQ(rb.value().conflicts.size(), 1u);

  ASSERT_TRUE(b->resolve_conflict(
                   rb.value().conflicts[0],
                   core::UniDriveClient::ConflictChoice::kKeepTheirs)
                  .is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/doc").value(), text("A's edit"));
  EXPECT_EQ(fs_b->list_files().size(), 1u);
}

TEST_F(ClientTest, SyncDaemonPropagatesInBackground) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);

  core::DaemonConfig daemon_config;
  daemon_config.sync_interval = 0.02;
  core::SyncDaemon daemon_a(*a, daemon_config);
  core::SyncDaemon daemon_b(*b, daemon_config);
  daemon_a.start();
  daemon_b.start();
  EXPECT_TRUE(daemon_a.running());

  ASSERT_TRUE(fs_a->write("/bg/file", ByteSpan(text("hello from A"))).is_ok());
  // Wait (bounded) for the change to land on B.
  bool arrived = false;
  for (int i = 0; i < 300 && !arrived; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    arrived = fs_b->read("/bg/file").is_ok();
  }
  daemon_a.stop();
  daemon_b.stop();
  EXPECT_FALSE(daemon_a.running());
  ASSERT_TRUE(arrived);
  EXPECT_EQ(fs_b->read("/bg/file").value(), text("hello from A"));
  EXPECT_GT(daemon_a.stats().rounds, 0u);
  EXPECT_GE(daemon_a.stats().commits, 1u);
  EXPECT_GE(daemon_b.stats().applied, 1u);
}

TEST_F(ClientTest, SyncDaemonStartStopIdempotent) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  core::SyncDaemon daemon(*client, core::DaemonConfig{0.01});
  daemon.start();
  daemon.start();  // no-op
  daemon.stop();
  daemon.stop();  // no-op
  daemon.start();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST_F(ClientTest, VersionCounterMonotone) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  std::uint64_t last = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fs->write("/f", ByteSpan(text("v" + std::to_string(i)))).is_ok());
    auto report = client->sync();
    ASSERT_TRUE(report.is_ok());
    EXPECT_GT(report.value().version.counter, last);
    last = report.value().version.counter;
  }
}

// --- pull only what the device lacks ------------------------------------------

TEST_F(ClientTest, MidFileEditFetchesOnlyChangedSegments) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(95);
  const Bytes v1 = rng.bytes(512 << 10);  // ~8 segments at theta = 64 KiB
  ASSERT_TRUE(fs_a->write("/big.bin", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  Bytes v2 = v1;
  const Bytes insert = rng.bytes(3000);
  v2.insert(v2.begin() + static_cast<std::ptrdiff_t>(v2.size() / 2),
            insert.begin(), insert.end());
  ASSERT_TRUE(fs_a->write("/big.bin", ByteSpan(v2)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());

  // The segments the edit rewrote are the ones B's copy lacks.
  const std::vector<std::string> held =
      b->image().find_file("/big.bin")->segment_ids;
  const std::vector<std::string> wanted =
      a->image().find_file("/big.bin")->segment_ids;
  std::size_t changed = 0;
  for (const std::string& id : wanted) {
    if (std::find(held.begin(), held.end(), id) == held.end()) ++changed;
  }
  ASSERT_GT(changed, 0u);
  ASSERT_LT(changed, wanted.size());

  const std::uint64_t fetched = counter(*b, "restore.segments");
  const std::uint64_t reused = counter(*b, "restore.reused_segments");
  auto pull = b->sync();
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_EQ(fs_b->read("/big.bin").value(), v2);
  EXPECT_EQ(counter(*b, "restore.segments") - fetched, changed);
  EXPECT_EQ(counter(*b, "restore.reused_segments") - reused,
            wanted.size() - changed);
}

TEST_F(ClientTest, RenameDownloadsNoDataBlocks) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(96);
  const Bytes content = rng.bytes(300000);
  ASSERT_TRUE(fs_a->write("/old.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  ASSERT_TRUE(fs_a->write("/moved.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs_a->remove("/old.bin").is_ok());
  ASSERT_TRUE(a->sync().is_ok());

  // The moved file restores from its old path before that path is deleted.
  const std::uint64_t before = counter_sum(*b, "cloud.", ".download.data.ok");
  auto pull = b->sync();
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_EQ(pull.value().files_downloaded, 1u);
  EXPECT_EQ(pull.value().files_removed, 1u);
  EXPECT_EQ(counter_sum(*b, "cloud.", ".download.data.ok"), before);
  EXPECT_EQ(fs_b->read("/moved.bin").value(), content);
  EXPECT_EQ(fs_b->read("/old.bin").code(), ErrorCode::kNotFound);
}

TEST_F(ClientTest, FailedBatchStillAppliesDeletions) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/keep", ByteSpan(text("kept"))).is_ok());
  ASSERT_TRUE(fs_a->write("/gone", ByteSpan(text("deleted"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  ASSERT_TRUE(fs_a->remove("/gone").is_ok());
  Rng rng(97);
  ASSERT_TRUE(fs_a->write("/new", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  // Lose every block of /new, so B's restore batch fails.
  const metadata::SyncFolderImage& image = a->image();
  for (const std::string& id : image.find_file("/new")->segment_ids) {
    for (const metadata::BlockLocation& loc : image.find_segment(id)->blocks) {
      ASSERT_TRUE(clouds_[loc.cloud]
                      ->remove(metadata::block_path(id, loc.block_index))
                      .is_ok());
    }
  }

  auto pull = b->sync();
  EXPECT_FALSE(pull.is_ok());
  EXPECT_EQ(fs_b->read("/gone").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs_b->read("/keep").value(), text("kept"));
  EXPECT_EQ(fs_b->read("/new").code(), ErrorCode::kNotFound);
}

TEST_F(ClientTest, RestorePreviousVersionOfOneSegmentEditFetchesOneSegment) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(98);
  const Bytes v1 = rng.bytes(400 << 10);
  Bytes v2 = v1;
  for (std::size_t i = v2.size() - 64; i < v2.size(); ++i) v2[i] ^= 0x5a;
  // The tail rewrite changes exactly one segment of the file.
  const chunker::SegmenterParams params{64 << 10};
  const std::vector<chunker::Segment> old_segs =
      chunker::segment_file(ByteSpan(v1), params);
  const std::vector<chunker::Segment> new_segs =
      chunker::segment_file(ByteSpan(v2), params);
  ASSERT_EQ(old_segs.size(), new_segs.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < old_segs.size(); ++i) {
    if (old_segs[i].id != new_segs[i].id) ++differing;
  }
  ASSERT_EQ(differing, 1u);

  ASSERT_TRUE(fs->write("/doc", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v2)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  const std::uint64_t fetched = counter(*client, "restore.segments");
  const std::uint64_t reused = counter(*client, "restore.reused_segments");
  ASSERT_TRUE(client->restore_previous_version("/doc").is_ok());
  EXPECT_EQ(fs->read("/doc").value(), v1);
  EXPECT_EQ(counter(*client, "restore.segments") - fetched, 1u);
  EXPECT_EQ(counter(*client, "restore.reused_segments") - reused,
            old_segs.size() - 1);
}

// Deletions wait for the restore batch, except a path standing where the
// batch writes. On a backend with a real directory tree, file /x becomes a
// directory /x holding the same bytes at /x/x, then turns back into a file.
TEST_F(ClientTest, FileAndDirectoryTradePlacesOnDisk) {
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  const std::string root_a = (tmp / "unidrive_trade_places_a").string();
  const std::string root_b = (tmp / "unidrive_trade_places_b").string();
  std::filesystem::remove_all(root_a);
  std::filesystem::remove_all(root_b);
  auto fs_a = std::make_shared<DiskLocalFs>(root_a);
  auto fs_b = std::make_shared<DiskLocalFs>(root_b);
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(100);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs_a->write("/x", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  // The file moves into a directory of its own name: its old path must go
  // before /x/x opens, so the restore fetches instead of reusing it.
  ASSERT_TRUE(fs_a->remove("/x").is_ok());
  ASSERT_TRUE(fs_a->write("/x/x", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto into_dir = b->sync();
  ASSERT_TRUE(into_dir.is_ok()) << into_dir.status().to_string();
  EXPECT_TRUE(into_dir.value().dir_failures.empty());
  EXPECT_EQ(into_dir.value().files_downloaded, 1u);
  EXPECT_EQ(into_dir.value().files_removed, 1u);
  EXPECT_EQ(fs_b->read("/x/x").value(), content);

  // And back: the directory must go before the file /x can land.
  ASSERT_TRUE(fs_a->remove_dir("/x").is_ok());
  ASSERT_TRUE(fs_a->write("/x", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto into_file = b->sync();
  ASSERT_TRUE(into_file.is_ok()) << into_file.status().to_string();
  EXPECT_TRUE(into_file.value().dir_failures.empty());
  EXPECT_EQ(into_file.value().files_downloaded, 1u);
  EXPECT_EQ(into_file.value().files_removed, 1u);
  EXPECT_EQ(fs_b->read("/x").value(), content);
  EXPECT_EQ(fs_b->list_dirs(), std::vector<std::string>{});

  auto noop = b->sync();
  ASSERT_TRUE(noop.is_ok());
  EXPECT_FALSE(noop.value().committed);
  std::filesystem::remove_all(root_a);
  std::filesystem::remove_all(root_b);
}

// Restores seed the scan cache: the round after a pull reads and hashes
// none of the files it restored, on either backend — yet an edit to a
// restored file still registers.
TEST_F(ClientTest, PulledFilesAreNotRehashedByTheNextScan) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  Rng rng(99);
  constexpr std::size_t kFiles = 5;
  // DiskLocalFs lists the parent directory a restore creates: commit it too.
  ASSERT_TRUE(fs_a->make_dir("/dir").is_ok());
  for (std::size_t i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs_a->write("/dir/f" + std::to_string(i),
                            ByteSpan(rng.bytes(20000 + 1000 * i)))
                    .is_ok());
  }
  ASSERT_TRUE(a->sync().is_ok());

  const std::string root =
      (std::filesystem::temp_directory_path() / "unidrive_seeded_scan_test")
          .string();
  std::filesystem::remove_all(root);
  const std::vector<std::shared_ptr<LocalFs>> readers = {
      std::make_shared<MemoryLocalFs>(), std::make_shared<DiskLocalFs>(root)};
  for (std::size_t r = 0; r < readers.size(); ++r) {
    SCOPED_TRACE(r == 0 ? "memory" : "disk");
    auto b = make_client("devB" + std::to_string(r), readers[r]);
    auto pull = b->sync();
    ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
    ASSERT_EQ(pull.value().files_downloaded, kFiles);

    const std::uint64_t hashed = counter(*b, "sync.files_hashed");
    auto noop = b->sync();
    ASSERT_TRUE(noop.is_ok());
    EXPECT_FALSE(noop.value().committed);
    EXPECT_EQ(counter(*b, "sync.files_hashed"), hashed);

    ASSERT_TRUE(
        readers[r]->write("/dir/f0", ByteSpan(rng.bytes(20000))).is_ok());
    auto edit = b->sync();
    ASSERT_TRUE(edit.is_ok());
    EXPECT_TRUE(edit.value().committed);
    EXPECT_EQ(edit.value().files_uploaded, 1u);
    EXPECT_EQ(counter(*b, "sync.files_hashed"), hashed + 1);
  }
  std::filesystem::remove_all(root);
}

// A device whose folder holds no copy of a segment reconstructs it from the
// clouds alone: around a rotted block, and never from a placement it was
// told to distrust. No clean k-subset is kCorrupt; fewer than k trusted
// placements is kUnavailable.
TEST_F(ClientTest, ReconstructSegmentWithoutLocalCopy) {
  std::vector<std::shared_ptr<RecordingCloud>> recorders;
  cloud::MultiCloud recorded;
  for (const cloud::CloudPtr& c : clouds_) {
    recorders.push_back(std::make_shared<RecordingCloud>(c));
    recorded.push_back(recorders.back());
  }
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(recorded, fs, test_config("devA"));
  Rng rng(61);
  const Bytes content = rng.bytes(40000);  // one segment
  ASSERT_TRUE(fs->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client.sync().is_ok());
  ASSERT_TRUE(fs->remove("/f").is_ok());  // the folder is empty now

  const std::vector<std::string>& ids =
      client.image().files().at("/f").segment_ids;
  ASSERT_EQ(ids.size(), 1u);
  const std::string& id = ids.front();
  const std::vector<metadata::BlockLocation> blocks =
      client.image().find_segment(id)->blocks;
  const std::size_t k = client.config().k;
  ASSERT_GE(blocks.size(), k + 2);
  const auto rot = [&](const metadata::BlockLocation& loc) {
    const std::string path = metadata::block_path(id, loc.block_index);
    Bytes data = clouds_[loc.cloud]->download(path).value();
    data[data.size() / 2] ^= 0x01;
    ASSERT_TRUE(clouds_[loc.cloud]->upload(path, ByteSpan(data)).is_ok());
  };
  const metadata::BlockLocation distrusted = blocks[1];
  const auto fetched_distrusted = [&] {
    return recorders[distrusted.cloud]->downloaded(
        metadata::block_path(id, distrusted.block_index));
  };

  rot(blocks[0]);
  const auto plain = client.reconstruct_segment(id, {distrusted});
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  EXPECT_EQ(plain.value(), content);
  EXPECT_FALSE(fetched_distrusted());

  const std::vector<metadata::BlockLocation> all_but_k_minus_1(
      blocks.begin() + static_cast<long>(k - 1), blocks.end());
  EXPECT_EQ(client.reconstruct_segment(id, all_but_k_minus_1).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client.reconstruct_segment(id, blocks).code(),
            ErrorCode::kUnavailable);

  for (std::size_t i = 2; i < blocks.size(); ++i) rot(blocks[i]);
  EXPECT_EQ(client.reconstruct_segment(id, {distrusted}).code(),
            ErrorCode::kCorrupt);
  EXPECT_FALSE(fetched_distrusted());
}

// A reconstruction served from the clouds returns the decode's own buffer,
// which the scratch folder hands back uncopied. The segment's size is not
// a multiple of k, so that buffer is recognisable by its capacity: k
// shards' worth, trimmed to the segment's size.
TEST_F(ClientTest, ReconstructSegmentReturnsTheDecodedBuffer) {
  auto fs = std::make_shared<MemoryLocalFs>();
  UniDriveClient client(clouds_, fs, test_config("devA"));
  Rng rng(62);
  const Bytes content = rng.bytes(40000);  // one segment
  ASSERT_TRUE(fs->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client.sync().is_ok());
  ASSERT_TRUE(fs->remove("/f").is_ok());  // no local copy to read

  const std::vector<std::string>& ids =
      client.image().files().at("/f").segment_ids;
  ASSERT_EQ(ids.size(), 1u);
  const std::size_t decoded_capacity =
      client.config().k * client.codec().shard_size(content.size());
  ASSERT_NE(decoded_capacity, content.size());
  const auto plain = client.reconstruct_segment(ids.front(), {});
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  EXPECT_EQ(plain.value(), content);
  EXPECT_EQ(plain.value().capacity(), decoded_capacity)
      << "the reconstruction copied the decoded buffer";
}

// A pull reads the root once: the update check hands the root it read to
// the fetch, so a reader's pull downloads /meta/kv/root once per cloud.
TEST_F(ClientTest, PullReadsTheRootOnce) {
  std::vector<std::shared_ptr<RecordingCloud>> recorders;
  cloud::MultiCloud recorded;
  for (const cloud::CloudPtr& c : clouds_) {
    recorders.push_back(std::make_shared<RecordingCloud>(c));
    recorded.push_back(recorders.back());
  }
  const auto root_reads = [&] {
    std::size_t n = 0;
    for (const auto& r : recorders) n += r->downloads_of("/meta/kv/root");
    return n;
  };
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto writer = make_client("devA", fs_a);
  UniDriveClient reader(recorded, fs_b, test_config("devB"));

  Rng rng(71);
  ASSERT_TRUE(fs_a->write("/f", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(writer->sync().is_ok());
  auto pull = reader.sync();
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_TRUE(pull.value().applied_cloud);
  EXPECT_EQ(root_reads(), clouds_.size());

  // A second pull after a further commit: again one root read per cloud.
  ASSERT_TRUE(fs_a->write("/g", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(writer->sync().is_ok());
  pull = reader.sync();
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_TRUE(pull.value().applied_cloud);
  EXPECT_EQ(root_reads(), 2 * clouds_.size());
  EXPECT_NE(reader.image().find_file("/g"), nullptr);
}

// --- early return of a restore -----------------------------------------------

// One device's links to the five clouds: the downlink to cloud 4 crawls
// (a data block takes over a second on it), the other four are free. Each
// link sits over a RecordingCloud, which counts a download when it
// launches; the client meters it when it completes. The waits are link
// time on the timer wheel, so no pool thread sleeps through them.
cloud::MultiCloud crawling_links(
    const cloud::MultiCloud& clouds,
    std::vector<std::shared_ptr<RecordingCloud>>* recorders) {
  cloud::MultiCloud links;
  for (const cloud::CloudPtr& c : clouds) {
    recorders->push_back(std::make_shared<RecordingCloud>(c));
    cloud::LinkProfile link;
    if (c->id() == 4) link.down_bytes_per_sec = 8 << 10;
    links.push_back(
        std::make_shared<cloud::LatentCloud>(recorders->back(), link));
  }
  return links;
}

// One connection per cloud: a cold restore puts exactly one block on each
// cloud at its first pump, cloud 4 included.
ClientConfig crawl_config(const std::string& device) {
  ClientConfig cfg = test_config(device);
  cfg.driver.connections_per_cloud = 1;
  return cfg;
}

// Data-block fetches launched on cloud 4 that the client has not seen
// complete.
std::uint64_t crawling_fetches(const RecordingCloud& cloud4,
                               const obs::Observability& obs) {
  const obs::MetricsSnapshot snap = obs.metrics.snapshot();
  return cloud4.data_downloads() -
         snap.counter_value("cloud.cloud4.download.data.ok") -
         snap.counter_value("cloud.cloud4.download.data.err");
}

// A cold pull over the crawling links: it applies `content` at /f and
// returns while cloud 4's redundant fetch is still in flight.
void pull_before_crawler_lands(UniDriveClient& reader, const LocalFs& fs,
                               const RecordingCloud& cloud4,
                               const Bytes& content) {
  const auto pull = reader.sync();
  const std::uint64_t left = crawling_fetches(cloud4, *reader.observability());
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_TRUE(pull.value().applied_cloud);
  EXPECT_EQ(fs.read("/f").value(), content);
  EXPECT_GE(left, 1u) << "the pull waited out the crawling fetch";
  EXPECT_GE(counter(reader, "restore.detached_fetches"), left);
}

// A pull returns once every segment is decided. On a cold start the reader
// puts a block on every cloud; the free links decide every segment and
// hedge the block crawling on cloud 4, so that fetch is redundant and must
// not hold the pull. A second sync works while it is still parked, and
// destroying the client waits it out.
TEST_F(ClientTest, PullReturnsBeforeSlowLinkFetchesLand) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto writer = make_client("devA", fs_a);
  Rng rng(81);
  const Bytes content = rng.bytes(400000);
  ASSERT_TRUE(fs_a->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(writer->sync().is_ok());

  {
    std::vector<std::shared_ptr<RecordingCloud>> recorders;
    auto fs_b = std::make_shared<MemoryLocalFs>();
    UniDriveClient reader(crawling_links(clouds_, &recorders), fs_b,
                          crawl_config("devB"));
    pull_before_crawler_lands(reader, *fs_b, *recorders[4], content);
    const auto again = reader.sync();
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    EXPECT_FALSE(again.value().committed);
    EXPECT_FALSE(again.value().applied_cloud);
    EXPECT_EQ(fs_b->read("/f").value(), content);
  }

  std::vector<std::shared_ptr<RecordingCloud>> recorders;
  auto fs_c = std::make_shared<MemoryLocalFs>();
  obs::ObsPtr obs;
  {
    UniDriveClient reader(crawling_links(clouds_, &recorders), fs_c,
                          crawl_config("devC"));
    obs = reader.observability();
    pull_before_crawler_lands(reader, *fs_c, *recorders[4], content);
  }
  EXPECT_EQ(crawling_fetches(*recorders[4], *obs), 0u)
      << "the client was destroyed under a fetch in flight";
}

// Repair and rebalance reconstruct segments through the same restore, so a
// reconstruction returns early too. The client has measured no download
// yet; with one connection per cloud and only the blocks on cloud 4 and
// on two free clouds (one holding two blocks) trusted, its first pump puts
// a block on cloud 4, and the free cloud's second block then hedges it.
// segment_content's scratch folder is gone before that fetch lands.
TEST_F(ClientTest, ReconstructSegmentReturnsBeforeSlowLinkFetchLands) {
  std::vector<std::shared_ptr<RecordingCloud>> recorders;
  auto fs = std::make_shared<MemoryLocalFs>();
  obs::ObsPtr obs;
  {
    UniDriveClient client(crawling_links(clouds_, &recorders), fs,
                          crawl_config("devA"));
    obs = client.observability();
    Rng rng(82);
    const Bytes content = rng.bytes(400000);
    ASSERT_TRUE(fs->write("/f", ByteSpan(content)).is_ok());
    ASSERT_TRUE(client.sync().is_ok());
    ASSERT_TRUE(fs->remove("/f").is_ok());  // no local copy to read

    // The first segment with a free cloud holding two of its blocks.
    std::uint64_t offset = 0;
    for (const std::string& id : client.image().files().at("/f").segment_ids) {
      const metadata::SegmentInfo& seg = *client.image().find_segment(id);
      std::map<cloud::CloudId, std::size_t> held;
      for (const metadata::BlockLocation& loc : seg.blocks) ++held[loc.cloud];
      const auto twin = std::find_if(held.begin(), held.end(), [](auto& h) {
        return h.first != 4 && h.second >= 2;
      });
      const auto other = std::find_if(held.begin(), held.end(), [&](auto& h) {
        return h.first != 4 && h.first != twin->first;
      });
      if (twin == held.end() || other == held.end() || held.count(4) == 0) {
        offset += seg.size;
        continue;
      }
      std::vector<metadata::BlockLocation> exclude;
      for (const metadata::BlockLocation& loc : seg.blocks) {
        if (loc.cloud != 4 && loc.cloud != twin->first &&
            loc.cloud != other->first) {
          exclude.push_back(loc);
        }
      }
      const auto plain = client.reconstruct_segment(id, exclude);
      const std::uint64_t left = crawling_fetches(*recorders[4], *obs);
      ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
      EXPECT_EQ(plain.value(),
                Bytes(content.begin() + static_cast<long>(offset),
                      content.begin() + static_cast<long>(offset + seg.size)));
      EXPECT_GE(left, 1u) << "the reconstruction waited out cloud 4";
      break;
    }
    ASSERT_GE(counter(client, "restore.detached_fetches"), 1u)
        << "no segment had the placement this test needs";
  }
  EXPECT_EQ(crawling_fetches(*recorders[4], *obs), 0u);
}

// A membership change while a pull's redundant fetch is parked: the parked
// restore is drained before rebuild_guards() replaces the executor and the
// async clouds its fetch runs on, and the rebalance onto the new cloud
// works.
TEST_F(ClientTest, MembershipChangeDrainsParkedRestore) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto writer = make_client("devA", fs_a);
  Rng rng(83);
  const Bytes content = rng.bytes(400000);
  ASSERT_TRUE(fs_a->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(writer->sync().is_ok());

  std::vector<std::shared_ptr<RecordingCloud>> recorders;
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient reader(crawling_links(clouds_, &recorders), fs_b,
                        crawl_config("devB"));
  pull_before_crawler_lands(reader, *fs_b, *recorders[4], content);

  auto joining = std::make_shared<cloud::MemoryCloud>(5, "cloud5");
  ASSERT_TRUE(reader.add_cloud(joining).is_ok());
  EXPECT_EQ(crawling_fetches(*recorders[4], *reader.observability()), 0u);
  EXPECT_FALSE(joining->list(metadata::kDataDir).value().empty());

  ASSERT_TRUE(fs_a->write("/g", ByteSpan(rng.bytes(30000))).is_ok());
  auto up = writer->sync();
  ASSERT_TRUE(up.is_ok()) << up.status().to_string();
  auto pull = reader.sync();
  ASSERT_TRUE(pull.is_ok()) << pull.status().to_string();
  EXPECT_EQ(fs_b->read("/g").value(), fs_a->read("/g").value());
}

// --- maintenance commits and v_o ----------------------------------------------

// Devices A and B are current on `clouds`; for `with_garbage`, A then
// deletes one of its own files and syncs, so that GC has work. B commits
// /b.bin, and A, which has not pulled it, runs `maintain`; the maintenance
// must commit something. A's next sync must then write /b.bin to A's
// folder, not commit its deletion: a fresh device C reads it, and B still
// holds it after B syncs.
void expect_stale_maintenance_keeps_foreign_files(
    const cloud::MultiCloud& clouds, bool with_garbage,
    const std::function<Status(UniDriveClient&)>& maintain) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(clouds, fs_a, test_config("devA"));
  UniDriveClient b(clouds, fs_b, test_config("devB"));
  Rng rng(96);
  ASSERT_TRUE(fs_a->write("/a.bin", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(fs_a->write("/junk.bin", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(a.sync().is_ok());
  ASSERT_TRUE(b.sync().is_ok());
  if (with_garbage) {
    ASSERT_TRUE(fs_a->remove("/junk.bin").is_ok());
    ASSERT_TRUE(a.sync().is_ok());
  }
  const Bytes foreign = rng.bytes(40000);
  ASSERT_TRUE(fs_b->write("/b.bin", ByteSpan(foreign)).is_ok());
  ASSERT_TRUE(b.sync().is_ok());

  const std::uint64_t commits = counter(a, "meta.shard.commits");
  const Status maintained = maintain(a);
  ASSERT_TRUE(maintained.is_ok()) << maintained.to_string();
  ASSERT_GT(counter(a, "meta.shard.commits"), commits)
      << "the maintenance committed nothing";

  auto round = a.sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_a->read("/b.bin").value_or(Bytes{}), foreign);

  auto fs_c = std::make_shared<MemoryLocalFs>();
  UniDriveClient c(a.clouds(), fs_c, test_config("devC"));
  round = c.sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_c->read("/b.bin").value_or(Bytes{}), foreign);

  round = b.sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_b->read("/b.bin").value_or(Bytes{}), foreign);
}

TEST_F(ClientTest, GarbageCollectionOnStaleDeviceKeepsForeignFiles) {
  expect_stale_maintenance_keeps_foreign_files(
      clouds_, /*with_garbage=*/true,
      [](UniDriveClient& a) { return a.collect_garbage().status(); });
}

TEST_F(ClientTest, TrimOnStaleDeviceKeepsForeignFiles) {
  expect_stale_maintenance_keeps_foreign_files(
      clouds_, /*with_garbage=*/false,
      [](UniDriveClient& a) { return a.cleanup_overprovisioned(); });
}

TEST_F(ClientTest, MembershipChangeOnStaleDeviceKeepsForeignFiles) {
  expect_stale_maintenance_keeps_foreign_files(
      clouds_, /*with_garbage=*/false, [](UniDriveClient& a) {
        return a.add_cloud(std::make_shared<cloud::MemoryCloud>(5, "cloud5"));
      });
}

// Runs `action` once, just before the first lock-file upload after it is
// armed.
struct LockTrap {
  std::atomic<bool> armed{false};
  std::function<void()> action;
};

class TrappedCloud final : public cloud::CloudProvider {
 public:
  TrappedCloud(cloud::CloudPtr inner, std::shared_ptr<LockTrap> trap)
      : inner_(std::move(inner)), trap_(std::move(trap)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Status upload(const std::string& path, ByteSpan data) override {
    if (path.starts_with("/lock") && trap_->armed.exchange(false)) {
      trap_->action();
    }
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    return inner_->remove(path);
  }

 private:
  cloud::CloudPtr inner_;
  std::shared_ptr<LockTrap> trap_;
};

// B commits between A's GC staging its first attempt and A's fence read:
// the fence is past the GC's basis, so the GC rebases under its locks. It
// still commits its drops, the committed image keeps B's file, and A,
// which never pulled that file, writes it to its folder on its next sync.
TEST_F(ClientTest, GarbageCollectionRebasesWhenTheFenceMovesPastItsBasis) {
  auto trap = std::make_shared<LockTrap>();
  cloud::MultiCloud trapped;
  for (const cloud::CloudPtr& c : clouds_) {
    trapped.push_back(std::make_shared<TrappedCloud>(c, trap));
  }
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient a(trapped, fs_a, test_config("devA"));
  auto b = make_client("devB", fs_b);
  Rng rng(97);
  ASSERT_TRUE(fs_a->write("/a.bin", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(fs_a->write("/junk.bin", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(a.sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  const std::vector<std::string> junk =
      a.image().files().at("/junk.bin").segment_ids;
  ASSERT_TRUE(fs_a->remove("/junk.bin").is_ok());
  ASSERT_TRUE(a.sync().is_ok());

  const Bytes foreign = rng.bytes(40000);
  ASSERT_TRUE(fs_b->write("/b.bin", ByteSpan(foreign)).is_ok());
  Status b_round = make_error(ErrorCode::kInternal, "trap never fired");
  trap->action = [&] { b_round = b->sync().status(); };
  trap->armed = true;
  auto collected = a.collect_garbage();
  ASSERT_TRUE(collected.is_ok()) << collected.status().to_string();
  ASSERT_TRUE(b_round.is_ok()) << b_round.to_string();
  EXPECT_EQ(collected.value(), junk.size());

  // The committed image holds B's file and lacks the collected segments.
  auto fs_c = std::make_shared<MemoryLocalFs>();
  auto c = make_client("devC", fs_c);
  auto round = c->sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_c->read("/b.bin").value_or(Bytes{}), foreign);
  for (const std::string& id : junk) {
    EXPECT_EQ(c->image().find_segment(id), nullptr) << id;
  }

  round = a.sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_a->read("/b.bin").value_or(Bytes{}), foreign);
  for (const std::string& id : junk) {
    EXPECT_EQ(a.image().find_segment(id), nullptr) << id;
  }
  round = b->sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_EQ(fs_b->read("/b.bin").value_or(Bytes{}), foreign);
}

// Lock- and metadata-area calls the client has made, ok and err: the
// cloud.<cloud>.<verb>.<area>.<outcome> counters with area lock or meta.
std::uint64_t control_calls(const UniDriveClient& client) {
  static const std::regex kControl(
      R"(cloud\.[^.]+\.[^.]+\.(lock|meta)\.(ok|err))");
  std::uint64_t n = 0;
  for (const auto& [name, value] :
       client.observability()->metrics.snapshot().counters) {
    if (std::regex_match(name, kControl)) n += value;
  }
  return n;
}

// The control-plane calls of a 1-file sync commit, on a current device and
// on one that must merge a foreign commit. A change that adds or drops a
// wave on the commit path perfbench times moves them. Data-area calls are
// left out: over-provisioning follows completion order.
TEST_F(ClientTest, SyncCommitControlCallsArePinned) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(98);
  ASSERT_TRUE(fs_a->write("/one", ByteSpan(rng.bytes(20000))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  // A 1-file commit on a current device.
  ASSERT_TRUE(fs_a->write("/two", ByteSpan(rng.bytes(20000))).is_ok());
  std::uint64_t before = control_calls(*a);
  auto round = a->sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_TRUE(round.value().committed);
  EXPECT_EQ(control_calls(*a) - before, 117u);

  // A 1-file commit that must merge one foreign commit.
  ASSERT_TRUE(fs_b->write("/three", ByteSpan(rng.bytes(20000))).is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(fs_a->write("/four", ByteSpan(rng.bytes(20000))).is_ok());
  before = control_calls(*a);
  round = a->sync();
  ASSERT_TRUE(round.is_ok()) << round.status().to_string();
  EXPECT_TRUE(round.value().committed);
  EXPECT_TRUE(fs_a->read("/three").is_ok());
  EXPECT_EQ(control_calls(*a) - before, 130u);
}

}  // namespace
}  // namespace unidrive::core
