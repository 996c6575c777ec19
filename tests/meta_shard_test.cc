// Tests for the sharded metadata plane: routing, manifest codec (including
// round-trip fuzzing and corruption rejection), the KV engine, the
// transactional ShardedMetaStore, the scoped LockManager — and the
// concurrent-writer property test (zero lost updates across disjoint
// shards; run it under TSan to certify the locking).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/rng.h"
#include "lock/lock_manager.h"
#include "metadata/changelist.h"
#include "metadata/kv.h"
#include "metadata/shard.h"
#include "metadata/sharded_store.h"
#include "test_seed.h"

UNIDRIVE_REGISTER_SEED_LISTENER();

namespace unidrive::metadata {
namespace {

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

// Uniform int in [lo, hi] from the repo's deterministic Rng.
int rand_int(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo) + 1));
}

VersionStamp stamp(const std::string& device, std::uint64_t counter) {
  VersionStamp v;
  v.device = device;
  v.counter = counter;
  return v;
}

FileSnapshot snapshot(const std::string& path, const std::string& device) {
  FileSnapshot s;
  s.path = path;
  s.size = path.size();
  s.content_hash = "hash-" + path;
  s.origin_device = device;
  return s;
}

// --- routing ----------------------------------------------------------------

TEST(ShardRoutingTest, WholeSubtreeLandsInOneShard) {
  const ShardId docs = shard_of_path("/docs/a.txt", 16);
  EXPECT_EQ(shard_of_path("/docs/sub/deep/b.txt", 16), docs);
  EXPECT_EQ(shard_of_path("/docs", 16), docs);
  // Root-level files route by their own name.
  EXPECT_EQ(shard_of_path("/top.txt", 16), shard_of_path("/top.txt", 16));
}

TEST(ShardRoutingTest, RoutingIsStableAndBounded) {
  Rng rng(testing::test_seed(0x5eed0001));
  for (int i = 0; i < 200; ++i) {
    const std::string path = "/d" + std::to_string(rand_int(rng, 0, 50)) +
                             "/f" + std::to_string(i);
    const auto n = static_cast<std::uint32_t>(rand_int(rng, 1, 32));
    const ShardId id = shard_of_path(path, n);
    EXPECT_LT(id, n);
    EXPECT_EQ(id, shard_of_path(path, n));  // deterministic
  }
  EXPECT_EQ(shard_of_path("/any", 1), 0u);
  EXPECT_EQ(shard_of_segment("seg", 0), 0u);
}

TEST(ShardRoutingTest, ChangesRouteByKind) {
  Change file = Change::upsert_file(snapshot("/docs/a", "dev"));
  EXPECT_EQ(shard_of_change(file, 16), shard_of_path("/docs/a", 16));

  SegmentInfo seg;
  seg.id = "abc123";
  Change up = Change::upsert_segment(seg);
  EXPECT_EQ(shard_of_change(up, 16), shard_of_segment("abc123", 16));
  Change drop = Change::drop_segment("abc123");
  EXPECT_EQ(shard_of_change(drop, 16), shard_of_segment("abc123", 16));
}

TEST(ShardRoutingTest, SplitGroupsByShardSortedAndComplete) {
  std::vector<Change> changes;
  for (int i = 0; i < 40; ++i) {
    changes.push_back(Change::upsert_file(
        snapshot("/d" + std::to_string(i % 7) + "/f" + std::to_string(i),
                 "dev")));
  }
  const auto slices = split_changes_by_shard(changes, 4);
  std::size_t total = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(slices[i - 1].shard, slices[i].shard);
    }
    total += slices[i].changes.size();
    for (const Change& c : slices[i].changes) {
      EXPECT_EQ(shard_of_change(c, 4), slices[i].shard);
    }
  }
  EXPECT_EQ(total, changes.size());
}

// --- manifest codec ---------------------------------------------------------

ShardManifest random_manifest(Rng& rng) {
  ShardManifest m;
  m.num_shards = static_cast<std::uint32_t>(rand_int(rng, 1, 64));
  m.version = stamp("dev" + std::to_string(rand_int(rng, 0, 9)),
                    static_cast<std::uint64_t>(rand_int(rng, 1, 1 << 20)));
  const int n_entries =
      rand_int(rng, 0, static_cast<int>(m.num_shards) - 1);
  std::set<ShardId> ids;
  while (static_cast<int>(ids.size()) < n_entries) {
    ids.insert(static_cast<ShardId>(
        rand_int(rng, 0, static_cast<int>(m.num_shards) - 1)));
  }
  for (const ShardId id : ids) {
    ShardEntry e;
    e.id = id;
    e.version = stamp("w" + std::to_string(rand_int(rng, 0, 5)),
                      static_cast<std::uint64_t>(rand_int(rng, 1, 4096)));
    if (rand_int(rng, 0, 1) == 1) {
      e.base_key = shard_base_key(id, e.version);
      e.base_size = static_cast<std::uint64_t>(rand_int(rng, 1, 1 << 24));
    }
    const int nd = rand_int(rng, 0, 5);
    for (int j = 0; j < nd; ++j) {
      DeltaRef d;
      d.key = shard_delta_key(id, stamp("w", static_cast<std::uint64_t>(j)));
      d.size = static_cast<std::uint64_t>(rand_int(rng, 1, 1 << 16));
      e.deltas.push_back(std::move(d));
    }
    m.entries.push_back(std::move(e));
  }
  return m;
}

TEST(ShardManifestTest, SerializeRoundTripFuzz) {
  Rng rng(testing::test_seed(0x5eed0002));
  for (int iter = 0; iter < 200; ++iter) {
    const ShardManifest m = random_manifest(rng);
    const Bytes wire = m.serialize();
    auto back = ShardManifest::deserialize(ByteSpan(wire));
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), m);
    // Round-trip is byte-stable (canonical encoding).
    EXPECT_EQ(back.value().serialize(), wire);
  }
}

TEST(ShardManifestTest, EveryTruncationIsRejected) {
  Rng rng(testing::test_seed(0x5eed0003));
  const ShardManifest m = random_manifest(rng);
  const Bytes wire = m.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto r = ShardManifest::deserialize(ByteSpan(wire.data(), len));
    EXPECT_FALSE(r.is_ok()) << "truncation at " << len << " parsed";
  }
}

TEST(ShardManifestTest, BitFlipFuzzNeverCrashesOrBreaksInvariants) {
  Rng rng(testing::test_seed(0x5eed0004));
  for (int iter = 0; iter < 400; ++iter) {
    const ShardManifest m = random_manifest(rng);
    Bytes wire = m.serialize();
    if (wire.empty()) continue;
    const std::size_t byte = static_cast<std::size_t>(
        rand_int(rng, 0, static_cast<int>(wire.size()) - 1));
    wire[byte] ^= static_cast<std::uint8_t>(1 << rand_int(rng, 0, 7));
    auto r = ShardManifest::deserialize(ByteSpan(wire));
    if (!r.is_ok()) continue;  // rejected — fine
    // Accepted mutants must still satisfy the structural invariants the
    // store relies on: non-zero shard count, strictly ordered in-range ids.
    const ShardManifest& mm = r.value();
    EXPECT_GT(mm.num_shards, 0u);
    for (std::size_t i = 0; i < mm.entries.size(); ++i) {
      EXPECT_LT(mm.entries[i].id, mm.num_shards);
      if (i > 0) {
        EXPECT_LT(mm.entries[i - 1].id, mm.entries[i].id);
      }
    }
  }
}

TEST(ShardManifestTest, UpsertKeepsEntriesSorted) {
  ShardManifest m;
  m.num_shards = 8;
  for (const ShardId id : {5u, 1u, 3u, 1u, 7u, 0u}) {
    ShardEntry e;
    e.id = id;
    e.version = stamp("dev", id + 1);
    m.upsert(e);
  }
  ASSERT_EQ(m.entries.size(), 5u);
  for (std::size_t i = 1; i < m.entries.size(); ++i) {
    EXPECT_LT(m.entries[i - 1].id, m.entries[i].id);
  }
  EXPECT_NE(m.find(3), nullptr);
  EXPECT_EQ(m.find(4), nullptr);
  // The duplicate upsert replaced, not duplicated.
  EXPECT_EQ(m.find(1)->version.counter, 2u);
}

TEST(RootPointerTest, RoundTripAndBadMagic) {
  RootPointer p;
  p.version = stamp("devA", 42);
  p.manifest_key = manifest_key(p.version);
  const Bytes wire = p.serialize();
  auto back = RootPointer::deserialize(ByteSpan(wire));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), p);

  Bytes bad = wire;
  bad[0] ^= 0xFF;
  EXPECT_EQ(RootPointer::deserialize(ByteSpan(bad)).code(),
            ErrorCode::kCorrupt);
}

// --- KV engine --------------------------------------------------------------

TEST(KvStoreTest, PutReplicatesToAllAndGetReturnsFirstValid) {
  auto clouds = make_clouds(3);
  KvStore kv(clouds);
  const Bytes value = bytes_from_string("payload");
  ASSERT_TRUE(kv.put("b0/1_dev", ByteSpan(value)).is_ok());
  for (const auto& c : clouds) {
    EXPECT_TRUE(c->download("/meta/kv/b0/1_dev").is_ok());
  }
  auto got = kv.get("b0/1_dev");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), value);

  kv.remove({"b0/1_dev"});
  EXPECT_EQ(kv.get("b0/1_dev").code(), ErrorCode::kNotFound);
}

TEST(KvStoreTest, PutFailsWithoutMajority) {
  auto inner = make_clouds(3);
  cloud::MultiCloud clouds;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faulty;
  for (const auto& c : inner) {
    auto f = std::make_shared<cloud::FaultyCloud>(c, cloud::FaultProfile{},
                                                  7);
    faulty.push_back(f);
    clouds.push_back(f);
  }
  faulty[0]->set_outage(true);
  faulty[1]->set_outage(true);
  KvStore kv(clouds);
  const Bytes value = bytes_from_string("x");
  EXPECT_EQ(kv.put("k", ByteSpan(value)).code(), ErrorCode::kUnavailable);
  // 2/3 reachable again: majority restored.
  faulty[1]->set_outage(false);
  EXPECT_TRUE(kv.put("k", ByteSpan(value)).is_ok());
}

TEST(KvStoreTest, EmptyCloudSetIsRejectedEverywhere) {
  KvStore kv(cloud::MultiCloud{});
  const Bytes value = bytes_from_string("x");
  EXPECT_EQ(kv.put("k", ByteSpan(value)).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(kv.get("k").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(kv.list("").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(kv.fetch_root().code(), ErrorCode::kInvalidArgument);
  RootPointer p;
  EXPECT_EQ(kv.put_root(p, std::nullopt).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(kv.majority(), 1u);
}

TEST(KvStoreTest, GetValidatorSkipsCorruptCopies) {
  auto clouds = make_clouds(3);
  KvStore kv(clouds);
  const Bytes good = bytes_from_string("good");
  ASSERT_TRUE(kv.put("obj", ByteSpan(good)).is_ok());
  // Corrupt the first cloud's copy in place.
  const Bytes bad = bytes_from_string("BAD!");
  ASSERT_TRUE(clouds[0]->upload("/meta/kv/obj", ByteSpan(bad)).is_ok());

  auto got = kv.get("obj", [&](ByteSpan b) {
    return b.size() == good.size() &&
           std::equal(b.begin(), b.end(), good.begin());
  });
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), good);

  // All copies corrupt -> kCorrupt (copies exist, none validate).
  for (const auto& c : clouds) {
    ASSERT_TRUE(c->upload("/meta/kv/obj", ByteSpan(bad)).is_ok());
  }
  EXPECT_EQ(kv.get("obj", [&](ByteSpan b) {
                return b.size() == good.size() &&
                       std::equal(b.begin(), b.end(), good.begin());
              }).code(),
            ErrorCode::kCorrupt);
}

// Counts every call by verb, then delegates.
class CountingCloud final : public cloud::CloudProvider {
 public:
  enum Verb { kUpload, kDownload, kList, kRemove, kVerbs };

  explicit CountingCloud(cloud::CloudPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Status upload(const std::string& path, ByteSpan data) override {
    ++calls_[kUpload];
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    ++calls_[kDownload];
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    ++calls_[kList];
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    ++calls_[kRemove];
    return inner_->remove(path);
  }

  // Calls per verb since the last reset.
  [[nodiscard]] std::array<int, kVerbs> calls() const {
    std::array<int, kVerbs> out{};
    for (int v = 0; v < kVerbs; ++v) out[v] = calls_[v].load();
    return out;
  }
  void reset() {
    for (auto& c : calls_) c = 0;
  }

 private:
  cloud::CloudPtr inner_;
  std::array<std::atomic<int>, kVerbs> calls_{};
};

std::vector<std::shared_ptr<CountingCloud>> counting(
    const cloud::MultiCloud& inner) {
  std::vector<std::shared_ptr<CountingCloud>> out;
  for (const auto& c : inner) out.push_back(std::make_shared<CountingCloud>(c));
  return out;
}

cloud::MultiCloud as_multi(
    const std::vector<std::shared_ptr<CountingCloud>>& counted) {
  return cloud::MultiCloud(counted.begin(), counted.end());
}

// Every cloud made exactly `want` calls (upload, download, list, remove)
// since the last reset; resets the counters.
void expect_calls_per_cloud(
    const std::vector<std::shared_ptr<CountingCloud>>& counted,
    const std::array<int, CountingCloud::kVerbs>& want, const char* verb) {
  for (const auto& c : counted) {
    EXPECT_EQ(c->calls(), want) << verb << " on " << c->name();
    c->reset();
  }
}

TEST(KvStoreTest, EveryFannedVerbCallsEachCloudOnce) {
  auto counted = counting(make_clouds(5));
  KvStore kv(as_multi(counted), "/meta/kv", nullptr,
             std::make_shared<Executor>(4));
  const Bytes value = bytes_from_string("v");

  ASSERT_TRUE(kv.put("obj", ByteSpan(value)).is_ok());
  expect_calls_per_cloud(counted, {1, 0, 0, 0}, "put");
  EXPECT_EQ(kv.fetch_root().code(), ErrorCode::kNotFound);
  expect_calls_per_cloud(counted, {0, 1, 0, 0}, "fetch_root");
  RootPointer root;
  root.version = stamp("devA", 1);
  root.manifest_key = "m/1_devA";
  ASSERT_TRUE(kv.put_root(root, std::nullopt).is_ok());
  expect_calls_per_cloud(counted, {1, 1, 0, 0}, "put_root");  // fence + write
  ASSERT_TRUE(kv.list("").is_ok());
  expect_calls_per_cloud(counted, {0, 0, 1, 0}, "list");
  kv.remove({"obj"});
  expect_calls_per_cloud(counted, {0, 0, 0, 1}, "remove");
}

TEST(KvStoreTest, GetStaysSingleCopy) {
  auto counted = counting(make_clouds(5));
  KvStore kv(as_multi(counted), "/meta/kv", nullptr,
             std::make_shared<Executor>(4));
  const Bytes good = bytes_from_string("good");
  ASSERT_TRUE(kv.put("obj", ByteSpan(good)).is_ok());
  // Downloads per cloud since the last call.
  const auto downloads = [&] {
    std::vector<int> per_cloud;
    for (const auto& c : counted) {
      per_cloud.push_back(c->calls()[CountingCloud::kDownload]);
      c->reset();
    }
    return per_cloud;
  };
  const auto is_good = [&](ByteSpan b) {
    return b.size() == good.size() &&
           std::equal(b.begin(), b.end(), good.begin());
  };
  (void)downloads();

  // Cloud 0's copy is valid: one call.
  auto got = kv.get("obj", is_good);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), good);
  EXPECT_EQ(downloads(), (std::vector<int>{1, 0, 0, 0, 0}));

  // A corrupt first copy is skipped for cloud 1's.
  const Bytes bad = bytes_from_string("BAD!");
  ASSERT_TRUE(counted[0]->upload("/meta/kv/obj", ByteSpan(bad)).is_ok());
  counted[0]->reset();
  got = kv.get("obj", is_good);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), good);
  EXPECT_EQ(downloads(), (std::vector<int>{1, 1, 0, 0, 0}));
}

TEST(KvStoreTest, EachVerbIsOneRoundTripAcrossTheClouds) {
  // Five clouds, each a full link latency away. Serially a verb would take
  // five latencies; fanned out it takes one (put_root: fence read + write).
  constexpr double kLatency = 0.1;
  cloud::MultiCloud clouds;
  for (const auto& c : make_clouds(5)) {
    clouds.push_back(std::make_shared<cloud::LatentCloud>(
        c, cloud::LinkProfile{0, 0, kLatency}));
  }
  // An explicit pool: the store's fan-out does not depend on the default
  // pool's width (UNIDRIVE_PIPELINE_THREADS).
  KvStore kv(clouds, "/meta/kv", nullptr, std::make_shared<Executor>(8));
  const auto timed = [](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const Bytes value = bytes_from_string("v");
  RootPointer root;
  root.version = stamp("devA", 1);
  root.manifest_key = "m/1_devA";

  EXPECT_LT(timed([&] { EXPECT_TRUE(kv.put("obj", ByteSpan(value)).is_ok()); }),
            2 * kLatency);
  EXPECT_LT(timed([&] {
              EXPECT_EQ(kv.fetch_root().code(), ErrorCode::kNotFound);
            }),
            2 * kLatency);
  EXPECT_LT(timed([&] {
              EXPECT_TRUE(kv.put_root(root, std::nullopt).is_ok());
            }),
            3 * kLatency);
  EXPECT_LT(timed([&] { EXPECT_TRUE(kv.list("").is_ok()); }), 2 * kLatency);
  EXPECT_LT(timed([&] { kv.remove({"obj"}); }), 2 * kLatency);
}

TEST(KvStoreTest, RootFenceRejectsStaleWriters) {
  auto clouds = make_clouds(3);
  KvStore kv(clouds);

  RootPointer r1;
  r1.version = stamp("devA", 1);
  r1.manifest_key = "m/1_devA";
  ASSERT_TRUE(kv.put_root(r1, std::nullopt).is_ok());

  RootPointer r2;
  r2.version = stamp("devA", 2);
  r2.manifest_key = "m/2_devA";
  ASSERT_TRUE(kv.put_root(r2, r1.version).is_ok());

  // A writer that believes no root exists, or fenced on the superseded
  // version, is refused — the pointer can never regress.
  RootPointer r3;
  r3.version = stamp("devB", 3);
  r3.manifest_key = "m/3_devB";
  EXPECT_EQ(kv.put_root(r3, std::nullopt).code(), ErrorCode::kConflict);
  EXPECT_EQ(kv.put_root(r3, r1.version).code(), ErrorCode::kConflict);
  ASSERT_TRUE(kv.put_root(r3, r2.version).is_ok());

  auto root = kv.fetch_root();
  ASSERT_TRUE(root.is_ok());
  EXPECT_EQ(root.value(), r3);
}

TEST(KvStoreTest, FetchRootTakesNewestAcrossClouds) {
  auto clouds = make_clouds(3);
  KvStore kv(clouds);
  RootPointer old_root;
  old_root.version = stamp("devA", 1);
  old_root.manifest_key = "m/1_devA";
  RootPointer new_root;
  new_root.version = stamp("devA", 5);
  new_root.manifest_key = "m/5_devA";
  // A minority cloud lags with an old root; read-from-all takes the newest.
  ASSERT_TRUE(
      clouds[0]->upload("/meta/kv/root", ByteSpan(old_root.serialize()))
          .is_ok());
  ASSERT_TRUE(
      clouds[1]->upload("/meta/kv/root", ByteSpan(new_root.serialize()))
          .is_ok());
  auto got = kv.fetch_root();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), new_root);
}

// --- ShardedMetaStore -------------------------------------------------------

ShardConfig small_shards() {
  ShardConfig c;
  c.num_shards = 8;
  return c;
}

// One full commit through the store API: stage each dirty shard, then flip.
Status commit_changes(ShardedMetaStore& store, const std::vector<Change>& cs,
                      const SyncFolderImage& full_next,
                      const VersionStamp& commit_stamp,
                      const DeltaPolicy& policy = {}) {
  ShardManifest fenced;
  auto m = store.fetch_manifest();
  if (m.is_ok()) {
    fenced = std::move(m).take();
  } else if (m.code() != ErrorCode::kNotFound) {
    return m.status();
  } else {
    fenced.num_shards = store.num_shards();
  }
  std::vector<ShardEntry> dirty;
  for (const auto& slice : split_changes_by_shard(cs, store.num_shards())) {
    auto e = store.publish_shard(slice.shard, fenced.find(slice.shard),
                                 slice.changes, full_next, commit_stamp,
                                 policy);
    if (!e.is_ok()) return e.status();
    dirty.push_back(std::move(e).take());
  }
  auto flipped = store.commit_manifest(dirty, fenced, commit_stamp);
  return flipped.status();
}

SyncFolderImage image_of(const std::vector<Change>& cs) {
  SyncFolderImage img;
  for (const Change& c : cs) apply_change(img, c);
  return img;
}

TEST(ShardedMetaStoreTest, PublishThenFetchRoundTripsAcrossProcesses) {
  auto clouds = make_clouds(3);
  ShardedMetaStore writer(clouds, "pass", small_shards());

  std::vector<Change> cs;
  for (int i = 0; i < 20; ++i) {
    cs.push_back(Change::upsert_file(
        snapshot("/dir" + std::to_string(i % 5) + "/f" + std::to_string(i),
                 "devA")));
  }
  cs.push_back(Change::add_dir("/dir0"));
  SyncFolderImage full = image_of(cs);
  ASSERT_TRUE(commit_changes(writer, cs, full, stamp("devA", 1)).is_ok());

  // A different "process" (fresh store, cold cache) sees the same state.
  ShardedMetaStore reader(clouds, "pass", small_shards());
  auto fetched = reader.fetch_latest();
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value().image.files().size(), 20u);
  EXPECT_EQ(fetched.value().version, stamp("devA", 1));
  for (int i = 0; i < 20; ++i) {
    const std::string path =
        "/dir" + std::to_string(i % 5) + "/f" + std::to_string(i);
    EXPECT_NE(fetched.value().image.find_file(path), nullptr) << path;
  }
}

TEST(ShardedMetaStoreTest, WrongPassphraseCannotRead) {
  auto clouds = make_clouds(3);
  ShardedMetaStore writer(clouds, "pass", small_shards());
  std::vector<Change> cs{Change::upsert_file(snapshot("/a", "devA"))};
  ASSERT_TRUE(
      commit_changes(writer, cs, image_of(cs), stamp("devA", 1)).is_ok());

  ShardedMetaStore wrong(clouds, "other", small_shards());
  EXPECT_FALSE(wrong.fetch_latest().is_ok());
}

TEST(ShardedMetaStoreTest, CommitTouchesOnlyDirtyShards) {
  auto clouds = make_clouds(3);
  ShardedMetaStore store(clouds, "pass", small_shards());

  std::vector<Change> seed_cs;
  for (int i = 0; i < 32; ++i) {
    seed_cs.push_back(Change::upsert_file(
        snapshot("/d" + std::to_string(i) + "/f", "devA")));
  }
  SyncFolderImage full = image_of(seed_cs);
  ASSERT_TRUE(commit_changes(store, seed_cs, full, stamp("devA", 1)).is_ok());
  auto before = store.fetch_manifest();
  ASSERT_TRUE(before.is_ok());

  // Touch exactly one subtree.
  std::vector<Change> one{Change::upsert_file(snapshot("/d3/f", "devA"))};
  apply_change(full, one.front());
  ASSERT_TRUE(commit_changes(store, one, full, stamp("devA", 2)).is_ok());

  auto after = store.fetch_manifest();
  ASSERT_TRUE(after.is_ok());
  const ShardId dirty_shard = shard_of_path("/d3/f", store.num_shards());
  std::size_t advanced = 0;
  for (const ShardEntry& e : after.value().entries) {
    const ShardEntry* was = before.value().find(e.id);
    ASSERT_NE(was, nullptr);
    if (!(was->version == e.version)) {
      ++advanced;
      EXPECT_EQ(e.id, dirty_shard);
    } else {
      EXPECT_EQ(*was, e);  // clean shards: byte-identical entries
    }
  }
  EXPECT_EQ(advanced, 1u);
  EXPECT_EQ(after.value().version, stamp("devA", 2));
}

TEST(ShardedMetaStoreTest, ShortCircuitCacheServesUnchangedShards) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  auto obs = std::make_shared<obs::Observability>(clock);
  ShardedMetaStore store(clouds, "pass", small_shards(), obs);

  std::vector<Change> cs;
  for (int i = 0; i < 8; ++i) {
    cs.push_back(Change::upsert_file(
        snapshot("/d" + std::to_string(i) + "/f", "devA")));
  }
  ASSERT_TRUE(
      commit_changes(store, cs, image_of(cs), stamp("devA", 1)).is_ok());

  ASSERT_TRUE(store.fetch_latest().is_ok());
  const std::uint64_t hits_before = obs->metrics.snapshot().counter_value(
      "meta.shard.fetch.short_circuit");
  ASSERT_TRUE(store.fetch_latest().is_ok());
  const std::uint64_t hits_after = obs->metrics.snapshot().counter_value(
      "meta.shard.fetch.short_circuit");
  // Every shard was unchanged: the second assembly short-circuits.
  EXPECT_GE(hits_after - hits_before, 1u);

  store.clear_cache();
  ASSERT_TRUE(store.fetch_latest().is_ok());  // cold re-read still works
}

TEST(ShardedMetaStoreTest, CompactionFoldsChainAndPrunesObjects) {
  auto clouds = make_clouds(3);
  ShardConfig cfg = small_shards();
  cfg.max_delta_objects = 3;
  ManualClock clock;
  auto obs = std::make_shared<obs::Observability>(clock);
  ShardedMetaStore store(clouds, "pass", cfg, obs);

  // Same subtree every commit: the delta chain grows until the bound folds
  // it into a fresh base.
  SyncFolderImage full;
  for (std::uint64_t round = 1; round <= 10; ++round) {
    FileSnapshot s = snapshot("/hot/f" + std::to_string(round), "devA");
    std::vector<Change> cs{Change::upsert_file(s)};
    apply_change(full, cs.front());
    ASSERT_TRUE(commit_changes(store, cs, full, stamp("devA", round),
                               DeltaPolicy{.merge_ratio = 1e9,
                                           .merge_floor = 1u << 30})
                    .is_ok());
    auto m = store.fetch_manifest();
    ASSERT_TRUE(m.is_ok());
    const ShardEntry* e =
        m.value().find(shard_of_path("/hot/x", store.num_shards()));
    ASSERT_NE(e, nullptr);
    EXPECT_LE(e->deltas.size(), cfg.max_delta_objects);
  }
  const auto snap = obs->metrics.snapshot();
  EXPECT_GE(snap.counter_value("meta.shard.compactions"), 2u);
  EXPECT_GE(snap.counter_value("meta.shard.pruned"), 1u);

  // A cold reader still assembles the full folded state.
  ShardedMetaStore reader(clouds, "pass", cfg);
  auto fetched = reader.fetch_latest();
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value().image.files().size(), 10u);
}

TEST(ShardedMetaStoreTest, StaleWriterGetsFencedConflict) {
  auto clouds = make_clouds(3);
  ShardedMetaStore a(clouds, "pass", small_shards());
  ShardedMetaStore b(clouds, "pass", small_shards());

  std::vector<Change> seed_cs{Change::upsert_file(snapshot("/d/f0", "devA"))};
  SyncFolderImage full = image_of(seed_cs);
  ASSERT_TRUE(commit_changes(a, seed_cs, full, stamp("devA", 1)).is_ok());

  // Both read the same fenced manifest...
  auto fenced_a = a.fetch_manifest();
  auto fenced_b = b.fetch_manifest();
  ASSERT_TRUE(fenced_a.is_ok());
  ASSERT_TRUE(fenced_b.is_ok());

  // ...A commits the shard first...
  std::vector<Change> ca{Change::upsert_file(snapshot("/d/f1", "devA"))};
  SyncFolderImage full_a = full;
  apply_change(full_a, ca.front());
  const ShardId shard = shard_of_path("/d/f1", a.num_shards());
  auto ea = a.publish_shard(shard, fenced_a.value().find(shard), ca, full_a,
                            stamp("devA", 2), DeltaPolicy{});
  ASSERT_TRUE(ea.is_ok());
  ASSERT_TRUE(
      a.commit_manifest({ea.value()}, fenced_a.value(), stamp("devA", 2))
          .is_ok());

  // ...so B's commit of the SAME shard against the stale fence must lose
  // cleanly (kConflict), never silently clobber A's update.
  std::vector<Change> cb{Change::upsert_file(snapshot("/d/f2", "devB"))};
  SyncFolderImage full_b = full;
  apply_change(full_b, cb.front());
  auto eb = b.publish_shard(shard, fenced_b.value().find(shard), cb, full_b,
                            stamp("devB", 2), DeltaPolicy{});
  ASSERT_TRUE(eb.is_ok());
  EXPECT_EQ(
      b.commit_manifest({eb.value()}, fenced_b.value(), stamp("devB", 2))
          .code(),
      ErrorCode::kConflict);

  // A's file survived.
  auto latest = b.fetch_latest();
  ASSERT_TRUE(latest.is_ok());
  EXPECT_NE(latest.value().image.find_file("/d/f1"), nullptr);
}

TEST(ShardedMetaStoreTest, DisjointShardCommitFromStaleFenceSucceeds) {
  auto clouds = make_clouds(3);
  ShardedMetaStore a(clouds, "pass", small_shards());
  ShardedMetaStore b(clouds, "pass", small_shards());

  // Two top dirs guaranteed to live in different shards.
  std::string dir_a = "/a0";
  std::string dir_b;
  for (int i = 0; i < 64; ++i) {
    const std::string cand = "/b" + std::to_string(i);
    if (shard_of_path(cand + "/f", 8) != shard_of_path(dir_a + "/f", 8)) {
      dir_b = cand;
      break;
    }
  }
  ASSERT_FALSE(dir_b.empty());

  std::vector<Change> seed_cs{
      Change::upsert_file(snapshot(dir_a + "/seed", "devA"))};
  ASSERT_TRUE(commit_changes(a, seed_cs, image_of(seed_cs), stamp("devA", 1))
                  .is_ok());

  auto fenced_a = a.fetch_manifest();
  auto fenced_b = b.fetch_manifest();
  ASSERT_TRUE(fenced_a.is_ok());
  ASSERT_TRUE(fenced_b.is_ok());

  // A commits its shard; B then commits a DIFFERENT shard from the same
  // (now stale) fence — per-shard fencing lets it through, and the final
  // manifest version still advances past both.
  std::vector<Change> ca{Change::upsert_file(snapshot(dir_a + "/f", "devA"))};
  SyncFolderImage fa = image_of(seed_cs);
  apply_change(fa, ca.front());
  ASSERT_TRUE(commit_changes(a, ca, fa, stamp("devA", 2)).is_ok());

  std::vector<Change> cb{Change::upsert_file(snapshot(dir_b + "/f", "devB"))};
  SyncFolderImage fb = image_of(cb);
  const ShardId shard_b = shard_of_path(dir_b + "/f", b.num_shards());
  auto eb = b.publish_shard(shard_b, fenced_b.value().find(shard_b), cb, fb,
                            stamp("devB", 2), DeltaPolicy{});
  ASSERT_TRUE(eb.is_ok());
  auto flipped =
      b.commit_manifest({eb.value()}, fenced_b.value(), stamp("devB", 2));
  ASSERT_TRUE(flipped.is_ok()) << flipped.status().to_string();
  // The manifest stamp dominates A's concurrent commit (no regression).
  EXPECT_GT(flipped.value().version.counter, 2u);

  auto latest = a.fetch_latest();
  ASSERT_TRUE(latest.is_ok());
  EXPECT_NE(latest.value().image.find_file(dir_a + "/f"), nullptr);
  EXPECT_NE(latest.value().image.find_file(dir_b + "/f"), nullptr);
}

TEST(ShardedMetaStoreTest, StaleHandedRootRetriesFromFreshRoot) {
  auto clouds = make_clouds(3);
  ShardConfig cfg = small_shards();
  cfg.max_delta_objects = 1;  // the second commit to a shard folds it
  const DeltaPolicy no_byte_folds{.merge_ratio = 1e9,
                                  .merge_floor = 1u << 30};
  ShardedMetaStore writer(clouds, "pass", cfg);
  ShardedMetaStore reader(clouds, "pass", cfg);

  std::vector<Change> c1{Change::upsert_file(snapshot("/hot/a", "devA"))};
  SyncFolderImage full = image_of(c1);
  ASSERT_TRUE(
      commit_changes(writer, c1, full, stamp("devA", 1), no_byte_folds)
          .is_ok());
  // The reader's update check reads root 1...
  auto update = reader.check_update(stamp("devA", 0));
  ASSERT_TRUE(update.is_ok());
  ASSERT_TRUE(update.value().has_value());
  const RootPointer stale = *update.value();
  auto manifest = writer.fetch_manifest();
  ASSERT_TRUE(manifest.is_ok());
  const ShardEntry* entry =
      manifest.value().find(shard_of_path("/hot/a", writer.num_shards()));
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->deltas.size(), 1u);
  const std::string delta_key = entry->deltas.front().key;

  // ...then a fold commits root 2 and prunes root 1's delta object.
  std::vector<Change> c2{Change::upsert_file(snapshot("/hot/b", "devA"))};
  apply_change(full, c2.front());
  ASSERT_TRUE(
      commit_changes(writer, c2, full, stamp("devA", 2), no_byte_folds)
          .is_ok());
  ASSERT_EQ(writer.kv().get(delta_key).code(), ErrorCode::kNotFound);

  // Handed the stale root, the fetch retries from a fresh one.
  auto fetched = reader.fetch_latest(stale);
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value().version, stamp("devA", 2));
  EXPECT_NE(fetched.value().image.find_file("/hot/a"), nullptr);
  EXPECT_NE(fetched.value().image.find_file("/hot/b"), nullptr);
}

// True when the update check reports a root newer than `local`.
bool reports_update(ShardedMetaStore& store, const VersionStamp& local) {
  const auto update = store.check_update(local);
  return update.is_ok() && update.value().has_value();
}

TEST(ShardedMetaStoreTest, HasCloudUpdateComparesRootVersion) {
  auto clouds = make_clouds(3);
  ShardedMetaStore store(clouds, "pass", small_shards());
  EXPECT_FALSE(reports_update(store, stamp("devA", 0)));
  std::vector<Change> cs{Change::upsert_file(snapshot("/a", "devA"))};
  ASSERT_TRUE(
      commit_changes(store, cs, image_of(cs), stamp("devA", 1)).is_ok());
  EXPECT_TRUE(reports_update(store, stamp("devA", 0)));
  EXPECT_FALSE(reports_update(store, stamp("devA", 1)));
  // The check hands back the root it read.
  const auto update = store.check_update(stamp("devA", 0));
  ASSERT_TRUE(update.is_ok());
  ASSERT_TRUE(update.value().has_value());
  EXPECT_EQ(update.value()->version, stamp("devA", 1));
}

// The metadata store's availability contract: no root before the first
// commit is kNotFound, and a majority of clouds suffices to commit and read.

TEST(MetaStoreTest, NoMetadataIsNotFound) {
  auto clouds = make_clouds(5);
  ShardedMetaStore store(clouds, "pass", small_shards());
  EXPECT_EQ(store.check_update(stamp("devA", 0)).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store.fetch_latest().code(), ErrorCode::kNotFound);
}

TEST(MetaStoreTest, SurvivesMinorityOutage) {
  // Two of five clouds in permanent outage: the commit and a cold reader's
  // fetch both succeed on the remaining majority.
  cloud::MultiCloud wrapped;
  for (const auto& c : make_clouds(5)) {
    auto faulty =
        std::make_shared<cloud::FaultyCloud>(c, cloud::FaultProfile{}, 1);
    faulty->set_outage(wrapped.size() < 2);
    wrapped.push_back(faulty);
  }
  ShardedMetaStore writer(wrapped, "pass", small_shards());
  std::vector<Change> cs{Change::upsert_file(snapshot("/a", "devA")),
                         Change::upsert_file(snapshot("/dir/b", "devA"))};
  ASSERT_TRUE(
      commit_changes(writer, cs, image_of(cs), stamp("devA", 1)).is_ok());

  ShardedMetaStore reader(wrapped, "pass", small_shards());
  auto fetched = reader.fetch_latest();
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value().version, stamp("devA", 1));
  EXPECT_EQ(fetched.value().image.files().size(), 2u);
}

}  // namespace
}  // namespace unidrive::metadata

// --- LockManager ------------------------------------------------------------

namespace unidrive::lock {
namespace {

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

SleepFn clock_sleep(ManualClock& clock) {
  return [&clock](Duration d) { clock.advance(d); };
}

LockConfig fast_config() {
  LockConfig c;
  c.retry.backoff_base = 0.01;
  c.retry.backoff_cap = 0.1;
  return c;
}

TEST(LockScopeTest, CanonicalOrderIsShardsAscendingRootLast) {
  std::vector<Scope> scopes{Scope::root(), Scope::of_shard(7),
                            Scope::of_shard(0), Scope::of_shard(3)};
  std::sort(scopes.begin(), scopes.end());
  EXPECT_EQ(scopes[0], Scope::of_shard(0));
  EXPECT_EQ(scopes[1], Scope::of_shard(3));
  EXPECT_EQ(scopes[2], Scope::of_shard(7));
  EXPECT_EQ(scopes[3], Scope::root());
  EXPECT_EQ(scopes[3].to_string(), "root");
  EXPECT_EQ(scopes[0].to_string(), "s0");
}

TEST(LockManagerTest, DisjointScopesNeverContend) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockManager a(clouds, "devA", fast_config(), clock, Rng(1),
                clock_sleep(clock));
  LockManager b(clouds, "devB", fast_config(), clock, Rng(2),
                clock_sleep(clock));

  ASSERT_TRUE(a.acquire(Scope::of_shard(1)).is_ok());
  // A different shard AND the root are both free while s1 is held.
  ASSERT_TRUE(b.acquire(Scope::of_shard(2)).is_ok());
  ASSERT_TRUE(b.acquire(Scope::root()).is_ok());
  EXPECT_TRUE(a.held(Scope::of_shard(1)));
  EXPECT_TRUE(b.held(Scope::of_shard(2)));
  EXPECT_FALSE(b.held(Scope::of_shard(1)));
  a.release_all();
  b.release_all();
}

TEST(LockManagerTest, SameScopeContends) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockManager a(clouds, "devA", fast_config(), clock, Rng(1),
                clock_sleep(clock));
  LockConfig cfg_b = fast_config();
  cfg_b.retry.max_attempts = 3;
  LockManager b(clouds, "devB", cfg_b, clock, Rng(2), clock_sleep(clock));

  ASSERT_TRUE(a.acquire(Scope::of_shard(4)).is_ok());
  EXPECT_EQ(b.acquire(Scope::of_shard(4)).code(),
            ErrorCode::kLockContention);
  a.release_all();
  EXPECT_TRUE(b.acquire(Scope::of_shard(4)).is_ok());
  b.release_all();
}

TEST(LockManagerTest, AcquireAllIsAllOrNothing) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockManager a(clouds, "devA", fast_config(), clock, Rng(1),
                clock_sleep(clock));
  LockConfig cfg_b = fast_config();
  cfg_b.retry.max_attempts = 2;
  LockManager b(clouds, "devB", cfg_b, clock, Rng(2), clock_sleep(clock));

  ASSERT_TRUE(a.acquire(Scope::of_shard(2)).is_ok());
  // B wants s1+s2+root; s2 is taken, so B must end up holding NOTHING.
  const Status s = b.acquire_all(
      {Scope::of_shard(1), Scope::of_shard(2), Scope::root()});
  EXPECT_FALSE(s.is_ok());
  EXPECT_FALSE(b.held(Scope::of_shard(1)));
  EXPECT_FALSE(b.held(Scope::root()));
  // The rolled-back scopes left no lock files behind.
  for (const auto& c : clouds) {
    EXPECT_TRUE(c->list("/lock/s1").value().empty());
    EXPECT_TRUE(c->list("/lock").value().empty());
  }
  a.release_all();
}

TEST(LockManagerTest, RootScopeUsesPreShardDirectory) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockManager m(clouds, "devA", fast_config(), clock, Rng(1),
                clock_sleep(clock));
  ASSERT_TRUE(m.acquire(Scope::root()).is_ok());
  // Root lock files live directly in the pre-shard /lock directory, so a
  // pre-refactor holder and the root scope exclude each other.
  for (const auto& c : clouds) {
    EXPECT_EQ(c->list("/lock").value().size(), 1u);
  }
  ASSERT_TRUE(m.acquire(Scope::of_shard(3)).is_ok());
  for (const auto& c : clouds) {
    // Nested scope dirs are not immediate children files of /lock listings
    // used by the root protocol (list returns immediate children only).
    EXPECT_EQ(c->list("/lock/s3").value().size(), 1u);
  }
  m.release_all();
  for (const auto& c : clouds) {
    EXPECT_TRUE(c->list("/lock").value().empty());
    EXPECT_TRUE(c->list("/lock/s3").value().empty());
  }
}

TEST(LockManagerTest, AcquireAllDedupsScopes) {
  auto clouds = make_clouds(3);
  ManualClock clock;
  LockManager m(clouds, "devA", fast_config(), clock, Rng(1),
                clock_sleep(clock));
  ASSERT_TRUE(m.acquire_all({Scope::of_shard(1), Scope::of_shard(1),
                             Scope::root(), Scope::root()})
                  .is_ok());
  EXPECT_TRUE(m.held(Scope::of_shard(1)));
  EXPECT_TRUE(m.held(Scope::root()));
  m.release_all();
  EXPECT_FALSE(m.held(Scope::of_shard(1)));
}

}  // namespace
}  // namespace unidrive::lock

// --- concurrent writers (the tentpole guarantee) ----------------------------

namespace unidrive::metadata {
namespace {

// N writer threads, each committing to its OWN top-level directory
// (disjoint shards by construction) through its own ShardedMetaStore and
// LockManager over the SAME clouds. The token oracle records every file
// each writer committed; after the dust settles the assembled image must
// contain every token — zero lost updates. Run under TSan to certify the
// locking protocol (tests/CMakeLists.txt wires this binary into the
// sanitizer sweep).
TEST(ConcurrentWritersTest, DisjointShardCommitsLoseNoUpdates) {
  constexpr int kWriters = 4;
  constexpr int kRounds = 6;
  const std::uint64_t base_seed = testing::test_seed(0x5eedc0de);

  cloud::MultiCloud clouds;
  for (int i = 0; i < 3; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  ShardConfig cfg;
  cfg.num_shards = 16;

  // Writer w owns subtree /w<w>; routing sends the whole subtree to one
  // shard, and distinct writers may even share a shard — the per-shard
  // lock, not luck, is what must serialize them.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string device = "dev" + std::to_string(w);
      ShardedMetaStore store(clouds, "pass", cfg);
      lock::LockConfig lk;
      lk.retry.backoff_base = 0.0005;
      lk.retry.backoff_cap = 0.005;
      lk.retry.max_attempts = 64;
      lock::LockManager locks(clouds, device, lk, RealClock::instance(),
                              Rng(base_seed + static_cast<std::uint64_t>(w)));
      SyncFolderImage mine;  // this writer's subtree state
      for (int r = 0; r < kRounds; ++r) {
        const std::string path =
            "/w" + std::to_string(w) + "/token" + std::to_string(r);
        std::vector<Change> cs{Change::upsert_file(
            FileSnapshot{path, 0.0, 8, "h-" + path, {}, device})};
        apply_change(mine, cs.front());
        const ShardId shard = shard_of_path(path, cfg.num_shards);

        bool committed = false;
        for (int attempt = 0; attempt < 32 && !committed; ++attempt) {
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
          const std::uint64_t counter = fenced.version.counter + 1;
          auto entry = store.publish_shard(
              shard, fenced.find(shard), cs, mine,
              VersionStamp{device, counter, 0.0}, DeltaPolicy{});
          if (!entry.is_ok()) {
            locks.release_all();
            continue;
          }
          if (!locks.acquire(lock::Scope::root()).is_ok()) {
            locks.release_all();
            continue;
          }
          auto flipped =
              store.commit_manifest({entry.value()}, fenced,
                                    VersionStamp{device, counter, 0.0});
          locks.release_all();
          committed = flipped.is_ok();
          // kConflict = a foreign root flip between our fetch and our lock;
          // clean retry from a fresh fence.
        }
        if (!committed) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // The oracle: every token every writer committed is present.
  ShardedMetaStore reader(clouds, "pass", cfg);
  auto latest = reader.fetch_latest();
  ASSERT_TRUE(latest.is_ok()) << latest.status().to_string();
  for (int w = 0; w < kWriters; ++w) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string path =
          "/w" + std::to_string(w) + "/token" + std::to_string(r);
      EXPECT_NE(latest.value().image.find_file(path), nullptr)
          << "lost update: " << path;
    }
  }
  EXPECT_EQ(latest.value().image.files().size(),
            static_cast<std::size_t>(kWriters * kRounds));
}

}  // namespace
}  // namespace unidrive::metadata
