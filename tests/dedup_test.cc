#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "crypto/convergent.h"
#include "crypto/sha1.h"
#include "dedup/pool_index.h"
#include "repair/scrubber.h"

namespace unidrive::dedup {
namespace {

using core::ClientConfig;
using core::MemoryLocalFs;
using core::UniDriveClient;

// --- convergent sealing ------------------------------------------------------

TEST(ConvergentTest, IdKindDispatchesOnLength) {
  Rng rng(1);
  const Bytes content = rng.bytes(1000);
  const std::string sha256_id = crypto::segment_id(ByteSpan(content));
  ASSERT_EQ(sha256_id.size(), 64u);
  EXPECT_EQ(crypto::segment_id_kind(sha256_id),
            crypto::SegmentIdKind::kSha256);
  const std::string sha1_id = crypto::Sha1::hex(ByteSpan(content));
  ASSERT_EQ(sha1_id.size(), 40u);
  EXPECT_EQ(crypto::segment_id_kind(sha1_id),
            crypto::SegmentIdKind::kLegacySha1);
  EXPECT_EQ(crypto::segment_id_kind("zz"), crypto::SegmentIdKind::kUnknown);
  // Right length, not hex.
  EXPECT_EQ(crypto::segment_id_kind(std::string(64, 'g')),
            crypto::SegmentIdKind::kUnknown);
}

TEST(ConvergentTest, SealOpenRoundTrip) {
  Rng rng(2);
  const Bytes plain = rng.bytes(5000);
  const std::string id = crypto::segment_id(ByteSpan(plain));
  const Bytes sealed = crypto::convergent_seal(id, ByteSpan(plain));
  ASSERT_EQ(sealed.size(), plain.size());  // CTR is length-preserving
  EXPECT_NE(sealed, plain);
  auto opened = crypto::convergent_open(id, sealed);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), plain);
}

TEST(ConvergentTest, SealingIsDeterministic) {
  Rng rng(3);
  const Bytes plain = rng.bytes(3000);
  const std::string id = crypto::segment_id(ByteSpan(plain));
  // Convergence: same plaintext -> same key -> byte-identical ciphertext,
  // regardless of who (or which kernel dispatch) seals it.
  EXPECT_EQ(crypto::convergent_seal(id, ByteSpan(plain)),
            crypto::convergent_seal(id, ByteSpan(plain)));
}

TEST(ConvergentTest, LegacySha1IdSealsAsIdentity) {
  Rng rng(4);
  const Bytes plain = rng.bytes(2000);
  const std::string id = crypto::Sha1::hex(ByteSpan(plain));
  // Pre-convergence images stored raw-plaintext codewords; their ids must
  // keep passing through both directions untouched.
  EXPECT_EQ(crypto::convergent_seal(id, ByteSpan(plain)), plain);
  auto opened = crypto::convergent_open(id, plain);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), plain);
}

TEST(ConvergentTest, OpenDetectsTampering) {
  Rng rng(5);
  const Bytes plain = rng.bytes(4000);
  const std::string id = crypto::segment_id(ByteSpan(plain));
  Bytes sealed = crypto::convergent_seal(id, ByteSpan(plain));
  sealed[100] ^= 0x5a;
  auto opened = crypto::convergent_open(id, sealed);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), ErrorCode::kCorrupt);
}

TEST(ConvergentTest, VerifySegmentId) {
  Rng rng(6);
  const Bytes plain = rng.bytes(1234);
  const std::string id = crypto::segment_id(ByteSpan(plain));
  EXPECT_TRUE(crypto::verify_segment_id(id, ByteSpan(plain)));
  EXPECT_TRUE(crypto::verify_segment_id(crypto::Sha1::hex(ByteSpan(plain)),
                                        ByteSpan(plain)));
  Bytes other = plain;
  other[0] ^= 1;
  EXPECT_FALSE(crypto::verify_segment_id(id, ByteSpan(other)));
}

TEST(ConvergentTest, StorageAddressRevealsNoKeyMaterial) {
  Rng rng(7);
  const Bytes plain = rng.bytes(2048);
  const std::string id = crypto::segment_id(ByteSpan(plain));
  const std::string addr = crypto::storage_address(id);
  // The convergent key is the id's leading bytes, so the on-cloud name must
  // be a different (one-way) string — never the id itself or a prefix
  // relationship in either direction.
  ASSERT_EQ(addr.size(), 64u);
  EXPECT_NE(addr, id);
  EXPECT_NE(addr.substr(0, 32), id.substr(0, 32));
  // Deterministic in the content: convergence (and dedup) is preserved.
  EXPECT_EQ(addr, crypto::storage_address(id));
  // Legacy SHA-1 ids are not key material and keep their original address,
  // so pre-upgrade blocks stay reachable at their old paths.
  const std::string sha1_id = crypto::Sha1::hex(ByteSpan(plain));
  EXPECT_EQ(crypto::storage_address(sha1_id), sha1_id);
  // block_name embeds the address, not the id.
  const std::string name = metadata::block_name(id, 3);
  EXPECT_EQ(name, addr + "_3");
  EXPECT_EQ(name.find(id), std::string::npos);
}

// --- pool index --------------------------------------------------------------

metadata::SyncFolderImage image_with_segment(const std::string& id,
                                             std::uint64_t size,
                                             std::size_t blocks) {
  metadata::SyncFolderImage image;
  metadata::SegmentInfo seg;
  seg.id = id;
  seg.size = size;
  for (std::size_t i = 0; i < blocks; ++i) {
    metadata::BlockLocation loc;
    loc.cloud = static_cast<cloud::CloudId>(i);
    loc.block_index = i;
    seg.blocks.push_back(loc);
  }
  image.upsert_segment(seg);
  return image;
}

TEST(PoolIndexTest, ProbeMissesOnEmptyIndex) {
  SegmentPoolIndex pool;
  const auto probe = pool.probe_and_retain("fA", std::string(64, 'a'), 100, 3);
  EXPECT_FALSE(probe.hit);
  EXPECT_EQ(pool.entry_count(), 0u);
}

TEST(PoolIndexTest, AbsorbThenProbeHits) {
  SegmentPoolIndex pool;
  const std::string id(64, 'b');
  pool.absorb_image("fA", image_with_segment(id, 100, 5));
  const auto probe = pool.probe_and_retain("fB", id, 100, 3);
  EXPECT_TRUE(probe.hit);
  EXPECT_TRUE(probe.newly_retained);
  EXPECT_EQ(probe.blocks.size(), 5u);
  EXPECT_EQ(pool.reference_count(id), 2u);
  // Wrong size or too few blocks: sanity screens reject the hit.
  EXPECT_FALSE(pool.probe_and_retain("fC", id, 99, 3).hit);
  EXPECT_FALSE(pool.probe_and_retain("fC", id, 100, 6).hit);
}

TEST(PoolIndexTest, ReleaseDropsOnlyUncommittedPins) {
  SegmentPoolIndex pool;
  const std::string id(64, 'c');
  pool.absorb_image("fA", image_with_segment(id, 50, 5));
  ASSERT_TRUE(pool.probe_and_retain("fB", id, 50, 3).hit);
  EXPECT_TRUE(pool.referenced_elsewhere("fA", id));
  // Abandoned commit: the pin goes away, fA's committed ref stays.
  pool.release("fB", id);
  EXPECT_FALSE(pool.referenced_elsewhere("fA", id));
  EXPECT_EQ(pool.reference_count(id), 1u);
  // A pin backed by a committed image survives release.
  ASSERT_TRUE(pool.probe_and_retain("fB", id, 50, 3).hit);
  pool.absorb_image("fB", image_with_segment(id, 50, 5));
  pool.release("fB", id);
  EXPECT_TRUE(pool.referenced_elsewhere("fA", id));
}

TEST(PoolIndexTest, GcGuardProtectsSharedSegments) {
  SegmentPoolIndex pool;
  const std::string id(64, 'd');
  pool.absorb_image("fA", image_with_segment(id, 80, 5));
  pool.absorb_image("fB", image_with_segment(id, 80, 5));
  // fA may not free it: fB still references.
  EXPECT_FALSE(pool.try_begin_gc("fA", id));
  EXPECT_EQ(pool.reference_count(id), 2u);
  // fB stops referencing it (empty committed image), then fA may.
  pool.absorb_image("fB", metadata::SyncFolderImage{});
  EXPECT_TRUE(pool.try_begin_gc("fA", id));
  pool.finish_gc(id);  // deletes "done"; probes may answer again
  // The entry is gone the moment GC is granted: a late probe cannot be
  // handed soon-to-be-deleted block locations.
  EXPECT_FALSE(pool.probe_and_retain("fC", id, 80, 3).hit);
  // Unknown ids are trivially collectable.
  EXPECT_TRUE(pool.try_begin_gc("fA", std::string(64, 'e')));
  pool.finish_gc(std::string(64, 'e'));
}

TEST(PoolIndexTest, TombstoneStallsProbesUntilFinishGc) {
  SegmentPoolIndex pool;
  const std::string id(64, 'f');
  pool.absorb_image("fA", image_with_segment(id, 70, 5));
  ASSERT_TRUE(pool.try_begin_gc("fA", id));
  // Block deletes are now "in flight". A prober must not be answered until
  // finish_gc — a miss would trigger a re-upload onto the exact
  // (deterministic) paths the deletes are still removing.
  std::atomic<bool> deletes_done{false};
  std::thread prober([&pool, &id, &deletes_done] {
    const auto probe = pool.probe_and_retain("fB", id, 70, 3);
    EXPECT_FALSE(probe.hit);  // entry was removed at GC grant
    EXPECT_TRUE(deletes_done.load());  // ...but the answer waited for it
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  deletes_done.store(true);
  pool.finish_gc(id);
  prober.join();
}

TEST(PoolIndexTest, ConcurrentProbeReleaseGcIsRaceFree) {
  SegmentPoolIndex pool;
  constexpr int kSegments = 16;
  std::vector<std::string> ids;
  for (int s = 0; s < kSegments; ++s) {
    ids.push_back(std::string(64, static_cast<char>('a' + s)));
    pool.absorb_image("base", image_with_segment(ids.back(), 64, 5));
  }
  // Four folders hammer probe/release, one folder churns absorb, one keeps
  // attempting GC. TSan-checked: the index must stay internally consistent.
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&pool, &ids, w] {
      const std::string folder = "f" + std::to_string(w);
      for (int round = 0; round < 200; ++round) {
        const std::string& id = ids[(w + round) % kSegments];
        const auto probe = pool.probe_and_retain(folder, id, 64, 3);
        if (probe.hit && probe.newly_retained) pool.release(folder, id);
      }
    });
  }
  workers.emplace_back([&pool, &ids] {
    for (int round = 0; round < 100; ++round) {
      const std::string& id = ids[round % kSegments];
      pool.absorb_image("churn", image_with_segment(id, 64, 5));
      pool.absorb_image("churn", metadata::SyncFolderImage{});
    }
  });
  workers.emplace_back([&pool, &ids] {
    for (int round = 0; round < 100; ++round) {
      const std::string& id = ids[round % kSegments];
      if (pool.try_begin_gc("gc", id)) pool.finish_gc(id);
    }
  });
  for (auto& t : workers) t.join();
  // "base" never released its committed references, so every entry that
  // survived GC attempts still reports it; transient pins are all gone.
  for (const std::string& id : ids) {
    const std::size_t refs = pool.reference_count(id);
    EXPECT_TRUE(refs == 0 || refs == 1) << "id " << id << " refs " << refs;
  }
}

// --- convergence across independent users ------------------------------------

ClientConfig small_config(const std::string& device) {
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.driver.connections_per_cloud = 2;
  return cfg;
}

cloud::MultiCloud make_memory_clouds(int n, const std::string& tag) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), tag + std::to_string(i)));
  }
  return clouds;
}

// All block objects under /data across a cloud set, name -> bytes.
std::map<std::string, Bytes> data_objects(const cloud::MultiCloud& clouds) {
  std::map<std::string, Bytes> out;
  for (const auto& c : clouds) {
    auto listing = c->list("/data");
    if (!listing.is_ok()) continue;
    for (const auto& f : listing.value()) {
      out[f.name] = c->download("/data/" + f.name).value();
    }
  }
  return out;
}

TEST(ConvergenceTest, TwoIndependentUsersProduceIdenticalBlocks) {
  // Two users on DISJOINT cloud accounts, no shared pool index, no shared
  // anything — only the same file content. Convergent dispersal must make
  // every coded block byte-identical across the two deployments, which is
  // the property that lets a provider-side (or gateway-side) pool dedup
  // them without reading plaintext.
  Rng rng(77);
  const Bytes content = rng.bytes(200000);  // several 64 KB segments

  auto clouds_a = make_memory_clouds(5, "ca");
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient user_a(clouds_a, fs_a, small_config("alice"));
  ASSERT_TRUE(fs_a->write("/shared.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(user_a.sync().is_ok());

  auto clouds_b = make_memory_clouds(5, "cb");
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient user_b(clouds_b, fs_b, small_config("bob"));
  ASSERT_TRUE(fs_b->write("/shared.bin", ByteSpan(content)).is_ok());
  ASSERT_TRUE(user_b.sync().is_ok());

  const auto blocks_a = data_objects(clouds_a);
  const auto blocks_b = data_objects(clouds_b);
  ASSERT_FALSE(blocks_a.empty());
  // Both users derive the same storage addresses from the content...
  std::set<std::string> segments_a, segments_b;
  for (const auto& [name, bytes] : blocks_a) {
    segments_a.insert(name.substr(0, name.find('_')));
  }
  for (const auto& [name, bytes] : blocks_b) {
    segments_b.insert(name.substr(0, name.find('_')));
  }
  EXPECT_EQ(segments_a, segments_b);
  // ...and wherever both stacks materialized the same block index, the
  // sealed codeword is byte-identical. (HOW MANY spare blocks each user
  // keeps is a placement policy decision and may legitimately differ; the
  // convergence property is that block content is a pure function of the
  // plaintext and the index.)
  std::size_t compared = 0;
  for (const auto& [name, bytes] : blocks_a) {
    const auto it = blocks_b.find(name);
    if (it == blocks_b.end()) continue;
    ++compared;
    ASSERT_EQ(bytes.size(), it->second.size()) << "block " << name;
    EXPECT_TRUE(bytes == it->second) << "block bytes diverge: " << name;
  }
  // Every segment must overlap in at least its k data blocks.
  EXPECT_GE(compared, segments_a.size() * 3);

  // Shared-plane hygiene: no stored object name may embed a committed
  // segment id — the convergent key is derived from the id, so a name that
  // contained it would hand the decryption key to anyone listing the pool.
  for (const auto& [seg_id, seg] : user_a.image().segments()) {
    (void)seg;
    for (const auto& [name, bytes] : blocks_a) {
      (void)bytes;
      EXPECT_EQ(name.find(seg_id), std::string::npos)
          << "stored name " << name << " leaks segment id " << seg_id;
    }
  }
}

// --- cross-folder dedup over a shared data plane -----------------------------

// Routes the block namespace (/data) to a shared backing cloud and every
// other namespace (metadata, locks, version files) to a private one — two
// sync folders with independent metadata planes landing on one physical
// block pool, which is exactly the deployment the SegmentPoolIndex serves.
class SplitNamespaceCloud final : public cloud::CloudProvider {
 public:
  SplitNamespaceCloud(cloud::CloudPtr shared_data, cloud::CloudPtr priv)
      : data_(std::move(shared_data)), private_(std::move(priv)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return data_->id();
  }
  [[nodiscard]] std::string name() const override { return data_->name(); }

  Status upload(const std::string& path, ByteSpan data) override {
    return route(path)->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    return route(path)->download(path);
  }
  Status create_dir(const std::string& path) override {
    return route(path)->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    return route(dir)->list(dir);
  }
  Status remove(const std::string& path) override {
    return route(path)->remove(path);
  }

 private:
  cloud::CloudProvider* route(const std::string& path) {
    return path == "/data" || path.rfind("/data/", 0) == 0 ? data_.get()
                                                           : private_.get();
  }
  cloud::CloudPtr data_;
  cloud::CloudPtr private_;
};

struct SharedPoolRig {
  std::vector<std::shared_ptr<cloud::MemoryCloud>> data_clouds;
  // Private (metadata/lock) clouds are keyed per FOLDER: every device of a
  // folder must see the same metadata plane, only the /data plane is shared
  // fleet-wide.
  std::map<std::string, std::vector<cloud::CloudPtr>> private_clouds;
  PoolIndexPtr pool = std::make_shared<SegmentPoolIndex>();

  // Enrollment for one folder: shared /data plane, private everything else.
  cloud::MultiCloud folder_clouds(const std::string& folder) {
    auto& priv = private_clouds[folder];
    if (priv.empty()) {
      for (std::size_t i = 0; i < data_clouds.size(); ++i) {
        priv.push_back(std::make_shared<cloud::MemoryCloud>(
            static_cast<cloud::CloudId>(i),
            folder + "_priv" + std::to_string(i)));
      }
    }
    cloud::MultiCloud clouds;
    for (std::size_t i = 0; i < data_clouds.size(); ++i) {
      clouds.push_back(
          std::make_shared<SplitNamespaceCloud>(data_clouds[i], priv[i]));
    }
    return clouds;
  }

  std::unique_ptr<UniDriveClient> make_client(const std::string& folder,
                                              const std::string& device,
                                              std::shared_ptr<core::LocalFs> fs,
                                              cloud::MultiCloud clouds) {
    ClientConfig cfg = small_config(device);
    cfg.pool = pool;
    cfg.folder_id = folder;
    return std::make_unique<UniDriveClient>(std::move(clouds), std::move(fs),
                                            cfg);
  }

  std::size_t data_file_count() const {
    std::size_t n = 0;
    for (const auto& c : data_clouds) n += c->file_count();
    return n;
  }
};

SharedPoolRig make_rig(int n_clouds) {
  SharedPoolRig rig;
  for (int i = 0; i < n_clouds; ++i) {
    rig.data_clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "shared" + std::to_string(i)));
  }
  return rig;
}

TEST(SharedPoolTest, SecondFolderShortCircuitsEncodeAndUpload) {
  auto rig = make_rig(5);
  Rng rng(88);
  const Bytes content = rng.bytes(180000);

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto a = rig.make_client("folderA", "devA", fs_a, rig.folder_clouds("fa"));
  ASSERT_TRUE(fs_a->write("/movie", ByteSpan(content)).is_ok());
  const auto report_a = a->sync();
  ASSERT_TRUE(report_a.is_ok());
  EXPECT_EQ(report_a.value().segments_deduped, 0u);
  const std::size_t blocks_after_a = rig.data_file_count();
  ASSERT_GT(blocks_after_a, 0u);

  // Folder B (separate metadata plane, same data plane) syncs the same
  // content: every segment hits the pool, so the block pool must not grow
  // and the report must carry the suppressed byte count.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto b = rig.make_client("folderB", "devB", fs_b, rig.folder_clouds("fb"));
  ASSERT_TRUE(fs_b->write("/same-movie", ByteSpan(content)).is_ok());
  const auto report_b = b->sync();
  ASSERT_TRUE(report_b.is_ok()) << report_b.status().to_string();
  EXPECT_GT(report_b.value().segments_deduped, 0u);
  EXPECT_EQ(report_b.value().segments_uploaded, 0u);
  EXPECT_EQ(report_b.value().dedup_bytes_saved, content.size());
  EXPECT_EQ(rig.data_file_count(), blocks_after_a);

  // The deduped references must be durable: a second device of folder B
  // reconstructs the file purely from B's metadata + the shared pool.
  auto fs_b2 = std::make_shared<MemoryLocalFs>();
  auto b2 = rig.make_client("folderB", "devB2", fs_b2,
                            rig.folder_clouds("fb"));
  ASSERT_TRUE(b2->sync().is_ok());
  EXPECT_EQ(fs_b2->read("/same-movie").value(), content);
}

TEST(SharedPoolTest, RoundWithOnlyPoolHitsStillCommitsReferences) {
  // A round where every fed segment is a pool hit uploads nothing, yet it
  // must still emit an upsert_segment record per referenced segment.
  // Without them the client would commit file snapshots referencing
  // segments that have no block map — dangling refs whose probe pin is
  // later released unbacked, so another folder's GC could delete the
  // blocks from under them.
  auto rig = make_rig(5);
  Rng rng(111);
  const Bytes content = rng.bytes(180000);

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto a = rig.make_client("folderA", "devA", fs_a, rig.folder_clouds("fa"));
  ASSERT_TRUE(fs_a->write("/movie", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  const std::size_t blocks_after_a = rig.data_file_count();

  // Folder B hits the pool on EVERY segment.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto b = rig.make_client("folderB", "devB", fs_b, rig.folder_clouds("fb"));
  ASSERT_TRUE(fs_b->write("/same-movie", ByteSpan(content)).is_ok());
  const auto report_b = b->sync();
  ASSERT_TRUE(report_b.is_ok()) << report_b.status().to_string();
  EXPECT_GT(report_b.value().segments_deduped, 0u);
  EXPECT_EQ(report_b.value().segments_uploaded, 0u);  // no underflow either
  EXPECT_EQ(rig.data_file_count(), blocks_after_a);

  // The committed image must carry a block map for every referenced
  // segment (no blockless dangling refs)...
  for (const auto& [path, snapshot] : b->image().files()) {
    (void)path;
    for (const std::string& seg_id : snapshot.segment_ids) {
      const metadata::SegmentInfo* seg = b->image().find_segment(seg_id);
      ASSERT_NE(seg, nullptr) << "dangling segment ref " << seg_id;
      EXPECT_FALSE(seg->blocks.empty()) << "blockless segment " << seg_id;
    }
  }
  // ...and folder A's GC must see folder B's committed references: after A
  // deletes its file and collects, B can still read everything.
  ASSERT_TRUE(fs_a->remove("/movie").is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(a->collect_garbage().is_ok());
  auto fs_b2 = std::make_shared<MemoryLocalFs>();
  auto b2 = rig.make_client("folderB", "devB2", fs_b2,
                            rig.folder_clouds("fb"));
  ASSERT_TRUE(b2->sync().is_ok());
  EXPECT_EQ(fs_b2->read("/same-movie").value(), content);
}

TEST(SharedPoolTest, GcSparesSegmentsReferencedByAnotherFolder) {
  auto rig = make_rig(5);
  Rng rng(99);
  const Bytes content = rng.bytes(150000);

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto a = rig.make_client("folderA", "devA", fs_a, rig.folder_clouds("fa"));
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());

  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto b = rig.make_client("folderB", "devB", fs_b, rig.folder_clouds("fb"));
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(content)).is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  const std::size_t blocks_shared = rig.data_file_count();

  // Folder A deletes its only file and garbage-collects. Without the pool
  // guard this would delete the physical blocks folder B still depends on.
  ASSERT_TRUE(fs_a->remove("/doc").is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto collected_a = a->collect_garbage();
  ASSERT_TRUE(collected_a.is_ok()) << collected_a.status().to_string();
  EXPECT_EQ(rig.data_file_count(), blocks_shared);

  // Folder B still reads the content, and its scrubber finds nothing
  // missing: the metadata's promises all still hold on the clouds.
  auto fs_b2 = std::make_shared<MemoryLocalFs>();
  auto b2 = rig.make_client("folderB", "devB2", fs_b2,
                            rig.folder_clouds("fb"));
  ASSERT_TRUE(b2->sync().is_ok());
  EXPECT_EQ(fs_b2->read("/doc").value(), content);
  repair::Scrubber scrubber(*b2, b2->durability(), repair::ScrubConfig{});
  const repair::ScrubReport scrub = scrubber.run_pass();
  EXPECT_EQ(scrub.missing, 0u);
  EXPECT_EQ(scrub.corrupt, 0u);

  // Once the LAST folder lets go, the blocks really are collected.
  ASSERT_TRUE(fs_b->remove("/doc").is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(b2->sync().is_ok());
  auto collected_b = b->collect_garbage();
  ASSERT_TRUE(collected_b.is_ok()) << collected_b.status().to_string();
  EXPECT_GE(collected_b.value(), 1u);
  EXPECT_LT(rig.data_file_count(), blocks_shared);
}

}  // namespace
}  // namespace unidrive::dedup
