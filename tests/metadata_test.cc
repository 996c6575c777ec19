#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "metadata/codec.h"
#include "metadata/delta.h"
#include "metadata/diff.h"
#include "metadata/image.h"

namespace unidrive::metadata {
namespace {

FileSnapshot make_snapshot(const std::string& path, const std::string& hash,
                           std::vector<std::string> segments = {}) {
  FileSnapshot s;
  s.path = path;
  s.size = 100;
  s.content_hash = hash;
  s.segment_ids = std::move(segments);
  s.origin_device = "dev";
  return s;
}

SegmentInfo make_segment(const std::string& id, std::uint64_t size = 100) {
  SegmentInfo s;
  s.id = id;
  s.size = size;
  s.blocks = {{0, 1}, {1, 2}, {2, 3}};
  return s;
}

// --- VersionStamp -------------------------------------------------------------

TEST(VersionStampTest, Ordering) {
  const VersionStamp a{"dev1", 1, 0};
  const VersionStamp b{"dev1", 2, 0};
  const VersionStamp c{"dev2", 2, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b < c);  // device name tiebreak
  EXPECT_FALSE(c < b);
  EXPECT_TRUE(b == VersionStamp({"dev1", 2, 99}));  // timestamp ignored
}

// --- SyncFolderImage ------------------------------------------------------------

TEST(ImageTest, UpsertAndFind) {
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/a.txt", "h1"));
  ASSERT_NE(image.find_file("/a.txt"), nullptr);
  EXPECT_EQ(image.find_file("/a.txt")->content_hash, "h1");
  EXPECT_EQ(image.find_file("/missing"), nullptr);
}

TEST(ImageTest, RefcountsTrackFileReferences) {
  SyncFolderImage image;
  image.upsert_segment(make_segment("s1"));
  image.upsert_file(make_snapshot("/a", "h1", {"s1"}));
  image.upsert_file(make_snapshot("/b", "h2", {"s1"}));  // dedup: shared seg
  EXPECT_EQ(image.find_segment("s1")->refcount, 2u);
  image.delete_file("/a");
  EXPECT_EQ(image.find_segment("s1")->refcount, 1u);
  image.delete_file("/b");
  EXPECT_EQ(image.find_segment("s1")->refcount, 0u);
  EXPECT_EQ(image.garbage_segments(), std::vector<std::string>{"s1"});
}

TEST(ImageTest, EditRetiresOldSnapshotIntoHistory) {
  SyncFolderImage image;
  image.upsert_segment(make_segment("old"));
  image.upsert_segment(make_segment("new"));
  image.upsert_file(make_snapshot("/f", "h1", {"old"}));
  image.upsert_file(make_snapshot("/f", "h2", {"new"}));  // edit
  // The superseded snapshot lives in the history and keeps its segments
  // referenced (that is what makes old versions restorable).
  EXPECT_EQ(image.find_segment("old")->refcount, 1u);
  EXPECT_EQ(image.find_segment("new")->refcount, 1u);
  const auto hist = image.history("/f");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].content_hash, "h1");
}

TEST(ImageTest, HistoryDepthBounded) {
  SyncFolderImage image;
  for (int i = 0; i <= 10; ++i) {
    const std::string seg = "s" + std::to_string(i);
    image.upsert_segment(make_segment(seg));
    image.upsert_file(make_snapshot("/f", "v" + std::to_string(i), {seg}));
  }
  const auto hist = image.history("/f");
  EXPECT_EQ(hist.size(), SyncFolderImage::kHistoryDepth);
  EXPECT_EQ(hist[0].content_hash, "v9");  // most recent first
  // Segments referenced only by evicted history entries drop to zero.
  EXPECT_EQ(image.find_segment("s0")->refcount, 0u);
  EXPECT_EQ(image.find_segment("s9")->refcount, 1u);   // in history
  EXPECT_EQ(image.find_segment("s10")->refcount, 1u);  // current
}

TEST(ImageTest, DeleteReleasesHistoryToo) {
  SyncFolderImage image;
  image.upsert_segment(make_segment("a"));
  image.upsert_segment(make_segment("b"));
  image.upsert_file(make_snapshot("/f", "h1", {"a"}));
  image.upsert_file(make_snapshot("/f", "h2", {"b"}));
  image.delete_file("/f");
  EXPECT_EQ(image.find_segment("a")->refcount, 0u);
  EXPECT_EQ(image.find_segment("b")->refcount, 0u);
  EXPECT_TRUE(image.history("/f").empty());
}

TEST(ImageTest, IdenticalUpsertIsNoop) {
  SyncFolderImage image;
  image.upsert_segment(make_segment("s"));
  const auto snap = make_snapshot("/f", "h", {"s"});
  image.upsert_file(snap);
  image.upsert_file(snap);  // replay (e.g. delta re-application)
  EXPECT_EQ(image.find_segment("s")->refcount, 1u);
  EXPECT_TRUE(image.history("/f").empty());
}

TEST(ImageTest, UpsertSegmentPreservesRefcount) {
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/f", "h", {"s1"}));
  SegmentInfo updated = make_segment("s1");
  updated.blocks.push_back({5, 4});
  image.upsert_segment(updated);
  EXPECT_EQ(image.find_segment("s1")->refcount, 1u);
  EXPECT_EQ(image.find_segment("s1")->blocks.size(), 4u);
}

TEST(ImageTest, RebuildRefcountsIsIdempotentOnConsistentImage) {
  SyncFolderImage image;
  image.upsert_segment(make_segment("s1"));
  image.upsert_segment(make_segment("s2"));
  image.upsert_file(make_snapshot("/a", "h1", {"s1", "s2"}));
  image.upsert_file(make_snapshot("/b", "h2", {"s2"}));
  SyncFolderImage copy = image;
  copy.rebuild_refcounts();
  EXPECT_TRUE(copy == image);
}

TEST(ImageTest, SerializationRoundTrip) {
  SyncFolderImage image;
  image.set_version({"dev", 7, 100.0});
  image.add_dir("/docs");
  image.upsert_segment(make_segment("s1", 12345));
  image.upsert_file(make_snapshot("/docs/a.txt", "hash_a", {"s1"}));
  image.upsert_file(make_snapshot("/docs/a.txt", "hash_a2", {"s1"}));  // history
  image.upsert_file(make_snapshot("/b.bin", "hash_b"));

  const Bytes data = image.serialize();
  auto restored = SyncFolderImage::deserialize(ByteSpan(data));
  ASSERT_TRUE(restored.is_ok());
  EXPECT_TRUE(restored.value() == image);
}

TEST(ImageTest, DeserializeRejectsCorruption) {
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/a", "h"));
  Bytes data = image.serialize();
  data[0] ^= 0xFF;  // break magic
  EXPECT_EQ(SyncFolderImage::deserialize(ByteSpan(data)).code(),
            ErrorCode::kCorrupt);
  Bytes truncated(image.serialize());
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(SyncFolderImage::deserialize(ByteSpan(truncated)).is_ok());
}

// --- ChangedFileList -------------------------------------------------------------

TEST(ChangeListTest, AggregationKeepsLastFileOp) {
  ChangedFileList list;
  list.record(Change::upsert_file(make_snapshot("/f", "v1")));
  list.record(Change::upsert_file(make_snapshot("/f", "v2")));
  list.record(Change::upsert_file(make_snapshot("/f", "v3")));
  const auto agg = list.aggregated();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].snapshot->content_hash, "v3");
}

TEST(ChangeListTest, AggregationAddThenDeleteKeepsDelete) {
  ChangedFileList list;
  list.record(Change::upsert_file(make_snapshot("/f", "v1")));
  list.record(Change::delete_file("/f"));
  const auto agg = list.aggregated();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].kind, ChangeKind::kDeleteFile);
}

TEST(ChangeListTest, SegmentsOrderedBeforeFiles) {
  ChangedFileList list;
  list.record(Change::upsert_file(make_snapshot("/f", "v1", {"s1"})));
  list.record(Change::upsert_segment(make_segment("s1")));
  const auto agg = list.aggregated();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].kind, ChangeKind::kUpsertSegment);
  EXPECT_EQ(agg[1].kind, ChangeKind::kUpsertFile);
}

TEST(ChangeTest, SerializationRoundTripAllKinds) {
  std::vector<Change> changes = {
      Change::upsert_file(make_snapshot("/f", "h", {"s1", "s2"})),
      Change::delete_file("/g"),
      Change::add_dir("/d"),
      Change::delete_dir("/e"),
      Change::upsert_segment(make_segment("s9", 777)),
      Change::drop_segment("s0"),
  };
  for (const Change& c : changes) {
    BinaryWriter w;
    serialize_change(w, c);
    BinaryReader r{ByteSpan(w.data())};
    auto back = deserialize_change(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value().kind, c.kind);
    EXPECT_EQ(back.value().path, c.path);
    if (c.snapshot.has_value()) {
      EXPECT_TRUE(*back.value().snapshot == *c.snapshot);
    }
    if (c.segment.has_value()) {
      EXPECT_TRUE(*back.value().segment == *c.segment);
    }
  }
}

// --- diff / merge ---------------------------------------------------------------

TEST(DiffTest, DetectsAddModifyDelete) {
  SyncFolderImage from, to;
  from.upsert_file(make_snapshot("/keep", "same"));
  from.upsert_file(make_snapshot("/mod", "v1"));
  from.upsert_file(make_snapshot("/del", "gone"));
  to.upsert_file(make_snapshot("/keep", "same"));
  to.upsert_file(make_snapshot("/mod", "v2"));
  to.upsert_file(make_snapshot("/new", "fresh"));

  const ImageDiff d = diff_images(from, to);
  ASSERT_EQ(d.files.size(), 3u);
  EXPECT_EQ(d.files.at("/mod").kind, EntryChangeKind::kModified);
  EXPECT_EQ(d.files.at("/new").kind, EntryChangeKind::kAdded);
  EXPECT_EQ(d.files.at("/del").kind, EntryChangeKind::kDeleted);
}

TEST(DiffTest, EmptyDiffForIdenticalImages) {
  SyncFolderImage a;
  a.upsert_file(make_snapshot("/f", "h"));
  EXPECT_TRUE(diff_images(a, a).empty());
}

TEST(DiffTest, DirectoriesDiffed) {
  SyncFolderImage from, to;
  from.add_dir("/old");
  to.add_dir("/new");
  const ImageDiff d = diff_images(from, to);
  EXPECT_EQ(d.added_dirs, std::vector<std::string>{"/new"});
  EXPECT_EQ(d.removed_dirs, std::vector<std::string>{"/old"});
}

TEST(MergeTest, DisjointUpdatesMergeCleanly) {
  SyncFolderImage base;
  base.upsert_file(make_snapshot("/shared", "v0"));
  SyncFolderImage local = base;
  local.upsert_file(make_snapshot("/local_new", "l1"));
  SyncFolderImage cloud = base;
  cloud.upsert_file(make_snapshot("/cloud_new", "c1"));

  const MergeResult m = merge_images(base, local, cloud, "devA");
  EXPECT_TRUE(m.conflicts.empty());
  EXPECT_NE(m.merged.find_file("/local_new"), nullptr);
  EXPECT_NE(m.merged.find_file("/cloud_new"), nullptr);
  EXPECT_NE(m.merged.find_file("/shared"), nullptr);
}

TEST(MergeTest, CoincidentalIdenticalUpdatesNoConflict) {
  SyncFolderImage base;
  SyncFolderImage local = base, cloud = base;
  local.upsert_file(make_snapshot("/f", "same"));
  cloud.upsert_file(make_snapshot("/f", "same"));
  const MergeResult m = merge_images(base, local, cloud, "devA");
  EXPECT_TRUE(m.conflicts.empty());
  EXPECT_EQ(m.merged.find_file("/f")->content_hash, "same");
}

TEST(MergeTest, ConflictingEditsKeepBoth) {
  SyncFolderImage base;
  base.upsert_file(make_snapshot("/f", "v0"));
  SyncFolderImage local = base, cloud = base;
  local.upsert_file(make_snapshot("/f", "local_v"));
  cloud.upsert_file(make_snapshot("/f", "cloud_v"));

  const MergeResult m = merge_images(base, local, cloud, "devA");
  ASSERT_EQ(m.conflicts.size(), 1u);
  EXPECT_EQ(m.conflicts[0].path, "/f");
  // Cloud wins the original path; local kept as conflict copy.
  EXPECT_EQ(m.merged.find_file("/f")->content_hash, "cloud_v");
  const FileSnapshot* copy = m.merged.find_file(m.conflicts[0].conflict_copy);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->content_hash, "local_v");
}

TEST(MergeTest, LocalDeleteVsCloudEditIsConflict) {
  SyncFolderImage base;
  base.upsert_file(make_snapshot("/f", "v0"));
  SyncFolderImage local = base, cloud = base;
  local.delete_file("/f");
  cloud.upsert_file(make_snapshot("/f", "v1"));
  const MergeResult m = merge_images(base, local, cloud, "devA");
  ASSERT_EQ(m.conflicts.size(), 1u);
  // The deletion loses; the cloud edit survives; no conflict copy needed.
  EXPECT_NE(m.merged.find_file("/f"), nullptr);
  EXPECT_TRUE(m.conflicts[0].conflict_copy.empty());
}

TEST(MergeTest, BothDeleteNoConflict) {
  SyncFolderImage base;
  base.upsert_file(make_snapshot("/f", "v0"));
  SyncFolderImage local = base, cloud = base;
  local.delete_file("/f");
  cloud.delete_file("/f");
  const MergeResult m = merge_images(base, local, cloud, "devA");
  EXPECT_TRUE(m.conflicts.empty());
  EXPECT_EQ(m.merged.find_file("/f"), nullptr);
}

TEST(MergeTest, SegmentPoolsUnioned) {
  SyncFolderImage base;
  SyncFolderImage local = base, cloud = base;
  local.upsert_segment(make_segment("s_local"));
  local.upsert_file(make_snapshot("/l", "h1", {"s_local"}));
  cloud.upsert_segment(make_segment("s_cloud"));
  cloud.upsert_file(make_snapshot("/c", "h2", {"s_cloud"}));
  const MergeResult m = merge_images(base, local, cloud, "devA");
  EXPECT_NE(m.merged.find_segment("s_local"), nullptr);
  EXPECT_NE(m.merged.find_segment("s_cloud"), nullptr);
  EXPECT_EQ(m.merged.find_segment("s_local")->refcount, 1u);
}

TEST(MergeTest, BlockLocationsMergedPerSegment) {
  SyncFolderImage base;
  base.upsert_segment(make_segment("s"));
  SyncFolderImage local = base, cloud = base;
  SegmentInfo* ls = local.find_segment_mutable("s");
  ls->blocks.push_back({7, 4});
  const MergeResult m = merge_images(base, local, cloud, "devA");
  const SegmentInfo* merged = m.merged.find_segment("s");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->blocks.size(), 4u);  // 3 originals + the new location
}

TEST(MergeTest, HistoryRetainedThroughMerge) {
  // The cloud image's history must survive a merge; local edits applied on
  // top push superseded snapshots into it.
  SyncFolderImage base;
  base.upsert_segment(make_segment("s0"));
  base.upsert_file(make_snapshot("/f", "v0", {"s0"}));
  SyncFolderImage cloud = base;
  cloud.upsert_segment(make_segment("s1"));
  cloud.upsert_file(make_snapshot("/f", "v1", {"s1"}));  // v0 -> history
  SyncFolderImage local = base;  // unchanged locally

  const MergeResult m = merge_images(base, local, cloud, "devA");
  const auto hist = m.merged.history("/f");
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0].content_hash, "v0");
  // History's segments stay referenced after the merge's refcount rebuild.
  EXPECT_GE(m.merged.find_segment("s0")->refcount, 1u);
}

// --- delta log -------------------------------------------------------------------

TEST(DeltaLogTest, SerializeRoundTrip) {
  DeltaLog log;
  CommitRecord r1;
  r1.version = {"dev", 1, 10.0};
  r1.changes.push_back(Change::upsert_file(make_snapshot("/a", "h1")));
  log.append(r1);
  CommitRecord r2;
  r2.version = {"dev", 2, 20.0};
  r2.changes.push_back(Change::delete_file("/a"));
  r2.changes.push_back(Change::add_dir("/d"));
  log.append(r2);

  auto restored = DeltaLog::deserialize(ByteSpan(log.serialize()));
  ASSERT_TRUE(restored.is_ok());
  ASSERT_EQ(restored.value().size(), 2u);
  EXPECT_TRUE(restored.value().records()[1].version == r2.version);
  EXPECT_EQ(restored.value().records()[1].changes.size(), 2u);
}

TEST(DeltaLogTest, TornTailRecoversPrefix) {
  DeltaLog log;
  for (int i = 1; i <= 3; ++i) {
    CommitRecord r;
    r.version = {"dev", static_cast<std::uint64_t>(i), 0.0};
    r.changes.push_back(
        Change::upsert_file(make_snapshot("/f" + std::to_string(i), "h")));
    log.append(r);
  }
  Bytes data = log.serialize();
  data.resize(data.size() - 5);  // tear the last record
  auto restored = DeltaLog::deserialize(ByteSpan(data));
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value().size(), 2u);
}

TEST(DeltaLogTest, CorruptMiddleRecordStopsReplay) {
  DeltaLog log;
  for (int i = 1; i <= 3; ++i) {
    CommitRecord r;
    r.version = {"dev", static_cast<std::uint64_t>(i), 0.0};
    r.changes.push_back(Change::add_dir("/d" + std::to_string(i)));
    log.append(r);
  }
  Bytes data = log.serialize();
  data[data.size() / 2] ^= 0xFF;  // flip a bit mid-log
  auto restored = DeltaLog::deserialize(ByteSpan(data));
  ASSERT_TRUE(restored.is_ok());
  EXPECT_LT(restored.value().size(), 3u);
}

TEST(DeltaLogTest, ApplyAdvancesVersionAndSkipsApplied) {
  SyncFolderImage image;
  image.set_version({"dev", 1, 0.0});

  DeltaLog log;
  CommitRecord r1;  // already applied (version 1)
  r1.version = {"dev", 1, 0.0};
  r1.changes.push_back(Change::upsert_file(make_snapshot("/old", "h")));
  log.append(r1);
  CommitRecord r2;
  r2.version = {"dev", 2, 0.0};
  r2.changes.push_back(Change::upsert_file(make_snapshot("/new", "h")));
  log.append(r2);

  apply_delta(image, log);
  EXPECT_EQ(image.find_file("/old"), nullptr);  // skipped
  EXPECT_NE(image.find_file("/new"), nullptr);
  EXPECT_EQ(image.version().counter, 2u);
}

TEST(DeltaPolicyTest, Threshold) {
  DeltaPolicy policy;  // 25% of base, floor 10 KiB
  EXPECT_FALSE(policy.should_merge(100 << 10, 9 << 10));
  EXPECT_FALSE(policy.should_merge(100 << 10, 20 << 10));
  EXPECT_TRUE(policy.should_merge(100 << 10, 26 << 10));
  EXPECT_TRUE(policy.should_merge(1 << 10, 11 << 10));  // floor dominates
}

// --- codec -----------------------------------------------------------------------

TEST(CodecTest, ImageEncryptionRoundTrip) {
  MetadataCodec codec("passphrase");
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/secret.txt", "hash"));
  const Bytes cipher = codec.encode_image(image);
  auto back = codec.decode_image(ByteSpan(cipher));
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value() == image);
}

TEST(CodecTest, CiphertextIsOpaque) {
  MetadataCodec codec("passphrase");
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/very_secret_filename.txt", "h"));
  const Bytes cipher = codec.encode_image(image);
  const std::string as_string = string_from_bytes(ByteSpan(cipher));
  EXPECT_EQ(as_string.find("very_secret_filename"), std::string::npos);
}

TEST(CodecTest, WrongPassphraseFails) {
  MetadataCodec codec("right");
  MetadataCodec wrong("wrong");
  SyncFolderImage image;
  image.upsert_file(make_snapshot("/f", "h"));
  const Bytes cipher = codec.encode_image(image);
  EXPECT_FALSE(wrong.decode_image(ByteSpan(cipher)).is_ok());
}

TEST(CodecTest, DeltaEncryptionRoundTrip) {
  MetadataCodec codec("p");
  DeltaLog log;
  CommitRecord r;
  r.version = {"dev", 1, 0.0};
  r.changes.push_back(Change::add_dir("/d"));
  log.append(r);
  auto back = codec.decode_delta(ByteSpan(codec.encode_delta(log)));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().size(), 1u);
}

// --- codec fuzz ------------------------------------------------------------------
//
// The metadata envelope is the one payload every device must agree on; a
// malformed byte stream (truncated upload, bit rot, a hostile provider) must
// surface as a decode error — never a crash, never a silently wrong image.

SyncFolderImage random_image(Rng& rng) {
  SyncFolderImage image;
  const std::size_t num_dirs = rng.next_below(4);
  for (std::size_t d = 0; d < num_dirs; ++d) {
    image.add_dir("/dir" + std::to_string(rng.next_below(100)));
  }
  const std::size_t num_files = 1 + rng.next_below(6);
  for (std::size_t f = 0; f < num_files; ++f) {
    std::vector<std::string> seg_ids;
    const std::size_t num_segments = rng.next_below(3);
    for (std::size_t s = 0; s < num_segments; ++s) {
      SegmentInfo seg;
      seg.id = "seg" + std::to_string(rng.next());
      seg.size = rng.next_below(1 << 20);
      const std::size_t num_blocks = rng.next_below(8);
      for (std::size_t b = 0; b < num_blocks; ++b) {
        seg.blocks.push_back({static_cast<std::uint32_t>(rng.next_below(32)),
                              static_cast<cloud::CloudId>(rng.next_below(5))});
      }
      image.upsert_segment(seg);
      seg_ids.push_back(seg.id);
    }
    FileSnapshot snap;
    snap.path = "/f" + std::to_string(f) + "_" + std::to_string(rng.next());
    snap.mtime = rng.next_double() * 1e9;
    snap.size = rng.next_below(1 << 22);
    snap.content_hash = "h" + std::to_string(rng.next());
    snap.segment_ids = std::move(seg_ids);
    snap.origin_device = "dev" + std::to_string(rng.next_below(4));
    image.upsert_file(snap);
  }
  image.set_version(VersionStamp{"dev" + std::to_string(rng.next_below(4)),
                                 rng.next_below(1000), rng.next_double()});
  return image;
}

TEST(CodecFuzzTest, RandomImagesRoundTrip) {
  MetadataCodec codec("fuzz-pass");
  Rng rng(0xF0220);
  for (int iter = 0; iter < 25; ++iter) {
    const SyncFolderImage image = random_image(rng);
    const Bytes cipher = codec.encode_image(image);
    auto back = codec.decode_image(ByteSpan(cipher));
    ASSERT_TRUE(back.is_ok()) << "iteration " << iter;
    EXPECT_TRUE(back.value() == image) << "iteration " << iter;
  }
}

TEST(CodecFuzzTest, TruncatedPayloadsErrorNeverCrash) {
  MetadataCodec codec("fuzz-pass");
  Rng rng(0xF0221);
  const SyncFolderImage image = random_image(rng);
  const Bytes cipher = codec.encode_image(image);
  ASSERT_GT(cipher.size(), 8u);
  // Every prefix length from a random sample, plus the always-nasty edges.
  std::vector<std::size_t> lengths = {0, 1, 7, 8, cipher.size() - 1};
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.next_below(cipher.size()));
  for (const std::size_t len : lengths) {
    Bytes truncated(cipher.begin(),
                    cipher.begin() + static_cast<std::ptrdiff_t>(len));
    const auto result = codec.decode_image(ByteSpan(truncated));
    EXPECT_FALSE(result.is_ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(CodecFuzzTest, BitFlippedPayloadsErrorNeverCrash) {
  MetadataCodec codec("fuzz-pass");
  Rng rng(0xF0222);
  const SyncFolderImage image = random_image(rng);
  const Bytes cipher = codec.encode_image(image);
  for (int i = 0; i < 60; ++i) {
    Bytes corrupted = cipher;
    const std::size_t byte = rng.next_below(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto result = codec.decode_image(ByteSpan(corrupted));
    EXPECT_FALSE(result.is_ok())
        << "bit flip in byte " << byte << " went undetected";
  }
}

TEST(CodecFuzzTest, DeltaLogSurvivesRoundTripAndRejectsCorruption) {
  MetadataCodec codec("fuzz-pass");
  Rng rng(0xF0223);
  DeltaLog log;
  const std::size_t num_commits = 1 + rng.next_below(5);
  for (std::size_t c = 0; c < num_commits; ++c) {
    CommitRecord record;
    record.version = {"dev" + std::to_string(rng.next_below(3)), c + 1,
                      rng.next_double()};
    record.changes.push_back(Change::add_dir("/d" + std::to_string(c)));
    log.append(record);
  }
  const Bytes cipher = codec.encode_delta(log);
  auto back = codec.decode_delta(ByteSpan(cipher));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().size(), num_commits);

  for (int i = 0; i < 30; ++i) {
    Bytes corrupted = cipher;
    if (rng.bernoulli(0.5)) {
      corrupted.resize(rng.next_below(corrupted.size()));
    } else {
      const std::size_t byte = rng.next_below(corrupted.size());
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    EXPECT_FALSE(codec.decode_delta(ByteSpan(corrupted)).is_ok());
  }
}

}  // namespace
}  // namespace unidrive::metadata
