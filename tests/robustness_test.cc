// Robustness / fuzz-style tests: every parser that consumes bytes from a
// cloud must survive arbitrary garbage (truncated, bit-flipped, random)
// without crashing, looping, or fabricating state — clouds are untrusted.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_seed.h"
#include "common/serial.h"
#include "crypto/crc32.h"
#include "crypto/des.h"
#include "metadata/codec.h"
#include "metadata/delta.h"
#include "metadata/image.h"
#include "metadata/kv.h"

UNIDRIVE_REGISTER_SEED_LISTENER()

namespace unidrive {
namespace {

using unidrive::testing::test_seed;

// --- random garbage into every decoder -----------------------------------------

TEST(RobustnessTest, ImageDeserializeSurvivesRandomBytes) {
  Rng rng(test_seed(1));
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes junk = rng.bytes(rng.next_below(2000));
    auto result = metadata::SyncFolderImage::deserialize(ByteSpan(junk));
    // Must return (ok or error), never crash; random bytes essentially
    // never form a valid image (magic + structure).
    (void)result.is_ok();
  }
}

TEST(RobustnessTest, DeltaDeserializeSurvivesRandomBytes) {
  Rng rng(test_seed(2));
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes junk = rng.bytes(rng.next_below(2000));
    (void)metadata::DeltaLog::deserialize(ByteSpan(junk));
  }
}

TEST(RobustnessTest, RootPointerSurvivesRandomBytes) {
  // The root pointer is read from every cloud. Half the trials put a valid
  // magic in front of the garbage, so the version and key decoders see it.
  metadata::RootPointer valid;
  valid.version = {"dev", 7, 1.5};
  valid.manifest_key = "m/7_dev";
  const Bytes wire = valid.serialize();
  Rng rng(test_seed(3));
  for (int trial = 0; trial < 300; ++trial) {
    Bytes junk = rng.bytes(rng.next_below(100));
    if (trial % 2 == 1) {
      junk.insert(junk.begin(), wire.begin(), wire.begin() + 4);
    }
    (void)metadata::RootPointer::deserialize(ByteSpan(junk));
  }
  // Every strict prefix of a valid pointer is rejected, never half-read.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(metadata::RootPointer::deserialize(ByteSpan(wire.data(), n))
                     .is_ok())
        << "prefix of " << n << " bytes";
  }
}

TEST(RobustnessTest, DesDecryptSurvivesRandomBytes) {
  Rng rng(test_seed(4));
  const auto key = crypto::des_key_from_passphrase("k");
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes junk = rng.bytes(rng.next_below(512));
    (void)crypto::des_cbc_decrypt(key, ByteSpan(junk));
  }
}

TEST(RobustnessTest, CodecSurvivesRandomBytes) {
  Rng rng(test_seed(5));
  const metadata::MetadataCodec codec("pass");
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes junk = rng.bytes(rng.next_below(1024));
    (void)codec.decode_image(ByteSpan(junk));
    (void)codec.decode_delta(ByteSpan(junk));
  }
}

// --- bit flips in VALID payloads -------------------------------------------------

metadata::SyncFolderImage sample_image() {
  metadata::SyncFolderImage image;
  image.set_version({"dev", 9, 1.5});
  image.add_dir("/d");
  for (int i = 0; i < 10; ++i) {
    metadata::SegmentInfo seg;
    seg.id = "seg" + std::to_string(i);
    seg.size = 1000 + i;
    seg.blocks = {{0, 0}, {1, 1}, {2, 2}};
    image.upsert_segment(seg);
    metadata::FileSnapshot snap;
    snap.path = "/f" + std::to_string(i);
    snap.size = 1000 + i;
    snap.content_hash = "cafe" + std::to_string(i);
    snap.segment_ids = {seg.id};
    image.upsert_file(snap);
  }
  return image;
}

TEST(RobustnessTest, ImageBitFlipsNeverCrash) {
  const Bytes valid = sample_image().serialize();
  Rng rng(test_seed(6));
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 << rng.next_below(8));
    }
    auto result = metadata::SyncFolderImage::deserialize(ByteSpan(mutated));
    if (result.is_ok()) {
      // If it parses, internal invariants must still hold (refcounts are
      // recomputed on deserialize).
      metadata::SyncFolderImage copy = result.value();
      copy.rebuild_refcounts();
      EXPECT_TRUE(copy == result.value());
    }
  }
}

TEST(RobustnessTest, ImageTruncationsNeverCrash) {
  const Bytes valid = sample_image().serialize();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const ByteSpan prefix(valid.data(), len);
    auto result = metadata::SyncFolderImage::deserialize(prefix);
    EXPECT_FALSE(result.is_ok()) << "truncated prefix parsed at " << len;
  }
}

TEST(RobustnessTest, EncryptedImageBitFlipsDetected) {
  const metadata::MetadataCodec codec("pass");
  const Bytes cipher = codec.encode_image(sample_image());
  Rng rng(test_seed(7));
  int parsed_ok = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = cipher;
    mutated[rng.next_below(mutated.size())] ^= 0x01;
    if (codec.decode_image(ByteSpan(mutated)).is_ok()) ++parsed_ok;
  }
  // CBC avalanche + structural checks: corruption essentially never yields
  // a valid image.
  EXPECT_LE(parsed_ok, 2);
}

// --- adversarial varints / nested sizes ------------------------------------------

TEST(RobustnessTest, HugeLengthPrefixRejectedWithoutAllocation) {
  // A length prefix claiming 2^60 bytes must fail cleanly (bounds-checked
  // against the remaining buffer), not attempt the allocation.
  BinaryWriter w;
  w.put_varint(1ULL << 60);
  w.put_raw(Bytes(16, 0xAB));
  BinaryReader r{ByteSpan(w.data())};
  auto result = r.get_bytes();
  EXPECT_FALSE(result.is_ok());
}

TEST(RobustnessTest, DeltaLogWithHostileRecordCountStops) {
  // A forged record header with an enormous change count must terminate.
  BinaryWriter body;
  metadata::serialize_version(body, {"dev", 1, 0});
  body.put_varint(1ULL << 50);  // claims 2^50 changes

  BinaryWriter log;
  log.put_u32(0x474C4455);  // delta magic
  log.put_varint(body.size());
  log.put_u32(crypto::crc32c(ByteSpan(body.data())));
  log.put_raw(ByteSpan(body.data()));

  auto result = metadata::DeltaLog::deserialize(ByteSpan(log.data()));
  ASSERT_TRUE(result.is_ok());          // tolerant parser keeps the prefix
  EXPECT_EQ(result.value().size(), 0u); // ...which is empty here
}

}  // namespace
}  // namespace unidrive
