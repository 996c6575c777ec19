#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/convergent.h"
#include "crypto/crc32.h"
#include "crypto/des.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace unidrive::crypto {
namespace {

// --- SHA-1 (FIPS 180-1 test vectors) -----------------------------------------

TEST(Sha1Test, EmptyInput) {
  EXPECT_EQ(Sha1::hex(ByteSpan{}),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  const Bytes in = bytes_from_string("abc");
  EXPECT_EQ(Sha1::hex(ByteSpan(in)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  const Bytes in = bytes_from_string(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Sha1::hex(ByteSpan(in)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(ByteSpan(chunk));
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(ByteSpan(digest.data(), digest.size())),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(1);
  const Bytes data = rng.bytes(10000);
  Sha1 h;
  // Feed in awkward chunk sizes straddling the 64-byte block boundary.
  std::size_t off = 0;
  const std::size_t sizes[] = {1, 63, 64, 65, 127, 128, 1000};
  std::size_t i = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(sizes[i++ % 7], data.size() - off);
    h.update(ByteSpan(data.data() + off, n));
    off += n;
  }
  const auto inc = h.finish();
  EXPECT_EQ(inc, Sha1::hash(ByteSpan(data)));
}

TEST(Sha1Test, FinishResets) {
  Sha1 h;
  const Bytes in = bytes_from_string("abc");
  h.update(ByteSpan(in));
  (void)h.finish();
  // After finish, hashing "abc" again gives the same digest.
  h.update(ByteSpan(in));
  const auto d = h.finish();
  EXPECT_EQ(d, Sha1::hash(ByteSpan(in)));
}

// --- SHA-256 (FIPS 180-4 test vectors) ---------------------------------------

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(Sha256::hex(ByteSpan{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  const Bytes in = bytes_from_string("abc");
  EXPECT_EQ(Sha256::hex(ByteSpan(in)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  const Bytes in = bytes_from_string(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Sha256::hex(ByteSpan(in)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(2);
  const Bytes data = rng.bytes(5000);
  Sha256 h;
  h.update(ByteSpan(data.data(), 1));
  h.update(ByteSpan(data.data() + 1, 4999));
  EXPECT_EQ(h.finish(), Sha256::hash(ByteSpan(data)));
}

// --- CRC32C -------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // RFC 3720 CRC-32C check value for "123456789".
  const Bytes in = bytes_from_string("123456789");
  EXPECT_EQ(crc32c(ByteSpan(in)), 0xE3069283u);
  EXPECT_EQ(crc32c_sw(ByteSpan(in)), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32c(ByteSpan{}), 0u); }

TEST(Crc32Test, DetectsBitFlip) {
  Rng rng(3);
  Bytes data = rng.bytes(256);
  const std::uint32_t before = crc32c(ByteSpan(data));
  data[100] ^= 0x01;
  EXPECT_NE(before, crc32c(ByteSpan(data)));
}

TEST(Crc32Test, SeedChainingComposes) {
  Rng rng(7);
  const Bytes data = rng.bytes(777);
  const ByteSpan all(data);
  const std::uint32_t whole = crc32c(all);
  const std::uint32_t chained = crc32c(all.subspan(300), crc32c(all.first(300)));
  EXPECT_EQ(whole, chained);
}

// --- DES ----------------------------------------------------------------------

TEST(DesTest, KnownVector) {
  // Classic test vector: key 133457799BBCDFF1, plaintext 0123456789ABCDEF
  // -> ciphertext 85E813540F0AB405.
  const Bytes key_bytes = from_hex("133457799bbcdff1");
  Des::Key key;
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const Bytes plain_bytes = from_hex("0123456789abcdef");
  Des::Block plain;
  std::copy(plain_bytes.begin(), plain_bytes.end(), plain.begin());

  const Des des(key);
  const Des::Block cipher = des.encrypt_block(plain);
  EXPECT_EQ(to_hex(ByteSpan(cipher.data(), cipher.size())),
            "85e813540f0ab405");
  EXPECT_EQ(des.decrypt_block(cipher), plain);
}

TEST(DesTest, EncryptDecryptRoundTripManyBlocks) {
  Rng rng(4);
  const Des::Key key = des_key_from_passphrase("secret");
  const Des des(key);
  for (int i = 0; i < 100; ++i) {
    const Bytes b = rng.bytes(8);
    Des::Block block;
    std::copy(b.begin(), b.end(), block.begin());
    EXPECT_EQ(des.decrypt_block(des.encrypt_block(block)), block);
  }
}

TEST(DesCbcTest, RoundTripVariousLengths) {
  const Des::Key key = des_key_from_passphrase("metadata key");
  Rng rng(5);
  for (const std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    const Bytes plain = rng.bytes(len);
    Des::Block iv;
    const Bytes ivb = rng.bytes(8);
    std::copy(ivb.begin(), ivb.end(), iv.begin());
    const Bytes cipher = des_cbc_encrypt(key, ByteSpan(plain), iv);
    // Ciphertext = IV + padded payload, always a multiple of 8, > plaintext.
    EXPECT_EQ(cipher.size() % 8, 0u);
    EXPECT_GT(cipher.size(), plain.size());
    auto decrypted = des_cbc_decrypt(key, ByteSpan(cipher));
    ASSERT_TRUE(decrypted.is_ok()) << len;
    EXPECT_EQ(decrypted.value(), plain) << len;
  }
}

TEST(DesCbcTest, WrongKeyFailsOrGarbles) {
  const Des::Key key = des_key_from_passphrase("right");
  const Des::Key wrong = des_key_from_passphrase("wrong");
  Rng rng(6);
  const Bytes plain = rng.bytes(100);
  Des::Block iv{};
  const Bytes cipher = des_cbc_encrypt(key, ByteSpan(plain), iv);
  auto decrypted = des_cbc_decrypt(wrong, ByteSpan(cipher));
  // Either padding check fails, or the plaintext differs.
  if (decrypted.is_ok()) {
    EXPECT_NE(decrypted.value(), plain);
  }
}

TEST(DesCbcTest, RejectsBadLength) {
  const Des::Key key = des_key_from_passphrase("k");
  EXPECT_EQ(des_cbc_decrypt(key, ByteSpan(Bytes(7))).code(),
            ErrorCode::kCorrupt);
  EXPECT_EQ(des_cbc_decrypt(key, ByteSpan(Bytes(8))).code(),
            ErrorCode::kCorrupt);  // IV only, no payload block
}

TEST(DesCbcTest, CiphertextHidesPlaintextStructure) {
  // Two plaintexts of identical repeated bytes: CBC must not leak equality
  // of blocks (unlike ECB).
  const Des::Key key = des_key_from_passphrase("k");
  Des::Block iv{};
  const Bytes plain(64, 0x41);
  const Bytes cipher = des_cbc_encrypt(key, ByteSpan(plain), iv);
  // Adjacent ciphertext blocks must differ.
  for (std::size_t off = 8; off + 16 <= cipher.size(); off += 8) {
    const bool equal = std::equal(cipher.begin() + off, cipher.begin() + off + 8,
                                  cipher.begin() + off + 8);
    EXPECT_FALSE(equal);
  }
}

TEST(DesKeyTest, PassphraseDeterministic) {
  EXPECT_EQ(des_key_from_passphrase("a"), des_key_from_passphrase("a"));
  EXPECT_NE(des_key_from_passphrase("a"), des_key_from_passphrase("b"));
}

// --- File content hash (segment-list format) ----------------------------------

// SHA-256("abc") and SHA-1("abc"): one id of each family.
constexpr char kAbcSha256[] =
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
constexpr char kAbcSha1[] = "a9993e364706816aba3e25717850c26c9cd0d89d";

// Pins the exact encoding. Computed outside this code with Python:
//   m = hashlib.sha256(b"unidrive.file.v1")
//   for i in ids: m.update(struct.pack(">Q", len(i)) + i.encode())
TEST(ContentHashTest, KnownAnswerOverTheExactEncoding) {
  EXPECT_EQ(file_content_hash({kAbcSha256, kAbcSha1}),
            "049ea2c6e5d386cd755edc73bdfbe7036610b2527dafec9f206a971a83ae27d3");
  EXPECT_EQ(file_content_hash({}),
            "334a6ce1837dc072f24e90a80842597c1e3cca8bb8429264c8197606ef260c7a");
}

TEST(ContentHashTest, DeterministicAndSensitiveToOrderAndToEachId) {
  const std::vector<std::string> ids = {kAbcSha256, kAbcSha1};
  EXPECT_EQ(file_content_hash(ids), file_content_hash(ids));
  EXPECT_EQ(file_content_hash({kAbcSha1, kAbcSha256}),
            "0cbb3997e3777c828549310423fcb0a887900f4344e25c927dd0348db8eea378");
  EXPECT_NE(file_content_hash({kAbcSha1, kAbcSha256}), file_content_hash(ids));
  std::vector<std::string> edited = ids;
  edited[1].back() = edited[1].back() == '0' ? '1' : '0';
  EXPECT_NE(file_content_hash(edited), file_content_hash(ids));
  // Length prefixes keep id boundaries: moving characters between ids, or
  // dropping an empty id, changes the hash.
  EXPECT_NE(file_content_hash({"ab", "c"}), file_content_hash({"a", "bc"}));
  EXPECT_NE(file_content_hash({"abc", ""}), file_content_hash({"abc"}));
}

TEST(ContentHashTest, IsSixtyFourLowercaseHex) {
  Rng rng(7);
  for (int n = 0; n < 8; ++n) {
    std::vector<std::string> ids;
    for (int i = 0; i < n; ++i) ids.push_back(Sha256::hex(rng.bytes(100)));
    const std::string hash = file_content_hash(ids);
    ASSERT_EQ(hash.size(), 64u);
    for (const char c : hash) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hash;
    }
    EXPECT_EQ(content_hash_kind(hash), ContentHashKind::kSegmentList);
  }
}

TEST(ContentHashTest, KindDispatchesOnLengthAndAlphabet) {
  EXPECT_EQ(content_hash_kind(kAbcSha256), ContentHashKind::kSegmentList);
  EXPECT_EQ(content_hash_kind(kAbcSha1), ContentHashKind::kLegacySha1);
  EXPECT_EQ(content_hash_kind(""), ContentHashKind::kNone);
  EXPECT_EQ(content_hash_kind("x"), ContentHashKind::kMalformed);
  EXPECT_EQ(content_hash_kind(std::string(kAbcSha1) + "00"),
            ContentHashKind::kMalformed);  // 42 hex: neither family
  std::string not_hex = kAbcSha256;
  not_hex[10] = 'g';
  EXPECT_EQ(content_hash_kind(not_hex), ContentHashKind::kMalformed);
}

}  // namespace
}  // namespace unidrive::crypto
