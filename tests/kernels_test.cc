// Differential fuzz and dispatch coverage for the hardware-speed data plane.
//
// Every SIMD kernel (GF(2^8) multiply-accumulate / scale / fused dot,
// CRC32C, AES-128-CTR, SHA-1, SHA-256) is pinned byte-for-byte against its
// portable scalar reference twin over randomized lengths (zero, odd, large)
// and randomized head alignments — including pointers deliberately offset
// from the 64-byte allocation boundary — so unaligned heads and scalar tails
// are exercised. Known-answer vectors (RFC 3720, FIPS-197, NIST SP 800-38A,
// RFC 8439, FIPS 180) pin the absolute semantics; the differential runs
// then transfer that anchor to every dispatch variant. Under
// UNIDRIVE_FORCE_SCALAR=1 both sides resolve to the same scalar code and the
// suite still passes (CI's degradation run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/bytes.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "core/kernel_gauges.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/cipher.h"
#include "crypto/crc32.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "erasure/gf256.h"
#include "metadata/codec.h"
#include "obs/obs.h"
#include "test_seed.h"

namespace unidrive {
namespace {

using erasure::Gf256;
using testing::test_seed;

UNIDRIVE_REGISTER_SEED_LISTENER();

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Random length mixing tiny, odd, and multi-vector sizes, plus a random
// head offset in [0, 64) so SIMD kernels see misaligned starts.
struct Arena {
  explicit Arena(Rng& rng, std::size_t max_len = 4096) {
    len = rng.next_below(4) == 0 ? rng.next_below(67)
                                 : rng.next_below(max_len);
    offset = rng.next_below(64);
  }
  std::size_t len;
  std::size_t offset;
};

// --- GF(2^8) slice kernels ----------------------------------------------------

TEST(GfKernelTest, MulAddMatchesScalarReference) {
  Rng rng(test_seed(0x6f1));
  for (int iter = 0; iter < 200; ++iter) {
    const Arena a(rng);
    AlignedBytes dst_buf(a.offset + a.len + 64, 0);
    AlignedBytes src_buf(a.offset + a.len + 64, 0);
    const Bytes fill_dst = rng.bytes(dst_buf.size());
    const Bytes fill_src = rng.bytes(src_buf.size());
    std::copy(fill_dst.begin(), fill_dst.end(), dst_buf.begin());
    std::copy(fill_src.begin(), fill_src.end(), src_buf.begin());
    AlignedBytes expect = dst_buf;
    const std::uint8_t coeff = static_cast<std::uint8_t>(rng.next());

    Gf256::mul_add_slice(dst_buf.data() + a.offset, src_buf.data() + a.offset,
                         a.len, coeff);
    Gf256::mul_add_slice_scalar(expect.data() + a.offset,
                                src_buf.data() + a.offset, a.len, coeff);
    ASSERT_EQ(dst_buf, expect) << "len=" << a.len << " off=" << a.offset
                               << " coeff=" << int(coeff);
  }
}

TEST(GfKernelTest, ScaleMatchesScalarReference) {
  Rng rng(test_seed(0x6f2));
  for (int iter = 0; iter < 200; ++iter) {
    const Arena a(rng);
    AlignedBytes buf(a.offset + a.len + 64, 0);
    const Bytes fill = rng.bytes(buf.size());
    std::copy(fill.begin(), fill.end(), buf.begin());
    AlignedBytes expect = buf;
    const std::uint8_t coeff = static_cast<std::uint8_t>(rng.next());

    Gf256::scale_slice(buf.data() + a.offset, a.len, coeff);
    Gf256::scale_slice_scalar(expect.data() + a.offset, a.len, coeff);
    ASSERT_EQ(buf, expect) << "len=" << a.len << " off=" << a.offset
                           << " coeff=" << int(coeff);
  }
}

TEST(GfKernelTest, DotMatchesScalarReference) {
  Rng rng(test_seed(0x6f3));
  for (int iter = 0; iter < 120; ++iter) {
    const Arena a(rng, 2048);
    // 0..20 rows: covers empty (must zero dst), one (pure scale), many
    // (crosses the kernel's row-group width).
    const std::size_t rows = rng.next_below(21);
    std::vector<AlignedBytes> srcs(rows);
    std::vector<const std::uint8_t*> ptrs(rows);
    std::vector<std::uint8_t> coeffs(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const Bytes fill = rng.bytes(a.offset + a.len);
      srcs[r].assign(fill.begin(), fill.end());
      ptrs[r] = srcs[r].data() + a.offset;
      // Bias toward zero coefficients occasionally (skipped-row paths).
      coeffs[r] = rng.next_below(5) == 0
                      ? 0
                      : static_cast<std::uint8_t>(rng.next());
    }
    Bytes dst(a.len, 0xAA), expect(a.len, 0x55);  // distinct garbage: both
                                                  // must be fully overwritten
    Gf256::dot_slice(dst.data(), ptrs.data(), coeffs.data(), rows, a.len);
    Gf256::dot_slice_scalar(expect.data(), ptrs.data(), coeffs.data(), rows,
                            a.len);
    ASSERT_EQ(dst, expect) << "len=" << a.len << " off=" << a.offset
                           << " rows=" << rows;
  }
}

TEST(GfKernelTest, DotEqualsMulAddComposition) {
  Rng rng(test_seed(0x6f4));
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t len = 1 + rng.next_below(1500);
    const std::size_t rows = 1 + rng.next_below(12);
    std::vector<Bytes> srcs(rows);
    std::vector<const std::uint8_t*> ptrs(rows);
    std::vector<std::uint8_t> coeffs(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      srcs[r] = rng.bytes(len);
      ptrs[r] = srcs[r].data();
      coeffs[r] = static_cast<std::uint8_t>(rng.next());
    }
    Bytes dot(len, 0xEE);
    Gf256::dot_slice(dot.data(), ptrs.data(), coeffs.data(), rows, len);
    Bytes acc(len, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      Gf256::mul_add_slice(acc.data(), ptrs[r], len, coeffs[r]);
    }
    ASSERT_EQ(dot, acc);
  }
}

// --- CRC32C -------------------------------------------------------------------

TEST(Crc32cKernelTest, KnownVector) {
  const Bytes in = bytes_from_string("123456789");
  EXPECT_EQ(crypto::crc32c(ByteSpan(in)), 0xE3069283u);
  EXPECT_EQ(crypto::crc32c_sw(ByteSpan(in)), 0xE3069283u);
}

TEST(Crc32cKernelTest, MatchesSoftwareReference) {
  Rng rng(test_seed(0xc3c));
  for (int iter = 0; iter < 300; ++iter) {
    const Arena a(rng, 8192);
    const Bytes buf = rng.bytes(a.offset + a.len);
    const ByteSpan view = ByteSpan(buf).subspan(a.offset);
    const std::uint32_t seed = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(crypto::crc32c(view, seed), crypto::crc32c_sw(view, seed))
        << "len=" << a.len << " off=" << a.offset;
  }
}

// The dispatched kernel (three chains over the lanes of each three-lane
// block, one chain for the rest) against the table reference: every length
// through one full block and past it, and +-8 bytes around each lane
// boundary of the first two blocks at every start alignment 0-7, each with
// a random seed.
TEST(Crc32cKernelTest, LaneBoundariesMatchSoftwareReference) {
  constexpr std::size_t kLane = crypto::kCrc32cLaneBytes;
  constexpr std::size_t kBlock = 3 * kLane;
  Rng rng(test_seed(0xc3e));
  const Bytes buf = rng.bytes(2 * kBlock + 16);
  for (std::size_t len = 0; len <= kBlock + 64; ++len) {
    const ByteSpan view = ByteSpan(buf).first(len);
    const auto seed = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(crypto::crc32c(view, seed), crypto::crc32c_sw(view, seed))
        << "len=" << len;
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t edge = kLane; edge <= 2 * kBlock; edge += kLane) {
      for (std::size_t len = edge - 8; len <= edge + 8; ++len) {
        const ByteSpan view = ByteSpan(buf).subspan(offset, len);
        const auto seed = static_cast<std::uint32_t>(rng.next());
        ASSERT_EQ(crypto::crc32c(view, seed), crypto::crc32c_sw(view, seed))
            << "len=" << len << " off=" << offset;
      }
    }
  }
}

TEST(Crc32cKernelTest, ChainingComposesAcrossRandomSplits) {
  Rng rng(test_seed(0xc3d));
  for (int iter = 0; iter < 100; ++iter) {
    const Bytes buf = rng.bytes(1 + rng.next_below(4096));
    const ByteSpan all(buf);
    const std::size_t cut = rng.next_below(buf.size() + 1);
    const std::uint32_t whole = crypto::crc32c(all);
    const std::uint32_t chained =
        crypto::crc32c(all.subspan(cut), crypto::crc32c(all.first(cut)));
    ASSERT_EQ(whole, chained) << "cut=" << cut << " size=" << buf.size();
  }
}

// --- AES-128-CTR --------------------------------------------------------------

TEST(AesKernelTest, Fips197BlockVector) {
  // FIPS-197 Appendix C.1.
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes plain = from_hex("00112233445566778899aabbccddeeff");
  const Bytes expect = from_hex("69c4e0d86a7b0430d8cdb78070b4c55a");
  crypto::Aes128::Key k{};
  std::memcpy(k.data(), key.data(), k.size());
  crypto::Aes128::Block p{};
  std::memcpy(p.data(), plain.data(), p.size());
  const auto c = crypto::Aes128(k).encrypt_block(p);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), c.begin()));
}

TEST(AesKernelTest, Sp80038aCtrKeystream) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, with the 16-byte counter block
  // f0f1...ff mapped onto our (12-byte nonce, 32-bit counter) split.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes plain = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes expect = from_hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee");
  crypto::Aes128::Key k{};
  std::memcpy(k.data(), key.data(), k.size());
  crypto::Aes128::Nonce nonce;
  const Bytes nb = from_hex("f0f1f2f3f4f5f6f7f8f9fafb");
  std::memcpy(nonce.data(), nb.data(), nonce.size());
  Bytes out(plain.size());
  crypto::Aes128(k).ctr_xor(nonce, 0xfcfdfeffu, ByteSpan(plain), out.data());
  EXPECT_EQ(out, expect);
}

TEST(AesKernelTest, CtrMatchesScalarReference) {
  Rng rng(test_seed(0xae5));
  const auto key = crypto::aes128_key_from_passphrase("kernels");
  const crypto::Aes128 aes(key);
  for (int iter = 0; iter < 120; ++iter) {
    const Arena a(rng, 4096);
    const Bytes buf = rng.bytes(a.offset + a.len);
    const ByteSpan view = ByteSpan(buf).subspan(a.offset);
    crypto::Aes128::Nonce nonce;
    const Bytes nb = rng.bytes(nonce.size());
    std::memcpy(nonce.data(), nb.data(), nonce.size());
    const std::uint32_t counter0 = static_cast<std::uint32_t>(rng.next());
    Bytes got(a.len), expect(a.len);
    aes.ctr_xor(nonce, counter0, view, got.data());
    aes.ctr_xor_scalar(nonce, counter0, view, expect.data());
    ASSERT_EQ(got, expect) << "len=" << a.len << " off=" << a.offset;
  }
}

TEST(AesKernelTest, CtrRoundTripsInPlace) {
  Rng rng(test_seed(0xae6));
  const auto key = crypto::aes128_key_from_passphrase("roundtrip");
  const crypto::Aes128 aes(key);
  Bytes data = rng.bytes(3333);
  const Bytes original = data;
  crypto::Aes128::Nonce nonce{};
  aes.ctr_xor(nonce, 7, ByteSpan(data), data.data());  // encrypt in place
  EXPECT_NE(data, original);
  aes.ctr_xor(nonce, 7, ByteSpan(data), data.data());  // decrypt in place
  EXPECT_EQ(data, original);
}

// --- SHA-1 / SHA-256 ----------------------------------------------------------

TEST(ShaKernelTest, Fips180VectorsThroughDispatch) {
  struct Vector {
    std::string message;
    const char* sha1;
    const char* sha256;
  };
  const std::vector<Vector> vectors = {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "a49b2446a02c645bf419f995b67091253a04a259",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  const auto hex = [](const auto& digest) {
    return to_hex(ByteSpan(digest.data(), digest.size()));
  };
  for (const Vector& v : vectors) {
    const Bytes in = bytes_from_string(v.message);
    const ByteSpan view(in);
    EXPECT_EQ(hex(crypto::Sha1::hash(view)), v.sha1) << "len=" << in.size();
    EXPECT_EQ(hex(crypto::Sha1::hash_scalar(view)), v.sha1)
        << "len=" << in.size();
    EXPECT_EQ(hex(crypto::Sha256::hash(view)), v.sha256)
        << "len=" << in.size();
    EXPECT_EQ(hex(crypto::Sha256::hash_scalar(view)), v.sha256)
        << "len=" << in.size();
  }
}

// Both twins share the padding front end, so the differential tests cannot
// see a padding bug. Anchor every length 0..199 (each side of the 55/56
// and 64-byte edges, three times over) to an independent implementation:
// the expected values are the hash of the concatenated digests of
// pattern[0, n), computed with Python's hashlib.
TEST(ShaKernelTest, PaddingBoundariesKnownAnswer) {
  Bytes pattern(200);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes sha1_chain, sha256_chain;
  for (std::size_t n = 0; n < pattern.size(); ++n) {
    const auto d1 = crypto::Sha1::hash(ByteSpan(pattern).first(n));
    const auto d256 = crypto::Sha256::hash(ByteSpan(pattern).first(n));
    sha1_chain.insert(sha1_chain.end(), d1.begin(), d1.end());
    sha256_chain.insert(sha256_chain.end(), d256.begin(), d256.end());
  }
  EXPECT_EQ(crypto::Sha1::hex(ByteSpan(sha1_chain)),
            "65a89e3aacfbd0b7df374e2e2eba2705f2b60cbd");
  EXPECT_EQ(crypto::Sha256::hex(ByteSpan(sha256_chain)),
            "c35f81543da6e2384825e12b996f63d2d2a652971625973989db4ef4660e027b");
}

TEST(ShaKernelTest, MatchesScalarReference) {
  Rng rng(test_seed(0x5a1));
  for (int iter = 0; iter < 300; ++iter) {
    const Arena a(rng, (20 << 10) + 1);  // 0..20 KiB
    const Bytes buf = rng.bytes(a.offset + a.len);
    const ByteSpan view = ByteSpan(buf).subspan(a.offset);
    ASSERT_EQ(crypto::Sha1::hash(view), crypto::Sha1::hash_scalar(view))
        << "len=" << a.len << " off=" << a.offset;
    ASSERT_EQ(crypto::Sha256::hash(view), crypto::Sha256::hash_scalar(view))
        << "len=" << a.len << " off=" << a.offset;
  }
}

TEST(ShaKernelTest, IncrementalSplitsMatchScalarOneShot) {
  Rng rng(test_seed(0x5a2));
  for (int iter = 0; iter < 200; ++iter) {
    const Bytes buf = rng.bytes(rng.next_below((20 << 10) + 1));
    const ByteSpan all(buf);
    crypto::Sha1 sha1;
    crypto::Sha256 sha256;
    std::string cuts;
    std::size_t off = 0;
    while (off < buf.size()) {
      // Pieces of 0..130 bytes enter the 64-byte buffer at every fill level
      // and straddle its edge; an occasional long piece hands the kernel a
      // multi-block run between two partial blocks.
      const std::size_t piece =
          std::min(rng.next_below(8) == 0 ? rng.next_below(4096)
                                          : rng.next_below(131),
                   buf.size() - off);
      sha1.update(all.subspan(off, piece));
      sha256.update(all.subspan(off, piece));
      off += piece;
      cuts += std::to_string(off) + " ";
    }
    ASSERT_EQ(sha1.finish(), crypto::Sha1::hash_scalar(all))
        << "size=" << buf.size() << " cuts=" << cuts;
    ASSERT_EQ(sha256.finish(), crypto::Sha256::hash_scalar(all))
        << "size=" << buf.size() << " cuts=" << cuts;
  }
}

// --- ChaCha20 -----------------------------------------------------------------

TEST(ChaChaKernelTest, Rfc8439Vector) {
  // RFC 8439 section 2.4.2 (counter starts at 1).
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce_b = from_hex("000000000000004a00000000");
  const std::string plain_s =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const Bytes expect = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b"
      "65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf"
      "500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a3"
      "5be6b40b8eedf2785e42874d");
  crypto::ChaCha20::Key k{};
  std::memcpy(k.data(), key.data(), k.size());
  crypto::ChaCha20::Nonce nonce;
  std::memcpy(nonce.data(), nonce_b.data(), nonce.size());
  const Bytes plain = bytes_from_string(plain_s);
  Bytes out(plain.size());
  crypto::ChaCha20(k).xor_stream(nonce, 1, ByteSpan(plain), out.data());
  EXPECT_EQ(out, expect);
}

TEST(ChaChaKernelTest, ChunkedEqualsOneShot) {
  Rng rng(test_seed(0xcc2));
  const auto key = crypto::chacha20_key_from_passphrase("kernels");
  const crypto::ChaCha20 chacha(key);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t len = 64 * (1 + rng.next_below(20));  // block-aligned
    const Bytes plain = rng.bytes(len);
    crypto::ChaCha20::Nonce nonce{};
    Bytes whole(len);
    chacha.xor_stream(nonce, 0, ByteSpan(plain), whole.data());
    // Same stream consumed in two block-aligned pieces with an advanced
    // counter must splice to the identical output.
    const std::size_t cut_blocks = rng.next_below(len / 64 + 1);
    const std::size_t cut = cut_blocks * 64;
    Bytes pieces(len);
    chacha.xor_stream(nonce, 0, ByteSpan(plain).first(cut), pieces.data());
    chacha.xor_stream(nonce, static_cast<std::uint32_t>(cut_blocks),
                      ByteSpan(plain).subspan(cut), pieces.data() + cut);
    ASSERT_EQ(whole, pieces) << "len=" << len << " cut=" << cut;
  }
}

// --- Cipher abstraction -------------------------------------------------------

TEST(CipherTest, AllKindsRoundTrip) {
  Rng rng(test_seed(0xc1f));
  for (const auto kind :
       {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
        crypto::CipherKind::kChaCha20}) {
    const crypto::Cipher cipher(kind, "round-trip");
    for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{1024}}) {
      const Bytes plain = rng.bytes(len);
      const Bytes frame = cipher.encrypt(ByteSpan(plain));
      ASSERT_FALSE(frame.empty());
      EXPECT_EQ(frame[0], static_cast<std::uint8_t>(kind));
      auto back = cipher.decrypt(ByteSpan(frame));
      ASSERT_TRUE(back.is_ok()) << crypto::cipher_name(kind);
      EXPECT_EQ(back.value(), plain) << crypto::cipher_name(kind);
    }
  }
}

TEST(CipherTest, DecryptDispatchesOnFrameTagAcrossKinds) {
  // A client reconfigured to a different cipher must still read frames
  // written under any other kind (same passphrase).
  Rng rng(test_seed(0xc20));
  const Bytes plain = rng.bytes(500);
  for (const auto writer :
       {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
        crypto::CipherKind::kChaCha20}) {
    const Bytes frame =
        crypto::Cipher(writer, "shared").encrypt(ByteSpan(plain));
    for (const auto reader :
         {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
          crypto::CipherKind::kChaCha20}) {
      auto back = crypto::Cipher(reader, "shared").decrypt(ByteSpan(frame));
      ASSERT_TRUE(back.is_ok());
      EXPECT_EQ(back.value(), plain);
    }
  }
}

TEST(CipherTest, DeterministicFrames) {
  const Bytes plain = bytes_from_string("same plaintext, same frame");
  for (const auto kind :
       {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
        crypto::CipherKind::kChaCha20}) {
    const crypto::Cipher cipher(kind, "determinism");
    EXPECT_EQ(cipher.encrypt(ByteSpan(plain)), cipher.encrypt(ByteSpan(plain)));
  }
}

TEST(CipherTest, NamesRoundTrip) {
  for (const auto kind :
       {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
        crypto::CipherKind::kChaCha20}) {
    auto parsed = crypto::cipher_from_name(crypto::cipher_name(kind));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(crypto::cipher_from_name("rot13").is_ok());
}

TEST(CipherTest, UnknownTagAndEmptyFrameRejected) {
  const crypto::Cipher cipher(crypto::CipherKind::kAes128Ctr, "x");
  EXPECT_FALSE(cipher.decrypt(ByteSpan{}).is_ok());
  const Bytes bogus = {0x7F, 1, 2, 3};
  EXPECT_FALSE(cipher.decrypt(ByteSpan(bogus)).is_ok());
}

TEST(CipherTest, CodecDetectsTamperUnderEveryCipher) {
  Rng rng(test_seed(0xc21));
  metadata::SyncFolderImage image;
  for (const auto kind :
       {crypto::CipherKind::kDes, crypto::CipherKind::kAes128Ctr,
        crypto::CipherKind::kChaCha20}) {
    const metadata::MetadataCodec codec("tamper", kind);
    Bytes frame = codec.encode_image(image);
    ASSERT_TRUE(codec.decode_image(ByteSpan(frame)).is_ok());
    // Flip one random ciphertext bit; the envelope (crc32c + SHA-256 inside
    // the encryption) must reject it.
    Bytes bad = frame;
    const std::size_t at = 1 + rng.next_below(bad.size() - 1);
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(codec.decode_image(ByteSpan(bad)).is_ok())
        << crypto::cipher_name(kind) << " flip at " << at;
    // Wrong passphrase must also be rejected, not garbage-decoded.
    const metadata::MetadataCodec other("different", kind);
    EXPECT_FALSE(other.decode_image(ByteSpan(frame)).is_ok());
  }
}

// --- Dispatch layer -----------------------------------------------------------

TEST(DispatchTest, ResolvedKernelsConsistentWithCpuFeatures) {
  const CpuFeatures& f = cpu_features();
  // Touch all accessors so every kernel has resolved.
  const std::string gf = Gf256::kernel_name();
  const std::string crc = crypto::crc32c_kernel_name();
  const std::string aes = crypto::Aes128::kernel_name();
  const std::string chacha = crypto::ChaCha20::kernel_name();
  const std::string sha1 = crypto::Sha1::kernel_name();
  const std::string sha256 = crypto::Sha256::kernel_name();

  if (f.force_scalar) {
    EXPECT_EQ(gf, "scalar");
    EXPECT_EQ(crc, "scalar");
    EXPECT_EQ(aes, "scalar");
    EXPECT_EQ(sha1, "scalar");
    EXPECT_EQ(sha256, "scalar");
  } else {
    EXPECT_EQ(gf, f.avx2 ? "avx2" : (f.ssse3 ? "ssse3" : "scalar"));
    EXPECT_EQ(crc, f.sse42 ? "sse4.2" : "scalar");
    EXPECT_EQ(aes, f.aesni ? "aesni" : "scalar");
    EXPECT_EQ(sha1, f.sha ? "shani" : "scalar");
    EXPECT_EQ(sha256, f.sha ? "shani" : "scalar");
  }
  EXPECT_EQ(chacha, "portable");

  EXPECT_EQ(Gf256::kernel_tier() == 0, gf == "scalar");
  EXPECT_EQ(crypto::crc32c_kernel_tier() == 0, crc == "scalar");
  EXPECT_EQ(crypto::Aes128::kernel_tier() == 0, aes == "scalar");
  EXPECT_EQ(crypto::ChaCha20::kernel_tier(), 0);
  EXPECT_EQ(crypto::Sha1::kernel_tier() == 0, sha1 == "scalar");
  EXPECT_EQ(crypto::Sha256::kernel_tier() == 0, sha256 == "scalar");

  // Registry carries every kernel with the same impl names.
  bool saw_gf = false, saw_crc = false, saw_aes = false, saw_chacha = false;
  bool saw_sha1 = false, saw_sha256 = false;
  for (const ResolvedKernel& k : resolved_kernels()) {
    if (k.kernel == "gf_mul_add") { saw_gf = true; EXPECT_EQ(k.impl, gf); }
    if (k.kernel == "crc32c") { saw_crc = true; EXPECT_EQ(k.impl, crc); }
    if (k.kernel == "aes_ctr") { saw_aes = true; EXPECT_EQ(k.impl, aes); }
    if (k.kernel == "chacha20") {
      saw_chacha = true;
      EXPECT_EQ(k.impl, chacha);
    }
    if (k.kernel == "sha1") { saw_sha1 = true; EXPECT_EQ(k.impl, sha1); }
    if (k.kernel == "sha256") {
      saw_sha256 = true;
      EXPECT_EQ(k.impl, sha256);
    }
  }
  EXPECT_TRUE(saw_gf && saw_crc && saw_aes && saw_chacha);
  EXPECT_TRUE(saw_sha1 && saw_sha256);
}

TEST(DispatchTest, KernelGaugesExported) {
  obs::Observability obs;
  core::export_kernel_gauges(&obs);
  const auto snap = obs.metrics.snapshot();
  const std::string gf = Gf256::kernel_name();
  EXPECT_EQ(snap.gauges.at("cpu.kernel.gf_mul_add"),
            static_cast<double>(Gf256::kernel_tier()));
  EXPECT_EQ(snap.gauges.at("cpu.kernel.gf_mul_add." + gf), 1.0);
  EXPECT_EQ(snap.gauges.at("cpu.kernel.crc32c"),
            static_cast<double>(crypto::crc32c_kernel_tier()));
  EXPECT_EQ(snap.gauges.at(std::string("cpu.kernel.crc32c.") +
                           crypto::crc32c_kernel_name()),
            1.0);
  EXPECT_EQ(snap.gauges.at("cpu.kernel.chacha20.portable"), 1.0);
  EXPECT_EQ(snap.gauges.at("cpu.kernel.sha1"),
            static_cast<double>(crypto::Sha1::kernel_tier()));
  EXPECT_EQ(snap.gauges.at(std::string("cpu.kernel.sha1.") +
                           crypto::Sha1::kernel_name()),
            1.0);
  EXPECT_EQ(snap.gauges.at("cpu.kernel.sha256"),
            static_cast<double>(crypto::Sha256::kernel_tier()));
  EXPECT_EQ(snap.gauges.at(std::string("cpu.kernel.sha256.") +
                           crypto::Sha256::kernel_name()),
            1.0);
}

}  // namespace
}  // namespace unidrive
