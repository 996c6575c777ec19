#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "test_seed.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "erasure/rs.h"
#include "sched/plan.h"

UNIDRIVE_REGISTER_SEED_LISTENER()

namespace unidrive::erasure {
namespace {

using unidrive::testing::test_seed;

// --- GF(256) ------------------------------------------------------------------

TEST(Gf256Test, AddIsXor) {
  EXPECT_EQ(Gf256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(Gf256::add(0, 0), 0);
}

TEST(Gf256Test, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256Test, KnownProduct) {
  // 0x53 * 0xCA = 0x01 in GF(2^8) with the AES polynomial (they are
  // multiplicative inverses).
  EXPECT_EQ(Gf256::mul(0x53, 0xCA), 0x01);
}

TEST(Gf256Test, MulCommutativeAssociativeSample) {
  Rng rng(test_seed(1));
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next());
    const auto c = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    EXPECT_EQ(Gf256::mul(a, Gf256::mul(b, c)),
              Gf256::mul(Gf256::mul(a, b), c));
    // Distributivity over addition.
    EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
              Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
  }
}

TEST(Gf256Test, InverseProperty) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = Gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256Test, DivMatchesMulByInverse) {
  Rng rng(test_seed(2));
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    auto b = static_cast<std::uint8_t>(rng.next());
    if (b == 0) b = 1;
    EXPECT_EQ(Gf256::div(a, b), Gf256::mul(a, Gf256::inv(b)));
  }
}

TEST(Gf256Test, ExpGeneratorCycle) {
  EXPECT_EQ(Gf256::exp(0), 1);
  EXPECT_EQ(Gf256::exp(255), 1);   // order of the multiplicative group
  EXPECT_EQ(Gf256::exp(-1), Gf256::exp(254));
}

TEST(Gf256Test, MulAddSliceMatchesScalarLoop) {
  Rng rng(test_seed(3));
  const Bytes src = rng.bytes(1000);
  Bytes dst = rng.bytes(1000);
  Bytes expected = dst;
  const std::uint8_t coeff = 0x7D;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expected[i] ^= Gf256::mul(coeff, src[i]);
  }
  Gf256::mul_add_slice(dst.data(), src.data(), src.size(), coeff);
  EXPECT_EQ(dst, expected);
}

TEST(Gf256Test, MulAddSliceCoeffZeroIsNoop) {
  Rng rng(test_seed(4));
  const Bytes src = rng.bytes(100);
  Bytes dst = rng.bytes(100);
  const Bytes before = dst;
  Gf256::mul_add_slice(dst.data(), src.data(), src.size(), 0);
  EXPECT_EQ(dst, before);
}

TEST(Gf256Test, ScaleSlice) {
  Bytes dst = {1, 2, 3};
  Gf256::scale_slice(dst.data(), dst.size(), 2);
  EXPECT_EQ(dst[0], Gf256::mul(1, 2));
  EXPECT_EQ(dst[1], Gf256::mul(2, 2));
  EXPECT_EQ(dst[2], Gf256::mul(3, 2));
}

// --- matrices -----------------------------------------------------------------

TEST(MatrixTest, IdentityMultiplication) {
  const GfMatrix id = GfMatrix::identity(4);
  GfMatrix m(4, 4);
  Rng rng(test_seed(5));
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m.at(r, c) = static_cast<std::uint8_t>(rng.next());
    }
  }
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);
}

TEST(MatrixTest, InverseTimesSelfIsIdentity) {
  Rng rng(test_seed(6));
  for (int trial = 0; trial < 20; ++trial) {
    GfMatrix m(5, 5);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) {
        m.at(r, c) = static_cast<std::uint8_t>(rng.next());
      }
    }
    auto inv = m.inverted();
    if (!inv.is_ok()) continue;  // singular random matrix: skip
    EXPECT_EQ(m.multiply(inv.value()), GfMatrix::identity(5));
  }
}

TEST(MatrixTest, SingularMatrixRejected) {
  GfMatrix m(3, 3);  // all zeros
  EXPECT_EQ(m.inverted().code(), ErrorCode::kCorrupt);
}

TEST(MatrixTest, NonSquareInverseRejected) {
  GfMatrix m(2, 3);
  EXPECT_EQ(m.inverted().code(), ErrorCode::kInvalidArgument);
}

TEST(MatrixTest, CauchyEverySquareSubmatrixInvertible) {
  const std::size_t n = 10, k = 3;
  const GfMatrix m = GfMatrix::cauchy(n, k);
  // Exhaustively test all C(10,3) row subsets.
  std::vector<std::size_t> idx(k);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        idx = {a, b, c};
        EXPECT_TRUE(m.select_rows(idx).inverted().is_ok())
            << a << "," << b << "," << c;
      }
    }
  }
}

TEST(MatrixTest, VandermondeFirstKRowsInvertible) {
  const GfMatrix m = GfMatrix::vandermonde(8, 4);
  std::vector<std::size_t> idx = {0, 1, 2, 3};
  EXPECT_TRUE(m.select_rows(idx).inverted().is_ok());
}

// --- Reed-Solomon -------------------------------------------------------------

struct RsCase {
  std::size_t n;
  std::size_t k;
  RsVariant variant;
  std::size_t payload;
};

class RsRoundTrip : public ::testing::TestWithParam<RsCase> {};

TEST_P(RsRoundTrip, AnyKShardsDecode) {
  const RsCase c = GetParam();
  const RsCode code(c.n, c.k, c.variant);
  Rng rng(test_seed(42 + c.n * 100 + c.k));
  const Bytes segment = rng.bytes(c.payload);
  const std::vector<Shard> shards = code.encode(ByteSpan(segment));
  ASSERT_EQ(shards.size(), c.n);

  // Try several random k-subsets.
  std::vector<std::size_t> order(c.n);
  std::iota(order.begin(), order.end(), 0);
  for (int trial = 0; trial < 12; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<Shard> subset;
    for (std::size_t i = 0; i < c.k; ++i) subset.push_back(shards[order[i]]);
    auto decoded = code.decode(subset, segment.size());
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), segment);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsRoundTrip,
    ::testing::Values(
        // UniDrive default (10, 3), non-systematic.
        RsCase{10, 3, RsVariant::kNonSystematic, 4096},
        RsCase{10, 3, RsVariant::kNonSystematic, 4097},  // padding path
        RsCase{10, 3, RsVariant::kNonSystematic, 1},
        RsCase{10, 3, RsVariant::kSystematic, 4096},
        RsCase{5, 5, RsVariant::kNonSystematic, 1000},   // no redundancy
        RsCase{6, 1, RsVariant::kNonSystematic, 333},    // replication-ish
        RsCase{14, 10, RsVariant::kSystematic, 10000},
        RsCase{20, 4, RsVariant::kNonSystematic, 64},
        RsCase{100, 30, RsVariant::kNonSystematic, 3000}));

// Randomized sweep over UniDrive placement parameters: draw (N, k, Ks, Kr)
// at random, keep the combinations CodeParams::validate() accepts, and check
// the erasure-code contract the placement math relies on — the derived
// (code_n, k) code must decode from ANY k of its shards, and the security
// ceiling must make Ks-1 colluding clouds arithmetically unable to gather k.
TEST(RsPropertyTest, RandomCodeParamsRoundTripFromAnyKSubset) {
  Rng rng(test_seed(0xC0DE));
  int tested = 0;
  int drawn = 0;
  while (tested < 40) {
    ASSERT_LT(++drawn, 4000) << "parameter space too hard to sample";
    sched::CodeParams params;
    params.num_clouds = 2 + rng.next_below(8);  // N in [2, 9]
    params.k = 1 + rng.next_below(10);          // k in [1, 10]
    params.ks = 1 + rng.next_below(4);          // Ks in [1, 4]
    params.kr = 1 + rng.next_below(params.num_clouds);  // Kr in [1, N]
    if (!params.validate().is_ok()) continue;  // infeasible combination
    ++tested;
    SCOPED_TRACE("N=" + std::to_string(params.num_clouds) +
                 " k=" + std::to_string(params.k) +
                 " Ks=" + std::to_string(params.ks) +
                 " Kr=" + std::to_string(params.kr));

    // Security arithmetic: at the per-cloud cap, Ks-1 breached clouds hold
    // strictly fewer than k blocks — reconstruction is impossible.
    if (params.ks > 1) {
      EXPECT_LT((params.ks - 1) * params.max_per_cloud(), params.k);
    }
    // Reliability arithmetic: any Kr clouds at the fair-share floor hold at
    // least k blocks — reconstruction is guaranteed.
    EXPECT_GE(params.kr * params.fair_share(), params.k);

    const RsCode code(params.code_n(), params.k, RsVariant::kNonSystematic);
    const Bytes segment = rng.bytes(64 + rng.next_below(2048));
    const std::vector<Shard> shards = code.encode(ByteSpan(segment));
    ASSERT_EQ(shards.size(), params.code_n());

    std::vector<std::size_t> order(params.code_n());
    std::iota(order.begin(), order.end(), 0);
    for (int trial = 0; trial < 6; ++trial) {
      std::shuffle(order.begin(), order.end(), rng);
      std::vector<Shard> subset;
      for (std::size_t i = 0; i < params.k; ++i) {
        subset.push_back(shards[order[i]]);
      }
      auto decoded = code.decode(subset, segment.size());
      ASSERT_TRUE(decoded.is_ok());
      EXPECT_EQ(decoded.value(), segment);
    }
    // And k-1 shards must never suffice.
    if (params.k > 1) {
      std::vector<Shard> short_subset(shards.begin(),
                                      shards.begin() + (params.k - 1));
      EXPECT_FALSE(code.decode(short_subset, segment.size()).is_ok());
    }
  }
}

TEST(RsCodeTest, EmptySegment) {
  const RsCode code(10, 3);
  const auto shards = code.encode(ByteSpan{});
  auto decoded = code.decode(shards, 0);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(RsCodeTest, SystematicFirstKShardsAreData) {
  const RsCode code(8, 4, RsVariant::kSystematic);
  Rng rng(test_seed(7));
  const Bytes segment = rng.bytes(400);
  const auto shards = code.encode(ByteSpan(segment));
  const std::size_t shard_size = code.shard_size(segment.size());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < shard_size; ++j) {
      const std::size_t pos = i * shard_size + j;
      const std::uint8_t expected = pos < segment.size() ? segment[pos] : 0;
      ASSERT_EQ(shards[i].data[j], expected) << i << ":" << j;
    }
  }
}

TEST(RsCodeTest, NonSystematicShardsAreNotData) {
  // The security rationale: no stored block may equal a verbatim slice of
  // the file. With a Cauchy matrix no row is a unit vector, so every shard
  // mixes all k data shards.
  const RsCode code(10, 3);
  Rng rng(test_seed(8));
  const Bytes segment = rng.bytes(3000);
  const auto shards = code.encode(ByteSpan(segment));
  const std::size_t shard_size = code.shard_size(segment.size());
  for (const Shard& s : shards) {
    for (std::size_t d = 0; d < 3; ++d) {
      const bool equals_data_shard = std::equal(
          s.data.begin(), s.data.end(), segment.begin() + d * shard_size);
      EXPECT_FALSE(equals_data_shard);
    }
  }
}

TEST(RsCodeTest, SystematicIsProvablyMdsExhaustive) {
  // Every C(10,3) subset of the systematic code's shards must decode —
  // guaranteed by the [I ; Cauchy] construction (a reduced-Vandermonde
  // systematic matrix would NOT pass this exhaustively in general).
  const RsCode code(10, 3, RsVariant::kSystematic);
  Rng rng(test_seed(99));
  const Bytes segment = rng.bytes(1500);
  const auto shards = code.encode(ByteSpan(segment));
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      for (std::size_t c = b + 1; c < 10; ++c) {
        const std::vector<Shard> subset = {shards[a], shards[b], shards[c]};
        auto decoded = code.decode(subset, segment.size());
        ASSERT_TRUE(decoded.is_ok()) << a << "," << b << "," << c;
        EXPECT_EQ(decoded.value(), segment);
      }
    }
  }
}

TEST(RsCodeTest, NonSystematicIsProvablyMdsExhaustive) {
  const RsCode code(10, 3, RsVariant::kNonSystematic);
  Rng rng(test_seed(100));
  const Bytes segment = rng.bytes(1500);
  const auto shards = code.encode(ByteSpan(segment));
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      for (std::size_t c = b + 1; c < 10; ++c) {
        const std::vector<Shard> subset = {shards[a], shards[b], shards[c]};
        auto decoded = code.decode(subset, segment.size());
        ASSERT_TRUE(decoded.is_ok()) << a << "," << b << "," << c;
        EXPECT_EQ(decoded.value(), segment);
      }
    }
  }
}

TEST(RsCodeTest, FewerThanKShardsFails) {
  const RsCode code(10, 3);
  Rng rng(test_seed(9));
  const Bytes segment = rng.bytes(100);
  auto shards = code.encode(ByteSpan(segment));
  shards.resize(2);
  EXPECT_EQ(code.decode(shards, segment.size()).code(), ErrorCode::kCorrupt);
}

TEST(RsCodeTest, DuplicateShardIndicesDontCount) {
  const RsCode code(10, 3);
  Rng rng(test_seed(10));
  const Bytes segment = rng.bytes(100);
  const auto shards = code.encode(ByteSpan(segment));
  const std::vector<Shard> dupes = {shards[0], shards[0], shards[0]};
  EXPECT_FALSE(code.decode(dupes, segment.size()).is_ok());
}

TEST(RsCodeTest, ExtraShardsIgnored) {
  const RsCode code(10, 3);
  Rng rng(test_seed(11));
  const Bytes segment = rng.bytes(777);
  const auto shards = code.encode(ByteSpan(segment));
  auto decoded = code.decode(shards, segment.size());  // all 10 given
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), segment);
}

TEST(RsCodeTest, MismatchedShardSizeRejected) {
  const RsCode code(10, 3);
  Rng rng(test_seed(12));
  const Bytes segment = rng.bytes(300);
  auto shards = code.encode(ByteSpan(segment));
  shards[1].data.pop_back();
  const std::vector<Shard> subset = {shards[0], shards[1], shards[2]};
  EXPECT_EQ(code.decode(subset, segment.size()).code(), ErrorCode::kCorrupt);
}

TEST(RsCodeTest, EncodeShardsSubsetMatchesFullEncode) {
  const RsCode code(10, 3);
  Rng rng(test_seed(13));
  const Bytes segment = rng.bytes(999);
  const auto all = code.encode(ByteSpan(segment));
  const auto some = code.encode_shards(ByteSpan(segment), {7, 2, 9});
  ASSERT_EQ(some.size(), 3u);
  EXPECT_EQ(some[0].data, all[7].data);
  EXPECT_EQ(some[1].data, all[2].data);
  EXPECT_EQ(some[2].data, all[9].data);
}

// The encode the in-place rows replaced, written out: split the segment
// into k rows of shard_size bytes, zero-padded, then one scalar dot
// product per coded row.
Bytes padded_split_row(const RsCode& code, ByteSpan segment,
                       std::uint32_t index) {
  const std::size_t size = code.shard_size(segment.size());
  std::vector<Bytes> rows(code.k(), Bytes(size, 0));
  std::vector<const std::uint8_t*> srcs;
  std::vector<std::uint8_t> coeffs;
  for (std::size_t r = 0; r < code.k(); ++r) {
    const std::size_t begin = std::min(r * size, segment.size());
    const std::size_t len = std::min(size, segment.size() - begin);
    std::copy_n(segment.begin() + static_cast<std::ptrdiff_t>(begin), len,
                rows[r].begin());
    srcs.push_back(rows[r].data());
    coeffs.push_back(code.encode_matrix().at(index, r));
  }
  Bytes out(size);
  Gf256::dot_slice_scalar(out.data(), srcs.data(), coeffs.data(), code.k(),
                          size);
  return out;
}

// Every coded row the client stores (indices below code_n of its default
// code) must stay byte-identical through both encode entry points. Each
// segment is the prefix of a longer random buffer, so an encode that reads
// past a short last row picks up those bytes and differs.
TEST(RsCodeTest, InPlaceEncodeIsByteIdenticalToPaddedSplit) {
  const sched::CodeParams params;
  const RsCode code(64, params.k);  // the client's pinned codec length
  std::vector<std::uint32_t> indices(params.code_n());
  std::iota(indices.begin(), indices.end(), 0u);
  const std::size_t k = params.k;
  const std::size_t shard = 4096;
  Rng rng(test_seed(31));
  Executor executor(4);
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1, 3 * shard - 1,
        std::size_t{(4 << 20) + 1}}) {
    const Bytes buffer = rng.bytes(size + 4096);
    const ByteSpan segment(buffer.data(), size);
    const std::vector<Shard> serial = code.encode_shards(segment, indices);
    std::vector<Bytes> parallel(indices.size(),
                                Bytes(code.shard_size(size)));
    std::vector<std::uint8_t*> out;
    for (Bytes& row : parallel) out.push_back(row.data());
    code.encode_shards_parallel(segment, indices, out, executor);
    ASSERT_EQ(serial.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const Bytes expected = padded_split_row(code, segment, indices[i]);
      EXPECT_EQ(serial[i].index, indices[i]);
      EXPECT_EQ(serial[i].data, expected) << "size " << size << " row " << i;
      EXPECT_EQ(parallel[i], expected) << "size " << size << " row " << i;
    }
  }
}

TEST(RsCodeTest, InvalidParamsThrow) {
  EXPECT_THROW(RsCode(3, 5), std::invalid_argument);       // k > n
  EXPECT_THROW(RsCode(0, 0), std::invalid_argument);
  EXPECT_THROW(RsCode(200, 100), std::invalid_argument);   // n + k > 256
}

TEST(RsCodeTest, ShardSizeCeiling) {
  const RsCode code(10, 3);
  EXPECT_EQ(code.shard_size(9), 3u);
  EXPECT_EQ(code.shard_size(10), 4u);
  EXPECT_EQ(code.shard_size(0), 0u);
}

}  // namespace
}  // namespace unidrive::erasure
