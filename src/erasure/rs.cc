#include "erasure/rs.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_set>

#include "erasure/gf256.h"

namespace unidrive::erasure {

namespace {

// Systematic construction: [ I_k ; Cauchy ]. Any k-row subset mixes r unit
// rows with (k - r) Cauchy rows; expanding the determinant along the unit
// rows leaves a square Cauchy submatrix, which is always invertible — so
// the code is provably MDS. (The folklore alternative, column-reducing a
// Vandermonde matrix, does NOT guarantee MDS over GF(2^8); that is a
// well-known erasure-coding pitfall.)
GfMatrix systematic_matrix(std::size_t n, std::size_t k) {
  GfMatrix m(n, k);
  for (std::size_t i = 0; i < k; ++i) m.at(i, i) = 1;
  if (n > k) {
    const GfMatrix parity = GfMatrix::cauchy(n - k, k);
    for (std::size_t r = 0; r < n - k; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        m.at(k + r, c) = parity.at(r, c);
      }
    }
  }
  return m;
}

}  // namespace

RsCode::RsCode(std::size_t n, std::size_t k, RsVariant variant)
    : n_(n), k_(k), variant_(variant) {
  if (k == 0 || k > n || n > 256 ||
      (variant == RsVariant::kNonSystematic && n + k > 256)) {
    throw std::invalid_argument("RsCode: invalid (n, k)");
  }
  matrix_ = (variant == RsVariant::kSystematic) ? systematic_matrix(n, k)
                                                : GfMatrix::cauchy(n, k);
}

void RsCode::encode_row(ByteSpan segment, std::uint32_t index,
                        std::uint8_t* out) const {
  const std::size_t size = shard_size(segment.size());
  if (size == 0) return;
  // Data row r is segment bytes [r * size, (r + 1) * size): rows below
  // `whole` are complete, row `whole` holds the last `tail` bytes, and the
  // rows after it are all padding.
  const std::size_t whole = segment.size() / size;
  const std::size_t tail = segment.size() - whole * size;
  std::array<const std::uint8_t*, 256> srcs{};
  std::array<std::uint8_t, 256> coeffs{};
  for (std::size_t c = 0; c < k_; ++c) {
    srcs[c] = segment.data() + std::min(c * size, segment.size());
    coeffs[c] = matrix_.at(index, c);
  }
  // Columns [0, tail) read the short row too; columns [tail, size) only
  // the whole rows, since a zero byte adds nothing to the sum.
  if (tail > 0) {
    Gf256::dot_slice(out, srcs.data(), coeffs.data(), whole + 1, tail);
  }
  for (std::size_t c = 0; c < whole; ++c) srcs[c] += tail;
  Gf256::dot_slice(out + tail, srcs.data(), coeffs.data(), whole, size - tail);
}

std::vector<Shard> RsCode::encode(ByteSpan segment) const {
  std::vector<std::uint32_t> all(n_);
  for (std::size_t i = 0; i < n_; ++i) all[i] = static_cast<std::uint32_t>(i);
  return encode_shards(segment, all);
}

std::vector<Shard> RsCode::encode_shards(
    ByteSpan segment, const std::vector<std::uint32_t>& indices) const {
  std::vector<Shard> out(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out[i].index = indices[i];
    out[i].data.resize(shard_size(segment.size()));
    encode_row(segment, indices[i], out[i].data.data());
  }
  return out;
}

void RsCode::encode_shards_parallel(ByteSpan segment,
                                    const std::vector<std::uint32_t>& indices,
                                    std::span<std::uint8_t* const> out,
                                    Executor& executor) const {
  executor.parallel_apply(indices.size(), [&](std::size_t i) {
    encode_row(segment, indices[i], out[i]);
  });
}

namespace {

// Front half of the decode: pick the first k shards with distinct
// in-range indices and invert the matching encode rows.
struct DecodePlan {
  std::vector<const Shard*> chosen;
  GfMatrix inverse;
};

Result<DecodePlan> plan_decode(std::span<const Shard* const> shards,
                               std::size_t shard_size, std::size_t n,
                               std::size_t k, const GfMatrix& matrix) {
  if (shards.size() < k) {
    return make_error(ErrorCode::kCorrupt, "RS decode: fewer than k shards");
  }
  DecodePlan plan;
  std::unordered_set<std::uint32_t> seen;
  for (const Shard* s : shards) {
    if (s->index >= n || !seen.insert(s->index).second) continue;
    if (s->data.size() != shard_size) {
      return make_error(ErrorCode::kCorrupt, "RS decode: bad shard size");
    }
    plan.chosen.push_back(s);
    if (plan.chosen.size() == k) break;
  }
  if (plan.chosen.size() < k) {
    return make_error(ErrorCode::kCorrupt,
                      "RS decode: fewer than k distinct shards");
  }
  std::vector<std::size_t> rows(k);
  for (std::size_t i = 0; i < k; ++i) rows[i] = plan.chosen[i]->index;
  UNI_ASSIGN_OR_RETURN(plan.inverse, matrix.select_rows(rows).inverted());
  return plan;
}

}  // namespace

Result<Bytes> RsCode::decode(const std::vector<Shard>& shards,
                             std::size_t original_size) const {
  std::vector<const Shard*> borrowed;
  borrowed.reserve(shards.size());
  for (const Shard& s : shards) borrowed.push_back(&s);
  return decode_subset(borrowed, original_size, nullptr);
}

Result<Bytes> RsCode::decode_subset(std::span<const Shard* const> shards,
                                    std::size_t original_size,
                                    Executor* executor) const {
  const std::size_t size = shard_size(original_size);
  UNI_ASSIGN_OR_RETURN(const DecodePlan plan,
                       plan_decode(shards, size, n_, k_, matrix_));

  // data[c] = sum_i inverse[c][i] * shard[i], one fused pass per row. Each
  // row writes a disjoint slice of `out`, so the rows fan out with no
  // synchronization beyond parallel_apply's join.
  std::vector<const std::uint8_t*> srcs(k_);
  for (std::size_t i = 0; i < k_; ++i) srcs[i] = plan.chosen[i]->data.data();
  Bytes out(k_ * size);
  const auto row = [&](std::size_t c) {
    std::vector<std::uint8_t> coeffs(k_);
    for (std::size_t i = 0; i < k_; ++i) coeffs[i] = plan.inverse.at(c, i);
    Gf256::dot_slice(out.data() + c * size, srcs.data(), coeffs.data(), k_,
                     size);
  };
  if (executor != nullptr) {
    executor->parallel_apply(k_, row);
  } else {
    for (std::size_t c = 0; c < k_; ++c) row(c);
  }
  out.resize(original_size);
  return out;
}

}  // namespace unidrive::erasure
