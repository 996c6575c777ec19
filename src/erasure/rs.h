// Reed-Solomon erasure codec over GF(256).
//
// UniDrive encodes each file segment with a *non-systematic* (n, k) code:
// every stored block is a parity block (a dense linear combination of the k
// data blocks), so no cloud ever holds a verbatim piece of the file and
// fewer than Ks clouds cannot reconstruct any content. A systematic variant
// is provided for baseline comparisons and ablations.
//
// Shard layout: a segment of S bytes is split into k data shards of
// ceil(S/k) bytes (zero-padded); encode() produces n coded shards of the
// same size; decode() recovers the segment from any k distinct shards.
// Encode reads the data rows in place from the segment: a zero padding row
// adds nothing to a GF(2^8) sum, so the columns past a short last row
// combine the whole rows only. No data byte is copied and none is read
// past the segment's end, and every coded shard equals the padded split's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/executor.h"
#include "common/status.h"
#include "erasure/matrix.h"

namespace unidrive::erasure {

enum class RsVariant : std::uint8_t {
  kNonSystematic,  // all n output shards are parity (UniDrive default)
  kSystematic,     // first k shards are the data itself
};

struct Shard {
  std::uint32_t index = 0;  // row in the encode matrix, unique in [0, n)
  Bytes data;
};

class RsCode {
 public:
  // Requires 1 <= k <= n <= 256 (and n + k <= 256 for the Cauchy-based
  // non-systematic construction, far beyond UniDrive's (10, 3) default).
  RsCode(std::size_t n, std::size_t k,
         RsVariant variant = RsVariant::kNonSystematic);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] RsVariant variant() const noexcept { return variant_; }

  [[nodiscard]] std::size_t shard_size(std::size_t segment_size) const noexcept {
    return (segment_size + k_ - 1) / k_;
  }

  // Encode all n shards of the segment.
  [[nodiscard]] std::vector<Shard> encode(ByteSpan segment) const;

  // Encode only the shards whose indices are listed (on-demand generation of
  // over-provisioned parity blocks).
  [[nodiscard]] std::vector<Shard> encode_shards(
      ByteSpan segment, const std::vector<std::uint32_t>& indices) const;

  // The rows encode_shards() returns, written into caller-owned buffers:
  // out[i] receives row indices[i] and must hold shard_size(segment.size())
  // bytes. The rows fan out over `executor` (the calling thread
  // participates, so this is safe from pool threads and degrades to the
  // serial path on a single-thread executor).
  void encode_shards_parallel(ByteSpan segment,
                              const std::vector<std::uint32_t>& indices,
                              std::span<std::uint8_t* const> out,
                              Executor& executor) const;

  // Reconstruct the original segment (original_size bytes) from any k
  // shards with distinct indices. Fails with kCorrupt on bad input.
  [[nodiscard]] Result<Bytes> decode(const std::vector<Shard>& shards,
                                     std::size_t original_size) const;

  // Same result as decode(), over borrowed shards, none copied: the
  // corrupt-shard search tries its k-subsets through this. With a non-null
  // `executor` the k recovered data rows fan out over it
  // (caller-participating, so this is safe from pool threads and degrades
  // to the serial path on a single-thread executor). The matrix inversion
  // stays serial — it is O(k^3) on k-byte rows, dwarfed by the
  // O(k * shard_size) row combinations this parallelizes.
  [[nodiscard]] Result<Bytes> decode_subset(
      std::span<const Shard* const> shards, std::size_t original_size,
      Executor* executor) const;

  [[nodiscard]] const GfMatrix& encode_matrix() const noexcept {
    return matrix_;
  }

 private:
  // Coded row `index` of `segment` into out[0, shard_size).
  void encode_row(ByteSpan segment, std::uint32_t index,
                  std::uint8_t* out) const;

  std::size_t n_;
  std::size_t k_;
  RsVariant variant_;
  GfMatrix matrix_;  // n x k
};

}  // namespace unidrive::erasure
