// Merkle-Damgard front end shared by Sha1 and Sha256 (FIPS 180): buffers a
// partial 64-byte block, hands every whole run of blocks to the compression
// kernel in ONE call (so a SIMD kernel keeps its state in registers across
// the run), and appends the length padding. The kernel is passed per call,
// so the same state runs through the dispatched or the scalar reference
// compression function.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace unidrive::crypto::detail {

// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept;

// One resolved compression kernel (common/cpu.h's registry names it).
struct CompressKernel {
  CompressFn compress;
  const char* name;
  int tier;
};

template <std::size_t kWords>
struct BlockHasher {
  using Digest = std::array<std::uint8_t, 4 * kWords>;

  std::uint32_t h[kWords];
  std::uint8_t buffer[64];
  std::size_t buffered = 0;
  std::uint64_t total_bytes = 0;

  void reset(const std::uint32_t (&iv)[kWords]) noexcept {
    std::memcpy(h, iv, sizeof(h));
    buffered = 0;
    total_bytes = 0;
  }

  void update(ByteSpan data, CompressFn compress) noexcept {
    if (data.empty()) return;
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    total_bytes += n;
    if (buffered > 0) {
      const std::size_t take = std::min(64 - buffered, n);
      std::memcpy(buffer + buffered, p, take);
      buffered += take;
      p += take;
      n -= take;
      if (buffered < 64) return;
      compress(h, buffer, 1);
      buffered = 0;
    }
    if (n >= 64) {
      compress(h, p, n / 64);
      p += n - n % 64;
      n %= 64;
    }
    if (n > 0) std::memcpy(buffer, p, n);
    buffered = n;
  }

  // Appends the padding (0x80, zeros, 64-bit big-endian bit length) and
  // returns the state as big-endian bytes. The caller resets afterwards.
  Digest finish(CompressFn compress) noexcept {
    const std::uint64_t bit_len = total_bytes * 8;
    buffer[buffered++] = 0x80;
    if (buffered > 56) {
      std::memset(buffer + buffered, 0, 64 - buffered);
      compress(h, buffer, 1);
      buffered = 0;
    }
    std::memset(buffer + buffered, 0, 56 - buffered);
    for (int i = 0; i < 8; ++i) {
      buffer[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress(h, buffer, 1);

    Digest digest;
    for (std::size_t i = 0; i < kWords; ++i) {
      digest[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
      digest[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
      digest[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
      digest[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
    }
    return digest;
  }
};

}  // namespace unidrive::crypto::detail
