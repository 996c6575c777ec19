// SHA-1 (FIPS 180-4). The whole-file content hash: the scanner fingerprints
// every file with it and restore verifies each reassembled file against it.
// Segment ids are SHA-256 (crypto/sha256.h); legacy 40-hex SHA-1 segment
// ids (crypto/convergent.h) still verify through this class, and the DES
// baseline derives its passphrase key and CBC IV from it. SHA-1's collision
// resistance is not load-bearing here; it is an identifier, as in the paper.
//
// Dispatch (common/cpu.h): SHA-NI (sha1rnds4 and the message-schedule
// instructions, fully unrolled) when the CPU has it, otherwise the portable
// FIPS compression function. update() hands every whole run of 64-byte
// blocks to the kernel in one call; digests are identical on both paths.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "crypto/block_hasher.h"

namespace unidrive::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteSpan data) noexcept;
  [[nodiscard]] Digest finish() noexcept;  // resets afterwards

  static Digest hash(ByteSpan data) noexcept;
  static std::string hex(ByteSpan data);

  // Portable reference twin of hash() (always the scalar compression
  // function, independent of dispatch); the differential tests pin the
  // SHA-NI path against it.
  static Digest hash_scalar(ByteSpan data) noexcept;

  // Resolved dispatch decision ("shani" or "scalar"); forces resolution, so
  // the result is also visible via common/cpu.h's registry.
  [[nodiscard]] static const char* kernel_name() noexcept;
  [[nodiscard]] static int kernel_tier() noexcept;  // 0 scalar, 1 shani

 private:
  detail::BlockHasher<5> state_;
};

}  // namespace unidrive::crypto
