// SHA-256 (FIPS 180-4). A segment's id is the SHA-256 of its plaintext
// (crypto/convergent.h): the id keys the convergent seal, domain-separated
// SHA-256s of it give the seal nonce and the one-way storage address, and
// restore re-hashes every opened segment against its id. The metadata
// envelope (metadata/codec.h) carries a SHA-256 of its payload, and the
// AES/ChaCha20 passphrase keys are SHA-256 truncations.
//
// Dispatch (common/cpu.h): SHA-NI (sha256rnds2 and the message-schedule
// instructions) when the CPU has it, otherwise the portable FIPS compression
// function. update() hands every whole run of 64-byte blocks to the kernel
// in one call; digests are identical on both paths.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "crypto/block_hasher.h"

namespace unidrive::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { reset(); }

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
  detail::BlockHasher<8> state_;
};

}  // namespace unidrive::crypto
