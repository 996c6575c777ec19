// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected) — the data plane's
// cheap corruption screen: per-record guards in the delta log, the fast
// integrity pre-check in the metadata envelope, and the scrubber's
// block-compare screen all use it, so a torn upload or flipped bit is
// rejected for the cost of a CRC instead of a cryptographic hash.
//
// Dispatch (common/cpu.h): the SSE4.2 crc32 instruction when the CPU has
// it, otherwise a slicing-by-8 table fallback. One chain of crc32 is bound
// by the instruction's latency (3 cycles per u64), not its throughput (1
// per cycle), so inputs of at least three lanes run three independent
// chains over the three lanes of each block and join them with a
// precomputed zero-extension operator (the layout of Mark Adler's
// crc32c.c); shorter inputs and the tail run one chain. Seed chaining
// composes: crc32c(b, crc32c(a)) == crc32c(a || b).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace unidrive::crypto {

// Bytes per lane of the hardware kernel's three-chain blocks.
inline constexpr std::size_t kCrc32cLaneBytes = 4096;

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0) noexcept;

// Portable reference (always the table kernel, independent of dispatch);
// the differential tests pin the hardware path against it.
std::uint32_t crc32c_sw(ByteSpan data, std::uint32_t seed = 0) noexcept;

// Resolved dispatch decision ("sse4.2" or "scalar"); forces resolution, so
// the result is also visible via common/cpu.h's registry.
[[nodiscard]] const char* crc32c_kernel_name() noexcept;
[[nodiscard]] int crc32c_kernel_tier() noexcept;  // 0 scalar, 1 sse4.2

}  // namespace unidrive::crypto
