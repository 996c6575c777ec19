#include "crypto/crc32.h"

#include <array>
#include <cstring>

#include "common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define UNIDRIVE_CRC_X86 1
#include <immintrin.h>
#endif

namespace unidrive::crypto {

namespace {

// Reflected CRC-32C polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Slicing-by-8 tables: table[0] is the classic byte table; table[k] advances
// a byte seen k positions earlier, so eight lookups retire eight input bytes
// per iteration with no inter-lookup dependency chain.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  Tables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

const Tables& tables() noexcept {
  static const Tables t;
  return t;
}

// Raw state update (state is the inverted running CRC).
std::uint32_t update_sw(std::uint32_t state, const std::uint8_t* p,
                        std::size_t n) noexcept {
  const auto& t = tables().t;
  std::uint32_t c = state;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= c;
    c = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
        t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
        t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
    p += 8;
    n -= 8;
  }
#endif
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
// The zero-extension operator of one lane: the raw state after
// kCrc32cLaneBytes zero bytes, as a function of the state before. It is
// linear over GF(2), so four byte tables (the images of each byte of the
// state) apply it, and it joins lanes: on the raw state,
// crc(A || B) = shift(crc(A)) ^ crc_0(B) for |B| = one lane, crc_0 starting
// from state 0.
struct LaneShift {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  LaneShift() noexcept {
    static constexpr std::array<std::uint8_t, kCrc32cLaneBytes> kZeros{};
    std::array<std::uint32_t, 32> bit_image{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
      bit_image[bit] = update_sw(1u << bit, kZeros.data(), kZeros.size());
    }
    for (std::size_t byte = 0; byte < 4; ++byte) {
      for (std::uint32_t v = 0; v < 256; ++v) {
        std::uint32_t image = 0;
        for (std::size_t bit = 0; bit < 8; ++bit) {
          if (((v >> bit) & 1) != 0) image ^= bit_image[byte * 8 + bit];
        }
        t[byte][v] = image;
      }
    }
  }
  [[nodiscard]] std::uint32_t operator()(std::uint32_t c) const noexcept {
    return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
           t[3][c >> 24];
  }
};

const LaneShift& lane_shift() noexcept {
  static const LaneShift shift;
  return shift;
}
#endif  // __x86_64__

#if UNIDRIVE_CRC_X86
__attribute__((target("sse4.2"))) std::uint32_t update_hw(
    std::uint32_t state, const std::uint8_t* p, std::size_t n) {
#if defined(__x86_64__)
  std::uint64_t c = state;
  // Align to 8 so the wide strides never split a cache line.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --n;
  }
  // One chain is bound by the instruction's 3-cycle latency; three
  // independent chains, one per lane of each three-lane block, keep it
  // busy every cycle, and two lane shifts join them.
  constexpr std::size_t kLane = kCrc32cLaneBytes;
  if (n >= 3 * kLane) {
    const LaneShift& shift = lane_shift();
    do {
      std::uint64_t c1 = 0;
      std::uint64_t c2 = 0;
      for (std::size_t i = 0; i < kLane; i += 8) {
        std::uint64_t w0;
        std::uint64_t w1;
        std::uint64_t w2;
        std::memcpy(&w0, p + i, 8);
        std::memcpy(&w1, p + kLane + i, 8);
        std::memcpy(&w2, p + 2 * kLane + i, 8);
        c = _mm_crc32_u64(c, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
      }
      c = shift(shift(static_cast<std::uint32_t>(c)) ^
                static_cast<std::uint32_t>(c1)) ^
          static_cast<std::uint32_t>(c2);
      p += 3 * kLane;
      n -= 3 * kLane;
    } while (n >= 3 * kLane);
  }
  // The tail keeps the single chain.
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
#else
  std::uint32_t c32 = state;
  while (n >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    c32 = _mm_crc32_u32(c32, w);
    p += 4;
    n -= 4;
  }
#endif
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif  // UNIDRIVE_CRC_X86

struct CrcKernel {
  std::uint32_t (*update)(std::uint32_t, const std::uint8_t*, std::size_t);
  const char* name;
  int tier;
};

const CrcKernel& crc_kernel() noexcept {
  static const CrcKernel resolved = [] {
    CrcKernel k{&update_sw, "scalar", 0};
#if UNIDRIVE_CRC_X86
    if (cpu_features().sse42) k = CrcKernel{&update_hw, "sse4.2", 1};
#endif
    note_kernel("crc32c", k.name, k.tier);
    return k;
  }();
  return resolved;
}

}  // namespace

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) noexcept {
  return crc_kernel().update(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^
         0xFFFFFFFFu;
}

std::uint32_t crc32c_sw(ByteSpan data, std::uint32_t seed) noexcept {
  return update_sw(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

const char* crc32c_kernel_name() noexcept { return crc_kernel().name; }

int crc32c_kernel_tier() noexcept { return crc_kernel().tier; }

}  // namespace unidrive::crypto
