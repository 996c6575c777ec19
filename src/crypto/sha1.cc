#include "crypto/sha1.h"

#include <utility>

#include "common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define UNIDRIVE_SHA_X86 1
#include <immintrin.h>
#endif

namespace unidrive::crypto {

namespace {

constexpr std::uint32_t kInit[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};

constexpr std::uint32_t rotl(std::uint32_t x, int n) noexcept {
  return (x << n) | (x >> (32 - n));
}

// FIPS 180 compression of one block: the portable reference.
void process_block(std::uint32_t* h, const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

void compress_scalar(std::uint32_t* h, const std::uint8_t* p,
                     std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, p += 64) process_block(h, p);
}

#if UNIDRIVE_SHA_X86

// Registers carried through the 20 four-round groups of one block.
struct Sha1Lanes {
  __m128i abcd;  // A..D, A in the top lane
  __m128i e;     // E in the top lane, zeros below (read by group 0)
  __m128i prev;  // abcd before the previous group: feeds this group's E
  __m128i w[4];  // message schedule: W[4g..4g+3] lives in w[g % 4]
};

// Group G runs rounds 4G..4G+3. sha1rnds4 takes its round function (G / 5)
// as an immediate, so every group is its own instantiation and the block is
// unrolled at compile time; a rolled loop switching on the function runs at
// half the speed.
template <int G>
[[gnu::target("sha,sse4.1,ssse3"), gnu::always_inline]] inline void
sha1_group(Sha1Lanes& s, const std::uint8_t* block, __m128i bswap) {
  __m128i& w = s.w[G % 4];
  if constexpr (G < 4) {
    w = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        bswap);
  } else {
    // W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), four words at once.
    w = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(w, s.w[(G + 1) % 4]),
                      s.w[(G + 2) % 4]),
        s.w[(G + 3) % 4]);
  }
  __m128i e;
  if constexpr (G == 0) {
    e = _mm_add_epi32(s.e, w);
  } else {
    e = _mm_sha1nexte_epu32(s.prev, w);
  }
  s.prev = s.abcd;
  s.abcd = _mm_sha1rnds4_epu32(s.abcd, e, G / 5);
}

template <int... G>
[[gnu::target("sha,sse4.1,ssse3")]] void compress_shani_groups(
    std::uint32_t* h, const std::uint8_t* p, std::size_t blocks,
    std::integer_sequence<int, G...>) {
  // Reverses all 16 bytes: big-endian words, W[0] in the top lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  Sha1Lanes s;
  s.abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  s.e = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, p += 64) {
    const __m128i abcd0 = s.abcd;
    const __m128i e0 = s.e;
    (sha1_group<G>(s, p, bswap), ...);
    s.e = _mm_sha1nexte_epu32(s.prev, e0);
    s.abcd = _mm_add_epi32(s.abcd, abcd0);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(s.abcd, 0x1B));
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(s.e, 3));
}

void compress_shani(std::uint32_t* h, const std::uint8_t* p,
                    std::size_t blocks) noexcept {
  compress_shani_groups(h, p, blocks, std::make_integer_sequence<int, 20>{});
}

#endif  // UNIDRIVE_SHA_X86

const detail::CompressKernel& sha1_kernel() noexcept {
  static const detail::CompressKernel resolved = [] {
    detail::CompressKernel k{&compress_scalar, "scalar", 0};
#if UNIDRIVE_SHA_X86
    if (cpu_features().sha) {
      k = detail::CompressKernel{&compress_shani, "shani", 1};
    }
#endif
    note_kernel("sha1", k.name, k.tier);
    return k;
  }();
  return resolved;
}

}  // namespace

void Sha1::reset() noexcept { state_.reset(kInit); }

void Sha1::update(ByteSpan data) noexcept {
  state_.update(data, sha1_kernel().compress);
}

Sha1::Digest Sha1::finish() noexcept {
  const Digest digest = state_.finish(sha1_kernel().compress);
  reset();
  return digest;
}

Sha1::Digest Sha1::hash(ByteSpan data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1::Digest Sha1::hash_scalar(ByteSpan data) noexcept {
  detail::BlockHasher<5> state;
  state.reset(kInit);
  state.update(data, &compress_scalar);
  return state.finish(&compress_scalar);
}

std::string Sha1::hex(ByteSpan data) {
  const Digest d = hash(data);
  return to_hex(ByteSpan(d.data(), d.size()));
}

const char* Sha1::kernel_name() noexcept { return sha1_kernel().name; }

int Sha1::kernel_tier() noexcept { return sha1_kernel().tier; }

}  // namespace unidrive::crypto
