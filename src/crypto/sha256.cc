#include "crypto/sha256.h"

#include <utility>

#include "common/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#define UNIDRIVE_SHA_X86 1
#include <immintrin.h>
#endif

namespace unidrive::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// FIPS 180 compression of one block: the portable reference.
void process_block(std::uint32_t* hs, const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = hs[0], b = hs[1], c = hs[2], d = hs[3];
  std::uint32_t e = hs[4], f = hs[5], g = hs[6], h = hs[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  hs[0] += a;
  hs[1] += b;
  hs[2] += c;
  hs[3] += d;
  hs[4] += e;
  hs[5] += f;
  hs[6] += g;
  hs[7] += h;
}

void compress_scalar(std::uint32_t* h, const std::uint8_t* p,
                     std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, p += 64) process_block(h, p);
}

#if UNIDRIVE_SHA_X86

// Group G runs rounds 4G..4G+3 as two sha256rnds2 steps. abef and cdgh
// swap roles after each step, so both names are right again at the end.
template <int G>
[[gnu::target("sha,sse4.1,ssse3"), gnu::always_inline]] inline void
sha256_group(__m128i& abef, __m128i& cdgh, __m128i (&w)[4],
             const std::uint8_t* block, __m128i bswap) {
  __m128i& x = w[G % 4];  // W[4G..4G+3], W[4G] in the low lane
  if constexpr (G < 4) {
    x = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * G)),
        bswap);
  } else {
    // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four words at once.
    x = _mm_sha256msg2_epu32(
        _mm_add_epi32(_mm_sha256msg1_epu32(x, w[(G + 1) % 4]),
                      _mm_alignr_epi8(w[(G + 3) % 4], w[(G + 2) % 4], 4)),
        w[(G + 3) % 4]);
  }
  const __m128i wk = _mm_add_epi32(
      x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * G])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

template <int... G>
[[gnu::target("sha,sse4.1,ssse3")]] void compress_shani_groups(
    std::uint32_t* h, const std::uint8_t* p, std::size_t blocks,
    std::integer_sequence<int, G...>) {
  // Byte-swaps each 32-bit lane: big-endian message words.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // The instructions keep the state as (A,B,E,F) and (C,D,G,H).
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  __m128i w[4];
  for (; blocks > 0; --blocks, p += 64) {
    const __m128i abef0 = abef;
    const __m128i cdgh0 = cdgh;
    (sha256_group<G>(abef, cdgh, w, p, bswap), ...);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

void compress_shani(std::uint32_t* h, const std::uint8_t* p,
                    std::size_t blocks) noexcept {
  compress_shani_groups(h, p, blocks, std::make_integer_sequence<int, 16>{});
}

#endif  // UNIDRIVE_SHA_X86

const detail::CompressKernel& sha256_kernel() noexcept {
  static const detail::CompressKernel resolved = [] {
    detail::CompressKernel k{&compress_scalar, "scalar", 0};
#if UNIDRIVE_SHA_X86
    if (cpu_features().sha) {
      k = detail::CompressKernel{&compress_shani, "shani", 1};
    }
#endif
    note_kernel("sha256", k.name, k.tier);
    return k;
  }();
  return resolved;
}

}  // namespace

void Sha256::reset() noexcept { state_.reset(kInit); }

void Sha256::update(ByteSpan data) noexcept {
  state_.update(data, sha256_kernel().compress);
}

Sha256::Digest Sha256::finish() noexcept {
  const Digest digest = state_.finish(sha256_kernel().compress);
  reset();
  return digest;
}

Sha256::Digest Sha256::hash(ByteSpan data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash_scalar(ByteSpan data) noexcept {
  detail::BlockHasher<8> state;
  state.reset(kInit);
  state.update(data, &compress_scalar);
  return state.finish(&compress_scalar);
}

std::string Sha256::hex(ByteSpan data) {
  const Digest d = hash(data);
  return to_hex(ByteSpan(d.data(), d.size()));
}

const char* Sha256::kernel_name() noexcept { return sha256_kernel().name; }

int Sha256::kernel_tier() noexcept { return sha256_kernel().tier; }

}  // namespace unidrive::crypto
