// 64-byte-aligned byte buffers for the SIMD data plane.
//
// The GF(2^8) shuffle kernels stream 32-byte vectors over whole shards; when
// the source rows start on a cache-line boundary no wide load ever straddles
// two lines, which is worth a few percent of memory bandwidth on the encode
// hot loop. Alignment is an OPTIMIZATION, never a contract: every kernel
// uses unaligned loads/stores and accepts arbitrary pointers (the
// differential fuzz test exercises misaligned heads and tails explicitly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace unidrive {

inline constexpr std::size_t kKernelAlignment = 64;

template <typename T, std::size_t Align = kKernelAlignment>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

// Kernel rows that start on a cache-line boundary (kernel tests, benches).
using AlignedBytes = std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>>;

}  // namespace unidrive
