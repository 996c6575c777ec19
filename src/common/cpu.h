// Runtime CPU feature probe and kernel-dispatch registry.
//
// Every byte-crunching kernel in the data plane (GF(2^8) multiply-accumulate,
// CRC32C, AES-CTR, SHA-1, SHA-256) exists in at least two flavours: a
// portable scalar fallback and one or more ISA-accelerated variants. Each
// kernel resolves a function pointer ONCE (first use, thread-safe via
// static-local init) by consulting cpu_features(); the chosen implementation
// is registered here so observability can export what actually runs
// (`cpu.kernel.*` gauges) and tests can assert the dispatch outcome.
//
// Setting UNIDRIVE_FORCE_SCALAR=1 in the environment masks every ISA bit, so
// the whole process runs on the portable fallbacks — CI uses this to prove
// the scalar paths stay correct and the SIMD paths are equivalence-tested
// against them (tests/kernels_test.cc).
#pragma once

#include <string>
#include <vector>

namespace unidrive {

struct CpuFeatures {
  bool ssse3 = false;   // pshufb          -> GF(2^8) shuffle kernels
  bool sse42 = false;   // crc32 insn      -> hardware CRC32C
  bool avx2 = false;    // vpshufb (256b)  -> wide GF(2^8) kernels
  bool aesni = false;   // aesenc          -> AES-128-CTR
  bool sha = false;     // sha1rnds4/sha256rnds2 (with SSSE3 and SSE4.1)
                        //                 -> SHA-1, SHA-256
  bool force_scalar = false;  // UNIDRIVE_FORCE_SCALAR was set
};

// Raw CPUID probe of the executing CPU; ignores UNIDRIVE_FORCE_SCALAR.
[[nodiscard]] CpuFeatures probe_cpu() noexcept;

// Cached process-wide view consulted by every kernel resolver: the probe
// with UNIDRIVE_FORCE_SCALAR applied (all ISA bits cleared when forced).
// Read once at first use; changing the environment afterwards has no effect.
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

// One kernel's resolved dispatch decision.
struct ResolvedKernel {
  std::string kernel;  // stable id, e.g. "gf_mul_add", "crc32c", "aes_ctr"
  std::string impl;    // chosen implementation, e.g. "avx2", "scalar"
  int tier = 0;        // 0 = scalar/portable, higher = wider/faster ISA
};

// Called by a kernel's resolver exactly once, when its function pointer is
// first materialized. Re-registering the same kernel id overwrites (benign).
void note_kernel(const char* kernel, const char* impl, int tier);

// Snapshot of every kernel resolved so far. Kernels resolve lazily: touch
// their kernel_name() accessors first if a complete picture is needed.
[[nodiscard]] std::vector<ResolvedKernel> resolved_kernels();

}  // namespace unidrive
