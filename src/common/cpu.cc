#include "common/cpu.h"

#include <cstdlib>
#include <map>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace unidrive {

CpuFeatures probe_cpu() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.ssse3 = (ecx & bit_SSSE3) != 0;
    f.sse42 = (ecx & bit_SSE4_2) != 0;
    f.aesni = (ecx & bit_AES) != 0;
    // AVX2 additionally requires OS support for YMM state (XSAVE/OSXSAVE +
    // XCR0 bits 1-2), otherwise executing a VEX.256 insn faults.
    const bool osxsave = (ecx & bit_OSXSAVE) != 0;
    bool ymm_enabled = false;
    if (osxsave) {
      std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
      __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      ymm_enabled = (xcr0_lo & 0x6) == 0x6;
    }
    const bool sse41 = (ecx & bit_SSE4_1) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      f.avx2 = ymm_enabled && (ebx & bit_AVX2) != 0;
      // The SHA-NI kernels also shuffle, align and blend with SSSE3/SSE4.1.
      f.sha = (ebx & bit_SHA) != 0 && f.ssse3 && sse41;
    }
  }
#endif
  return f;
}

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures cached = [] {
    CpuFeatures f = probe_cpu();
    const char* force = std::getenv("UNIDRIVE_FORCE_SCALAR");
    if (force != nullptr && *force != '\0' && *force != '0') {
      f = CpuFeatures{};
      f.force_scalar = true;
    }
    return f;
  }();
  return cached;
}

namespace {
struct KernelRegistry {
  std::mutex mutex;
  std::map<std::string, ResolvedKernel> kernels;
};
KernelRegistry& registry() {
  static KernelRegistry r;
  return r;
}
}  // namespace

void note_kernel(const char* kernel, const char* impl, int tier) {
  KernelRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.kernels[kernel] = ResolvedKernel{kernel, impl, tier};
}

std::vector<ResolvedKernel> resolved_kernels() {
  KernelRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<ResolvedKernel> out;
  out.reserve(r.kernels.size());
  for (const auto& [name, k] : r.kernels) out.push_back(k);
  return out;
}

}  // namespace unidrive
