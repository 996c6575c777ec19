#include "core/kernel_gauges.h"

#include <string>

#include "common/cpu.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/crc32.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "erasure/gf256.h"

namespace unidrive::core {

void export_kernel_gauges(obs::Observability* obs) {
  // Force every dispatch decision to resolve now (each accessor registers
  // its kernel with note_kernel() on first call).
  (void)erasure::Gf256::kernel_name();
  (void)crypto::crc32c_kernel_name();
  (void)crypto::Aes128::kernel_name();
  (void)crypto::ChaCha20::kernel_name();
  (void)crypto::Sha1::kernel_name();
  (void)crypto::Sha256::kernel_name();

  for (const ResolvedKernel& k : resolved_kernels()) {
    obs::set_gauge(obs, "cpu.kernel." + k.kernel, static_cast<double>(k.tier));
    obs::set_gauge(obs, "cpu.kernel." + k.kernel + "." + k.impl, 1.0);
  }
}

}  // namespace unidrive::core
