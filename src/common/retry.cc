#include "common/retry.h"

#include <chrono>
#include <thread>

namespace unidrive {

namespace {
// A named function (not a lambda) so is_real_sleep can identify the default
// through std::function::target.
void real_sleep_impl(Duration d) {
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}
}  // namespace

SleepFn real_sleep() { return SleepFn(&real_sleep_impl); }

bool is_real_sleep(const SleepFn& sleep) {
  if (!sleep) return true;
  using Fp = void (*)(Duration);
  const Fp* target = sleep.target<Fp>();
  return target != nullptr && *target == &real_sleep_impl;
}

}  // namespace unidrive
