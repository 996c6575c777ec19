// FaultyCloud — failure-injecting decorator around any CloudProvider.
//
// Models the paper's measured failure behaviour: per-request transient
// failures whose probability grows with transfer size (Figure 4), plus
// whole-cloud outages (reliability experiments, Figure 14), torn uploads
// (a request aborts mid-flight after part of the payload landed) and hangs
// (a request stalls long enough to blow any deadline). Deterministic under
// a seeded RNG; hangs go through an injectable sleep so tests advance a
// ManualClock instead of waiting.
#pragma once

#include <atomic>
#include <mutex>

#include "cloud/provider.h"
#include "common/retry.h"
#include "common/rng.h"

namespace unidrive::cloud {

struct FaultProfile {
  // P(fail) for a request moving `bytes` payload:
  //   min(1, base_failure_rate + per_mb_failure_rate * bytes / 1 MiB)
  double base_failure_rate = 0.0;
  double per_mb_failure_rate = 0.0;
  // Metadata ops (list/create/delete) use base_failure_rate only.

  // Torn upload: with this probability an upload writes a truncated prefix
  // of the payload to the inner cloud and then reports kUnavailable — the
  // client believes it failed while garbage sits at the path.
  double torn_upload_rate = 0.0;
  // Hang: with this probability a request stalls `hang_seconds` (via the
  // injected sleep) before proceeding; deadline wrappers turn the stall
  // into kTimeout.
  double hang_rate = 0.0;
  Duration hang_seconds = 0.0;

  // --- silent defects (the scrubber's prey) -------------------------------
  // Neither produces an error: the client believes the upload succeeded.
  // Bit-rot: the stored bytes differ from the payload (one byte flipped).
  double bitrot_rate = 0.0;
  // Block loss: the upload reports OK but nothing is stored — models a
  // provider losing the object after the fact, compressed into the write.
  double block_loss_rate = 0.0;
};

// One request's worth of injected faults, drawn up front so the blocking
// and async surfaces share the exact same decision logic and counters.
struct FaultDecision {
  bool hang = false;          // stall hang_seconds before proceeding
  Duration hang_seconds = 0;
  bool fail = false;          // report fail_status(outage) and stop
  bool outage = false;        // the failure is a whole-cloud outage
  bool torn = false;          // upload only: write half, report kUnavailable
  bool bitrot = false;        // upload only: store corrupted bytes, report OK
  bool drop = false;          // upload only: store nothing, report OK
};

// What a request with `fail` set reports: kOutage during a whole-cloud
// outage, kUnavailable otherwise. Shared with the async twin.
[[nodiscard]] Status fail_status(bool outage, const std::string& name);

// The payload with one added to its middle byte: size-preserving bit-rot,
// so only a content check (the scrubber's deep verify) can catch it, and
// rotting a block again leaves it corrupt (fewer than 256 times over).
[[nodiscard]] Bytes rot_bytes(ByteSpan data);

class FaultyCloud final : public CloudProvider {
 public:
  FaultyCloud(CloudPtr inner, FaultProfile profile, std::uint64_t seed,
              SleepFn sleep = real_sleep())
      : inner_(std::move(inner)),
        profile_(profile),
        rng_(seed),
        sleep_(std::move(sleep)) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

  // Complete outage: every request fails with kOutage until restored.
  void set_outage(bool down) noexcept { outage_.store(down); }
  [[nodiscard]] bool in_outage() const noexcept { return outage_.load(); }

  void set_profile(FaultProfile profile);

  // Counters for failure-rate assertions in tests/benches.
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_.load(); }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_.load(); }
  [[nodiscard]] std::uint64_t torn_uploads() const noexcept {
    return torn_uploads_.load();
  }
  [[nodiscard]] std::uint64_t hangs() const noexcept { return hangs_.load(); }
  [[nodiscard]] std::uint64_t bitrots() const noexcept {
    return bitrots_.load();
  }
  [[nodiscard]] std::uint64_t lost_blocks() const noexcept {
    return lost_blocks_.load();
  }

  // Deterministic silent-defect injection for tests/benches: corrupt or
  // delete an object ALREADY stored on the inner cloud, behind the
  // provider's back (no decision draw, but counted like the probabilistic
  // variants). rot adds one to the middle byte, preserving the size.
  Status rot_stored(const std::string& path);
  Status drop_stored(const std::string& path);

  // Draws every fault for one request (hang, outage/size-dependent failure,
  // torn upload) and updates the counters. The caller then acts on the
  // decision: the blocking verbs sleep/fail inline, the async passthrough
  // (cloud/async.h) schedules the same effects without blocking its caller.
  // Note: an outage request hangs too — a dead endpoint times out, it does
  // not answer fast.
  [[nodiscard]] FaultDecision draw_decision(std::size_t payload_bytes,
                                            bool is_upload);

  // The injected sleep, shared with the async passthrough so gated/virtual
  // hang semantics are identical on both surfaces.
  [[nodiscard]] const SleepFn& sleep_fn() const noexcept { return sleep_; }
  [[nodiscard]] const CloudPtr& inner() const noexcept { return inner_; }

 private:

  CloudPtr inner_;
  FaultProfile profile_;
  std::atomic<bool> outage_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> torn_uploads_{0};
  std::atomic<std::uint64_t> hangs_{0};
  std::atomic<std::uint64_t> bitrots_{0};
  std::atomic<std::uint64_t> lost_blocks_{0};
  std::mutex rng_mutex_;
  Rng rng_;
  SleepFn sleep_;
};

}  // namespace unidrive::cloud
