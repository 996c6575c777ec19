// KvStore — the KV-style engine under the sharded metadata plane.
//
// Turns the five basic cloud file verbs into the storage contract the
// sharded store needs:
//
//   * put():   immutable-object write, replicated to every cloud, success
//              gated on a majority (write-to-majority).
//   * get():   read of an immutable object from ANY cloud whose copy passes
//              the caller's validator — objects are content-complete
//              (encrypted + integrity-checked one layer up), so the first
//              valid copy is THE object.
//   * root:    the single mutable record (the pointer to the current
//              manifest object). Written to a majority, read from ALL
//              reachable clouds taking the newest, so the newest committed
//              root is found whenever a majority is reachable. put_root()
//              is version-fenced: the caller states the version it read,
//              and the write is refused (kConflict) if any cloud already
//              advertises a newer root, so a writer that lost the lock (or
//              raced it) can never regress the pointer.
//
// One round trip per verb: put, remove, list, fetch_root and each half of
// put_root (the fence read, then the write) send their call to every cloud
// at once on the store's pool and return when every cloud has answered;
// the answers are then weighed in cloud order, exactly as a serial visit
// would. get() stays single-copy: it asks one cloud at a time, in cloud
// order, and returns the first valid copy — one call when cloud 0's copy
// is valid.
//
// Atomic multi-key commits fall out of immutability: write every new object
// with put(), then flip the root with put_root(). A crash before the root
// flip leaves only unreferenced objects (garbage, collected by compaction);
// readers always see either the old complete object set or the new one.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "common/executor.h"
#include "common/status.h"
#include "metadata/types.h"
#include "obs/obs.h"

namespace unidrive::metadata {

// The mutable root record: names the current manifest object.
struct RootPointer {
  VersionStamp version;      // == manifest version
  std::string manifest_key;

  [[nodiscard]] Bytes serialize() const;
  static Result<RootPointer> deserialize(ByteSpan data);

  friend bool operator==(const RootPointer& a, const RootPointer& b) noexcept {
    return a.version == b.version && a.manifest_key == b.manifest_key;
  }
};

class KvStore {
 public:
  // Object keys are slash-separated names relative to `dir` (conventionally
  // "/meta/kv"); the root record lives at `dir`/root. `pool` runs the
  // per-cloud fan-out (the caller takes part, so a busy or 1-thread pool
  // degrades to serial calls in cloud order); null means Executor::shared().
  KvStore(cloud::MultiCloud clouds, std::string dir = "/meta/kv",
          obs::ObsPtr obs = nullptr, std::shared_ptr<Executor> pool = nullptr);

  // Replicates the object to every cloud at once; OK when a majority
  // accepted.
  Status put(const std::string& key, ByteSpan value);

  // First copy (in cloud order) that `validate` accepts. A null validator
  // accepts anything. kNotFound when no cloud has the key; kCorrupt when
  // copies exist but none validated.
  using Validator = std::function<bool(ByteSpan)>;
  Result<Bytes> get(const std::string& key, const Validator& validate = {});

  // Best-effort delete of every key on every cloud, all in one wave
  // (missing copies are fine). Used by compaction to prune superseded
  // objects; losing the race on some cloud only leaves garbage, never
  // corruption.
  void remove(const std::vector<std::string>& keys);

  // Union of the object names under `subdir` across all reachable clouds
  // (an object put() to a majority may be missing from a minority).
  Result<std::vector<std::string>> list(const std::string& subdir);

  // Newest root advertised by any reachable cloud. kOutage when no cloud
  // responded; kNotFound when no root exists yet anywhere.
  Result<RootPointer> fetch_root();

  // Publishes `root` to a majority, fenced on `expected`: if any reachable
  // cloud already advertises a root newer than `expected` (nullopt = "I
  // believe none exists"), returns kConflict without writing. The fence is
  // advisory hardening on top of the root lock — it turns a lock-protocol
  // violation into a clean retry instead of a lost update.
  Status put_root(const RootPointer& root,
                  const std::optional<VersionStamp>& expected);

  [[nodiscard]] const cloud::MultiCloud& clouds() const noexcept {
    return clouds_;
  }
  // The pool the fan-outs run on; the sharded store fetches a wave of
  // objects on it too.
  [[nodiscard]] Executor& pool() const noexcept { return *pool_; }
  [[nodiscard]] std::size_t majority() const noexcept {
    // max() guards the degenerate empty multi-cloud: majority of zero clouds
    // must be impossible to reach, not trivially reached.
    return std::max<std::size_t>(1, clouds_.size() / 2 + 1);
  }

 private:
  [[nodiscard]] std::string object_path(const std::string& key) const {
    return dir_ + "/" + key;
  }

  // Sends call(cloud) to every cloud at once and returns the answers in
  // cloud order, once every cloud has answered.
  template <typename Call>
  auto on_every_cloud(const Call& call) const;

  cloud::MultiCloud clouds_;
  std::string dir_;
  std::string root_path_;
  obs::ObsPtr obs_;
  std::shared_ptr<Executor> pool_;
};

}  // namespace unidrive::metadata
