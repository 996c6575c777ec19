// LockManager — quorum locks generalized to scopes for the sharded
// metadata plane.
//
// The monolithic design held ONE quorum lock around every commit; with the
// image split into shards, writers touching disjoint shards must be able to
// commit concurrently. Each scope (one shard, or the root manifest) gets its
// own lock directory on every cloud — the same file-based quorum protocol,
// just namespaced — so holding shard 3 never contends with shard 7:
//
//   root scope    -> <lock_dir>            (the pre-shard directory, so a
//                                           crashed pre-refactor holder is
//                                           still seen and broken)
//   shard scope s -> <lock_dir>/s<id>
//
// Deadlock freedom: acquire_all() sorts scopes canonically (shards by id
// ascending, root last) and acquires in that order, releasing everything on
// the first failure (all-or-nothing). Every multi-scope holder therefore
// climbs the same ladder. The root — the global choke point — is taken
// only for the manifest flip, except by membership changes, which hold
// every scope.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lock/quorum_lock.h"

namespace unidrive::lock {

struct Scope {
  enum class Kind : std::uint8_t { kShard = 0, kRoot = 1 };
  Kind kind = Kind::kRoot;
  std::uint32_t shard = 0;  // meaningful only for kShard

  static Scope root() { return Scope{Kind::kRoot, 0}; }
  static Scope of_shard(std::uint32_t id) { return Scope{Kind::kShard, id}; }

  friend bool operator==(const Scope& a, const Scope& b) noexcept {
    return a.kind == b.kind && (a.kind == Kind::kRoot || a.shard == b.shard);
  }
  // Canonical acquisition order: shards ascending, root last.
  friend bool operator<(const Scope& a, const Scope& b) noexcept {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.kind == Kind::kShard && a.shard < b.shard;
  }

  [[nodiscard]] std::string to_string() const {
    return kind == Kind::kRoot ? "root" : "s" + std::to_string(shard);
  }
};

class LockManager {
 public:
  // `config.lock_dir` is the base directory; per-shard scopes nest under it
  // (cloud list() returns immediate children only, so nested scope dirs
  // never pollute the root scope's listing).
  LockManager(cloud::MultiCloud clouds, std::string device, LockConfig config,
              Clock& clock, Rng rng, SleepFn sleep = real_sleep(),
              obs::ObsPtr obs = nullptr);

  // Acquires one scope (idempotent while held).
  Status acquire(const Scope& scope);

  // Acquires every scope in canonical order; on any failure releases the
  // scopes already taken and returns the error (all-or-nothing, so two
  // multi-scope writers can never hold fragments of each other's set).
  Status acquire_all(std::vector<Scope> scopes);

  void release(const Scope& scope);
  void release_all();

  [[nodiscard]] bool held(const Scope& scope) const;

 private:
  QuorumLock& lock_for(const Scope& scope);
  [[nodiscard]] std::string dir_for(const Scope& scope) const;

  cloud::MultiCloud clouds_;
  std::string device_;
  LockConfig config_;
  Clock* clock_;
  Rng rng_;
  SleepFn sleep_;
  obs::ObsPtr obs_;
  // Scope -> its QuorumLock, created lazily on first acquire. std::map keeps
  // references stable across inserts.
  std::map<Scope, QuorumLock> locks_;
};

// Releases every scope a LockManager holds when it goes out of scope, so a
// locked section has one release point whichever way it exits.
class ReleaseOnExit {
 public:
  explicit ReleaseOnExit(LockManager& locks) noexcept : locks_(locks) {}
  ReleaseOnExit(const ReleaseOnExit&) = delete;
  ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;
  ~ReleaseOnExit() { locks_.release_all(); }

 private:
  LockManager& locks_;
};

}  // namespace unidrive::lock
