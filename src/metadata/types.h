// Core metadata value types shared by the whole control plane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "crypto/convergent.h"

namespace unidrive::metadata {

// Identifies one committed metadata state. Commits are serialized by the
// quorum lock, so `counter` increases monotonically across the multi-cloud;
// `device`/`timestamp` identify the committer (no global clock is assumed —
// timestamps are informational only, never compared across devices).
struct VersionStamp {
  std::string device;
  std::uint64_t counter = 0;
  double timestamp = 0.0;

  friend bool operator==(const VersionStamp& a, const VersionStamp& b) noexcept {
    return a.counter == b.counter && a.device == b.device;
  }
  // Total order used for "newer metadata" decisions.
  friend bool operator<(const VersionStamp& a, const VersionStamp& b) noexcept {
    if (a.counter != b.counter) return a.counter < b.counter;
    return a.device < b.device;
  }

  [[nodiscard]] std::string to_string() const {
    return device + "#" + std::to_string(counter);
  }
};

// Immutable description of one version of a file. `segment_ids` point into
// the image's segment pool; the file content is the concatenation of those
// segments in order.
struct FileSnapshot {
  std::string path;              // normalized "/docs/a.txt"
  double mtime = 0.0;            // local modification time (informational)
  std::uint64_t size = 0;        // total file size in bytes
  std::string content_hash;      // SHA-1 hex of the whole file
  std::vector<std::string> segment_ids;
  std::string origin_device;     // device that produced this snapshot

  friend bool operator==(const FileSnapshot& a, const FileSnapshot& b) noexcept {
    return a.path == b.path && a.size == b.size &&
           a.content_hash == b.content_hash && a.segment_ids == b.segment_ids;
  }
};

// Where one erasure-coded block of a segment lives.
// block_index is the row of the RS encode matrix in [0, n); cloud is the
// provider holding the block. Set via upload callbacks (the paper mandates
// blocks are uploaded before the metadata referencing them is committed).
struct BlockLocation {
  std::uint32_t block_index = 0;
  cloud::CloudId cloud = 0;

  friend bool operator==(const BlockLocation& a, const BlockLocation& b) noexcept {
    return a.block_index == b.block_index && a.cloud == b.cloud;
  }
};

// Segment pool entry: content-addressed, reference-counted (dedup), with the
// full block map. Blocks are immutable; over-provisioned blocks may later be
// garbage-collected, which only shrinks `blocks`.
struct SegmentInfo {
  std::string id;             // content hash hex: SHA-256; 40-hex = legacy SHA-1
  std::uint64_t size = 0;     // plaintext segment size
  std::uint32_t refcount = 0; // number of snapshots referencing it
  std::vector<BlockLocation> blocks;

  friend bool operator==(const SegmentInfo& a, const SegmentInfo& b) noexcept {
    return a.id == b.id && a.size == b.size && a.refcount == b.refcount &&
           a.blocks == b.blocks;
  }
};

// Conventional cloud-side layout.
inline constexpr const char* kDataDir = "/data";
inline constexpr const char* kMetaDir = "/meta";
inline constexpr const char* kLockDir = "/lock";

// Cloud filename of a block: "<storage-address>_<block-index>". The address
// is crypto::storage_address(segment_id) — a one-way fingerprint of the id,
// NOT the id itself: the convergent key is derived from the id's leading
// bytes, so publishing the id in a shared-plane filename would hand the
// decryption key to anyone who can list the pool. Legacy SHA-1 ids map to
// themselves, so pre-upgrade blocks keep their paths.
inline std::string block_name(const std::string& segment_id,
                              std::uint32_t block_index) {
  return crypto::storage_address(segment_id) + "_" +
         std::to_string(block_index);
}
inline std::string block_path(const std::string& segment_id,
                              std::uint32_t block_index) {
  return std::string(kDataDir) + "/" + block_name(segment_id, block_index);
}

}  // namespace unidrive::metadata
