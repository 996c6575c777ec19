// Change scanner — detects local edits by comparing the sync folder against
// the last committed metadata image (the role of the native apps' file
// watcher; scan-based so it works identically on every LocalFs backend).
//
// Files whose size and content hash match their image snapshot are
// unchanged; everything else produces a ChangedFileList entry. The scanner
// also streams the *new* segments of added/edited files (dedup against the
// pool) to a sink, so the data plane encodes and uploads exactly those.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chunker/segmenter.h"
#include "core/local_fs.h"
#include "metadata/changelist.h"
#include "metadata/image.h"

namespace unidrive::core {

struct ScanResult {
  metadata::ChangedFileList changes;
  // Snapshot of each added/edited file (also stored inside changes).
  std::vector<metadata::FileSnapshot> touched;
  std::size_t files_scanned = 0;
  std::size_t files_hashed = 0;  // cache misses (had to read + hash)
};

// Fingerprint cache: maps (path, size, mtime) to the last computed content
// hash so repeated scans of an unchanged folder read nothing. Backends with
// coarse mtimes still work — a content change without an mtime/size change
// is missed until either moves, the same trade-off real sync clients make.
class ScanCache {
 public:
  // Returns the cached content hash, or nullptr on miss.
  [[nodiscard]] const std::string* lookup(const std::string& path,
                                          std::uint64_t size,
                                          double mtime) const;
  void update(const std::string& path, std::uint64_t size, double mtime,
              std::string content_hash);
  void forget(const std::string& path);
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t size = 0;
    double mtime = 0;
    std::string content_hash;
  };
  std::map<std::string, Entry> entries_;
};

// Streaming consumer for new-segment bytes discovered during the scan.
using SegmentSink = std::function<void(const std::string& id, Bytes bytes)>;

// `seg_params.theta` is the target segment size; `device` stamps snapshot
// origin. `cache` (may be null) skips re-hashing files whose (size, mtime)
// fingerprint is unchanged and is updated in place.
//
// Each new segment's bytes — not yet in the image's pool, and deduped
// within the scan — are handed to `sink` as soon as the segment is
// discovered, so the sync pipeline encodes and uploads while the scan is
// still hashing later files. The sink may block (backpressure from a
// bounded pipeline).
ScanResult scan_local_changes(const LocalFs& fs,
                              const metadata::SyncFolderImage& image,
                              const chunker::SegmenterParams& seg_params,
                              const std::string& device, ScanCache* cache,
                              const SegmentSink& sink);

}  // namespace unidrive::core
