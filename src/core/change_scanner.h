// Change scanner — detects local edits by comparing the sync folder against
// the last committed metadata image (the role of the native apps' file
// watcher; scan-based so it works identically on every LocalFs backend).
//
// A file is unchanged when its bytes still are its snapshot's committed
// segments, each range checked against its segment id; otherwise CDC
// segments it and its content hash is minted from the new segment ids
// (crypto::file_content_hash), so no byte is hashed twice. Everything that
// differs from its snapshot produces a ChangedFileList entry. The scanner
// also streams the *new* segments of added/edited files (dedup against the
// pool) to a sink, so the data plane encodes and uploads exactly those.
//
// Each changed or uncached file is one task on the executor that reads it,
// runs the unchanged-file walk, cuts it and hashes its segments, each
// segment's id a subtask of its own. A bounded window of files is in flight
// at once, and files are finalized (snapshot, cache, dedup, sink) strictly
// in path order, so the sink sees what a serial scan would hand it.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "chunker/segmenter.h"
#include "common/executor.h"
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

// Fingerprint cache: maps (path, size, mtime) to the content hash the
// file's bytes last matched — its snapshot's own hash when the segment
// walk proved it unchanged, else the hash minted for it — so repeated
// scans of an unchanged folder read nothing. Backends with coarse mtimes
// still work — a content change without an mtime/size change is missed
// until either moves, the same trade-off real sync clients make.
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
// fingerprint is unchanged and is updated in place. Files are read, cut and
// hashed on `executor` (a client passes its own pool, other callers
// Executor::shared()); the calling thread runs any file task or id no pool
// thread has started by the time it needs it, so any pool size makes
// progress.
//
// The window holds at most max(2, min(executor.size(),
// hardware_concurrency())) files, and admits a file only while the listed
// sizes of the files in it stay within `max_window_bytes` (a client passes
// PipelineConfig::max_inflight_bytes; the default sets no byte bound); the
// oldest file is always admitted, so a file larger than the bound is
// scanned alone.
//
// Each new segment's bytes — not yet in the image's pool, and deduped
// within the scan — are handed to `sink` as soon as its file is finalized,
// so the sync pipeline encodes and uploads while the scan is still reading
// later files. A one-segment file's read buffer is handed over whole. The
// sink may block (backpressure from a bounded pipeline).
ScanResult scan_local_changes(
    const LocalFs& fs, const metadata::SyncFolderImage& image,
    const chunker::SegmenterParams& seg_params, const std::string& device,
    ScanCache* cache, Executor& executor, const SegmentSink& sink,
    std::size_t max_window_bytes = std::numeric_limits<std::size_t>::max());

}  // namespace unidrive::core
