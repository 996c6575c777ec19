#include "core/change_scanner.h"

#include <algorithm>
#include <set>

#include "crypto/convergent.h"

namespace unidrive::core {

using metadata::Change;
using metadata::FileSnapshot;

namespace {

// True when `data` is exactly `snapshot`'s committed segments, each range
// checked against its id (one hash pass, no CDC, whatever theta is now).
// A segment the pool does not describe leaves the file unproven.
bool holds_committed_segments(const metadata::SyncFolderImage& image,
                              const FileSnapshot& snapshot, ByteSpan data) {
  std::uint64_t offset = 0;
  for (const std::string& id : snapshot.segment_ids) {
    const metadata::SegmentInfo* seg = image.find_segment(id);
    if (seg == nullptr || seg->size > data.size() - offset) return false;
    if (!crypto::verify_segment_id(id, data.subspan(offset, seg->size))) {
      return false;
    }
    offset += seg->size;
  }
  return offset == data.size();
}

}  // namespace

const std::string* ScanCache::lookup(const std::string& path,
                                     std::uint64_t size, double mtime) const {
  const auto it = entries_.find(path);
  if (it == entries_.end()) return nullptr;
  if (it->second.size != size || it->second.mtime != mtime) return nullptr;
  return &it->second.content_hash;
}

void ScanCache::update(const std::string& path, std::uint64_t size,
                       double mtime, std::string content_hash) {
  entries_[path] = {size, mtime, std::move(content_hash)};
}

void ScanCache::forget(const std::string& path) { entries_.erase(path); }

ScanResult scan_local_changes(const LocalFs& fs,
                              const metadata::SyncFolderImage& image,
                              const chunker::SegmenterParams& seg_params,
                              const std::string& device, ScanCache* cache,
                              const SegmentSink& sink) {
  ScanResult result;
  std::set<std::string> emitted;  // within-scan dedup of new segments

  const std::vector<std::string> local_files = fs.list_files();
  const std::set<std::string> local_set(local_files.begin(),
                                        local_files.end());

  // Added / edited files.
  for (const std::string& path : local_files) {
    ++result.files_scanned;
    const metadata::FileSnapshot* known = image.find_file(path);
    auto size = fs.size(path);
    if (!size.is_ok()) continue;  // raced with deletion
    const double mtime = fs.mtime(path).value_or(0.0);

    // Fast path: fingerprint cache (size + mtime) avoids reading the file.
    if (cache != nullptr && known != nullptr) {
      const std::string* cached = cache->lookup(path, size.value(), mtime);
      if (cached != nullptr && *cached == known->content_hash) continue;
    }

    auto content = fs.read(path);
    if (!content.is_ok()) continue;
    const Bytes& data = content.value();
    ++result.files_hashed;
    // Unchanged when the bytes still are the committed segments. The
    // snapshot keeps its own content hash, legacy SHA-1 included, so a
    // folder committed before segment-list hashes never re-commits.
    if (known != nullptr && known->size == data.size() &&
        holds_committed_segments(image, *known, ByteSpan(data))) {
      if (cache != nullptr) {
        cache->update(path, data.size(), mtime, known->content_hash);
      }
      continue;
    }

    const std::vector<chunker::Segment> segments =
        chunker::segment_file(ByteSpan(data), seg_params);
    FileSnapshot snapshot;
    snapshot.path = path;
    snapshot.size = data.size();
    snapshot.mtime = mtime;
    snapshot.origin_device = device;
    for (const chunker::Segment& seg : segments) {
      snapshot.segment_ids.push_back(seg.id);
    }
    snapshot.content_hash = crypto::file_content_hash(snapshot.segment_ids);
    if (cache != nullptr) {
      cache->update(path, data.size(), mtime, snapshot.content_hash);
    }
    if (known != nullptr && known->content_hash == snapshot.content_hash) {
      continue;
    }

    for (const chunker::Segment& seg : segments) {
      // Dedup: only segments unknown to the pool (and not already scheduled
      // in this scan) need uploading.
      if (image.find_segment(seg.id) != nullptr) continue;
      if (emitted.insert(seg.id).second) {
        sink(seg.id, chunker::segment_bytes(ByteSpan(data), seg));
      }
    }
    result.changes.record(Change::upsert_file(snapshot));
    result.touched.push_back(std::move(snapshot));
  }

  // Deleted files.
  for (const auto& [path, snapshot] : image.files()) {
    if (local_set.count(path) == 0) {
      result.changes.record(Change::delete_file(path));
      if (cache != nullptr) cache->forget(path);
    }
  }

  // Directories.
  const std::vector<std::string> local_dirs = fs.list_dirs();
  const std::set<std::string> local_dir_set(local_dirs.begin(),
                                            local_dirs.end());
  for (const std::string& d : local_dirs) {
    if (image.dirs().count(d) == 0) {
      result.changes.record(Change::add_dir(d));
    }
  }
  for (const std::string& d : image.dirs()) {
    if (local_dir_set.count(d) == 0) {
      result.changes.record(Change::delete_dir(d));
    }
  }

  return result;
}

}  // namespace unidrive::core
