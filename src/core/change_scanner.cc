#include "core/change_scanner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
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

// A file read and cut by the producer whose segment ids are hashed on the
// executor while the producer reads and cuts the next file. Each id is a
// claim-once task: a pool thread runs it, or the producer does when it
// needs the ids first, so a busy or one-thread pool never stalls the scan.
// Shared with the queued tasks; a task that finds its id claimed touches
// nothing but its flag, so the bytes can leave once the ids are in.
struct HashedFile {
  std::string path;
  double mtime = 0;
  const FileSnapshot* known = nullptr;
  Bytes data;
  std::vector<chunker::Segment> segments;  // ids filled in by hash()
  std::vector<std::atomic<bool>> claimed;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = 0;  // ids claimed-or-not still to be hashed

  void hash(std::size_t i) {
    if (claimed[i].exchange(true)) return;
    chunker::Segment& seg = segments[i];
    seg.id = crypto::segment_id(ByteSpan(data).subspan(seg.offset, seg.length));
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  [[nodiscard]] bool hashed() {
    std::lock_guard<std::mutex> lock(mu);
    return remaining == 0;
  }
  // Hashes every id no pool thread has started, then waits for the rest.
  void finish_hashing() {
    for (std::size_t i = 0; i < segments.size(); ++i) hash(i);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
};

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
                              Executor& executor, const SegmentSink& sink) {
  ScanResult result;
  std::set<std::string> emitted;  // within-scan dedup of new segments

  const std::vector<std::string> local_files = fs.list_files();
  const std::set<std::string> local_set(local_files.begin(),
                                        local_files.end());

  // Files are finalized in path order, each once its ids are in.
  const auto finalize = [&](HashedFile& file) {
    file.finish_hashing();
    Bytes data = std::move(file.data);
    FileSnapshot snapshot;
    snapshot.path = file.path;
    snapshot.size = data.size();
    snapshot.mtime = file.mtime;
    snapshot.origin_device = device;
    for (const chunker::Segment& seg : file.segments) {
      snapshot.segment_ids.push_back(seg.id);
    }
    snapshot.content_hash = crypto::file_content_hash(snapshot.segment_ids);
    if (cache != nullptr) {
      cache->update(file.path, data.size(), file.mtime, snapshot.content_hash);
    }
    if (file.known != nullptr &&
        file.known->content_hash == snapshot.content_hash) {
      return;
    }

    for (const chunker::Segment& seg : file.segments) {
      // Dedup: only segments unknown to the pool (and not already scheduled
      // in this scan) need uploading.
      if (image.find_segment(seg.id) != nullptr) continue;
      if (emitted.insert(seg.id).second) {
        // A one-segment file hands over its read buffer whole.
        sink(seg.id, file.segments.size() == 1
                         ? std::move(data)
                         : chunker::segment_bytes(ByteSpan(data), seg));
      }
    }
    result.changes.record(Change::upsert_file(snapshot));
    result.touched.push_back(std::move(snapshot));
  };

  // Added / edited files. At most one file is read ahead of the one being
  // finalized, so at most two files' bytes are resident.
  std::shared_ptr<HashedFile> ahead;
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

    if (ahead != nullptr && ahead->hashed()) {
      finalize(*ahead);
      ahead.reset();
    }
    auto content = fs.read(path);
    if (!content.is_ok()) continue;
    ++result.files_hashed;
    // Unchanged when the bytes still are the committed segments. The
    // snapshot keeps its own content hash, legacy SHA-1 included, so a
    // folder committed before segment-list hashes never re-commits.
    if (known != nullptr && known->size == content.value().size() &&
        holds_committed_segments(image, *known, ByteSpan(content.value()))) {
      if (cache != nullptr) {
        cache->update(path, content.value().size(), mtime,
                      known->content_hash);
      }
      continue;
    }

    auto file = std::make_shared<HashedFile>();
    file->path = path;
    file->mtime = mtime;
    file->known = known;
    file->data = std::move(content).take();
    file->segments = chunker::cut_segments(ByteSpan(file->data), seg_params);
    file->claimed = std::vector<std::atomic<bool>>(file->segments.size());
    file->remaining = file->segments.size();
    for (std::size_t i = 0; i < file->segments.size(); ++i) {
      executor.submit([file, i] { file->hash(i); });
    }
    if (ahead != nullptr) finalize(*ahead);
    ahead = std::move(file);
  }
  if (ahead != nullptr) finalize(*ahead);

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
