#include "core/change_scanner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

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

// What a scan shares with its file tasks. It outlives every task that
// claims a file: the producer waits for each file it admitted.
struct ScanInputs {
  const LocalFs& fs;
  const metadata::SyncFolderImage& image;
  const chunker::SegmenterParams& params;
  Executor& executor;
};

// A file in the scan's window. Its task reads the file, runs the
// unchanged-file walk, cuts it and hashes its segments; the producer
// finalizes it in path order. The task and each segment's id are claim-once:
// a pool thread runs them, or the producer does when it needs the file
// first, so a busy or one-thread pool never stalls the scan. Shared with the
// queued tasks; a task that finds its work claimed touches nothing but its
// flag, so the bytes can leave once the ids are in.
struct ScannedFile : std::enable_shared_from_this<ScannedFile> {
  std::string path;
  std::uint64_t size = 0;  // as listed; what the file costs the window
  double mtime = 0;
  const FileSnapshot* known = nullptr;
  const ScanInputs* inputs = nullptr;  // read only by the task's claimer
  std::atomic<bool> task_claimed{false};

  // Set by the task before `prepared`.
  bool read_ok = false;
  bool unchanged = false;  // the bytes are `known`'s committed segments
  std::exception_ptr error;  // thrown by the task; rethrown at finalize
  Bytes data;
  std::vector<chunker::Segment> segments;  // ids filled in by hash()
  std::vector<std::atomic<bool>> claimed;

  std::mutex mu;
  std::condition_variable cv;
  bool prepared = false;
  std::size_t remaining = 0;  // ids claimed-or-not still to be hashed

  // The file's task. It offers every id but the first to the pool, then
  // hashes each id no one has started.
  void prepare() {
    if (task_claimed.exchange(true)) return;
    try {
      read_and_cut();
      const std::shared_ptr<ScannedFile> self = shared_from_this();
      for (std::size_t i = 1; i < segments.size(); ++i) {
        inputs->executor.submit([self, i] { self->hash(i); });
      }
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      prepared = true;
    }
    cv.notify_all();
    for (std::size_t i = 0; i < segments.size(); ++i) hash(i);
  }
  void read_and_cut() {
    auto content = inputs->fs.read(path);
    if (!content.is_ok()) return;
    read_ok = true;
    data = std::move(content).take();
    // Unchanged when the bytes still are the committed segments. The
    // snapshot keeps its own content hash, legacy SHA-1 included, so a
    // folder committed before segment-list hashes never re-commits.
    unchanged = known != nullptr && known->size == data.size() &&
                holds_committed_segments(inputs->image, *known, ByteSpan(data));
    if (unchanged) return;
    std::vector<chunker::Segment> cut =
        chunker::cut_segments(ByteSpan(data), inputs->params);
    // Flags first: `segments` is never longer than `claimed`, even if the
    // allocation throws.
    claimed = std::vector<std::atomic<bool>>(cut.size());
    segments = std::move(cut);
    remaining = segments.size();
  }
  void hash(std::size_t i) {
    if (claimed[i].exchange(true)) return;
    chunker::Segment& seg = segments[i];
    seg.id = crypto::segment_id(ByteSpan(data).subspan(seg.offset, seg.length));
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  [[nodiscard]] bool ready() {
    std::lock_guard<std::mutex> lock(mu);
    return prepared && remaining == 0;
  }
  // Keeps a task no pool thread has started from ever running, or waits
  // until the one running it no longer needs `inputs`.
  void abandon() {
    if (!task_claimed.exchange(true)) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return prepared; });
  }
  // Runs the task unless a pool thread claimed it, hashes every id no one
  // has started, then waits for the rest.
  void finish() {
    prepare();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return prepared; });
    }
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
                              Executor& executor, const SegmentSink& sink,
                              std::size_t max_window_bytes) {
  ScanResult result;
  std::set<std::string> emitted;  // within-scan dedup of new segments

  const std::vector<std::string> local_files = fs.list_files();
  const std::set<std::string> local_set(local_files.begin(),
                                        local_files.end());

  // Files are finalized in path order, each once its task and ids are done.
  const auto finalize = [&](ScannedFile& file) {
    file.finish();
    if (file.error) std::rethrow_exception(file.error);
    if (!file.read_ok) return;  // raced with deletion
    ++result.files_hashed;
    if (file.unchanged) {
      if (cache != nullptr) {
        cache->update(file.path, file.known->size, file.mtime,
                      file.known->content_hash);
      }
      return;
    }
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

  // Added / edited files, in a window of at most `max_files` whose listed
  // bytes stay within `max_window_bytes`; the oldest file is always
  // admitted, so one larger than the bound is scanned alone. A one-thread
  // pool reads one file ahead.
  const ScanInputs inputs{fs, image, seg_params, executor};
  const std::size_t max_files = std::max<std::size_t>(
      2, std::min<std::size_t>(executor.size(),
                               std::thread::hardware_concurrency()));
  std::deque<std::shared_ptr<ScannedFile>> window;
  std::uint64_t window_bytes = 0;
  const auto finalize_oldest = [&] {
    const std::shared_ptr<ScannedFile> file = std::move(window.front());
    window.pop_front();
    window_bytes -= file->size;
    finalize(*file);
  };
  try {
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

      // Finalize what is done, then make room.
      while (!window.empty() &&
             (window.front()->ready() || window.size() >= max_files ||
              window_bytes + size.value() > max_window_bytes)) {
        finalize_oldest();
      }
      auto file = std::make_shared<ScannedFile>();
      file->path = path;
      file->size = size.value();
      file->mtime = mtime;
      file->known = known;
      file->inputs = &inputs;
      window.push_back(file);
      window_bytes += file->size;
      executor.submit([file] { file->prepare(); });
    }
    while (!window.empty()) finalize_oldest();
  } catch (...) {
    // No task may reach `inputs` once the scan unwinds.
    for (const std::shared_ptr<ScannedFile>& file : window) file->abandon();
    throw;
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
