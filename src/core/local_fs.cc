#include "core/local_fs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "cloud/path.h"

namespace unidrive::core {

namespace fs = std::filesystem;

namespace {

// Seconds since the epoch of a host file time, the unit LocalFs::mtime()
// reports.
double seconds_since_epoch(fs::file_time_type t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// [offset, offset + length) must lie within a file of `size` bytes.
Status check_range(const std::string& path, std::uint64_t size,
                   std::uint64_t offset, std::size_t length) {
  if (offset <= size && length <= size - offset) return Status::ok();
  return make_error(ErrorCode::kInvalidArgument, "range past end of " + path);
}

Bytes slice(const Bytes& data, std::uint64_t offset, std::size_t length) {
  const auto first = data.begin() + static_cast<std::ptrdiff_t>(offset);
  return Bytes(first, first + static_cast<std::ptrdiff_t>(length));
}

// Bytes [offset, offset + length) of the host file `host`, in one sized
// read. A short read (the file shrank since it was sized) is an error.
Result<Bytes> read_exactly(const std::string& host, const std::string& path,
                           std::uint64_t offset, std::size_t length) {
  std::ifstream in(host, std::ios::binary);
  if (!in) return make_error(ErrorCode::kNotFound, path);
  in.seekg(static_cast<std::streamoff>(offset));
  Bytes data(length);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(length));
  if (!in) return make_error(ErrorCode::kInternal, "short read of " + path);
  return data;
}

}  // namespace

// --- LocalFs::FileWriter ----------------------------------------------------

// Keeps the chunks it is given and on commit hands `publish` the whole
// file as one buffer: a lone chunk as it is, several joined once into a
// buffer sized from them. The atomicity of `publish` carries over.
class LocalFs::BufferedFileWriter final : public LocalFs::FileWriter {
 public:
  explicit BufferedFileWriter(PublishFn publish)
      : publish_(std::move(publish)) {}

  Status append(Bytes data) override {
    if (closed_) {
      return make_error(ErrorCode::kInternal, "append after commit/abort");
    }
    pieces_.push_back(std::move(data));
    return Status::ok();
  }

  Result<double> commit() override {
    if (closed_) {
      return make_error(ErrorCode::kInternal, "double commit");
    }
    closed_ = true;
    return publish_(join(std::exchange(pieces_, {})));
  }

  void abort() override {
    closed_ = true;
    pieces_.clear();
  }

 private:
  static Bytes join(std::vector<Bytes> pieces) {
    if (pieces.size() == 1) return std::move(pieces.front());
    std::size_t total = 0;
    for (const Bytes& piece : pieces) total += piece.size();
    Bytes file;
    file.reserve(total);
    // Each piece is freed once copied, so the join holds one piece extra,
    // not a second copy of the file.
    for (Bytes& piece : pieces) {
      file.insert(file.end(), piece.begin(), piece.end());
      piece = Bytes();
    }
    return file;
  }

  PublishFn publish_;
  std::vector<Bytes> pieces_;
  bool closed_ = false;
};

namespace {

// Streams appends straight to "<host>.part" and renames into place on
// commit: peak memory is one chunk, and a crash or abort mid-restore never
// leaves a half-written file at the destination path.
class DiskFileWriter final : public LocalFs::FileWriter {
 public:
  explicit DiskFileWriter(std::string host) : host_(std::move(host)) {
    // A parent that cannot be created (a file stands in the way) makes the
    // open fail, and with it this file only: it must not throw.
    std::error_code ec;
    fs::create_directories(fs::path(host_).parent_path(), ec);
    out_.open(part_path(), std::ios::binary | std::ios::trunc);
  }

  ~DiskFileWriter() override { abort(); }

  Status append(Bytes data) override {
    if (closed_) {
      return make_error(ErrorCode::kInternal, "append after commit/abort");
    }
    if (!out_) {
      return make_error(ErrorCode::kInternal, "cannot open " + part_path());
    }
    out_.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    return out_ ? Status::ok()
                : make_error(ErrorCode::kInternal,
                             "short write to " + part_path());
  }

  Result<double> commit() override {
    if (closed_) {
      return make_error(ErrorCode::kInternal, "double commit");
    }
    closed_ = true;
    out_.close();
    if (!out_) {
      abort_cleanup();
      return make_error(ErrorCode::kInternal, "short write to " + part_path());
    }
    // Stat the .part before the rename: the mtime then belongs to these
    // bytes, and an edit landing after the rename still moves it.
    std::error_code ec;
    const fs::file_time_type written = fs::last_write_time(part_path(), ec);
    if (!ec) fs::rename(part_path(), host_, ec);
    if (ec) {
      abort_cleanup();
      return make_error(ErrorCode::kInternal, ec.message());
    }
    return seconds_since_epoch(written);
  }

  void abort() override {
    if (closed_) return;
    closed_ = true;
    out_.close();
    abort_cleanup();
  }

 private:
  [[nodiscard]] std::string part_path() const { return host_ + ".part"; }
  void abort_cleanup() {
    std::error_code ec;
    fs::remove(part_path(), ec);
  }

  std::string host_;
  std::ofstream out_;
  bool closed_ = false;
};

}  // namespace

std::unique_ptr<LocalFs::FileWriter> LocalFs::buffered_writer(
    PublishFn publish) {
  return std::make_unique<BufferedFileWriter>(std::move(publish));
}

Result<std::unique_ptr<LocalFs::FileWriter>> LocalFs::open_write(
    const std::string& path) {
  return buffered_writer([this, path](Bytes data) -> Result<double> {
    UNI_RETURN_IF_ERROR(write(path, data));
    return mtime(path);
  });
}

Result<Bytes> LocalFs::read_range(const std::string& path,
                                  std::uint64_t offset,
                                  std::size_t length) const {
  UNI_ASSIGN_OR_RETURN(const Bytes data, read(path));
  UNI_RETURN_IF_ERROR(check_range(path, data.size(), offset, length));
  return slice(data, offset, length);
}

// --- MemoryLocalFs ----------------------------------------------------------

Result<Bytes> MemoryLocalFs::read(const std::string& path) const {
  std::shared_ptr<const Bytes> data;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(cloud::normalize_path(path));
    if (it == files_.end()) return make_error(ErrorCode::kNotFound, path);
    data = it->second.data;
  }
  return *data;
}

Result<Bytes> MemoryLocalFs::read_range(const std::string& path,
                                        std::uint64_t offset,
                                        std::size_t length) const {
  std::shared_ptr<const Bytes> data;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(cloud::normalize_path(path));
    if (it == files_.end()) return make_error(ErrorCode::kNotFound, path);
    data = it->second.data;
  }
  UNI_RETURN_IF_ERROR(check_range(path, data->size(), offset, length));
  return slice(*data, offset, length);
}

Result<Bytes> MemoryLocalFs::take(const std::string& path) {
  std::shared_ptr<Bytes> data;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto node = files_.extract(cloud::normalize_path(path));
    if (node.empty()) return make_error(ErrorCode::kNotFound, path);
    data = std::move(node.mapped().data);
  }
  // Out of the map, no new reader can share the bytes. The fence pairs
  // with the release of the last reader that let go of them.
  if (data.use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return std::move(*data);
  }
  return *data;
}

Result<std::unique_ptr<LocalFs::FileWriter>> MemoryLocalFs::open_write(
    const std::string& path) {
  return buffered_writer([this, path](Bytes data) -> Result<double> {
    return publish(path, std::move(data));
  });
}

double MemoryLocalFs::publish(const std::string& path, Bytes data) {
  auto published = std::make_shared<Bytes>(std::move(data));
  std::shared_ptr<Bytes> replaced;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = files_[cloud::normalize_path(path)];
  replaced = std::exchange(e.data, std::move(published));
  e.mtime = ++tick_;
  return e.mtime;
}

Status MemoryLocalFs::write(const std::string& path, ByteSpan data) {
  publish(path, Bytes(data.begin(), data.end()));
  return Status::ok();
}

Status MemoryLocalFs::remove(const std::string& path) {
  decltype(files_)::node_type removed;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  removed = files_.extract(cloud::normalize_path(path));
  if (removed.empty()) return make_error(ErrorCode::kNotFound, path);
  return Status::ok();
}

Status MemoryLocalFs::make_dir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  dirs_.insert(cloud::normalize_path(path));
  return Status::ok();
}

Status MemoryLocalFs::remove_dir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  dirs_.erase(cloud::normalize_path(path));
  return Status::ok();
}

std::vector<std::string> MemoryLocalFs::list_files() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, entry] : files_) out.push_back(path);
  return out;
}

std::vector<std::string> MemoryLocalFs::list_dirs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {dirs_.begin(), dirs_.end()};
}

Result<std::uint64_t> MemoryLocalFs::size(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = files_.find(cloud::normalize_path(path));
  if (it == files_.end()) return make_error(ErrorCode::kNotFound, path);
  return static_cast<std::uint64_t>(it->second.data->size());
}

Result<double> MemoryLocalFs::mtime(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = files_.find(cloud::normalize_path(path));
  if (it == files_.end()) return make_error(ErrorCode::kNotFound, path);
  return it->second.mtime;
}

// --- DiskLocalFs ------------------------------------------------------------

DiskLocalFs::DiskLocalFs(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

std::string DiskLocalFs::host_path(const std::string& path) const {
  return root_ + cloud::normalize_path(path);
}

Result<std::unique_ptr<LocalFs::FileWriter>> DiskLocalFs::open_write(
    const std::string& path) {
  return std::unique_ptr<FileWriter>(new DiskFileWriter(host_path(path)));
}

Result<Bytes> DiskLocalFs::read(const std::string& path) const {
  const std::string host = host_path(path);
  std::error_code ec;
  const std::uint64_t size = fs::file_size(host, ec);
  if (ec) return make_error(ErrorCode::kNotFound, path);
  return read_exactly(host, path, 0, static_cast<std::size_t>(size));
}

Result<Bytes> DiskLocalFs::read_range(const std::string& path,
                                      std::uint64_t offset,
                                      std::size_t length) const {
  const std::string host = host_path(path);
  std::error_code ec;
  const std::uint64_t size = fs::file_size(host, ec);
  if (ec) return make_error(ErrorCode::kNotFound, path);
  // Checked before allocating: the range comes from committed metadata.
  UNI_RETURN_IF_ERROR(check_range(path, size, offset, length));
  return read_exactly(host, path, offset, length);
}

Status DiskLocalFs::write(const std::string& path, ByteSpan data) {
  const std::string host = host_path(path);
  fs::create_directories(fs::path(host).parent_path());
  std::ofstream out(host, std::ios::binary | std::ios::trunc);
  if (!out) return make_error(ErrorCode::kInternal, "cannot open " + host);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? Status::ok()
             : make_error(ErrorCode::kInternal, "short write to " + host);
}

Status DiskLocalFs::remove(const std::string& path) {
  std::error_code ec;
  if (!fs::remove(host_path(path), ec) || ec) {
    return make_error(ErrorCode::kNotFound, path);
  }
  return Status::ok();
}

Status DiskLocalFs::make_dir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(host_path(path), ec);
  return ec ? make_error(ErrorCode::kInternal, ec.message()) : Status::ok();
}

Status DiskLocalFs::remove_dir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(host_path(path), ec);
  return ec ? make_error(ErrorCode::kInternal, ec.message()) : Status::ok();
}

std::vector<std::string> DiskLocalFs::list_files() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    std::string rel = it->path().string().substr(root_.size());
    out.push_back(cloud::normalize_path(rel));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> DiskLocalFs::list_dirs() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (!it->is_directory()) continue;
    std::string rel = it->path().string().substr(root_.size());
    out.push_back(cloud::normalize_path(rel));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::uint64_t> DiskLocalFs::size(const std::string& path) const {
  std::error_code ec;
  const auto n = fs::file_size(host_path(path), ec);
  if (ec) return make_error(ErrorCode::kNotFound, path);
  return static_cast<std::uint64_t>(n);
}

Result<double> DiskLocalFs::mtime(const std::string& path) const {
  std::error_code ec;
  const auto t = fs::last_write_time(host_path(path), ec);
  if (ec) return make_error(ErrorCode::kNotFound, path);
  return seconds_since_epoch(t);
}

}  // namespace unidrive::core
