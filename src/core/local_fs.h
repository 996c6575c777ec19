// Local sync-folder abstraction (the paper's "local file system interface").
// MemoryLocalFs backs tests and simulations; DiskLocalFs maps onto a real
// directory via std::filesystem for the end-to-end examples.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace unidrive::core {

class LocalFs {
 public:
  virtual ~LocalFs() = default;

  // Incremental writer for streaming restores: append chunks in order, then
  // commit() to publish the file (or abort() / destroy to discard — a
  // never-committed writer must leave no trace at `path`).
  //
  // Ownership: append() takes the chunk it is given. A buffered writer (the
  // base class's default, which MemoryLocalFs also uses) keeps the chunks
  // and on commit publishes one buffer: a single chunk as it is, several
  // joined once. It stages the whole file, and a restore's
  // max_inflight_bytes does not charge that staging. Only DiskLocalFs
  // streams: its writer writes each chunk to a temp file, drops it, and
  // renames on commit.
  class FileWriter {
   public:
    virtual ~FileWriter() = default;
    virtual Status append(Bytes data) = 0;
    // At most one commit; append is invalid afterwards. Returns the mtime
    // of the bytes this writer published (taken before they become visible
    // where the backend allows), so a later edit at the path always moves
    // the (size, mtime) fingerprint a ScanCache keys on.
    virtual Result<double> commit() = 0;
    // Idempotent; safe after a failed append.
    virtual void abort() = 0;
  };

  // The writer borrows this LocalFs and must not outlive it. The default
  // is a buffered writer that publishes through write() and mtime().
  virtual Result<std::unique_ptr<FileWriter>> open_write(
      const std::string& path);

  virtual Result<Bytes> read(const std::string& path) const = 0;
  // Bytes [offset, offset + length) of a file; kInvalidArgument when the
  // file is shorter. The default slices read(); backends override it to
  // copy only the range.
  virtual Result<Bytes> read_range(const std::string& path,
                                   std::uint64_t offset,
                                   std::size_t length) const;
  virtual Status write(const std::string& path, ByteSpan data) = 0;
  virtual Status remove(const std::string& path) = 0;
  virtual Status make_dir(const std::string& path) = 0;
  virtual Status remove_dir(const std::string& path) = 0;

  // All files (recursive), normalized "/a/b" paths, sorted.
  [[nodiscard]] virtual std::vector<std::string> list_files() const = 0;
  [[nodiscard]] virtual std::vector<std::string> list_dirs() const = 0;
  [[nodiscard]] virtual Result<std::uint64_t> size(
      const std::string& path) const = 0;
  [[nodiscard]] virtual Result<double> mtime(const std::string& path) const = 0;

 protected:
  // Publishes a finished file's bytes and returns their mtime.
  using PublishFn = std::function<Result<double>(Bytes)>;
  // The one buffered writer: stages what it is given and hands `publish`
  // the whole file as one buffer on commit.
  static std::unique_ptr<FileWriter> buffered_writer(PublishFn publish);

 private:
  class BufferedFileWriter;
};

// Each file's bytes sit behind a shared pointer: the mutex guards only the
// map, so readers copy outside it, in parallel, and a reader racing a
// remove or an overwrite copies one whole version, old or new.
class MemoryLocalFs final : public LocalFs {
 public:
  // Buffered; commit moves the staged buffer into the folder, uncopied.
  Result<std::unique_ptr<FileWriter>> open_write(
      const std::string& path) override;
  // Removes the file and hands back its bytes: moved when no reader holds
  // them, copied otherwise.
  Result<Bytes> take(const std::string& path);
  Result<Bytes> read(const std::string& path) const override;
  Result<Bytes> read_range(const std::string& path, std::uint64_t offset,
                           std::size_t length) const override;
  Status write(const std::string& path, ByteSpan data) override;
  Status remove(const std::string& path) override;
  Status make_dir(const std::string& path) override;
  Status remove_dir(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_files() const override;
  [[nodiscard]] std::vector<std::string> list_dirs() const override;
  [[nodiscard]] Result<std::uint64_t> size(
      const std::string& path) const override;
  [[nodiscard]] Result<double> mtime(const std::string& path) const override;

 private:
  struct Entry {
    std::shared_ptr<Bytes> data;  // never written through while shared
    double mtime = 0;
  };
  // Stores `data` at `path` without copying it; returns its mtime.
  double publish(const std::string& path, Bytes data);
  mutable std::mutex mutex_;
  std::map<std::string, Entry> files_;
  std::set<std::string> dirs_;
  double tick_ = 0;  // monotonically increasing pseudo-mtime
};

// Real directory. Paths inside the sync folder are normalized (e.g.
// "/docs/a.txt" maps to <root>/docs/a.txt).
class DiskLocalFs final : public LocalFs {
 public:
  explicit DiskLocalFs(std::string root);

  Result<std::unique_ptr<FileWriter>> open_write(
      const std::string& path) override;
  Result<Bytes> read(const std::string& path) const override;
  Result<Bytes> read_range(const std::string& path, std::uint64_t offset,
                           std::size_t length) const override;
  Status write(const std::string& path, ByteSpan data) override;
  Status remove(const std::string& path) override;
  Status make_dir(const std::string& path) override;
  Status remove_dir(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_files() const override;
  [[nodiscard]] std::vector<std::string> list_dirs() const override;
  [[nodiscard]] Result<std::uint64_t> size(
      const std::string& path) const override;
  [[nodiscard]] Result<double> mtime(const std::string& path) const override;

 private:
  [[nodiscard]] std::string host_path(const std::string& path) const;
  std::string root_;
};

}  // namespace unidrive::core
