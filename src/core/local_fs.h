// Local sync-folder abstraction (the paper's "local file system interface").
// MemoryLocalFs backs tests and simulations; DiskLocalFs maps onto a real
// directory via std::filesystem for the end-to-end examples.
#pragma once

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
  // never-committed writer must leave no trace at `path`). The base class
  // provides a buffered default that stages in memory and publishes via
  // write() on commit, so existing subclasses keep working; DiskLocalFs
  // overrides it to stream through a temp file and rename on commit.
  class FileWriter {
   public:
    virtual ~FileWriter() = default;
    virtual Status append(ByteSpan data) = 0;
    // At most one commit; append is invalid afterwards. Returns the mtime
    // of the bytes this writer published (taken before they become visible
    // where the backend allows), so a later edit at the path always moves
    // the (size, mtime) fingerprint a ScanCache keys on.
    virtual Result<double> commit() = 0;
    // Idempotent; safe after a failed append.
    virtual void abort() = 0;
  };

  // The writer borrows this LocalFs and must not outlive it.
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
};

class MemoryLocalFs final : public LocalFs {
 public:
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
    Bytes data;
    double mtime = 0;
  };
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
