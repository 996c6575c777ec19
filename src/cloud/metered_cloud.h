// MeteredCloud — per-verb, per-cloud request metering.
//
// Wraps any CloudProvider and records, into a shared Observability:
//
//   cloud.<name>.<verb>.<area>.ok|err   request outcome counters, where
//                                       verb ∈ {upload, download, list,
//                                       create_dir, remove} and area
//                                       classifies the path (/data blocks,
//                                       /meta metadata, /lock lock files,
//                                       other);
//   cloud.<name>.bytes_up|bytes_down    payload bytes actually moved;
//   cloud.<name>.<verb>.latency         per-request latency histogram.
//
// Composed UNDER RetryingCloud (Retrying(Metered(raw))), so every
// individual attempt is metered — retries show up as extra requests, which
// is exactly the per-cloud traffic a provider would bill for and the
// quantity the paper's Fig. 4 success rates are measured against.
//
// Thread-safe when the inner provider is (counters are atomics; the
// instrument lookup takes the registry mutex).
#pragma once

#include "cloud/provider.h"
#include "obs/obs.h"

namespace unidrive::cloud {

// Buckets request paths by what they carry, mirroring the layout the client
// uses on every cloud (metadata/types.h): erasure-coded blocks under /data,
// the sharded metadata store's objects under /meta, lock files under /lock.
[[nodiscard]] const char* request_area(const std::string& path);

// Accounts one request that began at `started` into `obs`: its
// <prefix><verb>.<area>.ok|err counter and <prefix><verb>.latency
// histogram, plus, when it succeeded and `bytes_counter` is set, its
// payload size on <prefix><bytes_counter>. The blocking MeteredCloud and
// its async twin both record through it, so counter names stay identical.
void record_request(obs::Observability& obs, const std::string& prefix,
                    const char* verb, const std::string& path,
                    const Status& status, TimePoint started,
                    const char* bytes_counter = nullptr,
                    std::size_t bytes = 0);

class MeteredCloud final : public CloudProvider {
 public:
  MeteredCloud(CloudPtr inner, obs::ObsPtr obs);

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

  [[nodiscard]] const CloudPtr& inner() const noexcept { return inner_; }
  [[nodiscard]] const obs::ObsPtr& obs() const noexcept { return obs_; }
  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

 private:
  CloudPtr inner_;
  obs::ObsPtr obs_;  // never null
  std::string prefix_;  // "cloud.<name>."
};

}  // namespace unidrive::cloud
