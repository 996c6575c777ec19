#include "cloud/metered_cloud.h"

#include <utility>

namespace unidrive::cloud {

const char* request_area(const std::string& path) {
  if (path.rfind("/data", 0) == 0) return "data";
  if (path.rfind("/meta", 0) == 0) return "meta";
  if (path.rfind("/lock", 0) == 0) return "lock";
  return "other";
}

void record_request(obs::Observability& obs, const std::string& prefix,
                    const char* verb, const std::string& path,
                    const Status& status, TimePoint started,
                    const char* bytes_counter, std::size_t bytes) {
  obs.metrics
      .counter(prefix + verb + "." + request_area(path) +
               (status.is_ok() ? ".ok" : ".err"))
      .add();
  obs.metrics.histogram(prefix + verb + ".latency")
      .observe(obs.clock().now() - started);
  if (status.is_ok() && bytes_counter != nullptr) {
    obs.metrics.counter(prefix + bytes_counter).add(bytes);
  }
}

MeteredCloud::MeteredCloud(CloudPtr inner, obs::ObsPtr obs)
    : inner_(std::move(inner)),
      obs_(std::move(obs)),
      prefix_("cloud." + inner_->name() + ".") {}

Status MeteredCloud::upload(const std::string& path, ByteSpan data) {
  const TimePoint t0 = obs_->clock().now();
  const Status status = inner_->upload(path, data);
  record_request(*obs_, prefix_, "upload", path, status, t0, "bytes_up",
                 data.size());
  return status;
}

Result<Bytes> MeteredCloud::download(const std::string& path) {
  const TimePoint t0 = obs_->clock().now();
  auto result = inner_->download(path);
  record_request(*obs_, prefix_, "download", path, result.status(), t0,
                 "bytes_down", result.is_ok() ? result.value().size() : 0);
  return result;
}

Status MeteredCloud::create_dir(const std::string& path) {
  const TimePoint t0 = obs_->clock().now();
  const Status status = inner_->create_dir(path);
  record_request(*obs_, prefix_, "create_dir", path, status, t0);
  return status;
}

Result<std::vector<FileInfo>> MeteredCloud::list(const std::string& dir) {
  const TimePoint t0 = obs_->clock().now();
  auto result = inner_->list(dir);
  record_request(*obs_, prefix_, "list", dir, result.status(), t0);
  return result;
}

Status MeteredCloud::remove(const std::string& path) {
  const TimePoint t0 = obs_->clock().now();
  const Status status = inner_->remove(path);
  record_request(*obs_, prefix_, "remove", path, status, t0);
  return status;
}

}  // namespace unidrive::cloud
