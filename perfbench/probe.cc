#include "probe.h"

namespace unidrive::perfbench {

ProbeCounts& ProbeCounts::operator-=(const ProbeCounts& base) {
  for (std::size_t c = 0; c < kMaxClouds; ++c) {
    for (std::size_t v = 0; v < kVerbs; ++v) {
      for (std::size_t a = 0; a < kAreas; ++a) {
        for (std::size_t o = 0; o < 2; ++o) {
          calls[c][v][a][o] -= base.calls[c][v][a][o];
        }
      }
    }
  }
  for (std::size_t a = 0; a < kAreas; ++a) {
    bytes_up[a] -= base.bytes_up[a];
    bytes_down[a] -= base.bytes_down[a];
  }
  return *this;
}

void ProbeLog::note(std::uint32_t cloud, Verb verb, const std::string& path,
                    std::uint64_t up, std::uint64_t down, bool ok) {
  const Area area = area_of(path);
  const auto a = static_cast<std::size_t>(area);
  calls_[cloud % kMaxClouds][static_cast<std::size_t>(verb)][a][ok ? 0 : 1]
      .fetch_add(1, std::memory_order_relaxed);
  if (up != 0) bytes_up_[a].fetch_add(up, std::memory_order_relaxed);
  if (down != 0) bytes_down_[a].fetch_add(down, std::memory_order_relaxed);
  if (record_) {
    const RpcRecord rec{now_s(), cloud, verb, area, up + down, ok};
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(rec);
  }
}

ProbeCounts ProbeLog::counts() const {
  ProbeCounts out;
  for (std::size_t c = 0; c < kMaxClouds; ++c) {
    for (std::size_t v = 0; v < kVerbs; ++v) {
      for (std::size_t a = 0; a < kAreas; ++a) {
        for (std::size_t o = 0; o < 2; ++o) {
          out.calls[c][v][a][o] =
              calls_[c][v][a][o].load(std::memory_order_relaxed);
        }
      }
    }
  }
  for (std::size_t a = 0; a < kAreas; ++a) {
    out.bytes_up[a] = bytes_up_[a].load(std::memory_order_relaxed);
    out.bytes_down[a] = bytes_down_[a].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<RpcRecord> ProbeLog::take_records() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RpcRecord> out;
  out.swap(records_);
  return out;
}

Status ProbeCloud::upload(const std::string& path, ByteSpan data) {
  const Status status = inner_->upload(path, data);
  log_->note(id(), Verb::kUpload, path, data.size(), 0, status.is_ok());
  return status;
}

Result<Bytes> ProbeCloud::download(const std::string& path) {
  auto result = inner_->download(path);
  log_->note(id(), Verb::kDownload, path, 0,
             result.is_ok() ? result.value().size() : 0, result.is_ok());
  return result;
}

Status ProbeCloud::create_dir(const std::string& path) {
  const Status status = inner_->create_dir(path);
  log_->note(id(), Verb::kCreateDir, path, 0, 0, status.is_ok());
  return status;
}

Result<std::vector<cloud::FileInfo>> ProbeCloud::list(const std::string& dir) {
  auto result = inner_->list(dir);
  log_->note(id(), Verb::kList, dir, 0, 0, result.is_ok());
  return result;
}

Status ProbeCloud::remove(const std::string& path) {
  const Status status = inner_->remove(path);
  log_->note(id(), Verb::kRemove, path, 0, 0, status.is_ok());
  return status;
}

}  // namespace unidrive::perfbench
