#include "cloud/faulty_cloud.h"

#include <algorithm>

namespace unidrive::cloud {

FaultDecision FaultyCloud::draw_decision(std::size_t payload_bytes,
                                         bool is_upload) {
  requests_.fetch_add(1);
  FaultDecision d;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    if (profile_.hang_seconds > 0 && profile_.hang_rate > 0 &&
        rng_.next_double() < profile_.hang_rate) {
      d.hang = true;
      d.hang_seconds = profile_.hang_seconds;
    }
    if (outage_.load()) {
      d.fail = true;
      d.outage = true;
    } else {
      const double p = rng_.next_double();
      const double mb = static_cast<double>(payload_bytes) / (1 << 20);
      const double fail_prob = std::min(
          1.0, profile_.base_failure_rate + profile_.per_mb_failure_rate * mb);
      if (p < fail_prob) d.fail = true;
      if (!d.fail && is_upload && payload_bytes > 0 &&
          profile_.torn_upload_rate > 0 &&
          rng_.next_double() < profile_.torn_upload_rate) {
        d.torn = true;
      }
      // Silent defects: only uploads that (appear to) succeed can rot or
      // vanish — the client must believe everything went fine. Drop wins
      // over bitrot when both fire (nothing stored = nothing to rot).
      if (!d.fail && !d.torn && is_upload && payload_bytes > 0) {
        if (profile_.block_loss_rate > 0 &&
            rng_.next_double() < profile_.block_loss_rate) {
          d.drop = true;
        } else if (profile_.bitrot_rate > 0 &&
                   rng_.next_double() < profile_.bitrot_rate) {
          d.bitrot = true;
        }
      }
    }
  }
  if (d.hang) hangs_.fetch_add(1);
  if (d.fail || d.torn) failures_.fetch_add(1);
  if (d.torn) torn_uploads_.fetch_add(1);
  if (d.bitrot) bitrots_.fetch_add(1);
  if (d.drop) lost_blocks_.fetch_add(1);
  return d;
}

Bytes rot_bytes(ByteSpan data) {
  Bytes rotted(data.begin(), data.end());
  // An add, not an XOR: rotting a block again must not restore it.
  if (!rotted.empty()) ++rotted[rotted.size() / 2];
  return rotted;
}

Status fail_status(bool outage, const std::string& name) {
  return outage ? make_error(ErrorCode::kOutage, name + ": cloud outage")
                : make_error(ErrorCode::kUnavailable,
                             name + ": transient request failure");
}

Status FaultyCloud::upload(const std::string& path, ByteSpan data) {
  const FaultDecision d = draw_decision(data.size(), /*is_upload=*/true);
  if (d.hang) sleep_(d.hang_seconds);
  if (d.fail) return fail_status(d.outage, name());
  if (d.torn) {
    // Mid-flight abort: a truncated prefix lands at the path, the client
    // sees a failure. Integrity checks (hash-verified decode, version/delta
    // consistency) must reject the garbage.
    (void)inner_->upload(path, data.subspan(0, data.size() / 2));
    return make_error(ErrorCode::kUnavailable,
                      name() + ": upload torn mid-flight");
  }
  if (d.drop) return Status::ok();  // silently lost: stored nothing
  if (d.bitrot) {
    const Bytes rotted = rot_bytes(data);
    const Status status = inner_->upload(path, ByteSpan(rotted));
    return status.is_ok() ? Status::ok() : status;
  }
  return inner_->upload(path, data);
}

Status FaultyCloud::rot_stored(const std::string& path) {
  auto stored = inner_->download(path);
  if (!stored.is_ok()) return stored.status();
  const Bytes rotted = rot_bytes(ByteSpan(stored.value()));
  UNI_RETURN_IF_ERROR(inner_->upload(path, ByteSpan(rotted)));
  bitrots_.fetch_add(1);
  return Status::ok();
}

Status FaultyCloud::drop_stored(const std::string& path) {
  UNI_RETURN_IF_ERROR(inner_->remove(path));
  lost_blocks_.fetch_add(1);
  return Status::ok();
}

Result<Bytes> FaultyCloud::download(const std::string& path) {
  // Size-dependent failure needs the size; peek at the inner file first.
  // (Real transfers fail mid-flight; here the request atomically fails.)
  auto inner_result = inner_->download(path);
  const std::size_t size =
      inner_result.is_ok() ? inner_result.value().size() : 0;
  const FaultDecision d = draw_decision(size, /*is_upload=*/false);
  if (d.hang) sleep_(d.hang_seconds);
  if (d.fail) return fail_status(d.outage, name());
  return inner_result;
}

Status FaultyCloud::create_dir(const std::string& path) {
  const FaultDecision d = draw_decision(0, /*is_upload=*/false);
  if (d.hang) sleep_(d.hang_seconds);
  if (d.fail) return fail_status(d.outage, name());
  return inner_->create_dir(path);
}

Result<std::vector<FileInfo>> FaultyCloud::list(const std::string& dir) {
  const FaultDecision d = draw_decision(0, /*is_upload=*/false);
  if (d.hang) sleep_(d.hang_seconds);
  if (d.fail) return fail_status(d.outage, name());
  return inner_->list(dir);
}

Status FaultyCloud::remove(const std::string& path) {
  const FaultDecision d = draw_decision(0, /*is_upload=*/false);
  if (d.hang) sleep_(d.hang_seconds);
  if (d.fail) return fail_status(d.outage, name());
  return inner_->remove(path);
}

void FaultyCloud::set_profile(FaultProfile profile) {
  std::lock_guard<std::mutex> lock(rng_mutex_);
  profile_ = profile;
}

}  // namespace unidrive::cloud
