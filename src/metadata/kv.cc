#include "metadata/kv.h"

#include <algorithm>
#include <optional>
#include <set>
#include <type_traits>

#include "common/logging.h"
#include "common/serial.h"
#include "metadata/image.h"

namespace unidrive::metadata {

namespace {
constexpr std::uint32_t kRootMagic = 0x54524455;  // "UDRT"
}  // namespace

Bytes RootPointer::serialize() const {
  BinaryWriter w;
  w.put_u32(kRootMagic);
  serialize_version(w, version);
  w.put_string(manifest_key);
  return std::move(w).take();
}

Result<RootPointer> RootPointer::deserialize(ByteSpan data) {
  BinaryReader r(data);
  UNI_ASSIGN_OR_RETURN(const std::uint32_t magic, r.get_u32());
  if (magic != kRootMagic) {
    return make_error(ErrorCode::kCorrupt, "bad root pointer magic");
  }
  RootPointer p;
  UNI_ASSIGN_OR_RETURN(p.version, deserialize_version(r));
  UNI_ASSIGN_OR_RETURN(p.manifest_key, r.get_string());
  return p;
}

KvStore::KvStore(cloud::MultiCloud clouds, std::string dir, obs::ObsPtr obs,
                 std::shared_ptr<Executor> pool)
    : clouds_(std::move(clouds)),
      dir_(std::move(dir)),
      root_path_(dir_ + "/root"),
      obs_(std::move(obs)),
      pool_(pool != nullptr ? std::move(pool) : Executor::shared()) {}

template <typename Call>
auto KvStore::on_every_cloud(const Call& call) const {
  using Answer = std::invoke_result_t<const Call&, cloud::CloudProvider&>;
  std::vector<std::optional<Answer>> slots(clouds_.size());
  pool_->parallel_apply(clouds_.size(), [&](std::size_t i) {
    slots[i].emplace(call(*clouds_[i]));
  });
  std::vector<Answer> answers;
  answers.reserve(slots.size());
  for (std::optional<Answer>& slot : slots) answers.push_back(std::move(*slot));
  return answers;
}

Status KvStore::put(const std::string& key, ByteSpan value) {
  if (clouds_.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "kv put with no clouds enrolled");
  }
  const std::string path = object_path(key);
  const std::vector<Status> answers = on_every_cloud(
      [&](cloud::CloudProvider& c) { return c.upload(path, value); });
  std::size_t successes = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (answers[i].is_ok()) {
      ++successes;
    } else {
      UNI_LOG(kInfo) << "kv put " << key << " failed on "
                     << clouds_[i]->name();
    }
  }
  if (successes < majority()) {
    obs::add_counter(obs_.get(), "meta.kv.put.err");
    return make_error(ErrorCode::kUnavailable,
                      "kv put " + key + " reached only " +
                          std::to_string(successes) + "/" +
                          std::to_string(clouds_.size()) + " clouds");
  }
  obs::add_counter(obs_.get(), "meta.kv.put.ok");
  return Status::ok();
}

Result<Bytes> KvStore::get(const std::string& key, const Validator& validate) {
  if (clouds_.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "kv get with no clouds enrolled");
  }
  const std::string path = object_path(key);
  bool saw_copy = false;
  std::size_t responded = 0;
  for (const cloud::CloudPtr& c : clouds_) {
    auto data = c->download(path);
    if (!data.is_ok()) {
      if (data.code() == ErrorCode::kNotFound) ++responded;
      continue;
    }
    ++responded;
    saw_copy = true;
    if (!validate || validate(ByteSpan(data.value()))) {
      obs::add_counter(obs_.get(), "meta.kv.get.ok");
      return std::move(data).take();
    }
  }
  obs::add_counter(obs_.get(), "meta.kv.get.err");
  if (saw_copy) {
    return make_error(ErrorCode::kCorrupt,
                      "no valid copy of kv object " + key);
  }
  return make_error(responded == 0 ? ErrorCode::kOutage : ErrorCode::kNotFound,
                    "kv object " + key + " unavailable");
}

void KvStore::remove(const std::vector<std::string>& keys) {
  // One wave over every (key, cloud) pair; index order is key-major, so a
  // 1-thread pool removes key by key, each in cloud order.
  const std::size_t n = clouds_.size();
  pool_->parallel_apply(keys.size() * n, [&](std::size_t i) {
    (void)clouds_[i % n]->remove(object_path(keys[i / n]));
  });
}

Result<std::vector<std::string>> KvStore::list(const std::string& subdir) {
  if (clouds_.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "kv list with no clouds enrolled");
  }
  const std::string path = subdir.empty() ? dir_ : dir_ + "/" + subdir;
  const auto listings = on_every_cloud(
      [&](cloud::CloudProvider& c) { return c.list(path); });
  std::set<std::string> names;
  std::size_t responded = 0;
  for (const auto& listing : listings) {
    if (!listing.is_ok()) continue;
    ++responded;
    for (const cloud::FileInfo& f : listing.value()) names.insert(f.name);
  }
  if (responded == 0) {
    return make_error(ErrorCode::kOutage, "no cloud answered kv list");
  }
  return std::vector<std::string>(names.begin(), names.end());
}

Result<RootPointer> KvStore::fetch_root() {
  if (clouds_.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "kv fetch_root with no clouds enrolled");
  }
  const auto copies = on_every_cloud(
      [&](cloud::CloudProvider& c) { return c.download(root_path_); });
  std::optional<RootPointer> best;
  std::size_t responded = 0;
  for (const auto& data : copies) {
    if (!data.is_ok()) {
      if (data.code() == ErrorCode::kNotFound) ++responded;
      continue;
    }
    ++responded;
    auto root = RootPointer::deserialize(ByteSpan(data.value()));
    if (!root.is_ok()) continue;
    if (!best.has_value() || best->version < root.value().version) {
      best = std::move(root).take();
    }
  }
  if (responded == 0) {
    return make_error(ErrorCode::kOutage, "no cloud reachable for kv root");
  }
  if (!best.has_value()) {
    return make_error(ErrorCode::kNotFound, "no kv root published yet");
  }
  return *best;
}

Status KvStore::put_root(const RootPointer& root,
                         const std::optional<VersionStamp>& expected) {
  if (clouds_.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "kv put_root with no clouds enrolled");
  }
  // Fence check (read-from-all): a newer root than the one we based this
  // commit on means a concurrent writer already moved past us.
  auto current = fetch_root();
  if (current.is_ok()) {
    const VersionStamp& seen = current.value().version;
    if (!expected.has_value() || *expected < seen) {
      obs::add_counter(obs_.get(), "meta.kv.root.fenced");
      return make_error(ErrorCode::kConflict,
                        "kv root moved to " + seen.to_string() +
                            " past the fenced version");
    }
  } else if (current.code() == ErrorCode::kOutage) {
    return current.status();
  }
  const Bytes bytes = root.serialize();
  const std::vector<Status> answers = on_every_cloud(
      [&](cloud::CloudProvider& c) {
        return c.upload(root_path_, ByteSpan(bytes));
      });
  const auto successes = static_cast<std::size_t>(
      std::count_if(answers.begin(), answers.end(),
                    [](const Status& s) { return s.is_ok(); }));
  if (successes < majority()) {
    obs::add_counter(obs_.get(), "meta.kv.root.err");
    return make_error(ErrorCode::kUnavailable,
                      "kv root publish reached only " +
                          std::to_string(successes) + "/" +
                          std::to_string(clouds_.size()) + " clouds");
  }
  obs::add_counter(obs_.get(), "meta.kv.root.ok");
  return Status::ok();
}

}  // namespace unidrive::metadata
