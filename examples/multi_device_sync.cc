// Multi-device synchronization with concurrent edits and conflicts.
//
// Three devices share one multi-cloud. The example walks through:
//   1. normal propagation of adds/edits/deletes between devices,
//   2. a genuine conflict (two devices edit the same file between syncs)
//      resolved by UniDrive's keep-both policy,
//   3. segment-level deduplication (copying a file costs no new uploads).
//
// Run:  build/examples/multi_device_sync
#include <cstdio>
#include <memory>

#include "cloud/memory_cloud.h"
#include "core/client.h"
#include "workload/files.h"

using namespace unidrive;

namespace {

Bytes text(const std::string& s) { return bytes_from_string(s); }

void must(const Result<core::SyncReport>& report, const char* what) {
  if (!report.is_ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 report.status().to_string().c_str());
    std::exit(1);
  }
}

// Payload bytes a device uploaded, from the cloud.<name>.bytes_up counters
// its guarded clouds record.
std::uint64_t uploaded_bytes(const core::UniDriveClient& device) {
  std::uint64_t total = 0;
  for (const auto& [name, value] :
       device.observability()->metrics.snapshot().counters) {
    if (name.starts_with("cloud.") && name.ends_with(".bytes_up")) {
      total += value;
    }
  }
  return total;
}

}  // namespace

int main() {
  cloud::MultiCloud clouds;
  for (cloud::CloudId id = 0; id < 5; ++id) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        id, "cloud" + std::to_string(id)));
  }

  auto make_device = [&](const std::string& name) {
    core::ClientConfig config;
    config.device = name;
    return std::make_pair(std::make_shared<core::MemoryLocalFs>(), config);
  };
  auto [fs_a, cfg_a] = make_device("alice-laptop");
  auto [fs_b, cfg_b] = make_device("alice-phone");
  auto [fs_c, cfg_c] = make_device("alice-desktop");
  core::UniDriveClient a(clouds, fs_a, cfg_a);
  core::UniDriveClient b(clouds, fs_b, cfg_b);
  core::UniDriveClient c(clouds, fs_c, cfg_c);

  // --- 1. propagation ---------------------------------------------------------
  std::printf("== 1. basic propagation ==\n");
  fs_a->write("/notes/todo.txt", ByteSpan(text("buy milk")));
  must(a.sync(), "a.sync");
  must(b.sync(), "b.sync");
  must(c.sync(), "c.sync");
  std::printf("phone sees: \"%s\"\n",
              string_from_bytes(ByteSpan(fs_b->read("/notes/todo.txt").value()))
                  .c_str());

  // --- 2. conflict -------------------------------------------------------------
  std::printf("\n== 2. conflicting edits ==\n");
  fs_a->write("/notes/todo.txt", ByteSpan(text("buy milk and bread")));
  fs_b->write("/notes/todo.txt", ByteSpan(text("buy oat milk")));
  must(a.sync(), "a.sync");  // laptop commits first
  auto rb = b.sync();        // phone detects the conflict while committing
  must(rb, "b.sync");
  if (rb.value().conflicts.empty()) {
    std::fprintf(stderr, "expected a conflict!\n");
    return 1;
  }
  const auto& conflict = rb.value().conflicts.front();
  std::printf("conflict at %s; both versions kept:\n", conflict.path.c_str());
  std::printf("  %-40s \"%s\"\n", conflict.path.c_str(),
              string_from_bytes(ByteSpan(fs_b->read(conflict.path).value()))
                  .c_str());
  std::printf("  %-40s \"%s\"\n", conflict.conflict_copy.c_str(),
              string_from_bytes(
                  ByteSpan(fs_b->read(conflict.conflict_copy).value()))
                  .c_str());
  must(c.sync(), "c.sync");
  std::printf("desktop now has %zu file(s) — conflicts propagate everywhere\n",
              fs_c->list_files().size());

  // --- 3. dedup ------------------------------------------------------------------
  std::printf("\n== 3. deduplication ==\n");
  Rng rng(7);
  const Bytes big = workload::random_file(rng, 2 << 20);
  fs_a->write("/data/original.bin", ByteSpan(big));
  must(a.sync(), "a.sync");
  const std::uint64_t uploaded_before = uploaded_bytes(a);

  fs_a->write("/data/copy.bin", ByteSpan(big));  // identical content
  must(a.sync(), "a.sync");
  const std::uint64_t uploaded_after = uploaded_bytes(a);

  std::printf("2 MB copy cost only %llu KB of upload traffic "
              "(segments dedup'ed, metadata only)\n",
              static_cast<unsigned long long>(
                  (uploaded_after - uploaded_before) / 1024));

  for (const auto& [id, seg] : a.image().segments()) {
    if (seg.refcount > 1) {
      std::printf("segment %.12s… is shared by %u files\n", id.c_str(),
                  seg.refcount);
    }
  }
  return 0;
}
