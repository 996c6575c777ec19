// Reliability and membership management under cloud outages.
//
// Demonstrates the paper's reliability story end to end:
//   1. a file synced with Kr=3, Ks=2 survives TWO simultaneous cloud
//      outages (any 3 of 5 clouds suffice);
//   2. a single cloud can never reconstruct the data (security);
//   3. a dead cloud can be removed and a fresh one added — an admin device
//      with no local copy rebalances blocks, rebuilding moved ones from the
//      surviving clouds, so the guarantees hold for the new membership.
//
// Run:  build/examples/cloud_outage
#include <cstdio>
#include <memory>

#include "cloud/faulty_cloud.h"
#include "cloud/memory_cloud.h"
#include "core/client.h"
#include "workload/files.h"

using namespace unidrive;

int main() {
  // Five clouds, each wrapped in a fault injector we can switch off.
  cloud::MultiCloud clouds;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faults;
  for (cloud::CloudId id = 0; id < 5; ++id) {
    auto memory = std::make_shared<cloud::MemoryCloud>(
        id, "cloud" + std::to_string(id));
    auto faulty =
        std::make_shared<cloud::FaultyCloud>(memory, cloud::FaultProfile{}, id);
    faults.push_back(faulty);
    clouds.push_back(faulty);
  }

  core::ClientConfig config;
  config.device = "workstation";
  auto folder = std::make_shared<core::MemoryLocalFs>();
  core::UniDriveClient workstation(clouds, folder, config);

  Rng rng(99);
  const Bytes dataset = workload::random_file(rng, 1 << 20);
  folder->write("/research/results.csv", ByteSpan(dataset));
  auto up = workstation.sync();
  if (!up.is_ok()) {
    std::fprintf(stderr, "initial sync failed: %s\n",
                 up.status().to_string().c_str());
    return 1;
  }
  std::printf("uploaded with Kr=3 (any 3 clouds recover), Ks=2 "
              "(no single cloud can read)\n");

  // --- 1. two clouds die; a fresh device still recovers everything -------------
  std::printf("\n== outage: clouds 0 and 1 go down ==\n");
  faults[0]->set_outage(true);
  faults[1]->set_outage(true);

  core::ClientConfig config2 = config;
  config2.device = "rescue-laptop";
  auto folder2 = std::make_shared<core::MemoryLocalFs>();
  core::UniDriveClient rescue(clouds, folder2, config2);
  auto down = rescue.sync();
  const bool recovered = down.is_ok() &&
                         folder2->read("/research/results.csv").is_ok() &&
                         folder2->read("/research/results.csv").value() ==
                             dataset;
  std::printf("rescue laptop recovered the dataset from 3 live clouds: %s\n",
              recovered ? "yes" : "NO");
  if (!recovered) return 1;

  // --- 2. security: any single cloud holds < k distinct blocks ---------------
  std::printf("\n== security check ==\n");
  for (const auto& [seg_id, seg] : workstation.image().segments()) {
    std::map<cloud::CloudId, int> per_cloud;
    for (const auto& b : seg.blocks) ++per_cloud[b.cloud];
    int worst = 0;
    for (const auto& [c, n] : per_cloud) worst = std::max(worst, n);
    std::printf("segment %.12s…: max blocks on any one cloud = %d (< k = %zu)\n",
                seg_id.c_str(), worst, workstation.config().k);
  }

  // --- 3. membership change: drop the dead cloud 0, add a new vendor -----------
  std::printf("\n== membership: remove dead cloud 0, add cloud 5 ==\n");
  faults[1]->set_outage(false);  // cloud 1 recovers; cloud 0 stays dead
  // The admin device holds no local copy, so every moved block is decoded
  // from the surviving clouds and re-encoded.
  core::ClientConfig admin_config = config;
  admin_config.device = "admin-console";
  core::UniDriveClient admin(clouds, std::make_shared<core::MemoryLocalFs>(),
                             admin_config);
  const Status removed = admin.remove_cloud(0);
  std::printf("remove_cloud(0): %s (N is now 4)\n",
              removed.is_ok() ? "ok" : removed.to_string().c_str());

  auto new_cloud = std::make_shared<cloud::MemoryCloud>(5, "newvendor");
  const Status added = admin.add_cloud(new_cloud);
  std::printf("add_cloud(newvendor): %s (N is now 5; fair shares rebalanced)\n",
              added.is_ok() ? "ok" : added.to_string().c_str());
  std::printf("newvendor now stores %zu block file(s)\n",
              new_cloud->file_count());

  // The dataset must still decode after the reshuffle.
  core::ClientConfig config3 = config;
  config3.device = "verify-device";
  auto folder3 = std::make_shared<core::MemoryLocalFs>();
  cloud::MultiCloud new_membership = admin.clouds();
  core::UniDriveClient verifier(new_membership, folder3, config3);
  auto verify = verifier.sync();
  const bool ok = verify.is_ok() &&
                  folder3->read("/research/results.csv").is_ok() &&
                  folder3->read("/research/results.csv").value() == dataset;
  std::printf("post-rebalance recovery: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
