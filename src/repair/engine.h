// RepairEngine — drains the DurabilityTracker's defect ledger and restores
// full redundancy, most-endangered segments first.
//
// One slice is budgeted in blocks (the daemon's admission control): the
// engine orders defective segments by surviving block count ascending —
// a segment one block away from k is repaired before one merely below its
// redundancy floor — and for each:
//
//   1. reconstructs the plaintext (local file slice when available,
//      otherwise a hash-verified decode that EXCLUDES the defective
//      placements),
//   2. re-encodes exactly the lost/corrupt block indices (non-systematic
//      RS with the pinned codec length keeps every index re-derivable),
//   3. re-uploads in place (missing/corrupt on a reachable cloud) or onto
//      a healthy cloud (kCloudLost re-homing, respecting the ks security
//      cap max_per_cloud),
//   4. commits placement changes through the client's scope-locked
//      ShardedMetaStore — blocks land BEFORE the commit, the same
//      crash-safety order as the sync write path; a crash mid-repair
//      leaves orphans, never dangling references.
//
// In-place repairs need no commit (the metadata already says exactly
// where the block belongs) and are marked healed as soon as the upload
// lands; re-homed blocks are marked healed only after their commit is
// durable. Quarantine-expired orphans are deleted last, each re-checked
// against the freshest committed image.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "repair/durability.h"

namespace unidrive::repair {

struct RepairConfig {
  // Quarantine a scrub-sighted orphan must serve before deletion; must
  // exceed any client's worst-case upload-to-commit window (DESIGN §10d).
  Duration orphan_grace = 600.0;
};

struct RepairOutcome {
  std::size_t blocks_healed = 0;      // defects cleared by us this slice
  std::size_t segments_repaired = 0;  // segments with >=1 heal
  std::size_t rehomed = 0;            // blocks moved off a lost cloud
  std::size_t orphans_collected = 0;
  std::size_t failures = 0;       // uploads/deletes that failed (retry later)
  std::size_t unrecoverable = 0;  // segments with no plaintext source left
  bool committed = false;         // a placement-change commit landed
};

class RepairEngine {
 public:
  RepairEngine(core::UniDriveClient& client,
               std::shared_ptr<DurabilityTracker> tracker,
               RepairConfig config);

  // Repairs up to `budget_blocks` blocks (uploads + orphan deletions).
  // Runs on the caller's thread; uploads fan out over the async layer.
  RepairOutcome run_slice(std::size_t budget_blocks);

 private:
  struct PendingRehome {
    std::string segment_id;
    std::uint32_t block_index = 0;
    cloud::CloudId old_cloud = 0;
  };

  void repair_segment(const metadata::SyncFolderImage& image,
                      const metadata::SegmentInfo& segment,
                      std::vector<Defect> defects, std::size_t& budget,
                      RepairOutcome& out,
                      std::vector<metadata::SegmentInfo>& placement_changes,
                      std::vector<PendingRehome>& pending_rehomes);
  void collect_orphans(std::size_t& budget, RepairOutcome& out);

  core::UniDriveClient& client_;
  std::shared_ptr<DurabilityTracker> tracker_;
  RepairConfig config_;
};

}  // namespace unidrive::repair
