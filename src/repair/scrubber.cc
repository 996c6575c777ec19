#include "repair/scrubber.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/download_pipeline.h"
#include "crypto/convergent.h"
#include "crypto/crc32.h"
#include "erasure/rs.h"
#include "metadata/types.h"
#include "repair/latch.h"

namespace unidrive::repair {

Scrubber::Scrubber(core::UniDriveClient& client,
                   std::shared_ptr<DurabilityTracker> tracker,
                   ScrubConfig config)
    : client_(client), tracker_(std::move(tracker)), config_(config) {}

ScrubReport Scrubber::run_pass() {
  ++pass_;
  ScrubReport report;
  report.pass = pass_;
  obs::Observability* obs = client_.observability().get();
  obs::Span span = obs::start_span(obs, "repair.scrub");
  obs::add_counter(obs, "repair.scrub.passes");

  // Snapshot the committed image: the pass classifies against ONE version
  // even if a concurrent sync advances the client mid-pass. A block that a
  // newer commit dropped shows up as an orphan sighting, which the
  // quarantine absorbs; it is never deleted off a single pass.
  const metadata::SyncFolderImage image = client_.image();
  const TimePoint now = client_.clock().now();
  const auto& health = client_.health();

  // Phase 1: one listing per admissible cloud, fanned out concurrently
  // over the async layer. Clouds with an open breaker are skipped — an
  // unreachable cloud's blocks are NOT missing, just unprobeable.
  std::map<cloud::CloudId, Listing> listings;
  {
    std::mutex mu;
    CompletionLatch latch;
    for (const cloud::AsyncCloudPtr& cloud : client_.async_clouds()) {
      const cloud::CloudId id = cloud->id();
      if (!health->admissible(id)) {
        ++report.clouds_skipped;
        continue;
      }
      listings.emplace(id, Listing{});
      latch.expect();
      cloud->list_async(
          metadata::kDataDir,
          [&listings, &mu, &latch, id](Result<std::vector<cloud::FileInfo>> r) {
            {
              std::lock_guard<std::mutex> lock(mu);
              Listing& listing = listings[id];
              if (r.is_ok()) {
                listing.ok = true;
                for (const cloud::FileInfo& f : r.value()) {
                  listing.files[f.name] = f.size;
                }
              }
            }
            latch.arrive();  // last touch: wait() may return right after
          });
    }
    latch.wait();
  }

  std::set<cloud::CloudId> listed;
  for (const auto& [id, listing] : listings) {
    if (listing.ok) {
      listed.insert(id);
    } else {
      ++report.clouds_skipped;  // admissible but the listing itself failed
    }
  }
  report.clouds_probed = listed.size();

  // Cloud-lost bookkeeping: count consecutive passes each enrolled cloud
  // was unprobeable; a successful probe resets the count and retracts any
  // earlier escalation (the blocks were never actually gone).
  for (const cloud::AsyncCloudPtr& cloud : client_.async_clouds()) {
    const cloud::CloudId id = cloud->id();
    if (listed.count(id) > 0) {
      if (open_passes_[id] != 0) {
        open_passes_[id] = 0;
        tracker_->retract_cloud_lost(id);
      }
    } else {
      ++open_passes_[id];
    }
  }

  probe_blocks(image, listings, now, report);
  escalate_lost_clouds(image, now, report);
  collect_orphans(image, listings, now, report);
  deep_verify(image, listed, now, report);

  // Ledger hygiene: defects of segments that left the pool are moot (the
  // segment GC deletes their blocks; nothing to repair).
  for (const Defect& defect : tracker_->defects()) {
    if (image.find_segment(defect.segment_id) == nullptr) {
      tracker_->forget_segment(defect.segment_id);
    }
  }

  obs::add_counter(obs, "repair.scrub.blocks_probed", report.blocks_probed);
  return report;
}

void Scrubber::probe_blocks(const metadata::SyncFolderImage& image,
                            const std::map<cloud::CloudId, Listing>& listings,
                            TimePoint now, ScrubReport& report) {
  obs::Observability* obs = client_.observability().get();
  const std::size_t k = client_.config().k;
  for (const auto& [seg_id, segment] : image.segments()) {
    if (segment.refcount == 0) continue;
    const std::uint64_t shard_size = (segment.size + k - 1) / k;
    for (const metadata::BlockLocation& loc : segment.blocks) {
      ++report.blocks_expected;
      const auto lit = listings.find(loc.cloud);
      if (lit == listings.end() || !lit->second.ok) continue;  // unprobeable
      ++report.blocks_probed;
      const std::string name = metadata::block_name(seg_id, loc.block_index);
      const auto fit = lit->second.files.find(name);
      if (fit == lit->second.files.end()) {
        if (tracker_->record(
                {DefectKind::kMissingBlock, seg_id, loc.block_index,
                 loc.cloud, now})) {
          ++report.missing;
          obs::add_counter(obs, "repair.scrub.defects.missing");
          UNI_LOG(kWarn) << "scrub: block " << name << " missing on cloud "
                         << loc.cloud;
        }
      } else if (fit->second != shard_size) {
        if (tracker_->record(
                {DefectKind::kCorruptBlock, seg_id, loc.block_index,
                 loc.cloud, now})) {
          ++report.corrupt;
          obs::add_counter(obs, "repair.scrub.defects.corrupt");
          UNI_LOG(kWarn) << "scrub: block " << name << " on cloud "
                         << loc.cloud << " has size " << fit->second
                         << ", expected " << shard_size;
        }
      } else {
        // Present with the right size again: a previously missing block
        // healed without us (another device repaired, or the provider
        // recovered it). Corrupt entries need deep verify to clear — the
        // right size proves nothing about the bytes.
        const auto kind =
            tracker_->defect_kind(seg_id, loc.block_index, loc.cloud);
        if (kind.has_value() && *kind == DefectKind::kMissingBlock) {
          tracker_->mark_healed(seg_id, loc.block_index, loc.cloud, now);
          ++report.healed_externally;
          obs::add_counter(obs, "repair.scrub.healed_externally");
        }
      }
    }
  }
}

void Scrubber::escalate_lost_clouds(const metadata::SyncFolderImage& image,
                                    TimePoint now, ScrubReport& report) {
  obs::Observability* obs = client_.observability().get();
  for (const auto& [cloud_id, passes] : open_passes_) {
    if (passes < config_.cloud_lost_after_passes) continue;
    for (const auto& [seg_id, segment] : image.segments()) {
      if (segment.refcount == 0) continue;
      for (const metadata::BlockLocation& loc : segment.blocks) {
        if (loc.cloud != cloud_id) continue;
        if (tracker_->record({DefectKind::kCloudLost, seg_id,
                              loc.block_index, cloud_id, now})) {
          ++report.cloud_lost;
          obs::add_counter(obs, "repair.scrub.defects.cloud_lost");
        }
      }
    }
  }
}

void Scrubber::collect_orphans(const metadata::SyncFolderImage& image,
                               const std::map<cloud::CloudId, Listing>& listings,
                               TimePoint now, ScrubReport& report) {
  std::set<DurabilityTracker::OrphanKey> sighted;
  std::set<cloud::CloudId> listed;
  // Stored names are one-way fingerprints of the segment id, so the
  // reverse lookup is precomputed once over the snapshot image.
  const BlockReferenceIndex referenced(image);
  for (const auto& [cloud_id, listing] : listings) {
    if (!listing.ok) continue;
    listed.insert(cloud_id);
    for (const auto& [name, size] : listing.files) {
      (void)size;
      if (referenced.referenced(cloud_id, name)) continue;
      sighted.insert(DurabilityTracker::OrphanKey{cloud_id, name});
    }
  }
  report.orphans_sighted = sighted.size();
  tracker_->observe_orphans(sighted, listed, image.version(), now);
}

void Scrubber::deep_verify(const metadata::SyncFolderImage& image,
                           const std::set<cloud::CloudId>& listed,
                           TimePoint now, ScrubReport& report) {
  if (config_.deep_verify_segments == 0) return;
  // Live segment ids in map order; resume after the cursor, wrap around.
  std::vector<const metadata::SegmentInfo*> pool;
  for (const auto& [id, segment] : image.segments()) {
    if (segment.refcount > 0) pool.push_back(&segment);
  }
  if (pool.empty()) return;
  std::size_t start = 0;
  if (!deep_cursor_.empty()) {
    while (start < pool.size() && pool[start]->id <= deep_cursor_) ++start;
  }
  const std::size_t count = std::min(config_.deep_verify_segments, pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    const metadata::SegmentInfo* segment = pool[(start + i) % pool.size()];
    verify_segment(*segment, listed, now, report);
    ++report.segments_deep_verified;
    deep_cursor_ = segment->id;
  }
  obs::add_counter(client_.observability().get(),
                   "repair.scrub.deep_verified", count);
}

void Scrubber::verify_segment(const metadata::SegmentInfo& segment,
                              const std::set<cloud::CloudId>& listed,
                              TimePoint now, ScrubReport& report) {
  obs::Observability* obs = client_.observability().get();
  // Fetch every reachable placement that is not already known missing.
  // Slots are written by at most one completion each and read only after
  // the latch's wait() — the latch mutex publishes the writes.
  struct Slot {
    bool launched = false;
    bool fetched = false;
    bool not_found = false;
    Bytes bytes;
  };
  std::vector<Slot> slots(segment.blocks.size());
  {
    CompletionLatch latch;
    for (std::size_t i = 0; i < segment.blocks.size(); ++i) {
      const metadata::BlockLocation& loc = segment.blocks[i];
      if (listed.count(loc.cloud) == 0) continue;
      const auto kind =
          tracker_->defect_kind(segment.id, loc.block_index, loc.cloud);
      if (kind.has_value() && *kind == DefectKind::kMissingBlock) continue;
      cloud::AsyncCloud* cloud = client_.async_cloud(loc.cloud);
      if (cloud == nullptr) continue;
      slots[i].launched = true;
      latch.expect();
      cloud->download_async(
          metadata::block_path(segment.id, loc.block_index),
          [slot = &slots[i], &latch](Result<Bytes> r) {
            if (r.is_ok()) {
              slot->fetched = true;
              slot->bytes = std::move(r).take();
            } else if (r.code() == ErrorCode::kNotFound) {
              slot->not_found = true;
            }
            latch.arrive();
          });
    }
    latch.wait();
  }

  const std::size_t k = client_.config().k;
  const erasure::RsCode code = client_.codec();
  const std::size_t shard_size = (segment.size + k - 1) / k;

  // Decode candidates: fetched blocks of the exact shard size. Wrong-size
  // blocks are corrupt outright and would poison the decode.
  std::vector<erasure::Shard> candidates;
  std::vector<std::size_t> candidate_slot;
  for (std::size_t i = 0; i < segment.blocks.size(); ++i) {
    const metadata::BlockLocation& loc = segment.blocks[i];
    if (slots[i].not_found) {
      if (tracker_->record({DefectKind::kMissingBlock, segment.id,
                            loc.block_index, loc.cloud, now})) {
        ++report.missing;
        obs::add_counter(obs, "repair.scrub.defects.missing");
      }
      continue;
    }
    if (!slots[i].fetched) continue;
    if (slots[i].bytes.size() != shard_size) {
      if (tracker_->record({DefectKind::kCorruptBlock, segment.id,
                            loc.block_index, loc.cloud, now})) {
        ++report.corrupt;
        obs::add_counter(obs, "repair.scrub.defects.corrupt");
      }
      continue;
    }
    candidates.push_back(
        erasure::Shard{loc.block_index, std::move(slots[i].bytes)});
    candidate_slot.push_back(i);
  }

  if (candidates.size() < k) return;  // repair engine's problem, not ours

  const Result<Bytes> plain =
      core::decode_verified(code, candidates, segment, k, nullptr);
  if (!plain.is_ok()) {
    // No k-subset decodes to the segment's content hash: more corruption
    // than attribution can untangle. Flag every fetched block; the repair
    // engine rebuilds them all from the local file copy when one exists.
    for (const std::size_t i : candidate_slot) {
      const metadata::BlockLocation& loc = segment.blocks[i];
      if (tracker_->record({DefectKind::kCorruptBlock, segment.id,
                            loc.block_index, loc.cloud, now})) {
        ++report.corrupt;
        obs::add_counter(obs, "repair.scrub.defects.corrupt");
      }
    }
    return;
  }

  // Verified plaintext in hand: every fetched block must equal its
  // re-encoded codeword row, byte for byte. This is what catches same-size
  // bit-rot the listing probe cannot see. All candidate rows are re-encoded
  // in ONE fused pass (each row is one SIMD dot product over the data rows
  // read in place), and a CRC32C screen runs before the byte
  // compare so the common all-good case touches each buffer once more at
  // hardware CRC speed instead of a full memcmp mismatch scan.
  std::vector<std::uint32_t> indices;
  indices.reserve(candidates.size());
  for (const std::size_t i : candidate_slot) {
    indices.push_back(segment.blocks[i].block_index);
  }
  // decode_verified returned plaintext; the stored rows are codewords over
  // the convergent-sealed payload, so seal before re-encoding the expected
  // rows (identity for legacy SHA-1 ids).
  const Bytes sealed = crypto::convergent_seal(segment.id, ByteSpan(plain.value()));
  const std::vector<erasure::Shard> expected =
      code.encode_shards(ByteSpan(sealed), indices);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::size_t i = candidate_slot[c];
    const metadata::BlockLocation& loc = segment.blocks[i];
    const bool matches =
        crypto::crc32c(ByteSpan(expected[c].data)) ==
            crypto::crc32c(ByteSpan(candidates[c].data)) &&
        expected[c].data == candidates[c].data;
    if (!matches) {
      if (tracker_->record({DefectKind::kCorruptBlock, segment.id,
                            loc.block_index, loc.cloud, now})) {
        ++report.corrupt;
        obs::add_counter(obs, "repair.scrub.defects.corrupt");
        UNI_LOG(kWarn) << "scrub: bit-rot in block "
                       << metadata::block_name(segment.id, loc.block_index)
                       << " on cloud " << loc.cloud;
      }
    } else {
      // The stored bytes are provably the right codeword row — clear any
      // stale corrupt entry (e.g. healed externally since we recorded it).
      const auto kind =
          tracker_->defect_kind(segment.id, loc.block_index, loc.cloud);
      if (kind.has_value() && *kind == DefectKind::kCorruptBlock) {
        tracker_->mark_healed(segment.id, loc.block_index, loc.cloud, now);
        ++report.healed_externally;
        obs::add_counter(obs, "repair.scrub.healed_externally");
      }
    }
  }
}

}  // namespace unidrive::repair
