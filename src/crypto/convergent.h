// Convergent dispersal for the content-addressed segment pool (DESIGN.md
// §13), in the style of CDStore's two-stage convergent dispersal: the
// per-segment key is derived from the segment plaintext itself, so two
// parties holding identical bytes produce byte-identical sealed payloads —
// and therefore byte-identical coded blocks — without sharing any secret.
// That is what lets deduplication survive encryption across users.
//
// Segment ids are SHA-256 hex (64 chars). Ids minted before the upgrade are
// SHA-1 hex (40 chars) and their blocks were coded over raw plaintext; both
// properties are preserved by dispatching on id length, so serialized images
// from either era keep working against the same cloud set.
//
// Sealing is AES-128-CTR keyed by the id's leading bytes. CTR is length
// preserving (sealed size == plaintext size), so pipeline byte accounting and
// erasure shard geometry are unchanged, and the AES-NI / scalar twins
// (crypto/aes.h) produce identical bytes, so convergence holds across
// machines and under UNIDRIVE_FORCE_SCALAR.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace unidrive::crypto {

enum class SegmentIdKind {
  kLegacySha1,  // 40 hex chars; blocks are raw-plaintext codewords
  kSha256,      // 64 hex chars; blocks are convergent-sealed codewords
  kUnknown,
};

[[nodiscard]] SegmentIdKind segment_id_kind(std::string_view id) noexcept;

// Canonical id for newly minted segments: SHA-256 hex of the plaintext.
[[nodiscard]] std::string segment_id(ByteSpan plaintext);

// True when `plaintext` hashes to `id` under the id's own hash family.
[[nodiscard]] bool verify_segment_id(std::string_view id, ByteSpan plaintext);

// A file's content hash names its bytes through its segment ids: each
// segment is already verified against its id, so the ordered id list pins
// the whole file and nothing re-hashes its bytes. Snapshots committed
// before that carry a SHA-1 of the whole file, which still verifies.
enum class ContentHashKind {
  kNone,         // empty: nothing to check (e.g. a one-segment repair read)
  kSegmentList,  // 64 hex chars: file_content_hash over the segment ids
  kLegacySha1,   // 40 hex chars: SHA-1 of the whole file's bytes
  kMalformed,    // anything else: matches no content
};

[[nodiscard]] ContentHashKind content_hash_kind(std::string_view hash) noexcept;

// Canonical content hash for newly minted snapshots, as 64 lowercase hex:
// SHA-256 over the tag "unidrive.file.v1" and then, for each id in order,
// its length as 8 big-endian bytes followed by its characters.
[[nodiscard]] std::string file_content_hash(
    const std::vector<std::string>& segment_ids);

// Data-plane name stem of a segment's block objects. The convergent key IS
// the id's leading bytes, so the id must never appear on the shared /data
// plane (any party that can list the pool would read the decryption key out
// of the filenames). Blocks are therefore addressed by a second,
// domain-separated SHA-256 over the raw id — one-way, so the name reveals
// no key material, yet still deterministic in the content, so convergence
// and cross-user dedup are unaffected. Legacy SHA-1 ids predate sealing
// (they are not key material) and pass through unchanged, which keeps
// blocks written before the upgrade reachable at their original paths.
[[nodiscard]] std::string storage_address(std::string_view id);

// Plaintext -> sealed payload for the segment named `id` (which the caller
// must have derived from this plaintext). Legacy SHA-1 ids are sealed with
// the identity transform — their blocks predate convergent sealing.
[[nodiscard]] Bytes convergent_seal(std::string_view id, ByteSpan plaintext);

// In-place variant (the CTR keystream XORs over `data`; identity for legacy
// ids) — the hot upload path uses this to avoid a second plaintext-sized
// buffer inside the admission-gated footprint.
void convergent_seal_inplace(std::string_view id, Bytes& data);

// Sealed payload -> plaintext, verifying that the result hashes back to
// `id`. Fails on a hash mismatch (corrupt or mis-addressed payload) or a
// malformed id. Consumes `sealed` (the CTR unseal runs in place).
[[nodiscard]] Result<Bytes> convergent_open(std::string_view id, Bytes sealed);

}  // namespace unidrive::crypto
