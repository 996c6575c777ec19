// UniDrive segmenter: content-defined chunking followed by the paper's size
// clamp — final segments fall in (0.5*theta, 1.5*theta), achieved by merging
// small neighbouring chunks and splitting oversized ones. Each segment is
// identified by the SHA-256 of its content, enabling segment-level dedup
// (pre-upgrade images carry SHA-1 ids; see crypto/convergent.h).
#pragma once

#include <string>
#include <vector>

#include "chunker/cdc.h"
#include "common/bytes.h"

namespace unidrive::chunker {

struct Segment {
  std::string id;      // SHA-256 hex of the content (SHA-1 on legacy images)
  std::size_t offset = 0;
  std::size_t length = 0;
};

struct SegmenterParams {
  std::size_t theta = 4 << 20;  // target segment size (paper: 4 MB)

  [[nodiscard]] std::size_t min_size() const noexcept { return theta / 2 + 1; }
  [[nodiscard]] std::size_t max_size() const noexcept {
    return theta + theta / 2 - 1;
  }
};

// Split the file content into segments obeying the clamp. The concatenation
// of the segments always reproduces the input exactly. Files smaller than
// min_size() yield a single (short) segment.
std::vector<Segment> segment_file(ByteSpan content,
                                  const SegmenterParams& params);

// The cut alone: segment_file()'s offsets and lengths, ids left empty, so
// a caller can hash the segments elsewhere (crypto::segment_id on each
// range gives segment_file()'s ids).
std::vector<Segment> cut_segments(ByteSpan content,
                                  const SegmenterParams& params);

// Extract a segment's bytes.
Bytes segment_bytes(ByteSpan content, const Segment& seg);

}  // namespace unidrive::chunker
