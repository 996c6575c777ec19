#include "chunker/segmenter.h"

#include <cassert>

#include "crypto/convergent.h"

namespace unidrive::chunker {

namespace {

// CDC parameters derived from theta: aim for chunks around theta so that the
// clamp rarely has to intervene, with enough slack for merging.
CdcParams cdc_params_for(const SegmenterParams& p) noexcept {
  CdcParams c;
  c.min_size = std::max<std::size_t>(1, p.theta / 4);
  c.target_size = std::max<std::size_t>(c.min_size, p.theta);
  c.max_size = std::max<std::size_t>(c.target_size, p.max_size());
  return c;
}

}  // namespace

std::vector<Segment> cut_segments(ByteSpan content,
                                  const SegmenterParams& params) {
  std::vector<Segment> segments;
  if (content.empty()) return segments;

  const std::size_t min_size = params.min_size();
  const std::size_t max_size = params.max_size();

  // Pass 1: raw content-defined chunks.
  const std::vector<ChunkRef> raw = cdc_split(content, cdc_params_for(params));

  // Pass 2: clamp. Merge a too-small chunk into its successor; split a
  // too-large run into max_size pieces (still content-positioned because the
  // run starts at a content-defined boundary).
  std::vector<ChunkRef> clamped;
  std::size_t pending_off = raw.front().offset;
  std::size_t pending_len = 0;
  auto flush = [&](std::size_t off, std::size_t len) {
    // Split oversized runs into near-equal pieces so no remainder falls
    // under min_size: each piece is >= max_size / 2 > min_size.
    const std::size_t pieces = (len + max_size - 1) / max_size;
    const std::size_t base = len / pieces;
    std::size_t extra = len % pieces;  // distribute the remainder
    for (std::size_t i = 0; i < pieces; ++i) {
      const std::size_t piece = base + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      clamped.push_back({off, piece});
      off += piece;
    }
  };
  for (const ChunkRef& c : raw) {
    pending_len += c.length;
    if (pending_len >= min_size) {
      flush(pending_off, pending_len);
      pending_off += pending_len;
      pending_len = 0;
    }
  }
  if (pending_len > 0) {
    // Tail smaller than min_size: merge into the previous segment if that
    // stays under the cap, otherwise keep it as a short final segment.
    if (!clamped.empty() &&
        clamped.back().length + pending_len <= max_size) {
      clamped.back().length += pending_len;
    } else {
      clamped.push_back({pending_off, pending_len});
    }
  }

  segments.reserve(clamped.size());
  for (const ChunkRef& c : clamped) {
    Segment seg;
    seg.offset = c.offset;
    seg.length = c.length;
    segments.push_back(std::move(seg));
  }
  return segments;
}

std::vector<Segment> segment_file(ByteSpan content,
                                  const SegmenterParams& params) {
  std::vector<Segment> segments = cut_segments(content, params);
  for (Segment& seg : segments) {
    seg.id = crypto::segment_id(content.subspan(seg.offset, seg.length));
  }
  return segments;
}

Bytes segment_bytes(ByteSpan content, const Segment& seg) {
  assert(seg.offset + seg.length <= content.size());
  const ByteSpan view = content.subspan(seg.offset, seg.length);
  return Bytes(view.begin(), view.end());
}

}  // namespace unidrive::chunker
