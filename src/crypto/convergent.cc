#include "crypto/convergent.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>

#include "crypto/aes.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace unidrive::crypto {

namespace {

bool all_hex(std::string_view s) noexcept {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isxdigit(c) != 0;
  });
}

// Key = first 16 bytes of the (binary) SHA-256 id; nonce = first 12 bytes of
// SHA-256 over the key material, domain-separated so key and nonce are not
// trivially related. Deterministic per segment: identical plaintext gives an
// identical (key, nonce) pair and thus an identical keystream. (nonce, ctr)
// reuse across *different* segments is impossible because the key differs.
struct ConvergentMaterial {
  Aes128::Key key;
  Aes128::Nonce nonce;
};

ConvergentMaterial derive_material(std::string_view id) {
  const Bytes raw = from_hex(id);
  ConvergentMaterial m;
  std::copy_n(raw.begin(), Aes128::kKeySize, m.key.begin());
  Sha256 h;
  static constexpr char kDomain[] = "unidrive.convergent.nonce.v1";
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(kDomain),
                    sizeof(kDomain) - 1));
  h.update(ByteSpan(raw.data(), raw.size()));
  const Sha256::Digest d = h.finish();
  std::copy_n(d.begin(), Aes128::kNonceSize, m.nonce.begin());
  return m;
}

}  // namespace

SegmentIdKind segment_id_kind(std::string_view id) noexcept {
  if (!all_hex(id)) return SegmentIdKind::kUnknown;
  if (id.size() == 2 * Sha256::kDigestSize) return SegmentIdKind::kSha256;
  if (id.size() == 2 * Sha1::kDigestSize) return SegmentIdKind::kLegacySha1;
  return SegmentIdKind::kUnknown;
}

std::string segment_id(ByteSpan plaintext) { return Sha256::hex(plaintext); }

bool verify_segment_id(std::string_view id, ByteSpan plaintext) {
  switch (segment_id_kind(id)) {
    case SegmentIdKind::kSha256:
      return Sha256::hex(plaintext) == id;
    case SegmentIdKind::kLegacySha1:
      return Sha1::hex(plaintext) == id;
    case SegmentIdKind::kUnknown:
      return false;
  }
  return false;
}

ContentHashKind content_hash_kind(std::string_view hash) noexcept {
  if (hash.empty()) return ContentHashKind::kNone;
  switch (segment_id_kind(hash)) {
    case SegmentIdKind::kSha256:
      return ContentHashKind::kSegmentList;
    case SegmentIdKind::kLegacySha1:
      return ContentHashKind::kLegacySha1;
    case SegmentIdKind::kUnknown:
      break;
  }
  return ContentHashKind::kMalformed;
}

std::string file_content_hash(const std::vector<std::string>& segment_ids) {
  Sha256 h;
  static constexpr char kDomain[] = "unidrive.file.v1";
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(kDomain),
                    sizeof(kDomain) - 1));
  for (const std::string& id : segment_ids) {
    std::array<std::uint8_t, 8> length{};
    std::uint64_t n = id.size();
    for (auto it = length.rbegin(); it != length.rend(); ++it, n >>= 8) {
      *it = static_cast<std::uint8_t>(n & 0xff);
    }
    h.update(ByteSpan(length.data(), length.size()));
    h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(id.data()),
                      id.size()));
  }
  const Sha256::Digest d = h.finish();
  return to_hex(ByteSpan(d.data(), d.size()));
}

std::string storage_address(std::string_view id) {
  if (segment_id_kind(id) != SegmentIdKind::kSha256) return std::string(id);
  const Bytes raw = from_hex(id);
  Sha256 h;
  static constexpr char kDomain[] = "unidrive.convergent.addr.v1";
  h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(kDomain),
                    sizeof(kDomain) - 1));
  h.update(ByteSpan(raw.data(), raw.size()));
  const Sha256::Digest d = h.finish();
  return to_hex(ByteSpan(d.data(), d.size()));
}

Bytes convergent_seal(std::string_view id, ByteSpan plaintext) {
  Bytes out(plaintext.begin(), plaintext.end());
  convergent_seal_inplace(id, out);
  return out;
}

void convergent_seal_inplace(std::string_view id, Bytes& data) {
  if (segment_id_kind(id) != SegmentIdKind::kSha256 || data.empty()) {
    return;  // legacy ids: blocks are raw-plaintext codewords
  }
  const ConvergentMaterial m = derive_material(id);
  const Aes128 aes(m.key);
  aes.ctr_xor(m.nonce, 0, ByteSpan(data.data(), data.size()), data.data());
}

Result<Bytes> convergent_open(std::string_view id, Bytes sealed) {
  const SegmentIdKind kind = segment_id_kind(id);
  if (kind == SegmentIdKind::kUnknown) {
    return Status(ErrorCode::kInvalidArgument,
                  "convergent_open: malformed segment id");
  }
  if (kind == SegmentIdKind::kSha256 && !sealed.empty()) {
    const ConvergentMaterial m = derive_material(id);
    const Aes128 aes(m.key);
    aes.ctr_xor(m.nonce, 0, ByteSpan(sealed.data(), sealed.size()),
                sealed.data());
  }
  if (!verify_segment_id(id, ByteSpan(sealed.data(), sealed.size()))) {
    return Status(ErrorCode::kCorrupt,
                  "convergent_open: payload does not hash to segment id");
  }
  return sealed;
}

}  // namespace unidrive::crypto
