#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"

namespace unidrive::perfbench {

namespace {

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * 1024;

// small_edits: 8 top-level directories of 8 files each; every round rewrites
// 1-4 files of one directory. The per-round file count is dealt from a
// shuffled deck so every 5 rounds hold exactly {1, 2, 2, 3, 4} files: the
// median round is a 2-file round on every seed, so commit_p50_s does not
// jump between 2- and 3-file commits with the seed.
constexpr std::size_t kEditDirs = 8;
constexpr std::size_t kFilesPerDir = 8;
constexpr std::size_t kEditMin = 4 * kKiB;
constexpr std::size_t kEditMax = 64 * kKiB;
constexpr std::array<std::size_t, 5> kEditDeck = {1, 2, 2, 3, 4};
// File sizes are dealt the same way: every 8 files take one size from each
// of 8 equal bins of [kEditMin, kEditMax], so byte totals (and the traffic
// and storage ratios) barely depend on the seed.
constexpr std::size_t kSizeBins = 8;
// The serial control plane sets the commit time: ~200 sequential requests
// per commit. At the paper-scale 40 ms a commit takes ~8.5 s and a run of
// tens of seconds holds two rounds, too few for a median and a tail, so the
// benchmark uses a shorter LAN-class latency; serial round trips still
// dominate (see README.md).
constexpr double kEditLatency = 0.004;

// bulk_sync: fresh incompressible files at theta each round; the previous
// round's files are removed (and collected) so cloud memory stays bounded.
constexpr std::size_t kBulkFiles = 4;
constexpr std::size_t kBulkFileSize = 4 * kMiB;
constexpr std::size_t kBulkWarmFiles = 4;

// skewed_links: a file of four segments edited in the middle every round,
// copy sources for the dedup hit, and one new file. Every round's version of
// the edited file is the base file with a fresh insert near its middle, so
// the file does not grow round over round and each edit rewrites the same
// segment. The data is a quarter of the paper-scale sizes (theta = 1 MiB, a
// 4 MiB file) so that a run holds enough rounds for a tail percentile.
constexpr std::size_t kSkewTheta = 1 * kMiB;
constexpr std::size_t kBigFileSize = 4 * kSkewTheta;
constexpr std::uint64_t kBigFileSeed = 0x5eed;
constexpr const char* kBigFilePath = "/big/base.bin";
constexpr std::size_t kLibFiles = 4;
constexpr std::size_t kLibFileSize = 128 * kKiB;
constexpr std::size_t kSkewNewFiles = 1;
constexpr std::size_t kSkewNewFileSize = 256 * kKiB;
constexpr std::size_t kInsertMin = 1 * kKiB;
constexpr std::size_t kInsertMax = 8 * kKiB;
constexpr std::size_t kInsertJitter = 16 * kKiB;

FileOp write_op(std::string path, Bytes data) {
  FileOp op;
  op.kind = FileOp::Kind::kWrite;
  op.path = std::move(path);
  op.data = std::move(data);
  return op;
}

FileOp remove_op(std::string path) {
  FileOp op;
  op.kind = FileOp::Kind::kRemove;
  op.path = std::move(path);
  return op;
}

std::size_t uniform_size(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

std::string edit_path(std::size_t dir, std::size_t file) {
  return "/d" + std::to_string(dir) + "/f" + std::to_string(file) + ".bin";
}

std::uint64_t mix_seed(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the name
  for (const char c : workload) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "small_edits") {
    for (LinkSpec& link : spec.links) link.latency_s = kEditLatency;
  } else if (name == "bulk_sync") {
    spec.gc_every = 1;
  } else if (name == "skewed_links") {
    // The paper's heterogeneous clouds (16x spread in link speed), each link
    // at four times the rate and a quarter of the latency, for the same
    // reason as the data sizes above.
    const std::array<double, kClouds> latency = {0.0005, 0.001, 0.0015,
                                                 0.002, 0.0025};
    const std::array<double, kClouds> mbps = {128, 64, 32, 16, 8};
    for (std::size_t i = 0; i < kClouds; ++i) {
      spec.links[i].latency_s = latency[i];
      spec.links[i].bytes_per_s = mbps[i] * 1e6;
    }
    spec.theta = kSkewTheta;
    spec.gc_every = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return spec;
}

InputGenerator::InputGenerator(std::string workload, std::uint64_t seed)
    : workload_(std::move(workload)), rng_(mix_seed(workload_, seed)) {
  (void)workload_spec(workload_);  // validates the name
}

RoundInput InputGenerator::populate() {
  RoundInput in;
  if (workload_ == "small_edits") {
    for (std::size_t d = 0; d < kEditDirs; ++d) {
      for (std::size_t f = 0; f < kFilesPerDir; ++f) {
        in.ops.push_back(write_op(edit_path(d, f), rng_.bytes(edit_size())));
      }
    }
  } else if (workload_ == "bulk_sync") {
    for (std::size_t i = 0; i < kBulkWarmFiles; ++i) {
      in.ops.push_back(write_op("/warm/w" + std::to_string(i) + ".bin",
                                rng_.bytes(kBulkFileSize)));
    }
  } else {
    // The base file is the same on every seed: its CDC segment layout
    // decides how many segments an insert rewrites, and that should not
    // change with the seed.
    Rng fixed(kBigFileSeed);
    base_ = fixed.bytes(kBigFileSize);
    in.ops.push_back(write_op(kBigFilePath, base_));
    for (std::size_t i = 0; i < kLibFiles; ++i) {
      in.ops.push_back(write_op("/lib/l" + std::to_string(i) + ".bin",
                                rng_.bytes(kLibFileSize)));
    }
  }
  return in;
}

RoundInput InputGenerator::next_round() {
  RoundInput in;
  if (workload_ == "small_edits") {
    in = small_edits_round();
  } else if (workload_ == "bulk_sync") {
    in = bulk_sync_round();
  } else {
    in = skewed_links_round();
  }
  ++round_;
  return in;
}

RoundInput InputGenerator::small_edits_round() {
  if (deck_.empty()) {
    deck_.assign(kEditDeck.begin(), kEditDeck.end());
    shuffle(deck_, rng_);
  }
  const std::size_t count = deck_.back();
  deck_.pop_back();
  const std::size_t dir = round_ % kEditDirs;
  std::array<std::size_t, kFilesPerDir> files{};
  for (std::size_t i = 0; i < kFilesPerDir; ++i) files[i] = i;
  RoundInput in;
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(files[i], files[i + rng_.next_below(kFilesPerDir - i)]);
    in.ops.push_back(write_op(edit_path(dir, files[i]), rng_.bytes(edit_size())));
  }
  return in;
}

std::size_t InputGenerator::edit_size() {
  if (size_deck_.empty()) {
    for (std::size_t b = 0; b < kSizeBins; ++b) size_deck_.push_back(b);
    shuffle(size_deck_, rng_);
  }
  const std::size_t width = (kEditMax - kEditMin) / kSizeBins;
  const std::size_t lo = kEditMin + size_deck_.back() * width;
  size_deck_.pop_back();
  return uniform_size(rng_, lo, lo + width);
}

RoundInput InputGenerator::bulk_sync_round() {
  RoundInput in;
  for (std::string& old : previous_) in.ops.push_back(remove_op(std::move(old)));
  previous_.clear();
  for (std::size_t i = 0; i < kBulkFiles; ++i) {
    std::string path = "/bulk/r" + std::to_string(round_) + "_f" +
                       std::to_string(i) + ".bin";
    previous_.push_back(path);
    in.ops.push_back(write_op(std::move(path), rng_.bytes(kBulkFileSize)));
  }
  return in;
}

RoundInput InputGenerator::skewed_links_round() {
  RoundInput in;
  for (std::string& old : previous_) in.ops.push_back(remove_op(std::move(old)));
  previous_.clear();
  for (std::size_t i = 0; i < kSkewNewFiles; ++i) {
    std::string path = "/new/r" + std::to_string(round_) + "_f" +
                       std::to_string(i) + ".bin";
    previous_.push_back(path);
    in.ops.push_back(write_op(std::move(path), rng_.bytes(kSkewNewFileSize)));
  }

  const std::size_t offset = kBigFileSize / 2 - kInsertJitter +
                             static_cast<std::size_t>(
                                 rng_.next_below(2 * kInsertJitter));
  const Bytes insert = rng_.bytes(uniform_size(rng_, kInsertMin, kInsertMax));
  Bytes edited = base_;
  edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(offset),
                insert.begin(), insert.end());
  in.ops.push_back(write_op(kBigFilePath, std::move(edited)));

  FileOp copy;
  copy.kind = FileOp::Kind::kCopy;
  copy.source = "/lib/l" + std::to_string(rng_.next_below(kLibFiles)) + ".bin";
  copy.path = "/copy/r" + std::to_string(round_) + ".bin";
  previous_.push_back(copy.path);
  in.ops.push_back(std::move(copy));
  return in;
}

std::string input_digest(const RoundInput& input) {
  crypto::Sha256 h;
  const auto feed = [&](const std::string& s) {
    h.update(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size() + 1));  // include the terminator as separator
  };
  for (const FileOp& op : input.ops) {
    feed(std::to_string(static_cast<int>(op.kind)));
    feed(op.path);
    feed(op.source);
    feed(crypto::Sha256::hex(ByteSpan(op.data)));
  }
  return to_hex(ByteSpan(h.finish()));
}

}  // namespace unidrive::perfbench
