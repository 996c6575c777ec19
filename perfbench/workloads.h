// The benchmark's three workloads: cloud links, folder pre-population and
// the seeded per-round edits the writer device makes. Everything here is a
// pure function of (workload, seed, round), so the same seed always yields
// the same inputs; the program under test only ever sees the resulting
// local-folder changes. README.md explains why each workload exists.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace unidrive::perfbench {

inline constexpr std::size_t kClouds = 5;

struct LinkSpec {
  double latency_s = 0;       // per request
  double bytes_per_s = 0;     // both directions; 0 = unlimited
};

struct FileOp {
  enum class Kind { kWrite, kRemove, kCopy };
  Kind kind = Kind::kWrite;
  std::string path;
  Bytes data;          // kWrite: the content
  std::string source;  // kCopy: the file copied to `path`
};

struct RoundInput {
  std::vector<FileOp> ops;
};

struct WorkloadSpec {
  std::string name;
  std::array<LinkSpec, kClouds> links{};
  std::size_t theta = 4 << 20;  // ClientConfig::theta
  // Run collect_garbage() after every `gc_every` rounds (0 = never): the
  // workloads that drop old files keep cloud memory bounded this way. GC
  // runs between rounds and is not part of any timed window.
  std::size_t gc_every = 0;
};

// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

// Seeded input source for one workload. populate() must be called first; it
// returns the pre-populated folder as writes.
class InputGenerator {
 public:
  InputGenerator(std::string workload, std::uint64_t seed);

  [[nodiscard]] RoundInput populate();
  [[nodiscard]] RoundInput next_round();

 private:
  [[nodiscard]] RoundInput small_edits_round();
  [[nodiscard]] RoundInput bulk_sync_round();
  [[nodiscard]] RoundInput skewed_links_round();
  [[nodiscard]] std::size_t edit_size();

  std::string workload_;
  Rng rng_;
  std::size_t round_ = 0;
  std::vector<std::size_t> deck_;        // small_edits: file counts to deal
  std::vector<std::size_t> size_deck_;   // small_edits: size bins to deal
  std::vector<std::string> previous_;    // files the next round removes
  Bytes base_;                           // skewed_links: the edited file's base
};

// SHA-256 over a round's paths, kinds and content hashes: two
// generators agree on a round exactly when their digests match.
[[nodiscard]] std::string input_digest(const RoundInput& input);

}  // namespace unidrive::perfbench
