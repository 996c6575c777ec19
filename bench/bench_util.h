// Shared helpers for the figure/table reproduction benches: summary
// statistics, table printing, and one-shot transfer measurements for every
// approach (UniDrive, the multi-cloud benchmark, the intuitive multi-cloud,
// and the native per-cloud apps), all in virtual time; plus the one
// /proc/self/status reader the memory-gated benches share.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "baselines/e2e_baselines.h"
#include "baselines/intuitive.h"
#include "baselines/native_app.h"
#include "sched/plan.h"
#include "sim/e2e.h"
#include "sim/profiles.h"
#include "sim/transfer_run.h"
#include "workload/trial.h"

namespace unidrive::bench {

// --- statistics ---------------------------------------------------------------

class Summary {
 public:
  void add(double v) {
    if (v < 0) return;  // failed measurements are skipped, like the paper
    sum_ += v;
    sq_ += v * v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++n_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double avg() const noexcept { return n_ ? sum_ / n_ : -1; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : -1; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : -1; }
  [[nodiscard]] double variance() const noexcept {
    if (n_ < 2) return 0;
    const double mean = avg();
    return sq_ / n_ - mean * mean;
  }

 private:
  double sum_ = 0;
  double sq_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0;
  std::size_t n_ = 0;
};

// Pearson correlation of two equal-length series.
double correlation(const std::vector<double>& a, const std::vector<double>& b);

// --- formatting ---------------------------------------------------------------

void print_rule(int width = 96);
// Formats a non-negative quantity; negative means "measurement failed".
std::string fmt(double v, int decimals = 1);
// Formats any value (correlations etc. may legitimately be negative).
std::string fmt_signed(double v, int decimals = 2);

// --- single-transfer measurements (virtual time) -------------------------------
//
// Every function measures one operation starting at the environment's
// current virtual time and returns the duration in seconds (negative on
// failure). `theta` is the segment size (paper: 4 MB).

struct UpDown {
  double up = -1;
  double down = -1;
};

struct UniDriveRunOptions {
  sched::CodeParams code;                // paper defaults
  sched::UploadOptions upload{};         // both true = UniDrive
  bool dynamic_polling = true;
  std::uint64_t theta = 4 << 20;
  std::size_t connections_per_cloud = 5;
};

// Uploads `bytes` then downloads it again (download uses the block layout
// the upload actually produced, including over-provisioned blocks).
UpDown unidrive_updown(sim::SimEnv& env, sim::CloudSet& set,
                       std::uint64_t bytes, const UniDriveRunOptions& options);

inline UniDriveRunOptions benchmark_options() {
  UniDriveRunOptions options;
  options.upload.overprovision = false;
  options.upload.availability_first = false;
  options.dynamic_polling = false;
  return options;
}

UpDown native_updown(sim::SimEnv& env, sim::CloudSet& set,
                     std::size_t cloud_index, std::uint64_t bytes);

UpDown intuitive_updown(sim::SimEnv& env, sim::CloudSet& set,
                        std::uint64_t bytes);

// Fastest native cloud at this location for the given direction, by the
// static profile (used for "best CCS at each location" speedups).
std::size_t fastest_native_cloud(const sim::LocationProfile& location);

// --- trial replay (Figures 15/16) ----------------------------------------
//
// Replays one trial upload event as a UniDrive upload at its originating
// site, in a fresh virtual-time environment seeded with `seed` and advanced
// to the event's timestamp. Returns the achieved upload throughput in Mbps,
// or a negative value if the transfer failed.
double replay_trial_upload(const workload::Trial& trial,
                           std::size_t event_index, std::uint64_t seed,
                           const UniDriveRunOptions& options = {});

// Raw Web-API request measurement (the Section 3.2 measurement client):
// one upload or download of `bytes` to one cloud, starting now. Returns the
// duration, or a negative value if the request failed.
double measure_raw(sim::SimEnv& env, sim::SimCloud& cloud,
                   std::uint64_t bytes, bool download);

// Advance virtual time to `t` (processing any due events).
void advance_to(sim::SimEnv& env, double t);

// --- process memory --------------------------------------------------------------

// The value of a "<field>: <n> kB" line of /proc/self/status ("VmHWM",
// "VmRSS", ...) in KiB, or -1 when the file or the field cannot be read.
std::int64_t proc_status_kib(const char* field);

}  // namespace unidrive::bench
