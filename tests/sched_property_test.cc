// Property tests: the scheduler invariants must hold for EVERY feasible
// (N, k, Ks, Kr) configuration, under randomized completion orders and
// injected failures — not just the paper's default point.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "test_seed.h"
#include "sched/download_scheduler.h"
#include "sched/plan.h"
#include "sched/upload_scheduler.h"

UNIDRIVE_REGISTER_SEED_LISTENER()

namespace unidrive::sched {
namespace {

using unidrive::testing::test_seed;

struct ParamCase {
  std::size_t n, k, ks, kr;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<ParamCase>& info) {
  const ParamCase& p = info.param;
  return "N" + std::to_string(p.n) + "k" + std::to_string(p.k) + "Ks" +
         std::to_string(p.ks) + "Kr" + std::to_string(p.kr) + "s" +
         std::to_string(p.seed);
}

CodeParams make_params(const ParamCase& c) {
  CodeParams p;
  p.num_clouds = c.n;
  p.k = c.k;
  p.ks = c.ks;
  p.kr = c.kr;
  return p;
}

std::vector<cloud::CloudId> cloud_ids(std::size_t n) {
  std::vector<cloud::CloudId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<cloud::CloudId>(i);
  return ids;
}

// Randomly drawn (N, k, Ks, Kr) combinations, filtered through
// CodeParams::validate() so only feasible points are instantiated. The
// fixed Values() sweeps below pin the paper's named configurations; this
// widens coverage to arbitrary feasible corners of the parameter space.
std::vector<ParamCase> random_cases(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ParamCase> cases;
  std::size_t attempts = 0;
  while (cases.size() < count && ++attempts < 10000) {
    ParamCase c;
    c.n = 2 + rng.next_below(7);   // N in [2, 8]
    c.k = 1 + rng.next_below(8);   // k in [1, 8]
    c.ks = 1 + rng.next_below(4);  // Ks in [1, 4]
    c.kr = 1 + rng.next_below(c.n);
    c.seed = 1000 + cases.size();  // unique -> unique test names
    if (make_params(c).validate().is_ok()) cases.push_back(c);
  }
  return cases;
}

class UploadSchedulerProperty : public ::testing::TestWithParam<ParamCase> {};

// Randomized execution: interleave task pulls and completions (some failing)
// until the scheduler declares itself finished; then check every invariant.
TEST_P(UploadSchedulerProperty, InvariantsHoldUnderRandomizedExecution) {
  const ParamCase c = GetParam();
  const CodeParams params = make_params(c);
  ASSERT_TRUE(params.validate().is_ok());

  std::vector<UploadFileSpec> files;
  Rng rng(test_seed(c.seed));
  const std::size_t num_files = 1 + rng.next_below(4);
  for (std::size_t f = 0; f < num_files; ++f) {
    UploadFileSpec spec;
    spec.path = "/f" + std::to_string(f);
    const std::size_t num_segments = 1 + rng.next_below(3);
    for (std::size_t s = 0; s < num_segments; ++s) {
      spec.segments.push_back(
          {"f" + std::to_string(f) + "s" + std::to_string(s),
           1000 + rng.next_below(100000)});
    }
    files.push_back(std::move(spec));
  }
  UploadScheduler scheduler(params, cloud_ids(c.n), files);

  std::vector<BlockTask> in_flight;
  std::size_t safety = 0;
  while (!scheduler.finished() && ++safety < 100000) {
    // Pull for a random cloud (may add to in-flight).
    const auto cloud = static_cast<cloud::CloudId>(rng.next_below(c.n));
    if (auto task = scheduler.next_task(cloud)) {
      in_flight.push_back(*task);
    }
    // Randomly complete an in-flight task; 15% fail.
    if (!in_flight.empty() &&
        (rng.bernoulli(0.7) || in_flight.size() > 3 * c.n)) {
      const std::size_t pick = rng.next_below(in_flight.size());
      const BlockTask task = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      scheduler.on_complete(task, !rng.bernoulli(0.15));
    }
  }
  // Drain whatever is left in flight.
  for (const BlockTask& task : in_flight) scheduler.on_complete(task, true);
  ASSERT_LT(safety, 100000u) << "scheduler livelocked";

  // Let the scheduler finish any work unblocked by the final completions.
  bool progress = true;
  while (progress && !scheduler.finished()) {
    progress = false;
    for (std::size_t i = 0; i < c.n; ++i) {
      if (auto task = scheduler.next_task(static_cast<cloud::CloudId>(i))) {
        scheduler.on_complete(*task, true);
        progress = true;
      }
    }
  }
  EXPECT_TRUE(scheduler.finished());
  EXPECT_TRUE(scheduler.all_available());
  EXPECT_TRUE(scheduler.all_reliable());

  for (const UploadFileSpec& spec : files) {
    for (const UploadSegmentSpec& seg : spec.segments) {
      const auto locations = scheduler.locations(seg.id);
      std::set<std::uint32_t> distinct;
      std::map<cloud::CloudId, std::size_t> per_cloud;
      for (const auto& loc : locations) {
        distinct.insert(loc.block_index);
        ++per_cloud[loc.cloud];
        // Block indices stay inside the code.
        EXPECT_LT(loc.block_index, params.code_n()) << seg.id;
      }
      // Availability: at least k distinct blocks.
      EXPECT_GE(distinct.size(), params.k) << seg.id;
      // Security: never more than the cap on any single cloud.
      for (const auto& [cloud_id, count] : per_cloud) {
        EXPECT_LE(count, params.max_per_cloud())
            << seg.id << " cloud " << cloud_id;
      }
      // Reliability: every cloud holds at least its fair share.
      for (const cloud::CloudId cloud_id : cloud_ids(c.n)) {
        EXPECT_GE(per_cloud[cloud_id], params.fair_share())
            << seg.id << " cloud " << cloud_id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UploadSchedulerProperty,
    ::testing::Values(
        ParamCase{5, 3, 2, 3, 1},   // paper defaults
        ParamCase{5, 3, 2, 3, 2},   // same point, different schedule
        ParamCase{5, 3, 1, 3, 3},   // no security requirement
        ParamCase{5, 2, 2, 2, 4},   // higher redundancy
        ParamCase{3, 2, 1, 2, 5},   // the paper's storage example
        ParamCase{4, 3, 2, 3, 6},
        ParamCase{7, 4, 2, 4, 7},
        ParamCase{6, 6, 2, 3, 8},   // many blocks per segment
        ParamCase{9, 5, 3, 4, 9}),
    case_name);

// The same invariants (availability floor, security cap, fair-share
// reliability) over 24 randomly sampled feasible parameter points.
INSTANTIATE_TEST_SUITE_P(RandomSweep, UploadSchedulerProperty,
                         ::testing::ValuesIn(random_cases(24, 0xA11C0DE)),
                         case_name);

class DownloadSchedulerProperty : public ::testing::TestWithParam<ParamCase> {
};

TEST_P(DownloadSchedulerProperty, FetchesKDistinctUnderChaos) {
  const ParamCase c = GetParam();
  const CodeParams params = make_params(c);
  ASSERT_TRUE(params.validate().is_ok());
  Rng rng(test_seed(c.seed * 77 + 5));

  // Build download specs equivalent to a reliable upload (fair share on
  // every cloud, plus random surplus).
  std::vector<DownloadFileSpec> files;
  const std::size_t num_files = 1 + rng.next_below(3);
  for (std::size_t f = 0; f < num_files; ++f) {
    DownloadFileSpec spec;
    spec.path = "/f" + std::to_string(f);
    DownloadSegmentSpec seg;
    seg.id = "f" + std::to_string(f) + "seg";
    seg.size = 1000 + rng.next_below(50000);
    std::uint32_t index = 0;
    for (std::size_t cloud = 0; cloud < c.n; ++cloud) {
      for (std::size_t b = 0; b < params.fair_share(); ++b) {
        seg.locations.push_back(
            {index++, static_cast<cloud::CloudId>(cloud)});
      }
      if (rng.bernoulli(0.4) &&
          params.fair_share() + 1 <= params.max_per_cloud()) {
        seg.locations.push_back(
            {index++, static_cast<cloud::CloudId>(cloud)});  // surplus
      }
    }
    spec.segments.push_back(std::move(seg));
    files.push_back(std::move(spec));
  }
  DownloadScheduler scheduler(params.k, files);

  std::vector<BlockTask> in_flight;
  std::size_t safety = 0;
  while (!scheduler.finished() && ++safety < 100000) {
    const auto cloud = static_cast<cloud::CloudId>(rng.next_below(c.n));
    if (auto task = scheduler.next_task(cloud, 0.0)) {
      in_flight.push_back(*task);
    }
    if (!in_flight.empty() && rng.bernoulli(0.8)) {
      const std::size_t pick = rng.next_below(in_flight.size());
      const BlockTask task = in_flight[pick];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      scheduler.on_complete(task, !rng.bernoulli(0.2));
    }
  }
  for (const BlockTask& task : in_flight) scheduler.on_complete(task, true);
  ASSERT_LT(safety, 100000u) << "scheduler livelocked";

  bool progress = true;
  while (progress && !scheduler.all_complete()) {
    progress = false;
    for (std::size_t i = 0; i < c.n; ++i) {
      if (auto task =
              scheduler.next_task(static_cast<cloud::CloudId>(i), 0.0)) {
        scheduler.on_complete(*task, true);
        progress = true;
      }
    }
  }
  EXPECT_TRUE(scheduler.all_complete());
  for (const DownloadFileSpec& spec : files) {
    for (const auto& seg : spec.segments) {
      const auto blocks = scheduler.fetched_blocks(seg.id);
      std::set<std::uint32_t> distinct(blocks.begin(), blocks.end());
      EXPECT_GE(distinct.size(), params.k) << seg.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DownloadSchedulerProperty,
    ::testing::Values(ParamCase{5, 3, 2, 3, 1}, ParamCase{5, 3, 2, 3, 2},
                      ParamCase{3, 2, 1, 2, 3}, ParamCase{7, 4, 2, 4, 4},
                      ParamCase{6, 6, 2, 3, 5}, ParamCase{9, 5, 3, 4, 6}),
    case_name);

INSTANTIATE_TEST_SUITE_P(RandomSweep, DownloadSchedulerProperty,
                         ::testing::ValuesIn(random_cases(12, 0xD00DC0DE)),
                         case_name);

}  // namespace
}  // namespace unidrive::sched
