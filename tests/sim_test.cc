#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>

#include "sim/bandwidth.h"
#include "sim/e2e.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/fluid.h"
#include "sim/profiles.h"
#include "sim/transfer_run.h"

namespace unidrive::sim {
namespace {

// --- event queue ---------------------------------------------------------------

TEST(SimEnvTest, EventsRunInTimeOrder) {
  SimEnv env;
  std::vector<int> order;
  env.schedule(3.0, [&] { order.push_back(3); });
  env.schedule(1.0, [&] { order.push_back(1); });
  env.schedule(2.0, [&] { order.push_back(2); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(env.now(), 3.0);
}

TEST(SimEnvTest, SimultaneousEventsFifo) {
  SimEnv env;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    env.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  env.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimEnvTest, NestedScheduling) {
  SimEnv env;
  double fired_at = -1;
  env.schedule(1.0, [&] {
    env.schedule(2.0, [&] { fired_at = env.now(); });
  });
  env.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(SimEnvTest, RunUntilStopsAtBoundary) {
  SimEnv env;
  int count = 0;
  env.schedule(1.0, [&] { ++count; });
  env.schedule(5.0, [&] { ++count; });
  env.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(env.now(), 2.0);
  env.run();
  EXPECT_EQ(count, 2);
}

TEST(SimEnvTest, ZeroDelayFromCallbackRunsAfterQueuedPeers) {
  // An event that schedules a zero-delay follow-up at its own timestamp
  // yields to events already queued for that instant (FIFO by sequence),
  // then runs at the SAME virtual time — no clock creep.
  SimEnv env;
  std::vector<int> order;
  env.schedule(1.0, [&] {
    order.push_back(1);
    env.schedule(0.0, [&] {
      order.push_back(3);
      EXPECT_DOUBLE_EQ(env.now(), 1.0);
    });
  });
  env.schedule(1.0, [&] { order.push_back(2); });
  env.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(env.now(), 1.0);
}

TEST(SimEnvTest, FarFutureEventSurvivesRunUntil) {
  SimEnv env;
  bool fired = false;
  env.schedule_at(1e15, [&] { fired = true; });  // ~30M virtual years out
  env.run_until(100.0);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(env.now(), 100.0);
  EXPECT_EQ(env.pending(), 1u);
  env.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(env.now(), 1e15);
}

TEST(SimEnvTest, StepExecutesExactlyOneEvent) {
  SimEnv env;
  int count = 0;
  env.schedule(1.0, [&] { ++count; });
  env.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(env.step());
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(env.now(), 1.0);
  EXPECT_TRUE(env.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(env.step());  // queue drained
  EXPECT_TRUE(env.empty());
}

TEST(SimEnvTest, InterleavedSameTimestampCascades) {
  // Two chains ping-ponging zero-delay events at one instant interleave in
  // strict scheduling order — the seq tiebreak is global, not per-chain.
  SimEnv env;
  std::vector<std::string> order;
  std::function<void(char, int)> chain = [&](char name, int depth) {
    order.push_back(std::string(1, name) + std::to_string(depth));
    if (depth < 2) {
      env.schedule(0.0, [&chain, name, depth] { chain(name, depth + 1); });
    }
  };
  env.schedule(1.0, [&] { chain('a', 0); });
  env.schedule(1.0, [&] { chain('b', 0); });
  env.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2",
                                             "b2"}));
}

// --- bandwidth models -------------------------------------------------------------

TEST(BandwidthTest, ConstantIsConstant) {
  auto bw = constant_bw(1e6);
  EXPECT_DOUBLE_EQ(bw->at(0), 1e6);
  EXPECT_DOUBLE_EQ(bw->at(12345.6), 1e6);
}

TEST(BandwidthTest, FluctuatingStaysPositiveAndBounded) {
  FluctuationParams params;
  auto bw = fluctuating_bw(1e6, params, 42);
  for (double t = 0; t < 7 * 86400; t += 613) {
    const double v = bw->at(t);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1e6 * 100);  // lognormal tail sanity bound
  }
}

TEST(BandwidthTest, FluctuationProducesLargeDailySwings) {
  // The measurement study saw up to 17x max/min within a day.
  FluctuationParams params;
  params.noise_sigma = 0.7;
  auto bw = fluctuating_bw(1e6, params, 7);
  double max_ratio = 0;
  for (int day = 0; day < 20; ++day) {
    double lo = 1e18, hi = 0;
    for (int s = 0; s < 48; ++s) {
      const double v = bw->at(day * 86400.0 + s * 1800.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    max_ratio = std::max(max_ratio, hi / lo);
  }
  EXPECT_GT(max_ratio, 8.0);
  EXPECT_LT(max_ratio, 400.0);
}

TEST(BandwidthTest, DifferentSeedsDecorrelated) {
  FluctuationParams params;
  auto a = fluctuating_bw(1e6, params, 1);
  auto b = fluctuating_bw(1e6, params, 2);
  // Pearson correlation of log-rates over many slots should be ~0.
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double t = i * 600.0;
    const double x = std::log(a->at(t));
    const double y = std::log(b->at(t));
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double var_a = saa / n - (sa / n) * (sa / n);
  const double var_b = sbb / n - (sb / n) * (sb / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(corr), 0.2);
}

TEST(BandwidthTest, ScaledBw) {
  auto bw = scaled_bw(constant_bw(100), 0.5);
  EXPECT_DOUBLE_EQ(bw->at(10), 50);
}

// --- failure model -------------------------------------------------------------

TEST(FailureModelTest, BaseAndSizeTerms) {
  FailureParams params;
  params.base_rate = 0.01;
  params.per_mb_rate = 0.01;
  params.trouble_probability = 0;  // isolate the deterministic part
  FailureModel model(5, params, 1);
  EXPECT_NEAR(model.failure_prob(0, 0, 0), 0.01, 1e-12);
  EXPECT_NEAR(model.failure_prob(0, 0, 8 << 20), 0.09, 1e-12);
}

TEST(FailureModelTest, PerCloudOverride) {
  FailureParams params;
  params.base_rate = 0.01;
  params.trouble_probability = 0;
  FailureModel model(5, params, 1);
  model.set_base_rate(2, 0.2);
  EXPECT_NEAR(model.failure_prob(2, 0, 0), 0.2, 1e-12);
  EXPECT_NEAR(model.failure_prob(1, 0, 0), 0.01, 1e-12);
}

TEST(FailureModelTest, AtMostOneTroubledCloud) {
  FailureParams params;
  FailureModel model(5, params, 99);
  for (double t = 0; t < 30 * 86400; t += params.trouble_slot_seconds) {
    const int troubled = model.troubled_cloud(t);
    EXPECT_GE(troubled, -1);
    EXPECT_LT(troubled, 5);
  }
}

TEST(FailureModelTest, FailureIndicatorsNegativelyCorrelated) {
  // Reproduces the Table 1 effect: indicators of "elevated failure rate"
  // across clouds must anti-correlate because trouble is exclusive.
  FailureParams params;
  params.trouble_probability = 0.6;
  FailureModel model(3, params, 5);
  const int n = 4000;
  std::vector<std::vector<double>> x(3, std::vector<double>(n));
  for (int i = 0; i < n; ++i) {
    const double t = i * params.trouble_slot_seconds;
    for (int c = 0; c < 3; ++c) {
      x[c][i] = model.failure_prob(c, t, 0) > 0.2 ? 1.0 : 0.0;
    }
  }
  auto corr = [&](int a, int b) {
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (int i = 0; i < n; ++i) {
      sa += x[a][i];
      sb += x[b][i];
      saa += x[a][i] * x[a][i];
      sbb += x[b][i] * x[b][i];
      sab += x[a][i] * x[b][i];
    }
    const double cov = sab / n - (sa / n) * (sb / n);
    const double va = saa / n - (sa / n) * (sa / n);
    const double vb = sbb / n - (sb / n) * (sb / n);
    return cov / std::sqrt(va * vb);
  };
  EXPECT_LT(corr(0, 1), -0.05);
  EXPECT_LT(corr(0, 2), -0.05);
  EXPECT_LT(corr(1, 2), -0.05);
}

// --- fluid network -------------------------------------------------------------

TEST(FluidNetTest, SingleTransferTakesBytesOverBandwidth) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(1000));
  double done_at = -1;
  net.start_transfer({0, false}, 5000, [&](SimTime t) { done_at = t; });
  env.run();
  EXPECT_NEAR(done_at, 5.0, 0.01);
}

TEST(FluidNetTest, TwoTransfersShareBandwidth) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(1000));
  double t1 = -1, t2 = -1;
  net.start_transfer({0, false}, 1000, [&](SimTime t) { t1 = t; });
  net.start_transfer({0, false}, 1000, [&](SimTime t) { t2 = t; });
  env.run();
  // Both share 500 B/s until both finish at ~2 s.
  EXPECT_NEAR(t1, 2.0, 0.05);
  EXPECT_NEAR(t2, 2.0, 0.05);
}

TEST(FluidNetTest, ShortTransferReleasesBandwidth) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(1000));
  double t_small = -1, t_big = -1;
  net.start_transfer({0, false}, 500, [&](SimTime t) { t_small = t; });
  net.start_transfer({0, false}, 2000, [&](SimTime t) { t_big = t; });
  env.run();
  // Small: shares 500 B/s -> done at 1 s. Big: 500 B in first second, then
  // full 1000 B/s -> done at 1 + 1.5 = 2.5 s.
  EXPECT_NEAR(t_small, 1.0, 0.05);
  EXPECT_NEAR(t_big, 2.5, 0.1);
}

TEST(FluidNetTest, LinksAreIndependent) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(1000));
  net.set_link({1, false}, constant_bw(2000));
  double t0 = -1, t1 = -1;
  net.start_transfer({0, false}, 1000, [&](SimTime t) { t0 = t; });
  net.start_transfer({1, false}, 1000, [&](SimTime t) { t1 = t; });
  env.run();
  EXPECT_NEAR(t0, 1.0, 0.01);
  EXPECT_NEAR(t1, 0.5, 0.01);
}

TEST(FluidNetTest, PerConnectionCapLimitsRate) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(10000), /*per_connection_cap=*/1000);
  double done_at = -1;
  net.start_transfer({0, false}, 2000, [&](SimTime t) { done_at = t; });
  env.run();
  EXPECT_NEAR(done_at, 2.0, 0.01);  // capped at 1000 B/s despite 10k link
}

TEST(FluidNetTest, ZeroByteTransferCompletesImmediately) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(1000));
  double done_at = -1;
  net.start_transfer({0, false}, 0, [&](SimTime t) { done_at = t; });
  env.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(FluidNetTest, TimeVaryingBandwidthIntegrated) {
  // Bandwidth doubles halfway: completion must land between the constant
  // bounds.
  struct StepBw final : BandwidthModel {
    [[nodiscard]] double at(SimTime t) const override {
      return t < 10 ? 100.0 : 200.0;
    }
  };
  SimEnv env;
  FluidNet net(env, /*quantum=*/0.5);
  net.set_link({0, false}, std::make_shared<StepBw>());
  double done_at = -1;
  net.start_transfer({0, false}, 2000, [&](SimTime t) { done_at = t; });
  env.run();
  // 1000 bytes in the first 10 s, remaining 1000 at 200 B/s -> ~15 s.
  EXPECT_NEAR(done_at, 15.0, 1.0);
}

TEST(BandwidthTest, TraceInterpolatesAndClamps) {
  auto bw = trace_bw({{0, 100}, {10, 200}, {20, 100}});
  EXPECT_DOUBLE_EQ(bw->at(-5), 100);   // clamp before
  EXPECT_DOUBLE_EQ(bw->at(0), 100);
  EXPECT_DOUBLE_EQ(bw->at(5), 150);    // interpolation
  EXPECT_DOUBLE_EQ(bw->at(10), 200);
  EXPECT_DOUBLE_EQ(bw->at(15), 150);
  EXPECT_DOUBLE_EQ(bw->at(99), 100);   // clamp after
}

TEST(BandwidthTest, TraceFromCsv) {
  auto parsed = trace_bw_from_csv(
      "# time,rate\n0,1000\n60, 2000\n\n120,500\n");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_DOUBLE_EQ(parsed.value()->at(30), 1500);
}

TEST(BandwidthTest, TraceCsvRejectsBadInput) {
  EXPECT_FALSE(trace_bw_from_csv("").is_ok());
  EXPECT_FALSE(trace_bw_from_csv("garbage line").is_ok());
  EXPECT_FALSE(trace_bw_from_csv("0,100\n10,-5\n").is_ok());
  EXPECT_FALSE(trace_bw_from_csv("10,100\n0,100\n").is_ok());  // unsorted
}

// --- shared access link --------------------------------------------------------

TEST(FluidNetTest, AccessCapacitySharedAcrossLinks) {
  // Two fat links, but the device's downlink is 1000 B/s: total download
  // rate must respect the shared cap (max-min fair).
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, true}, constant_bw(100000));
  net.set_link({1, true}, constant_bw(100000));
  net.set_access_capacity(/*download=*/true, 1000);
  double t0 = -1, t1 = -1;
  net.start_transfer({0, true}, 1000, [&](SimTime t) { t0 = t; });
  net.start_transfer({1, true}, 1000, [&](SimTime t) { t1 = t; });
  env.run();
  // 2000 bytes over a 1000 B/s shared access link: ~2 s, not ~0.02 s.
  EXPECT_NEAR(t0, 2.0, 0.1);
  EXPECT_NEAR(t1, 2.0, 0.1);
}

TEST(FluidNetTest, AccessCapacityDoesNotLimitOtherDirection) {
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, false}, constant_bw(10000));
  net.set_access_capacity(/*download=*/true, 100);  // download-only cap
  double done = -1;
  net.start_transfer({0, false}, 10000, [&](SimTime t) { done = t; });
  env.run();
  EXPECT_NEAR(done, 1.0, 0.05);  // uploads unaffected
}

TEST(FluidNetTest, MaxMinRedistributesFromSlowLinks) {
  // Link 0 is a trickle (100 B/s), link 1 is fat; access cap 1000. The fat
  // link must get the leftover capacity (900), not cap/2.
  SimEnv env;
  FluidNet net(env);
  net.set_link({0, true}, constant_bw(100));
  net.set_link({1, true}, constant_bw(100000));
  net.set_access_capacity(true, 1000);
  double slow = -1, fast = -1;
  net.start_transfer({0, true}, 100, [&](SimTime t) { slow = t; });
  net.start_transfer({1, true}, 900, [&](SimTime t) { fast = t; });
  env.run();
  EXPECT_NEAR(slow, 1.0, 0.05);
  EXPECT_NEAR(fast, 1.0, 0.1);  // got ~900 B/s, not 500
}

// --- download hedging --------------------------------------------------------

TEST(TransferRunTest, HedgingRescuesStragglerDownloads) {
  // One block of each segment sits on a dead-slow cloud; the fast clouds
  // hold surplus blocks. With dynamic scheduling the job must finish near
  // fast-cloud speed; with static polling it is pinned on the slow cloud.
  auto run_once = [](bool dynamic) {
    SimEnv env(77);
    FluidNet net(env);
    std::vector<std::unique_ptr<SimCloud>> clouds;
    const double rates[3] = {1e6, 8e5, 1e3};  // cloud 2 is a crawler
    for (std::uint32_t id = 0; id < 3; ++id) {
      SimCloudConfig config;
      config.id = id;
      config.name = "c" + std::to_string(id);
      config.up = constant_bw(rates[id]);
      config.down = constant_bw(rates[id]);
      config.request_latency = 0.01;
      clouds.push_back(std::make_unique<SimCloud>(env, net, config));
    }
    std::vector<SimCloud*> ptrs;
    for (auto& c : clouds) ptrs.push_back(c.get());

    sched::DownloadFileSpec file;
    file.path = "/f";
    sched::DownloadSegmentSpec seg;
    seg.id = "s";
    seg.size = 3e5;  // k=3 -> 100 KB blocks
    // Blocks 0,1 on fast clouds, 2 on the crawler; surplus 3,4 on fast.
    seg.locations = {{0, 0}, {1, 1}, {2, 2}, {3, 0}, {4, 1}};
    file.segments.push_back(seg);
    sched::DownloadScheduler scheduler(3, {file});
    sched::ThroughputMonitor monitor;
    RunConfig config;
    config.dynamic_polling = dynamic;
    const auto result =
        run_download_job(env, ptrs, scheduler, monitor, config);
    EXPECT_TRUE(result.all_complete);
    return result.finish_time - result.start_time;
  };
  const double with_hedge = run_once(true);
  const double without_hedge = run_once(false);
  EXPECT_LT(with_hedge, 5.0);     // ~100 KB blocks at ~1 MB/s
  EXPECT_GT(without_hedge, 50.0);           // pinned on the 1 KB/s crawler
}

TEST(TransferRunTest, HedgeTimerRescuesBlockStalledOnMeasuredCloud) {
  // Every cloud is on record at 0.2 s per 100 KB block, but cloud 2 has
  // since slowed to a crawl. The fast clouds land their blocks before the
  // crawler's block turns overdue, and then nothing completes: only the
  // runner's hedge timer, armed at the crawler's p95, can move the job on.
  SimEnv env(78);
  FluidNet net(env);
  std::vector<std::unique_ptr<SimCloud>> clouds;
  const double rates[3] = {1e6, 8e5, 1e3};
  sched::ThroughputMonitor monitor;
  for (std::uint32_t id = 0; id < 3; ++id) {
    SimCloudConfig config;
    config.id = id;
    config.name = "c" + std::to_string(id);
    config.up = constant_bw(rates[id]);
    config.down = constant_bw(rates[id]);
    config.request_latency = 0.01;
    clouds.push_back(std::make_unique<SimCloud>(env, net, config));
    monitor.record(id, sched::Direction::kDownload, 1e5, 0.2);
  }
  std::vector<SimCloud*> ptrs;
  for (auto& c : clouds) ptrs.push_back(c.get());

  sched::DownloadFileSpec file;
  file.path = "/f";
  sched::DownloadSegmentSpec seg;
  seg.id = "s";
  seg.size = 3e5;  // k=3 -> 100 KB blocks
  seg.locations = {{0, 0}, {1, 1}, {2, 2}, {3, 0}};
  file.segments.push_back(seg);
  sched::DownloadScheduler scheduler(3, {file});
  RunConfig config;
  config.dynamic_polling = true;
  const auto result = run_download_job(env, ptrs, scheduler, monitor, config);
  EXPECT_TRUE(result.all_complete);
  // Overdue at 0.2 s, then one 100 KB block at ~1 MB/s.
  EXPECT_LT(result.finish_time - result.start_time, 0.5);
}

// --- SimCloud -------------------------------------------------------------

TEST(SimCloudTest, UploadCompletesAndCounts) {
  SimEnv env;
  FluidNet net(env);
  SimCloudConfig config;
  config.id = 0;
  config.name = "c";
  config.up = constant_bw(1000);
  config.down = constant_bw(1000);
  config.request_latency = 0.5;
  SimCloud cloud(env, net, config);

  bool ok = false;
  double done_at = -1;
  cloud.upload(1000, [&](bool success) {
    ok = success;
    done_at = env.now();
  });
  env.run();
  EXPECT_TRUE(ok);
  EXPECT_NEAR(done_at, 1.5, 0.05);  // latency + transfer
  EXPECT_EQ(cloud.stats().requests, 1u);
  EXPECT_DOUBLE_EQ(cloud.stats().bytes_up, 1000);
}

TEST(SimCloudTest, OutageFailsFast) {
  SimEnv env;
  FluidNet net(env);
  SimCloudConfig config;
  config.up = constant_bw(1000);
  config.down = constant_bw(1000);
  SimCloud cloud(env, net, config);
  cloud.set_outage(true);
  bool ok = true;
  cloud.upload(100000, [&](bool success) { ok = success; });
  env.run();
  EXPECT_FALSE(ok);
  EXPECT_LT(env.now(), 1.0);
  EXPECT_EQ(cloud.stats().failures, 1u);
}

TEST(SimCloudTest, FailedTransfersWasteTimeButLessThanFull) {
  SimEnv env;
  FluidNet net(env);
  FailureParams fparams;
  fparams.base_rate = 1.0;  // always fail
  fparams.trouble_probability = 0;
  FailureModel failure(1, fparams, 3);
  SimCloudConfig config;
  config.up = constant_bw(1000);
  config.down = constant_bw(1000);
  config.request_latency = 0;
  config.failure = &failure;
  SimCloud cloud(env, net, config);
  bool ok = true;
  cloud.upload(10000, [&](bool success) { ok = success; });
  env.run();
  EXPECT_FALSE(ok);
  EXPECT_GT(env.now(), 0.01);   // some time wasted
  EXPECT_LT(env.now(), 10.0);   // but less than the full 10 s
}

// --- profiles -------------------------------------------------------------

TEST(ProfilesTest, LocationSetsMatchPaper) {
  EXPECT_EQ(planetlab_locations().size(), 13u);
  EXPECT_EQ(ec2_locations().size(), 7u);
  for (const auto& loc : ec2_locations()) {
    EXPECT_GT(loc.download_cap_bps, 0) << loc.name;  // 40 Mbps VM cap
  }
}

TEST(ProfilesTest, ChinaDisparityIsLarge) {
  // BaiduPCS vs Google Drive from China: the paper reports up to 60x.
  const LinkSpec baidu = link_spec(CloudKind::kBaiduPCS, Region::kChina);
  const LinkSpec gdrive = link_spec(CloudKind::kGoogleDrive, Region::kChina);
  EXPECT_GE(baidu.up_bps / gdrive.up_bps, 50.0);
}

TEST(ProfilesTest, DropboxSlowerOnWestCoast) {
  // Paper: uploading from Los Angeles takes ~2.76x Princeton.
  const LinkSpec east = link_spec(CloudKind::kDropbox, Region::kUsEast);
  const LinkSpec west = link_spec(CloudKind::kDropbox, Region::kUsWest);
  EXPECT_GT(east.up_bps / west.up_bps, 2.0);
  EXPECT_LT(east.up_bps / west.up_bps, 4.0);
}

TEST(ProfilesTest, NoAlwaysWinner) {
  // Some cloud must win in the US and a different one in China.
  auto best_at = [](Region region) {
    double best = 0;
    std::size_t who = 0;
    for (std::size_t c = 0; c < kNumClouds; ++c) {
      const double up = link_spec(static_cast<CloudKind>(c), region).up_bps;
      if (up > best) {
        best = up;
        who = c;
      }
    }
    return who;
  };
  EXPECT_NE(best_at(Region::kUsEast), best_at(Region::kChina));
}

TEST(ProfilesTest, MakeCloudSetBuildsFiveClouds) {
  SimEnv env;
  CloudSet set = make_cloud_set(env, planetlab_locations()[0], 1);
  EXPECT_EQ(set.clouds.size(), kNumClouds);
  EXPECT_EQ(set.ptrs().size(), kNumClouds);
  EXPECT_EQ(set.clouds[0]->name(), "Dropbox");
}

// --- transfer runs -------------------------------------------------------------

sched::CodeParams paper_params() { return sched::CodeParams{}; }

TEST(TransferRunTest, UploadJobCompletesOnCleanNetwork) {
  SimEnv env(7);
  CloudSet set = make_cloud_set(env, planetlab_locations()[0], 7,
                                /*with_failures=*/false);
  std::vector<sched::UploadFileSpec> specs;
  sched::UploadFileSpec f;
  f.path = "/a";
  f.segments.push_back({"a_seg", 8 << 20});
  specs.push_back(f);
  sched::UploadScheduler scheduler(paper_params(), {0, 1, 2, 3, 4}, specs);
  sched::ThroughputMonitor monitor;
  const auto result =
      run_upload_job(env, set.ptrs(), scheduler, monitor, RunConfig{});
  EXPECT_TRUE(result.all_available);
  EXPECT_TRUE(result.all_reliable);
  EXPECT_GT(result.available_time, 0);
  EXPECT_LE(result.available_time, result.finish_time);
  ASSERT_EQ(result.file_available_time.size(), 1u);
  EXPECT_GT(result.file_available_time[0], 0);
}

TEST(TransferRunTest, AvailabilityBeforeReliability) {
  SimEnv env(8);
  CloudSet set = make_cloud_set(env, planetlab_locations()[0], 8,
                                /*with_failures=*/false);
  std::vector<sched::UploadFileSpec> specs;
  for (int i = 0; i < 5; ++i) {
    sched::UploadFileSpec f;
    f.path = "/f" + std::to_string(i);
    f.segments.push_back({"seg" + std::to_string(i), 4 << 20});
    specs.push_back(f);
  }
  sched::UploadScheduler scheduler(paper_params(), {0, 1, 2, 3, 4}, specs);
  sched::ThroughputMonitor monitor;
  const auto result =
      run_upload_job(env, set.ptrs(), scheduler, monitor, RunConfig{});
  EXPECT_TRUE(result.all_available);
  // The last file's availability must precede (or equal) full completion.
  EXPECT_LE(result.available_time, result.finish_time);
}

TEST(TransferRunTest, UploadSurvivesFailures) {
  SimEnv env(9);
  CloudSet set = make_cloud_set(env, planetlab_locations()[6], 9);  // Beijing
  std::vector<sched::UploadFileSpec> specs;
  sched::UploadFileSpec f;
  f.path = "/a";
  f.segments.push_back({"a_seg", 4 << 20});
  specs.push_back(f);
  sched::UploadScheduler scheduler(paper_params(), {0, 1, 2, 3, 4}, specs);
  sched::ThroughputMonitor monitor;
  const auto result =
      run_upload_job(env, set.ptrs(), scheduler, monitor, RunConfig{});
  EXPECT_TRUE(result.all_available);
}

TEST(TransferRunTest, DownloadJobFetchesKBlocks) {
  SimEnv env(10);
  CloudSet set = make_cloud_set(env, planetlab_locations()[0], 10,
                                /*with_failures=*/false);
  sched::DownloadFileSpec f;
  f.path = "/a";
  sched::DownloadSegmentSpec seg;
  seg.id = "s";
  seg.size = 8 << 20;
  for (std::uint32_t b = 0; b < 5; ++b) seg.locations.push_back({b, b});
  f.segments.push_back(seg);
  sched::DownloadScheduler scheduler(3, {f});
  sched::ThroughputMonitor monitor;
  const auto result =
      run_download_job(env, set.ptrs(), scheduler, monitor, RunConfig{});
  EXPECT_TRUE(result.all_complete);
  EXPECT_EQ(result.block_transfers, 3u);  // exactly k requests, no waste
}

TEST(TransferRunTest, OverProvisioningBeatsStaticOnSkewedClouds) {
  // Direct ablation: same network, same seed; UniDrive's over-provisioning
  // + dynamic scheduling must beat the static benchmark configuration.
  auto run_once = [](bool unidrive) {
    SimEnv env(11);
    CloudSet set = make_cloud_set(env, ec2_locations()[0], 11,
                                  /*with_failures=*/false);
    std::vector<sched::UploadFileSpec> specs;
    sched::UploadFileSpec f;
    f.path = "/a";
    f.segments.push_back({"a_seg", 32 << 20});
    specs.push_back(f);
    sched::UploadOptions options;
    options.overprovision = unidrive;
    options.availability_first = unidrive;
    sched::UploadScheduler scheduler(sched::CodeParams{}, {0, 1, 2, 3, 4},
                                     specs, options);
    sched::ThroughputMonitor monitor;
    RunConfig config;
    config.dynamic_polling = unidrive;
    const auto result =
        run_upload_job(env, set.ptrs(), scheduler, monitor, config);
    return result.available_time - result.start_time;
  };
  const double unidrive_time = run_once(true);
  const double benchmark_time = run_once(false);
  EXPECT_GT(benchmark_time, 0);
  EXPECT_LT(unidrive_time, benchmark_time * 1.05);
}

// --- end-to-end ----------------------------------------------------------------

TEST(E2ETest, BatchSyncReachesAllDownloaders) {
  SimEnv env(20);
  const auto locations = ec2_locations();
  CloudSet up = make_cloud_set(env, locations[0], 20);
  CloudSet down1 = make_cloud_set(env, locations[1], 21);
  CloudSet down2 = make_cloud_set(env, locations[3], 22);

  E2EConfig config;
  config.num_files = 10;
  config.file_size = 1 << 20;
  const E2EResult result =
      run_unidrive_e2e(env, up, {&down1, &down2}, config);

  EXPECT_TRUE(result.upload.all_available);
  ASSERT_EQ(result.downloaders.size(), 2u);
  EXPECT_GT(result.batch_sync_time, 0);
  for (const auto& d : result.downloaders) {
    for (const double t : d.file_sync_time) {
      EXPECT_GT(t, 0);
    }
    EXPECT_GT(d.polls, 0u);
    EXPECT_GT(d.metadata_fetches, 0u);
  }
  EXPECT_GT(result.payload_bytes, 0);
  EXPECT_GT(result.metadata_bytes, 0);
  // Metadata stays a tiny fraction of payload (the ~1% overhead story).
  EXPECT_LT(result.metadata_bytes, result.payload_bytes * 0.05);
}

TEST(E2ETest, BenchmarkModeSlowerThanUniDrive) {
  // The same network and batch, scheduled by UniDrive vs the RACS-style
  // benchmark configuration: UniDrive must not lose.
  auto run_once = [](bool unidrive) {
    SimEnv env(31);
    const auto locations = ec2_locations();
    CloudSet up = make_cloud_set(env, locations[1], 31);
    CloudSet down = make_cloud_set(env, locations[0], 32);
    E2EConfig config;
    config.num_files = 20;
    config.file_size = 1 << 20;
    if (!unidrive) {
      config.upload_options.overprovision = false;
      config.upload_options.availability_first = false;
      config.run.dynamic_polling = false;
    }
    return run_unidrive_e2e(env, up, {&down}, config).batch_sync_time;
  };
  const double unidrive_time = run_once(true);
  const double benchmark_time = run_once(false);
  ASSERT_GT(unidrive_time, 0);
  ASSERT_GT(benchmark_time, 0);
  EXPECT_LE(unidrive_time, benchmark_time * 1.1);
}

TEST(E2ETest, FilesBecomeAvailableIncrementally) {
  SimEnv env(23);
  const auto locations = ec2_locations();
  CloudSet up = make_cloud_set(env, locations[1], 23);
  CloudSet down = make_cloud_set(env, locations[0], 24);

  E2EConfig config;
  config.num_files = 20;
  config.file_size = 1 << 20;
  config.commit_interval = 3.0;  // fine-grained commits to observe streaming
  config.poll_interval = 2.0;
  const E2EResult result = run_unidrive_e2e(env, up, {&down}, config);

  // Download completions must be spread out (streaming), not all at the end:
  // the first file lands well before the last.
  const auto& times = result.downloaders[0].file_sync_time;
  const double first = *std::min_element(times.begin(), times.end());
  const double last = *std::max_element(times.begin(), times.end());
  EXPECT_LT(first, last * 0.7);
}

}  // namespace
}  // namespace unidrive::sim
