#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include <filesystem>

#include "cloud/directory_cloud.h"
#include "lock/quorum_lock.h"
#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/path.h"
#include "cloud/quota_cloud.h"
#include "common/rng.h"

namespace unidrive::cloud {
namespace {

Bytes bytes(const std::string& s) { return bytes_from_string(s); }

// --- path helpers -------------------------------------------------------------

TEST(PathTest, Normalize) {
  EXPECT_EQ(normalize_path("/a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize_path("a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize_path("/a//b/"), "/a/b");
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("///"), "/");
}

TEST(PathTest, Split) {
  EXPECT_EQ(split_path("/a/b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_path("/").empty());
}

TEST(PathTest, ParentAndBasename) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(basename("/a/b/c"), "c");
  EXPECT_EQ(basename("/"), "");
}

TEST(PathTest, Join) {
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(join_path("/", "b"), "/b");
  EXPECT_EQ(join_path("/a/", "b"), "/a/b");
}

// --- MemoryCloud ----------------------------------------------------------------

TEST(MemoryCloudTest, UploadDownloadRoundTrip) {
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/data/x", ByteSpan(bytes("hello"))).is_ok());
  auto got = c.download("/data/x");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(got.value())), "hello");
}

TEST(MemoryCloudTest, DownloadMissingIsNotFound) {
  MemoryCloud c(1, "test");
  EXPECT_EQ(c.download("/nope").code(), ErrorCode::kNotFound);
}

TEST(MemoryCloudTest, UploadReplaces) {
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/f", ByteSpan(bytes("v1"))).is_ok());
  ASSERT_TRUE(c.upload("/f", ByteSpan(bytes("v2"))).is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(c.download("/f").value())), "v2");
  EXPECT_EQ(c.file_count(), 1u);
}

TEST(MemoryCloudTest, ListImmediateChildrenOnly) {
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/dir/a", ByteSpan(bytes("1"))).is_ok());
  ASSERT_TRUE(c.upload("/dir/b", ByteSpan(bytes("22"))).is_ok());
  ASSERT_TRUE(c.upload("/dir/sub/c", ByteSpan(bytes("333"))).is_ok());
  ASSERT_TRUE(c.upload("/other/d", ByteSpan(bytes("4"))).is_ok());
  auto listing = c.list("/dir");
  ASSERT_TRUE(listing.is_ok());
  ASSERT_EQ(listing.value().size(), 2u);
  EXPECT_EQ(listing.value()[0].name, "a");
  EXPECT_EQ(listing.value()[0].size, 1u);
  EXPECT_EQ(listing.value()[1].name, "b");
  EXPECT_EQ(listing.value()[1].size, 2u);
}

TEST(MemoryCloudTest, ListEmptyDir) {
  MemoryCloud c(1, "test");
  auto listing = c.list("/empty");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_TRUE(listing.value().empty());
}

TEST(MemoryCloudTest, ListPrefixCollision) {
  // "/lock" must not pick up "/lockers/x".
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/lockers/x", ByteSpan(bytes("1"))).is_ok());
  ASSERT_TRUE(c.upload("/lock/y", ByteSpan(bytes("2"))).is_ok());
  auto listing = c.list("/lock");
  ASSERT_TRUE(listing.is_ok());
  ASSERT_EQ(listing.value().size(), 1u);
  EXPECT_EQ(listing.value()[0].name, "y");
}

TEST(MemoryCloudTest, RemoveAndNotFound) {
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/f", ByteSpan(bytes("x"))).is_ok());
  EXPECT_TRUE(c.remove("/f").is_ok());
  EXPECT_EQ(c.remove("/f").code(), ErrorCode::kNotFound);
}

TEST(MemoryCloudTest, StoredBytesAccounting) {
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/a", ByteSpan(bytes("12345"))).is_ok());
  ASSERT_TRUE(c.upload("/b", ByteSpan(bytes("123"))).is_ok());
  EXPECT_EQ(c.stored_bytes(), 8u);
}

TEST(MemoryCloudTest, ConcurrentAccessIsSafe) {
  MemoryCloud c(1, "test");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string path = "/d/f" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(c.upload(path, ByteSpan(bytes("x"))).is_ok());
        ASSERT_TRUE(c.download(path).is_ok());
        (void)c.list("/d");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.file_count(), 1600u);
}

TEST(MemoryCloudTest, ReadAfterWriteConsistency) {
  // The consistency contract the lock protocol relies on.
  MemoryCloud c(1, "test");
  ASSERT_TRUE(c.upload("/lock/l1", ByteSpan(Bytes{})).is_ok());
  auto listing = c.list("/lock");
  ASSERT_TRUE(listing.is_ok());
  ASSERT_EQ(listing.value().size(), 1u);
}

// --- FaultyCloud ----------------------------------------------------------------

TEST(FaultyCloudTest, ZeroFailureRatePassesThrough) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  FaultyCloud faulty(inner, FaultProfile{}, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(faulty.upload("/f" + std::to_string(i),
                              ByteSpan(bytes("x"))).is_ok());
  }
  EXPECT_EQ(faulty.failures(), 0u);
}

TEST(FaultyCloudTest, OutageFailsEverything) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  ASSERT_TRUE(inner->upload("/f", ByteSpan(bytes("x"))).is_ok());
  FaultyCloud faulty(inner, FaultProfile{}, 1);
  faulty.set_outage(true);
  EXPECT_EQ(faulty.download("/f").code(), ErrorCode::kOutage);
  EXPECT_EQ(faulty.upload("/g", ByteSpan(bytes("y"))).code(),
            ErrorCode::kOutage);
  EXPECT_FALSE(faulty.list("/").is_ok());
  faulty.set_outage(false);
  EXPECT_TRUE(faulty.download("/f").is_ok());
}

TEST(FaultyCloudTest, BaseFailureRateApproximate) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  FaultProfile profile;
  profile.base_failure_rate = 0.3;
  FaultyCloud faulty(inner, profile, 99);
  int failures = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (!faulty.list("/").is_ok()) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.3, 0.03);
}

TEST(FaultyCloudTest, SizeDependentFailures) {
  // Larger payloads fail more often (paper Figure 4).
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  FaultProfile profile;
  profile.base_failure_rate = 0.01;
  profile.per_mb_failure_rate = 0.05;
  FaultyCloud faulty(inner, profile, 7);
  Rng rng(1);
  const Bytes small = rng.bytes(64 << 10);
  const Bytes large = rng.bytes(8 << 20);
  int small_failures = 0, large_failures = 0;
  const int n = 1500;
  for (int i = 0; i < n; ++i) {
    if (!faulty.upload("/s", ByteSpan(small)).is_ok()) ++small_failures;
    if (!faulty.upload("/l", ByteSpan(large)).is_ok()) ++large_failures;
  }
  EXPECT_GT(large_failures, small_failures * 2);
}

TEST(FaultyCloudTest, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    auto inner = std::make_shared<MemoryCloud>(1, "m");
    FaultProfile profile;
    profile.base_failure_rate = 0.5;
    FaultyCloud faulty(inner, profile, seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 50; ++i) outcomes.push_back(faulty.list("/").is_ok());
    return outcomes;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- QuotaCloud -----------------------------------------------------------------

TEST(QuotaCloudTest, EnforcesQuota) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  QuotaCloud quota(inner, 10);
  EXPECT_TRUE(quota.upload("/a", ByteSpan(bytes("123456"))).is_ok());
  EXPECT_EQ(quota.upload("/b", ByteSpan(bytes("123456"))).code(),
            ErrorCode::kQuotaExceeded);
  EXPECT_TRUE(quota.upload("/b", ByteSpan(bytes("1234"))).is_ok());
  EXPECT_EQ(quota.used_bytes(), 10u);
}

TEST(QuotaCloudTest, ReplacementDoesNotDoubleCount) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  QuotaCloud quota(inner, 10);
  EXPECT_TRUE(quota.upload("/a", ByteSpan(bytes("12345678"))).is_ok());
  // Replacing /a with an 8-byte payload fits (old copy is released).
  EXPECT_TRUE(quota.upload("/a", ByteSpan(bytes("abcdefgh"))).is_ok());
  EXPECT_EQ(quota.used_bytes(), 8u);
}

TEST(QuotaCloudTest, RemoveFreesSpace) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  QuotaCloud quota(inner, 10);
  EXPECT_TRUE(quota.upload("/a", ByteSpan(bytes("1234567890"))).is_ok());
  EXPECT_TRUE(quota.remove("/a").is_ok());
  EXPECT_EQ(quota.used_bytes(), 0u);
  EXPECT_TRUE(quota.upload("/b", ByteSpan(bytes("1234567890"))).is_ok());
}

// --- DirectoryCloud ----------------------------------------------------------------

class DirectoryCloudTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest runs each case as its own process, so a
    // shared directory would be clobbered by concurrent SetUp/TearDown.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             (std::string("unidrive_dircloud_") + info->name()))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST_F(DirectoryCloudTest, RoundTrip) {
  DirectoryCloud c(1, "dir", root_);
  ASSERT_TRUE(c.upload("/data/block_1", ByteSpan(bytes("payload"))).is_ok());
  auto got = c.download("/data/block_1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(got.value())), "payload");
  EXPECT_TRUE(c.remove("/data/block_1").is_ok());
  EXPECT_EQ(c.download("/data/block_1").code(), ErrorCode::kNotFound);
}

TEST_F(DirectoryCloudTest, PersistsAcrossInstances) {
  {
    DirectoryCloud c(1, "dir", root_);
    ASSERT_TRUE(c.upload("/meta/version", ByteSpan(bytes("v42"))).is_ok());
  }
  DirectoryCloud again(1, "dir", root_);
  auto got = again.download("/meta/version");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(got.value())), "v42");
}

TEST_F(DirectoryCloudTest, ListImmediateFilesOnly) {
  DirectoryCloud c(1, "dir", root_);
  ASSERT_TRUE(c.upload("/lock/lock_a", ByteSpan(Bytes{})).is_ok());
  ASSERT_TRUE(c.upload("/lock/lock_b", ByteSpan(bytes("x"))).is_ok());
  ASSERT_TRUE(c.upload("/lock/sub/deep", ByteSpan(bytes("y"))).is_ok());
  auto listing = c.list("/lock");
  ASSERT_TRUE(listing.is_ok());
  ASSERT_EQ(listing.value().size(), 2u);
  EXPECT_EQ(listing.value()[0].name, "lock_a");
  EXPECT_EQ(listing.value()[1].name, "lock_b");
  EXPECT_EQ(listing.value()[1].size, 1u);
}

TEST_F(DirectoryCloudTest, ListMissingDirIsEmpty) {
  DirectoryCloud c(1, "dir", root_);
  auto listing = c.list("/nothing");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_TRUE(listing.value().empty());
}

TEST_F(DirectoryCloudTest, UploadReplacesAtomically) {
  DirectoryCloud c(1, "dir", root_);
  ASSERT_TRUE(c.upload("/f", ByteSpan(bytes("old"))).is_ok());
  ASSERT_TRUE(c.upload("/f", ByteSpan(bytes("new"))).is_ok());
  EXPECT_EQ(string_from_bytes(ByteSpan(c.download("/f").value())), "new");
}

TEST_F(DirectoryCloudTest, WorksAsQuorumLockSubstrate) {
  // A full client-grade consumer: the quorum lock over directory clouds.
  cloud::MultiCloud clouds;
  for (cloud::CloudId id = 0; id < 3; ++id) {
    clouds.push_back(std::make_shared<DirectoryCloud>(
        id, "d" + std::to_string(id), root_ + "/c" + std::to_string(id)));
  }
  ManualClock clock;
  lock::LockConfig config;
  lock::QuorumLock lock(clouds, "dev", config, clock, Rng(1),
                        [&clock](Duration d) { clock.advance(d); });
  ASSERT_TRUE(lock.acquire().is_ok());
  lock.release();
  for (const auto& c : clouds) {
    EXPECT_TRUE(c->list("/lock").value().empty());
  }
}

// --- LatentCloud -----------------------------------------------------------------

TEST(LatentCloudTest, ThrottlesUpload) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  LinkProfile profile;
  profile.up_bytes_per_sec = 1 << 20;  // 1 MiB/s
  LatentCloud latent(inner, profile);
  Rng rng(1);
  const Bytes payload = rng.bytes(256 << 10);  // 0.25 MiB -> ~0.25 s
  const double start = RealClock::instance().now();
  ASSERT_TRUE(latent.upload("/f", ByteSpan(payload)).is_ok());
  const double elapsed = RealClock::instance().now() - start;
  EXPECT_GE(elapsed, 0.2);
  EXPECT_LT(elapsed, 2.0);
}

TEST(LatentCloudTest, UnlimitedIsFast) {
  auto inner = std::make_shared<MemoryCloud>(1, "m");
  LatentCloud latent(inner, LinkProfile{});
  Rng rng(2);
  const Bytes payload = rng.bytes(1 << 20);
  const double start = RealClock::instance().now();
  ASSERT_TRUE(latent.upload("/f", ByteSpan(payload)).is_ok());
  EXPECT_LT(RealClock::instance().now() - start, 0.5);
}

}  // namespace
}  // namespace unidrive::cloud
