// Fail-point layer (src/common/failpoint.h): the zero-cost claim for
// production builds, and — when SPECTM_FAILPOINTS is on — arming, seeded
// determinism, and hit accounting.
#include "src/common/failpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace spectm {
namespace {

#if !defined(SPECTM_FAILPOINTS)

// The zero-cost proof: with the gate off, both macros must fold to constant
// expressions — usable in a static_assert, so by construction there is no
// load, branch, or call left for the optimizer to elide. If someone changes
// the disabled form into anything with runtime content, this stops compiling.
static_assert(!SPECTM_FAILPOINT(failpoint::Site::kPreBump),
              "disabled fail-point must be the constant false");
static_assert(!SPECTM_FAILPOINT(failpoint::Site::kLockAcquire),
              "disabled fail-point must be the constant false");
static_assert(!failpoint::kEnabled, "gate flag out of sync with the macro");

TEST(Failpoint, DisabledFormCompilesAtEverySite) {
  // PAUSE has no value; it must still reference the site token so an invalid
  // site name fails to compile even in production builds.
  SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostBump);
  SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreStripeBump);
  EXPECT_FALSE(SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich));
  EXPECT_FALSE(SPECTM_FAILPOINT(failpoint::Site::kPreValidate));
}

#else  // SPECTM_FAILPOINTS

static_assert(failpoint::kEnabled, "gate flag out of sync with the macro");

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::DisarmAll();
    failpoint::ResetHits();
  }
};

TEST_F(FailpointTest, UnarmedSitesNeverFire) {
  failpoint::ResetHits();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SPECTM_FAILPOINT(failpoint::Site::kPreBump));
  }
  EXPECT_EQ(failpoint::Hits(failpoint::Site::kPreBump), 0u);
}

TEST_F(FailpointTest, FullyArmedSiteAlwaysFiresAndCounts) {
  failpoint::ResetHits();
  failpoint::Arm(failpoint::Site::kLockAcquire, /*abort_pct=*/100);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(SPECTM_FAILPOINT(failpoint::Site::kLockAcquire));
  }
  EXPECT_EQ(failpoint::Hits(failpoint::Site::kLockAcquire), 50u);
  failpoint::Disarm(failpoint::Site::kLockAcquire);
  EXPECT_FALSE(SPECTM_FAILPOINT(failpoint::Site::kLockAcquire));
  EXPECT_EQ(failpoint::Hits(failpoint::Site::kLockAcquire), 50u);
}

// The reason fail points beat plain stress: a failing schedule replays from
// its seed. Same seed => identical per-thread decision stream, even without
// restarting the thread (SetSeed bumps an epoch that live threads notice).
TEST_F(FailpointTest, FixedSeedReplaysTheDecisionStream) {
  failpoint::Arm(failpoint::Site::kPreValidate, /*abort_pct=*/37);
  failpoint::SetSeed(0xdecaf);
  std::vector<bool> first;
  for (int i = 0; i < 256; ++i) {
    first.push_back(SPECTM_FAILPOINT(failpoint::Site::kPreValidate));
  }
  failpoint::SetSeed(0xdecaf);
  std::vector<bool> second;
  for (int i = 0; i < 256; ++i) {
    second.push_back(SPECTM_FAILPOINT(failpoint::Site::kPreValidate));
  }
  EXPECT_EQ(first, second);

  failpoint::SetSeed(0xc0ffee);  // different seed => different stream
  std::vector<bool> third;
  for (int i = 0; i < 256; ++i) {
    third.push_back(SPECTM_FAILPOINT(failpoint::Site::kPreValidate));
  }
  EXPECT_NE(first, third);
}

TEST_F(FailpointTest, DelayOnlySitesCountButNeverAbort) {
  failpoint::ResetHits();
  failpoint::Arm(failpoint::Site::kPostBump, /*abort_pct=*/0,
                 /*delay_pct=*/100, /*delay_spins=*/8);
  for (int i = 0; i < 20; ++i) {
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostBump);
  }
  EXPECT_EQ(failpoint::Hits(failpoint::Site::kPostBump), 20u);
  // An abort-style fire at a delay-only site injects the delay but reports no
  // abort.
  EXPECT_FALSE(SPECTM_FAILPOINT(failpoint::Site::kPostBump));
}

TEST_F(FailpointTest, SiteNamesAreStable) {
  EXPECT_STREQ(failpoint::SiteName(failpoint::Site::kPreBump), "pre-bump");
  EXPECT_STREQ(failpoint::SiteName(failpoint::Site::kLockAcquire),
               "lock-acquire");
}

#endif  // SPECTM_FAILPOINTS

}  // namespace
}  // namespace spectm
