// Health watchdog (src/common/health.h): the zero-cost claim for builds without
// SPECTM_HEALTH, and — when the watchdog is compiled in — storm detection,
// hysteretic recovery, gate-hold overruns, escalation
// throttling, and the diagnostics snapshot assembled by the SerialCm
// integration layer (src/tm/serial.h). Same two-branch shape as
// failpoint_test.cc: the static_asserts ARE the disabled-build proof.
#include "src/common/health.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/backoff.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"

namespace spectm {
namespace {

struct HealthTestTag {};

#if !defined(SPECTM_HEALTH)

// The zero-cost proof: with the gate off, every decision entry point must fold
// to a constant expression — usable in a static_assert, so by construction
// there is no thread-local, atomic, or branch left for the optimizer to elide.
static_assert(!health::kEnabled, "gate flag out of sync with the build");
static_assert(!health::EscalationThrottled<HealthTestTag>(),
              "disabled throttle must be the constant false");
static_assert(!health::Degraded<HealthTestTag>(),
              "disabled watchdog can never report degraded");
static_assert(health::HealthWindow() == health::kHealthWindowDefault,
              "disabled window must be the compile-time default");
static_assert(health::HealthProbe<HealthTestTag>::Get().samples == 0,
              "disabled probe must be all-zero");

TEST(Health, DisabledFeedsAreInertNoOps) {
  Backoff b;
  EXPECT_EQ(health::OnOutcome<HealthTestTag>(b, /*committed=*/false),
            health::Event::kNone);
  EXPECT_EQ(health::NoteAttemptStart<HealthTestTag>(b, /*foreign=*/true),
            health::Event::kNone);
  EXPECT_EQ(b.widening(), 1u) << "a disabled watchdog must never widen backoff";
}

#else  // SPECTM_HEALTH

static_assert(health::kEnabled, "gate flag out of sync with the build");

class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { health::ResetForTest<HealthTestTag>(); }
  void TearDown() override {
    health::ResetForTest<HealthTestTag>();
    SetSerialEscalationStreak(kSerialEscalationStreak);
  }
};

// Feed one whole window of outcomes with the given abort count; returns the
// event the window-closing outcome reported.
health::Event FeedWindow(Backoff& b, std::uint32_t events, std::uint32_t aborts) {
  health::Event last = health::Event::kNone;
  for (std::uint32_t i = 0; i < events; ++i) {
    last = health::OnOutcome<HealthTestTag>(b, /*committed=*/i >= aborts);
  }
  return last;
}

TEST_F(HealthTest, AbortStormEntersDegradedAndWidensBackoff) {
  health::SetHealthWindow(8);
  Backoff b;
  // 4 of 8 aborted: exactly the storm threshold (aborts * 2 >= events).
  EXPECT_EQ(FeedWindow(b, 8, 4), health::Event::kDegraded);
  EXPECT_TRUE(health::Degraded<HealthTestTag>());
  EXPECT_EQ(b.widening(), health::kHealthDegradedWiden);
  const health::Counters p = health::HealthProbe<HealthTestTag>::Get();
  EXPECT_EQ(p.samples, 1u);
  EXPECT_EQ(p.storms, 1u);
  EXPECT_EQ(p.degrade_enters, 1u);
}

TEST_F(HealthTest, QuietWindowStaysHealthy) {
  health::SetHealthWindow(8);
  Backoff b;
  // 3 of 8 aborted: under the enter threshold — no transition, no widening.
  EXPECT_EQ(FeedWindow(b, 8, 3), health::Event::kNone);
  EXPECT_FALSE(health::Degraded<HealthTestTag>());
  EXPECT_EQ(b.widening(), 1u);
}

TEST_F(HealthTest, RecoveryIsHysteretic) {
  health::SetHealthWindow(8);
  Backoff b;
  ASSERT_EQ(FeedWindow(b, 8, 8), health::Event::kDegraded);
  // 2 of 8 aborted clears the ENTER bar but not the hysteretic EXIT bar
  // (aborts * 8 <= events): still degraded — a wiggling workload keeps state.
  EXPECT_EQ(FeedWindow(b, 8, 2), health::Event::kNone);
  EXPECT_TRUE(health::Degraded<HealthTestTag>());
  // 1 of 8 meets the exit bar: recovered, widening restored.
  EXPECT_EQ(FeedWindow(b, 8, 1), health::Event::kRecovered);
  EXPECT_FALSE(health::Degraded<HealthTestTag>());
  EXPECT_EQ(b.widening(), 1u);
  EXPECT_EQ(health::HealthProbe<HealthTestTag>::Get().degrade_exits, 1u);
}

TEST_F(HealthTest, EscalationThrottledOnlyWhileDegraded) {
  health::SetHealthWindow(8);
  Backoff b;
  EXPECT_FALSE(health::EscalationThrottled<HealthTestTag>());
  ASSERT_EQ(FeedWindow(b, 8, 8), health::Event::kDegraded);
  EXPECT_TRUE(health::EscalationThrottled<HealthTestTag>());
  EXPECT_EQ(health::HealthProbe<HealthTestTag>::Get().throttled_escalations, 1u);
}

TEST_F(HealthTest, GateHoldOverrunDegrades) {
  Backoff b;
  health::Event last = health::Event::kNone;
  for (std::uint32_t i = 0; i < health::kHealthGateHoldLimit; ++i) {
    last = health::NoteAttemptStart<HealthTestTag>(b, /*foreign=*/true);
  }
  EXPECT_EQ(last, health::Event::kDegraded);
  EXPECT_EQ(health::HealthProbe<HealthTestTag>::Get().gate_overruns, 1u);
  // A non-foreign observation resets the streak: no second overrun right away.
  EXPECT_EQ(health::NoteAttemptStart<HealthTestTag>(b, /*foreign=*/false),
            health::Event::kNone);
}

TEST_F(HealthTest, SnapshotBuilderEmitsFlatJson) {
  health::SnapshotBuilder b;
  const std::string json = b.Add("commits", 7).Add("aborts", 3).Finish();
  EXPECT_EQ(json, "{\"commits\": 7, \"aborts\": 3}");
  health::SnapshotBuilder empty;
  EXPECT_EQ(empty.Finish(), "{}");
}

// Integration through the contention manager: a planted abort storm fed via
// SerialCm::NoteAbortBackoff must (a) emit the diagnostics snapshot with the
// replay identity (backoff serial + seed) embedded, and (b) make ShouldEscalate
// decline a streak that would otherwise escalate.
TEST_F(HealthTest, CmIntegrationEmitsSnapshotAndThrottles) {
  using Cm = SerialCm<HealthTestTag>;
  health::SetHealthWindow(8);
  TxDesc& desc = DescOf<HealthTestTag>();
  desc.backoff.OnCommit();  // reset any streak earlier tests left behind
  SetSerialEscalationStreak(1);
  for (int i = 0; i < 8; ++i) {
    Cm::NoteAbortBackoff(desc);
  }
  EXPECT_TRUE(health::Degraded<HealthTestTag>());
  const std::string& snap = health::LastSnapshot<HealthTestTag>();
  ASSERT_FALSE(snap.empty()) << "degrading must store a diagnostics snapshot";
  EXPECT_NE(snap.find("\"degrade_enters\": 1"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"backoff_serial\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"backoff_seed\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"gate_overruns\""), std::string::npos) << snap;
  EXPECT_EQ(health::HealthProbe<HealthTestTag>::Get().snapshots, 1u);
  // Streak 8 with threshold 1 would escalate — the degraded throttle declines.
  EXPECT_FALSE(Cm::ShouldEscalate(desc));
  EXPECT_GE(health::HealthProbe<HealthTestTag>::Get().throttled_escalations, 1u);
  desc.backoff.OnCommit();
}

#endif  // SPECTM_HEALTH

}  // namespace
}  // namespace spectm
