// Fail-point torture: the linked-set balance invariant (skip_protocol_test.cc)
// re-run under deterministic fault injection. Plain stress tests hit the
// protocol's razor-edge windows by luck; here the fail-point layer
// (src/common/failpoint.h) turns luck into a schedule — forced aborts at the
// sandwich/validate/lock sites, injected delays inside the publication
// sequence — all from a fixed seed, so a failing schedule replays.
//
// Without SPECTM_FAILPOINTS the injection schedules compile away and this
// file still runs the un-injected baseline, so the binary is meaningful in
// every build mode (the CI tsan smoke subset includes it).
#include "src/common/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sched.h"
#include "src/structures/hash_tm_full.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// Smaller than skip_protocol_test's battery: this binary runs several
// schedules per family and rides in the TSan smoke subset.
constexpr int kWorkers = 4;
constexpr int kOpsPerThread = 20000;
constexpr std::uint64_t kKeys = 128;

struct TortureResult {
  std::int64_t balance_delta = 0;   // (present - expected): 0 iff sound
  std::uint64_t escalations = 0;    // CmProbe totals over all workers
  std::uint64_t serial_commits = 0;
  std::uint64_t max_abort_streak = 0;
};

template <typename Family>
TortureResult RunTortureBalance(std::uint64_t seed) {
  using Probe = CmProbe<typename Family::DomainTag>;
  TmHashSet<Family> set(32);
  std::vector<std::int64_t> balance(kWorkers, 0);
  std::atomic<std::uint64_t> escalations{0};
  std::atomic<std::uint64_t> serial_commits{0};
  std::atomic<std::uint64_t> max_streak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Probe::Reset();
      Xorshift128Plus rng(seed + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeys);
        if (rng.Next() & 1) {
          if (set.Insert(k)) {
            ++balance[static_cast<std::size_t>(t)];
          }
        } else {
          if (set.Remove(k)) {
            --balance[static_cast<std::size_t>(t)];
          }
        }
      }
      const auto probe = Probe::Get();
      escalations.fetch_add(probe.escalations);
      serial_commits.fetch_add(probe.serial_commits);
      std::uint64_t seen = max_streak.load();
      while (probe.max_abort_streak > seen &&
             !max_streak.compare_exchange_weak(seen, probe.max_abort_streak)) {
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::int64_t expected = 0;
  for (const std::int64_t b : balance) {
    expected += b;
  }
  std::int64_t present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    present += set.Contains(k) ? 1 : 0;
  }
  TortureResult r;
  r.balance_delta = present - expected;
  r.escalations = escalations.load();
  r.serial_commits = serial_commits.load();
  r.max_abort_streak = max_streak.load();
  return r;
}

class TortureTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if defined(SPECTM_FAILPOINTS)
    failpoint::DisarmAll();
    failpoint::ResetHits();
#endif
    SetSerialEscalationStreak(kSerialEscalationStreak);
  }
};

TEST_F(TortureTest, BaselineOrecL) {
  EXPECT_EQ(RunTortureBalance<OrecL>(0x7041).balance_delta, 0);
}

TEST_F(TortureTest, BaselineValCounterSkip) {
  EXPECT_EQ(RunTortureBalance<ValCounterSkip>(0x7042).balance_delta, 0);
}

TEST_F(TortureTest, BaselineValPart) {
  EXPECT_EQ(RunTortureBalance<ValPart>(0x7043).balance_delta, 0);
}

#if defined(SPECTM_FAILPOINTS)

// Forced aborts at the decision sites: every read's sandwich re-check, every
// skip/walk decision, every lock CAS can spuriously "conflict". The engines
// must treat an injected abort exactly like a real one — token released, locks
// restored, logs replayed on retry — or the balance diverges.
TEST_F(TortureTest, ForcedAbortScheduleKeepsBalance) {
  failpoint::SetSeed(0xabf0);
  failpoint::Arm(failpoint::Site::kPostReadPreSandwich, /*abort_pct=*/4);
  failpoint::Arm(failpoint::Site::kPreValidate, /*abort_pct=*/3);
  failpoint::Arm(failpoint::Site::kLockAcquire, /*abort_pct=*/4);
  EXPECT_EQ(RunTortureBalance<OrecL>(0x7141).balance_delta, 0);
  EXPECT_EQ(RunTortureBalance<ValCounterSkip>(0x7142).balance_delta, 0);
  EXPECT_GT(failpoint::Hits(failpoint::Site::kLockAcquire), 0u)
      << "the schedule never actually fired — the torture was a no-op";
}

#if defined(SPECTM_SCHED)

// Scheduler-driven publication windows: under SPECTM_SCHED the cooperative
// controller OWNS the interleaving — every planted site, including the
// stripe-bump -> counter-bump -> post-bump sequence, is a schedule point
// where the seeded random walk can park a committer mid-publication and run
// every other worker through the half-published window. Unlike the spin-delay
// variant below this needs no second core to interleave (the PR 6 caveat) and
// the whole run is deterministic and replayable from the seed.
template <typename Family>
std::int64_t RunSchedTortureBalance(std::uint64_t seed, int workers, int ops,
                                    bool* point_limit_hit) {
  TmHashSet<Family> set(32);
  std::vector<std::int64_t> balance(static_cast<std::size_t>(workers), 0);
  std::vector<std::function<void()>> bodies;
  for (int t = 0; t < workers; ++t) {
    bodies.push_back([&, t] {
      Xorshift128Plus rng(seed + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < ops; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeys);
        if (rng.Next() & 1) {
          if (set.Insert(k)) {
            ++balance[static_cast<std::size_t>(t)];
          }
        } else {
          if (set.Remove(k)) {
            --balance[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  sched::RandomWalkPolicy policy(seed ^ 0x5c4edull);
  const sched::RunRecord rec =
      sched::Controller::Instance().Run(std::move(bodies), policy);
  *point_limit_hit = rec.point_limit_hit;
  std::int64_t expected = 0;
  for (const std::int64_t b : balance) {
    expected += b;
  }
  std::int64_t present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    present += set.Contains(k) ? 1 : 0;
  }
  return present - expected;
}

TEST_F(TortureTest, PublicationWindowScheduleKeepsBalance) {
  bool truncated = false;
  EXPECT_EQ(RunSchedTortureBalance<ValPart>(0x7243, kWorkers, 300, &truncated), 0);
  EXPECT_FALSE(truncated) << "the run hit the point cap (livelocked schedule?)";
  EXPECT_EQ(RunSchedTortureBalance<ValCounterSkip>(0x7244, kWorkers, 300, &truncated), 0);
  EXPECT_FALSE(truncated) << "the run hit the point cap (livelocked schedule?)";
}

#else  // !SPECTM_SCHED

// Delay injection inside the publication sequence (stripe bumps -> counter
// bump -> post-bump window): widens exactly the tail/crossing-committer windows
// the bump-before-validate discipline (docs/VALIDATION.md) must cover.
// Spin delays, NOT yields: the pauses run while commit locks are held, and on
// a single-core host a yielding lock holder hands its whole quantum to peers
// that spin in backoff against its locks — the run crawls through the
// scheduler instead of through the protocol. Spins are cheap there and still
// widen the windows wherever a second core can actually interleave. (Under
// SPECTM_SCHED this test is replaced by the scheduler-driven variant above,
// which interleaves the same windows deterministically on any core count.)
TEST_F(TortureTest, PublicationDelayScheduleKeepsBalance) {
  failpoint::SetSeed(0xde1a);
  failpoint::Arm(failpoint::Site::kPreStripeBump, /*abort_pct=*/0,
                 /*delay_pct=*/25, /*delay_spins=*/400);
  failpoint::Arm(failpoint::Site::kPreBump, /*abort_pct=*/0,
                 /*delay_pct=*/25, /*delay_spins=*/400);
  failpoint::Arm(failpoint::Site::kPostBump, /*abort_pct=*/0,
                 /*delay_pct=*/25, /*delay_spins=*/400);
  EXPECT_EQ(RunTortureBalance<ValPart>(0x7243).balance_delta, 0);
  EXPECT_EQ(RunTortureBalance<ValCounterSkip>(0x7244).balance_delta, 0);
}

#endif  // SPECTM_SCHED

// Exception-storm harness: same linked-set balance invariant, but the armed
// sites THROW (failpoint::InjectedFault) instead of returning an abort
// verdict, so recovery runs through the C++ unwind path — TxUnwindGuard /
// ShortTx destructor — rather than the engines' return-coded abort branches.
// Every throw site precedes the attempt's releasing stores and the unwind
// publishes nothing, so a thrown op is exactly "the op did not happen": the
// worker catches the fault, leaves its balance untouched, and moves on. Any
// leaked orec/val lock or serial-gate token would deadlock or corrupt the
// concurrent workers; any half-published commit would break the balance.
template <typename Family>
TortureResult RunExceptionStormBalance(std::uint64_t seed,
                                       std::uint64_t* faults_out) {
  using Probe = CmProbe<typename Family::DomainTag>;
  TmHashSet<Family> set(32);
  std::vector<std::int64_t> balance(kWorkers, 0);
  std::atomic<std::uint64_t> faults{0};
  std::atomic<std::uint64_t> escalations{0};
  std::atomic<std::uint64_t> serial_commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Probe::Reset();
      Xorshift128Plus rng(seed + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeys);
        try {
          if (rng.Next() & 1) {
            if (set.Insert(k)) {
              ++balance[static_cast<std::size_t>(t)];
            }
          } else {
            if (set.Remove(k)) {
              --balance[static_cast<std::size_t>(t)];
            }
          }
        } catch (const failpoint::InjectedFault&) {
          faults.fetch_add(1);  // aborted-by-unwind: the op did not happen
        }
      }
      const auto probe = Probe::Get();
      escalations.fetch_add(probe.escalations);
      serial_commits.fetch_add(probe.serial_commits);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Disarm before the verification sweep: it must observe, not participate.
  failpoint::DisarmAll();
  std::int64_t expected = 0;
  for (const std::int64_t b : balance) {
    expected += b;
  }
  std::int64_t present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    present += set.Contains(k) ? 1 : 0;
  }
  *faults_out = faults.load();
  TortureResult r;
  r.balance_delta = present - expected;
  r.escalations = escalations.load();
  r.serial_commits = serial_commits.load();
  return r;
}

// Throws at the encounter/validate/lock sites under both metadata families (the
// plain local-clock orec engine and the counter-skip val engine),
// with escalation enabled so some throws land inside serial attempts (the
// token-release unwind is exercised under load, not just in the directed
// exception_safety_test). The gate must read clean after the storm — a leaked
// committer flag or owner pointer is invisible to the balance check but wedges
// the next AcquireSerial forever.
TEST_F(TortureTest, ExceptionStormScheduleKeepsBalance) {
  SetSerialEscalationStreak(4);
  failpoint::SetSeed(0xe5c4);
  failpoint::ArmThrow(failpoint::Site::kPostReadPreSandwich, /*throw_pct=*/2);
  failpoint::ArmThrow(failpoint::Site::kPreValidate, /*throw_pct=*/2);
  failpoint::ArmThrow(failpoint::Site::kLockAcquire, /*throw_pct=*/3);
  std::uint64_t faults = 0;
  const TortureResult orec = RunExceptionStormBalance<OrecL>(0xe141, &faults);
  EXPECT_EQ(orec.balance_delta, 0)
      << "an unwound attempt published state or broke a peer";
  EXPECT_GT(faults, 0u) << "the storm never threw — the schedule was a no-op";
  EXPECT_EQ(SerialGate<typename OrecL::DomainTag>::SerialOwner(), nullptr);
  EXPECT_EQ(SerialGate<typename OrecL::DomainTag>::AnnouncedCommitters(), 0u);

  failpoint::SetSeed(0xe5c5);
  failpoint::ArmThrow(failpoint::Site::kPostReadPreSandwich, /*throw_pct=*/2);
  failpoint::ArmThrow(failpoint::Site::kPreValidate, /*throw_pct=*/2);
  failpoint::ArmThrow(failpoint::Site::kLockAcquire, /*throw_pct=*/3);
  const TortureResult val = RunExceptionStormBalance<ValCounterSkip>(0xe142, &faults);
  EXPECT_EQ(val.balance_delta, 0)
      << "an unwound attempt published state or broke a peer";
  EXPECT_GT(faults, 0u) << "the storm never threw — the schedule was a no-op";
  EXPECT_EQ(SerialGate<typename ValCounterSkip::DomainTag>::SerialOwner(), nullptr);
  EXPECT_EQ(SerialGate<typename ValCounterSkip::DomainTag>::AnnouncedCommitters(), 0u);
}

// The interop schedule: a low threshold plus a high forced-conflict rate
// drives real escalations, so serial transactions commit INTERLEAVED with
// optimistic ones — forced aborts keep firing inside serial attempts too
// (token released, re-escalated, retried). The invariant must survive the
// mixing, and the probes must show the escalation path actually ran.
TEST_F(TortureTest, EscalationScheduleInteropsSeriallyAndOptimistically) {
  SetSerialEscalationStreak(3);
  failpoint::SetSeed(0x5e71);
  failpoint::Arm(failpoint::Site::kLockAcquire, /*abort_pct=*/30);
  const TortureResult r = RunTortureBalance<ValCounterSkip>(0x7345);
  EXPECT_EQ(r.balance_delta, 0)
      << "serial/optimistic interleaving corrupted the set";
  EXPECT_GT(r.escalations, 0u) << "the schedule never escalated";
  EXPECT_GT(r.serial_commits, 0u) << "no escalated attempt ever committed";
  EXPECT_GE(r.max_abort_streak, 3u);
}

#endif  // SPECTM_FAILPOINTS

}  // namespace
}  // namespace spectm
