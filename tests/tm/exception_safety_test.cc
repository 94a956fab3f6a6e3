// Unwind-safety battery for the abort machinery (src/tm/txguard.h): any
// exception escaping user code — a composable TxCancel or a foreign throw —
// must leave no orec/val lock held, no committer flag announced, and no serial
// token owned, and the very next transaction over the same locations must
// commit. The cancel/foreign tests run in every build; under SPECTM_FAILPOINTS
// the battery extends to throw injection at every planted fail-point site in
// all four engines (tentpole claim: every razor-edge site can erupt and the
// domain stays clean), including a site erupting inside an ESCALATED serial
// attempt, which must release the token before the fault leaves the frame.
#include "src/tm/txguard.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>

#include "src/common/failpoint.h"
#include "src/epoch/epoch.h"
#include "src/tm/compat.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/serial.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// Gate cleanliness is THE leak signal: a leaked lock shows up as the next
// transaction spinning/aborting forever, but a leaked committer flag or token
// is invisible to normal traffic right up until the next AcquireSerial wedges.
template <typename Family>
void ExpectGateClean() {
  using Gate = SerialGate<typename Family::DomainTag>;
  EXPECT_EQ(Gate::SerialOwner(), nullptr) << "serial token leaked";
  EXPECT_EQ(Gate::AnnouncedCommitters(), 0u) << "committer flag leaked";
}

// Post-unwind liveness probe: the same thread immediately commits a write over
// the same slot — impossible if the unwind left a lock or the token behind.
template <typename Family>
void ExpectDomainLive(typename Family::Slot* s, Word payload) {
  using Full = typename Family::Full;
  EXPECT_TRUE(Full::Atomically(
      [&](typename Family::FullTx& tx) { tx.Write(s, payload); }));
  EXPECT_EQ(Family::SingleRead(s), payload);
}

class ExceptionSafetyTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if defined(SPECTM_FAILPOINTS)
    failpoint::DisarmAll();
    failpoint::ResetHits();
    failpoint::ResetSiteHits();
#endif
    SetSerialEscalationStreak(kSerialEscalationStreak);
  }
};

// ---- TxCancel policies (every build mode) ------------------------------------------

TEST_F(ExceptionSafetyTest, CancelAndRetryRerunsTheBody) {
  Val::Slot s;
  Val::SingleWrite(&s, EncodeInt(1));
  int runs = 0;
  const bool committed = Val::Full::Atomically([&](Val::FullTx& tx) {
    ++runs;
    tx.Write(&s, EncodeInt(7));
    if (runs < 3) {
      CancelAndRetry();  // aborts the attempt mid-body, nothing published
    }
  });
  EXPECT_TRUE(committed);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(DecodeInt(Val::SingleRead(&s)), 7u);
  ExpectGateClean<Val>();
}

TEST_F(ExceptionSafetyTest, CancelTxAbortsAndPublishesNothing) {
  OrecL::Slot s;
  OrecL::SingleWrite(&s, EncodeInt(1));
  const bool committed = OrecL::Full::Atomically([&](OrecL::FullTx& tx) {
    tx.Write(&s, EncodeInt(9));
    CancelTx();
  });
  EXPECT_FALSE(committed);
  EXPECT_EQ(DecodeInt(OrecL::SingleRead(&s)), 1u) << "aborted write leaked";
  ExpectGateClean<OrecL>();
  ExpectDomainLive<OrecL>(&s, EncodeInt(2));
}

TEST_F(ExceptionSafetyTest, ForeignExceptionAbortsThenPropagates) {
  Val::Slot s;
  Val::SingleWrite(&s, EncodeInt(1));
  bool threw = false;
  try {
    Val::Full::Atomically([&](Val::FullTx& tx) {
      tx.Write(&s, EncodeInt(9));
      throw std::runtime_error("user code failure");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(DecodeInt(Val::SingleRead(&s)), 1u) << "aborted write leaked";
  ExpectGateClean<Val>();
  ExpectDomainLive<Val>(&s, EncodeInt(2));
}

// The short engines have no catching retry loop of their own: ~ShortTx is the
// unwind path, releasing encounter locks / displaced values before the foreign
// exception escapes the record's scope.
template <typename Family>
void ShortDtorUnwindCase() {
  typename Family::Slot a, b;
  Family::SingleWrite(&a, EncodeInt(1));
  Family::SingleWrite(&b, EncodeInt(2));
  bool threw = false;
  try {
    typename Family::ShortTx tx;
    (void)tx.ReadRw(&a);  // encounter-time lock now held
    (void)tx.ReadRo(&b);
    throw std::runtime_error("user code failure");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  ExpectGateClean<Family>();
  // The lock ReadRw took must be gone: single ops spin on locked words.
  Family::SingleWrite(&a, EncodeInt(5));
  EXPECT_EQ(DecodeInt(Family::SingleRead(&a)), 5u);
  typename Family::ShortTx tx2;
  (void)tx2.ReadRw(&a);
  ASSERT_TRUE(tx2.Valid());
  EXPECT_TRUE(tx2.CommitRw({EncodeInt(6)}));
  EXPECT_EQ(DecodeInt(Family::SingleRead(&a)), 6u);
}

TEST_F(ExceptionSafetyTest, ShortDtorUnwindOrec) { ShortDtorUnwindCase<OrecL>(); }
TEST_F(ExceptionSafetyTest, ShortDtorUnwindVal) { ShortDtorUnwindCase<Val>(); }

TEST_F(ExceptionSafetyTest, TxRunCancelPolicies) {
  Val::Slot s;
  Val::SingleWrite(&s, EncodeInt(1));
  int runs = 0;
  const bool retried = compat::Tx_Run<Val>([&](compat::TX_RECORD<Val>* t) {
    ++runs;
    compat::Tx_RW_R1(t, &s);
    if (runs < 2) {
      CancelAndRetry();
    }
    compat::Tx_RW_1_Commit(t, compat::ToPtr(EncodeInt(4)));
    return true;
  });
  EXPECT_TRUE(retried);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(DecodeInt(Val::SingleRead(&s)), 4u);

  const bool aborted = compat::Tx_Run<Val>([&](compat::TX_RECORD<Val>* t) {
    compat::Tx_RW_R1(t, &s);
    CancelTx();
    return true;  // unreachable
  });
  EXPECT_FALSE(aborted);
  EXPECT_EQ(DecodeInt(Val::SingleRead(&s)), 4u) << "cancelled attempt leaked";
  ExpectGateClean<Val>();
}

// A read that meets a lock fails the attempt without finishing it; a body
// that throws afterwards must still hand back what Start() took: the serial
// token of an escalated attempt and, in snapshot mode, the snapshot pin that
// bounds version-chain reclamation.
template <typename Family>
void ThrowAfterFailedReadCase() {
  using Tag = typename Family::DomainTag;
  static typename Family::Slot a, b;
  Family::SingleWrite(&a, EncodeInt(1));
  Family::SingleWrite(&b, EncodeInt(2));
  SetSerialEscalationStreak(1);
  TxDesc& desc = DescOf<Tag>();
  desc.cm_cooldown = 0;
  SerialCm<Tag>::NoteAbortBackoff(desc);  // streak >= 1: the attempt escalates
  constexpr bool kVal = std::is_same_v<typename Family::Slot, ValSlot>;
  TxDesc foreign;
  std::atomic<Word>* b_meta;
  if constexpr (kVal) {
    b_meta = &b.word;
  } else {
    b_meta = &Family::Layout::OrecOf(b);
  }
  const Word b_old = b_meta->load();
  b_meta->store(kVal ? MakeValLocked(&foreign) : MakeOrecLocked(&foreign));
  bool threw = false;
  try {
    Family::Full::Atomically([&](typename Family::FullTx& tx) {
      EXPECT_EQ(SerialGate<Tag>::SerialOwner(), &desc);
      tx.Write(&a, EncodeInt(5));  // (snapshot mode: leaves the snapshot phase)
      (void)tx.Read(&b);           // meets the foreign lock
      EXPECT_FALSE(tx.ok());
      throw std::runtime_error("user code failure");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  b_meta->store(b_old);
  EXPECT_TRUE(threw);
  // A leaked token is owned by this very descriptor, so the liveness probe
  // below would spin on it forever: stop here instead.
  ASSERT_EQ(SerialGate<Tag>::SerialOwner(), nullptr) << "serial token leaked";
  ExpectGateClean<Family>();
  if constexpr (std::is_same_v<Family, ValSnap>) {
    Family::SingleWrite(&a, EncodeInt(6));  // moves the clock past the old pin
    const Word now = Family::Validation::Sample();
    EXPECT_EQ(mvcc::MvccEpoch().SnapshotDoneStamp(now), now) << "snapshot pin leaked";
  }
  // Optimistic probe: a serial commit here would leave the descriptor in its
  // escalation cooldown for the tests that follow.
  SetSerialEscalationStreak(kSerialEscalationStreak);
  ExpectDomainLive<Family>(&a, EncodeInt(7));
}

TEST_F(ExceptionSafetyTest, ThrowAfterFailedReadOrec) { ThrowAfterFailedReadCase<OrecL>(); }
TEST_F(ExceptionSafetyTest, ThrowAfterFailedReadSnapshot) {
  ThrowAfterFailedReadCase<ValSnap>();
}

#if defined(SPECTM_FAILPOINTS)

using failpoint::Site;

// ---- Throw injection at every planted site, engine by engine -----------------------

// Full engines: the body reads one slot and writes another, so the read-path
// sites (sandwich) and the commit-path sites (gate, lock CAS, publication,
// validation) are all on the executed path. 100% throw probability makes the
// first reached armed site erupt deterministically.
template <typename Family>
void FullThrowAtSite(Site site) {
  using Full = typename Family::Full;
  typename Family::Slot a, b;
  Family::SingleWrite(&a, EncodeInt(1));
  Family::SingleWrite(&b, EncodeInt(2));
  failpoint::ResetHits();
  failpoint::ArmThrow(site, 100);
  bool threw = false;
  try {
    Full::Atomically([&](typename Family::FullTx& tx) {
      const Word v = tx.Read(&a);
      if (tx.ok()) {
        tx.Write(&b, EncodeInt(DecodeInt(v) + 10));
      }
    });
  } catch (const failpoint::InjectedFault& fault) {
    threw = true;
    EXPECT_EQ(fault.site, site);
  }
  failpoint::Disarm(site);
  EXPECT_TRUE(threw) << "site never reached: " << failpoint::SiteName(site);
  EXPECT_GT(failpoint::Hits(site), 0u);
  EXPECT_EQ(DecodeInt(Family::SingleRead(&b)), 2u) << "torn write leaked";
  ExpectGateClean<Family>();
  ExpectDomainLive<Family>(&b, EncodeInt(3));
}

// Short engines: first RO read hits the sandwich site, the RW reads hit the
// lock-CAS site, and CommitMixed's RO validation hits the pre-validate site.
template <typename Family>
void ShortThrowAtSite(Site site) {
  typename Family::Slot a, b, c;
  Family::SingleWrite(&a, EncodeInt(1));
  Family::SingleWrite(&b, EncodeInt(2));
  Family::SingleWrite(&c, EncodeInt(3));
  failpoint::ResetHits();
  failpoint::ArmThrow(site, 100);
  bool threw = false;
  try {
    typename Family::ShortTx tx;
    (void)tx.ReadRo(&a);
    (void)tx.ReadRo(&b);
    (void)tx.ReadRw(&c);
    if (tx.Valid()) {
      (void)tx.CommitMixed({EncodeInt(30)});
    }
  } catch (const failpoint::InjectedFault& fault) {
    threw = true;
    EXPECT_EQ(fault.site, site);
  }
  failpoint::Disarm(site);
  EXPECT_TRUE(threw) << "site never reached: " << failpoint::SiteName(site);
  EXPECT_GT(failpoint::Hits(site), 0u);
  EXPECT_EQ(DecodeInt(Family::SingleRead(&c)), 3u) << "torn write leaked";
  ExpectGateClean<Family>();
  // Post-storm liveness over the formerly locked slot.
  typename Family::ShortTx tx2;
  (void)tx2.ReadRw(&c);
  ASSERT_TRUE(tx2.Valid());
  EXPECT_TRUE(tx2.CommitRw({EncodeInt(8)}));
  EXPECT_EQ(DecodeInt(Family::SingleRead(&c)), 8u);
}

TEST_F(ExceptionSafetyTest, FullOrecThrowEverySite) {
  FullThrowAtSite<OrecL>(Site::kPostReadPreSandwich);
  FullThrowAtSite<OrecL>(Site::kPreValidate);
  FullThrowAtSite<OrecL>(Site::kLockAcquire);
}

// The publication sites are pause-style (locks held, counters mid-bump): a
// throw there is the harshest unwind of all and must still restore every lock
// through the commit guard. Only the val families on the striped counter run
// the publication sequence; the counter-skip one runs it here, the partitioned
// one in FullValThrowEverySite.
TEST_F(ExceptionSafetyTest, FullValCounterSkipThrowInsidePublication) {
  FullThrowAtSite<ValCounterSkip>(Site::kPreBump);
  FullThrowAtSite<ValCounterSkip>(Site::kPostBump);
  FullThrowAtSite<ValCounterSkip>(Site::kPreStripeBump);
}

TEST_F(ExceptionSafetyTest, FullValThrowEverySite) {
  FullThrowAtSite<Val>(Site::kPreValidate);
  FullThrowAtSite<Val>(Site::kLockAcquire);
  FullThrowAtSite<ValPart>(Site::kPreBump);
  FullThrowAtSite<ValPart>(Site::kPostBump);
  FullThrowAtSite<ValPart>(Site::kPreStripeBump);
}

TEST_F(ExceptionSafetyTest, ShortOrecThrowEverySite) {
  ShortThrowAtSite<OrecL>(Site::kPostReadPreSandwich);
  ShortThrowAtSite<OrecL>(Site::kPreValidate);
  ShortThrowAtSite<OrecL>(Site::kLockAcquire);
}

TEST_F(ExceptionSafetyTest, ShortValThrowEverySite) {
  ShortThrowAtSite<Val>(Site::kPostReadPreSandwich);
  ShortThrowAtSite<Val>(Site::kPreValidate);
  ShortThrowAtSite<Val>(Site::kLockAcquire);
}

// MVCC publication is the razor-edge the version chains add: at kVersionPublish
// the node is already linked as the chain head but still UNSTAMPED, and the
// slot lock is still held. A throw there must tombstone the node (stamp :=
// floor, an empty validity interval) before restoring the displaced value —
// an unstamped head left behind would wedge every later snapshot read into
// its publish-window retry loop, and a selectable interval would expose the
// aborted write to pinned readers.
TEST_F(ExceptionSafetyTest, SnapshotFullPublishThrowTombstonesTheHead) {
  // Static, like every ValSnap slot in this file: a slot's version-chain nodes
  // come from the MVCC node pool and outlive the slot, so a stack slot would
  // leave them unreachable (a LeakSanitizer report in ASan builds).
  static ValSnap::Slot a, b;
  ValSnap::SingleWrite(&a, EncodeInt(1));
  ValSnap::SingleWrite(&b, EncodeInt(2));
  failpoint::ResetHits();
  failpoint::ArmThrow(Site::kVersionPublish, 100);
  bool threw = false;
  try {
    ValSnap::Full::Atomically([&](ValSnap::FullTx& tx) {
      const Word v = tx.Read(&a);
      if (tx.ok()) {
        tx.Write(&b, EncodeInt(DecodeInt(v) + 10));
      }
    });
  } catch (const failpoint::InjectedFault& fault) {
    threw = true;
    EXPECT_EQ(fault.site, Site::kVersionPublish);
  }
  failpoint::Disarm(Site::kVersionPublish);
  EXPECT_TRUE(threw) << "publish site never reached";
  EXPECT_EQ(DecodeInt(ValSnap::SingleRead(&b)), 2u) << "torn write leaked";
  mvcc::VersionNode* head = b.versions.load(std::memory_order_acquire);
  ASSERT_NE(head, nullptr) << "the pre-fault push vanished";
  const Word stamp = head->stamp.load(std::memory_order_acquire);
  EXPECT_NE(stamp, mvcc::kUnstamped) << "unstamped head leaked past the unwind";
  EXPECT_EQ(stamp, head->floor) << "aborted publish left a selectable interval";
  ExpectGateClean<ValSnap>();
  // A fresh snapshot over the repaired chain reads the restored value.
  EXPECT_TRUE(ValSnap::Full::Atomically([&](ValSnap::FullTx& tx) {
    EXPECT_EQ(DecodeInt(tx.Read(&b)), 2u);
  }));
  ExpectDomainLive<ValSnap>(&b, EncodeInt(3));
}

// Same eruption on the single-op precise path, where the publish runs between
// the commit bump and the releasing store with the lock guard as the only
// unwind machinery.
TEST_F(ExceptionSafetyTest, SnapshotSingleOpPublishThrowRestoresSlotAndChain) {
  static ValSnap::Slot s;
  ValSnap::SingleWrite(&s, EncodeInt(1));
  failpoint::ResetHits();
  failpoint::ArmThrow(Site::kVersionPublish, 100);
  bool threw = false;
  try {
    ValSnap::SingleWrite(&s, EncodeInt(2));
  } catch (const failpoint::InjectedFault& fault) {
    threw = true;
    EXPECT_EQ(fault.site, Site::kVersionPublish);
  }
  failpoint::Disarm(Site::kVersionPublish);
  EXPECT_TRUE(threw) << "publish site never reached";
  EXPECT_EQ(DecodeInt(ValSnap::SingleRead(&s)), 1u) << "torn single-op leaked";
  mvcc::VersionNode* head = s.versions.load(std::memory_order_acquire);
  ASSERT_NE(head, nullptr);
  const Word stamp = head->stamp.load(std::memory_order_acquire);
  EXPECT_NE(stamp, mvcc::kUnstamped) << "unstamped head leaked past the unwind";
  EXPECT_EQ(stamp, head->floor) << "aborted publish left a selectable interval";
  ExpectGateClean<ValSnap>();
  EXPECT_TRUE(ValSnap::Full::Atomically([&](ValSnap::FullTx& tx) {
    EXPECT_EQ(DecodeInt(tx.Read(&s)), 1u);
  }));
  ExpectDomainLive<ValSnap>(&s, EncodeInt(4));
}

// A fault erupting inside an ESCALATED attempt: the serial token is the one
// piece of state whose leak wedges the whole domain (the next escalation spins
// on AcquireSerial forever), so the unwind must release it before the fault
// leaves the frame.
TEST_F(ExceptionSafetyTest, ThrowInsideSerialAttemptReleasesToken) {
  using Probe = CmProbe<typename OrecL::DomainTag>;
  OrecL::Slot s;
  OrecL::SingleWrite(&s, EncodeInt(1));
  SetSerialEscalationStreak(1);
  // Build a streak of 1: one forced-conflict commit failure.
  failpoint::Arm(Site::kLockAcquire, /*abort_pct=*/100);
  {
    OrecL::FullTx tx;
    tx.Start();
    tx.Write(&s, EncodeInt(2));
    EXPECT_FALSE(tx.Commit());
  }
  failpoint::Disarm(Site::kLockAcquire);
  const auto before = Probe::Get();
  // The next attempt escalates (streak >= 1) and then erupts at the lock CAS,
  // which serial attempts still run (ordinary commit protocol under the token).
  failpoint::ArmThrow(Site::kLockAcquire, 100);
  bool threw = false;
  try {
    OrecL::Full::Atomically(
        [&](OrecL::FullTx& tx) { tx.Write(&s, EncodeInt(3)); });
  } catch (const failpoint::InjectedFault&) {
    threw = true;
  }
  failpoint::Disarm(Site::kLockAcquire);
  EXPECT_TRUE(threw);
  EXPECT_GT(Probe::Get().escalations, before.escalations)
      << "the schedule never actually escalated";
  ExpectGateClean<OrecL>();
  EXPECT_EQ(DecodeInt(OrecL::SingleRead(&s)), 1u) << "torn serial write leaked";
  // The decisive liveness probe: acquiring the token AGAIN only works if the
  // unwind released it.
  SetSerialEscalationStreak(1);
  EXPECT_TRUE(OrecL::Full::Atomically(
      [&](OrecL::FullTx& tx) { tx.Write(&s, EncodeInt(4)); }));
  EXPECT_EQ(DecodeInt(OrecL::SingleRead(&s)), 4u);
}

// ---- Reach-counter audit: every planted site actually fires ------------------------
//
// SiteHits counts every REACH of a planted site (no RNG draw, no arming), so
// this is the canary against silently unreachable plants: a refactor that
// moves a protocol path off its fail-point would otherwise quietly turn the
// injection batteries above into no-ops without failing anything.
TEST_F(ExceptionSafetyTest, EveryPlantedSiteActuallyFires) {
  failpoint::ResetSiteHits();
  // Optimistic full-tx traffic: read sandwich, validation, lock CAS, and the
  // commit gate's enter/exit plants.
  {
    OrecL::Slot a, b;
    OrecL::SingleWrite(&a, EncodeInt(1));
    OrecL::SingleWrite(&b, EncodeInt(2));
    EXPECT_TRUE(OrecL::Full::Atomically([&](OrecL::FullTx& tx) {
      const Word v = tx.Read(&a);
      if (tx.ok()) {
        tx.Write(&b, EncodeInt(DecodeInt(v) + 1));
      }
    }));
  }
  // Publication sequence: the per-stripe bumps, the counter bump and the
  // post-bump window (partitioned family).
  {
    ValPart::Slot p;
    ValPart::SingleWrite(&p, EncodeInt(1));
    EXPECT_TRUE(ValPart::Full::Atomically(
        [&](ValPart::FullTx& tx) { tx.Write(&p, EncodeInt(2)); }));
  }
  // Contention: forced aborts drive the backoff wait, and with streak 1 the
  // retries escalate through the serial token acquire/release pair. 60% keeps
  // each Atomically finite while staying deterministic from the seed; the
  // loop bound only caps how long we fish for the first escalated commit.
  {
    SetSerialEscalationStreak(1);
    failpoint::SetSeed(0x517e5);
    failpoint::Arm(Site::kLockAcquire, /*abort_pct=*/60);
    OrecL::Slot s;
    OrecL::SingleWrite(&s, EncodeInt(1));
    for (int i = 0;
         i < 64 && (failpoint::SiteHits(Site::kSerialTokenRelease) == 0 ||
                    failpoint::SiteHits(Site::kBackoffWait) == 0);
         ++i) {
      (void)OrecL::Full::Atomically(
          [&](OrecL::FullTx& tx) { tx.Write(&s, EncodeInt(3)); });
    }
    failpoint::Disarm(Site::kLockAcquire);
  }
  // MVCC publication: every single-op write pushes a version (the publish
  // pause) and scans the pinned snapshots for the done stamp; overwriting the
  // same slot past the chain bound trims and retires superseded nodes.
  {
    static ValSnap::Slot s;
    for (int i = 0; i < mvcc::kMaxVersions + 2; ++i) {
      ValSnap::SingleWrite(&s, EncodeInt(static_cast<Word>(i)));
    }
    EXPECT_TRUE(ValSnap::Full::Atomically(
        [&](ValSnap::FullTx& tx) { (void)tx.Read(&s); }));
  }
  // Epoch machinery: an object into a limbo bag under a Guard, then the
  // advance/reclaim scan.
  {
    EpochManager mgr;
    {
      EpochManager::Guard g(mgr);
      mgr.Retire(new int(7));
    }
    mgr.ReclaimAllForTesting();
  }
  for (int s = 0; s < failpoint::kSiteCount; ++s) {
    EXPECT_GT(failpoint::SiteHits(static_cast<Site>(s)), 0u)
        << "planted site never reached: "
        << failpoint::SiteName(static_cast<Site>(s));
  }
}

#endif  // SPECTM_FAILPOINTS

}  // namespace
}  // namespace spectm
