// Exit-accounting table of the attempt lifecycle, pinned per family for both
// the full and the short engine. Every way an attempt can end moves a fixed set
// of contention-manager counters, and the engines must agree on it:
//
//   exit                          commits aborts EWMA     backoff
//   commit                          +1      .    decay    streak reset
//   conflict abort (planted lock)   .       +1   raise    +1
//   full user abort (AbortTx)       .       +1   raise    .
//   TxCancel kRetry / kAbort        .       +1   raise    .
//   foreign exception (full)        .       +1   raise    .
//   short RO record, still valid    .       +1   .        .
//   short record never used         .       .    .        .
//   short overflow                  .       +1   raise    +1
//   short unwound by an exception   .       +1   raise    +1  (locks were held)
//
// "backoff" is the phase-1 wait (SerialCm::NoteAbortBackoff): it bumps the
// descriptor's streak, Backoff::attempts(). Its spin count is random, so the
// no-backoff rows assert CmProbe::backoff_spins unchanged and the backoff rows
// assert the streak. After every exit no committer flag may stay announced
// and no serial token may stay owned.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "src/tm/config.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/val_word.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::uint32_t kEwmaStart = 1u << 15;  // mid-scale: both moves visible

std::uint32_t EwmaAfter(std::uint32_t start, bool aborted) {
  TxStats s;
  s.abort_ewma_q16.store(start, std::memory_order_relaxed);
  UpdateAbortEwma(s, aborted);
  return AbortEwmaQ16(s);
}

// Counter snapshot around one exit. Construction seeds the EWMA with a known
// mid-scale value so a raise, a decay and "untouched" are all distinguishable.
template <typename Family>
struct Deltas {
  using Tag = typename Family::DomainTag;
  using Probe = CmProbe<Tag>;

  Deltas() : desc(DescOf<Tag>()) {
    desc.stats.abort_ewma_q16.store(kEwmaStart, std::memory_order_relaxed);
    commits0 = desc.stats.commits.load();
    aborts0 = desc.stats.aborts.load();
    streak0 = desc.backoff.attempts();
    spins0 = Probe::Get().backoff_spins;
  }

  std::uint64_t commits() const { return desc.stats.commits.load() - commits0; }
  std::uint64_t aborts() const { return desc.stats.aborts.load() - aborts0; }
  std::uint32_t ewma() const { return AbortEwmaQ16(desc.stats); }
  std::uint64_t streak() const { return desc.backoff.attempts(); }
  std::uint64_t spins() const { return Probe::Get().backoff_spins - spins0; }

  // The abort rows differ only in whether they back off.
  void ExpectAbortNoBackoff(const char* exit) const {
    EXPECT_EQ(commits(), 0u) << exit;
    EXPECT_EQ(aborts(), 1u) << exit;
    EXPECT_EQ(ewma(), EwmaAfter(kEwmaStart, true)) << exit;
    EXPECT_EQ(streak(), streak0) << exit << ": backoff on a non-contention exit";
    EXPECT_EQ(spins(), 0u) << exit;
  }
  void ExpectAbortWithBackoff(const char* exit) const {
    EXPECT_EQ(commits(), 0u) << exit;
    EXPECT_EQ(aborts(), 1u) << exit;
    EXPECT_EQ(ewma(), EwmaAfter(kEwmaStart, true)) << exit;
    EXPECT_EQ(streak(), streak0 + 1) << exit << ": contention abort without backoff";
  }

  TxDesc& desc;
  std::uint64_t commits0, aborts0, streak0, spins0;
};

template <typename Family>
void ExpectGateClean(const char* exit) {
  using Gate = SerialGate<typename Family::DomainTag>;
  EXPECT_EQ(Gate::AnnouncedCommitters(), 0u) << exit << ": committer flag leaked";
  EXPECT_EQ(Gate::SerialOwner(), nullptr) << exit << ": serial token leaked";
}

// A lock owned by a foreign descriptor on `s`'s metadata word, restored on
// scope exit: every lock attempt on `s` meets it and fails fast.
template <typename Family>
class PlantedLock {
 public:
  explicit PlantedLock(typename Family::Slot* s) : word_(MetaOf(s)) {
    old_ = word_.load();
    if constexpr (kVal) {
      word_.store(MakeValLocked(&foreign_));
    } else {
      word_.store(MakeOrecLocked(&foreign_));
    }
  }
  ~PlantedLock() { word_.store(old_); }

 private:
  static constexpr bool kVal = std::is_same_v<typename Family::Slot, ValSlot>;
  static std::atomic<Word>& MetaOf(typename Family::Slot* s) {
    if constexpr (kVal) {
      return s->word;
    } else {
      return Family::Layout::OrecOf(*s);
    }
  }

  std::atomic<Word>& word_;
  Word old_ = 0;
  TxDesc foreign_;
};

template <typename Family>
class AttemptAccounting : public ::testing::Test {
 protected:
  // Escalation off: a streak built up by the backoff rows must not turn a
  // later attempt serial and change its row.
  void SetUp() override { SetSerialEscalationStreak(0); }
  void TearDown() override { SetSerialEscalationStreak(kSerialEscalationStreak); }

  static void Seed(typename Family::Slot* s, std::uint64_t v) {
    Family::SingleWrite(s, EncodeInt(v));
  }
};

using Families = ::testing::Types<OrecL, OrecG, Val, ValSnap>;
TYPED_TEST_SUITE(AttemptAccounting, Families);

// ---- Full engine ---------------------------------------------------------------

TYPED_TEST(AttemptAccounting, FullCommit) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  EXPECT_TRUE(F::Full::Atomically([&](typename F::FullTx& tx) {
    tx.Write(&s, tx.Read(&s) + EncodeInt(1));
  }));
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.aborts(), 0u);
  EXPECT_EQ(d.ewma(), EwmaAfter(kEwmaStart, false));
  EXPECT_EQ(d.streak(), 0u);
  EXPECT_EQ(d.spins(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 2u);
  ExpectGateClean<F>("full commit");
}

TYPED_TEST(AttemptAccounting, FullReadOnlyCommit) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 3);
  Deltas<F> d;
  Word seen = 0;
  EXPECT_TRUE(F::Full::Atomically([&](typename F::FullTx& tx) { seen = tx.Read(&s); }));
  EXPECT_EQ(DecodeInt(seen), 3u);
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.aborts(), 0u);
  EXPECT_EQ(d.ewma(), EwmaAfter(kEwmaStart, false));
  ExpectGateClean<F>("full read-only commit");
}

// The commit-time lock loop meets the planted lock: the attempt entered the
// committer gate, so the flag must be retracted as well.
TYPED_TEST(AttemptAccounting, FullConflictAbort) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  {
    PlantedLock<F> lock(&s);
    typename F::FullTx tx;
    tx.Start();
    tx.Write(&s, EncodeInt(9));
    EXPECT_FALSE(tx.Commit());
  }
  d.ExpectAbortWithBackoff("full conflict abort");
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 1u);
  ExpectGateClean<F>("full conflict abort");
}

TYPED_TEST(AttemptAccounting, FullUserAbort) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  {
    typename F::FullTx tx;
    tx.Start();
    tx.Write(&s, EncodeInt(9));
    tx.AbortTx();
    EXPECT_FALSE(tx.Commit());
  }
  d.ExpectAbortNoBackoff("full user abort");
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 1u);
  ExpectGateClean<F>("full user abort");
}

// The cancelled attempt must not back off: the re-run body sees the streak
// exactly as it was before the cancel.
TYPED_TEST(AttemptAccounting, FullCancelRetry) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  int runs = 0;
  std::uint64_t streak_on_rerun = ~std::uint64_t{0};
  std::uint64_t aborts_on_rerun = 0;
  EXPECT_TRUE(F::Full::Atomically([&](typename F::FullTx& tx) {
    if (++runs == 1) {
      tx.Write(&s, EncodeInt(9));
      CancelAndRetry();
    }
    streak_on_rerun = d.streak();
    aborts_on_rerun = d.aborts();
    tx.Write(&s, EncodeInt(5));
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(streak_on_rerun, d.streak0) << "cancel-and-retry backed off";
  EXPECT_EQ(aborts_on_rerun, 1u);
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.aborts(), 1u);
  EXPECT_EQ(d.ewma(), EwmaAfter(EwmaAfter(kEwmaStart, true), false));
  EXPECT_EQ(d.spins(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 5u);
  ExpectGateClean<F>("full cancel-retry");
}

TYPED_TEST(AttemptAccounting, FullCancelAbort) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  EXPECT_FALSE(F::Full::Atomically([&](typename F::FullTx& tx) {
    tx.Write(&s, EncodeInt(9));
    CancelTx();
  }));
  d.ExpectAbortNoBackoff("full cancel-abort");
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 1u);
  ExpectGateClean<F>("full cancel-abort");
}

TYPED_TEST(AttemptAccounting, FullForeignException) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  EXPECT_THROW(F::Full::Atomically([&](typename F::FullTx& tx) {
                 tx.Write(&s, EncodeInt(9));
                 throw std::runtime_error("user code failure");
               }),
               std::runtime_error);
  d.ExpectAbortNoBackoff("full foreign exception");
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 1u);
  ExpectGateClean<F>("full foreign exception");
}

// ---- Short engine --------------------------------------------------------------

TYPED_TEST(AttemptAccounting, ShortCommit) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    const Word v = tx.ReadRw(&s);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.CommitRw({v + EncodeInt(1)}));
  }
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.aborts(), 0u);
  EXPECT_EQ(d.ewma(), EwmaAfter(kEwmaStart, false));
  EXPECT_EQ(d.streak(), 0u);
  EXPECT_EQ(d.spins(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 2u);
  ExpectGateClean<F>("short commit");
}

TYPED_TEST(AttemptAccounting, ShortMixedCommit) {
  using F = TypeParam;
  static typename F::Slot ro, rw;
  this->Seed(&ro, 4);
  this->Seed(&rw, 1);
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    const Word r = tx.ReadRo(&ro);
    const Word w = tx.ReadRw(&rw);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.CommitMixed({w + r}));
  }
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.aborts(), 0u);
  EXPECT_EQ(d.ewma(), EwmaAfter(kEwmaStart, false));
  EXPECT_EQ(DecodeInt(F::SingleRead(&rw)), 5u);
  ExpectGateClean<F>("short mixed commit");
}

// Encounter-time locking meets the planted lock after the gate was entered.
TYPED_TEST(AttemptAccounting, ShortConflictAbort) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  {
    PlantedLock<F> lock(&s);
    typename F::ShortTx tx;
    EXPECT_EQ(tx.ReadRw(&s), 0u);
    EXPECT_FALSE(tx.Valid());
    tx.Abort();
  }
  d.ExpectAbortWithBackoff("short conflict abort");
  ExpectGateClean<F>("short conflict abort");
}

// The paper's read-only completion: a still-valid RO record dropped through
// Abort() counts an abort but is not contention.
TYPED_TEST(AttemptAccounting, ShortValidReadOnlyDropped) {
  using F = TypeParam;
  static typename F::Slot a, b;
  this->Seed(&a, 1);
  this->Seed(&b, 2);
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
    EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.ValidateRo());
    tx.Abort();
  }
  EXPECT_EQ(d.commits(), 0u);
  EXPECT_EQ(d.aborts(), 1u);
  EXPECT_EQ(d.ewma(), kEwmaStart) << "a valid RO drop fed the abort EWMA";
  EXPECT_EQ(d.streak(), d.streak0);
  EXPECT_EQ(d.spins(), 0u);
  ExpectGateClean<F>("short RO drop");
}

TYPED_TEST(AttemptAccounting, ShortUnusedRecordDropped) {
  using F = TypeParam;
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    tx.Abort();
  }
  { typename F::ShortTx tx; }  // destructor path
  EXPECT_EQ(d.commits(), 0u);
  EXPECT_EQ(d.aborts(), 0u);
  EXPECT_EQ(d.ewma(), kEwmaStart);
  EXPECT_EQ(d.streak(), d.streak0);
  EXPECT_EQ(d.spins(), 0u);
  ExpectGateClean<F>("short unused record");
}

// Overflow releases the gate the moment it is detected, long before Abort().
TYPED_TEST(AttemptAccounting, ShortOverflow) {
  using F = TypeParam;
  static typename F::Slot slots[kMaxShortWrites + 1];
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    for (int i = 0; i < kMaxShortWrites; ++i) {
      tx.ReadRw(&slots[i]);
      ASSERT_TRUE(tx.Valid());
    }
    EXPECT_EQ(tx.ReadRw(&slots[kMaxShortWrites]), 0u);
    EXPECT_FALSE(tx.Valid());
    ExpectGateClean<F>("short overflow, before Abort");
    tx.Abort();
  }
  d.ExpectAbortWithBackoff("short overflow");
  ExpectGateClean<F>("short overflow");
}

// No retry loop catches for the short engines: ~ShortTx is the unwind. The
// record held an encounter-time lock, so it counts as contention.
TYPED_TEST(AttemptAccounting, ShortUnwoundByException) {
  using F = TypeParam;
  static typename F::Slot s;
  this->Seed(&s, 1);
  Deltas<F> d;
  EXPECT_THROW(
      {
        typename F::ShortTx tx;
        tx.ReadRw(&s);
        throw std::runtime_error("user code failure");
      },
      std::runtime_error);
  d.ExpectAbortWithBackoff("short exception unwind");
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 1u);
  ExpectGateClean<F>("short exception unwind");
}

// ---- Serial-irrevocable attempts -----------------------------------------------

// Past the streak threshold the attempt takes the token at start; the commit
// releases it and starts the cooldown, the user abort only releases it.
TYPED_TEST(AttemptAccounting, SerialFullCommitAndUserAbort) {
  using F = TypeParam;
  using Cm = SerialCm<typename F::DomainTag>;
  using Probe = CmProbe<typename F::DomainTag>;
  static typename F::Slot s;
  this->Seed(&s, 1);
  SetSerialEscalationStreak(1);
  TxDesc& desc = DescOf<typename F::DomainTag>();
  desc.cm_cooldown = 0;
  Cm::NoteAbortBackoff(desc);  // streak >= 1: the next attempt escalates
  const std::uint64_t escalations0 = Probe::Get().escalations;
  const std::uint64_t serial0 = Probe::Get().serial_commits;
  {
    typename F::FullTx tx;
    tx.Start();
    EXPECT_EQ(SerialGate<typename F::DomainTag>::SerialOwner(), &desc);
    tx.Write(&s, EncodeInt(7));
    tx.AbortTx();
    EXPECT_FALSE(tx.Commit());
  }
  ExpectGateClean<F>("serial user abort");
  EXPECT_EQ(Probe::Get().serial_commits, serial0);

  Deltas<F> d;
  EXPECT_TRUE(F::Full::Atomically([&](typename F::FullTx& tx) {
    tx.Write(&s, EncodeInt(8));
  }));
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(d.ewma(), EwmaAfter(kEwmaStart, false));
  EXPECT_EQ(Probe::Get().escalations, escalations0 + 2);
  EXPECT_EQ(Probe::Get().serial_commits, serial0 + 1);
  EXPECT_EQ(desc.cm_cooldown, kSerialCooldownCommits);
  EXPECT_EQ(desc.backoff.attempts(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 8u);
  ExpectGateClean<F>("serial full commit");
}

TYPED_TEST(AttemptAccounting, SerialShortCommit) {
  using F = TypeParam;
  using Cm = SerialCm<typename F::DomainTag>;
  using Probe = CmProbe<typename F::DomainTag>;
  static typename F::Slot s;
  this->Seed(&s, 1);
  SetSerialEscalationStreak(1);
  TxDesc& desc = DescOf<typename F::DomainTag>();
  desc.cm_cooldown = 0;
  Cm::NoteAbortBackoff(desc);
  const std::uint64_t serial0 = Probe::Get().serial_commits;
  Deltas<F> d;
  {
    typename F::ShortTx tx;
    EXPECT_EQ(SerialGate<typename F::DomainTag>::SerialOwner(), &desc);
    const Word v = tx.ReadRw(&s);
    ASSERT_TRUE(tx.Valid());
    EXPECT_EQ(SerialGate<typename F::DomainTag>::AnnouncedCommitters(), 0u)
        << "a serial attempt must not enter the committer gate";
    EXPECT_TRUE(tx.CommitRw({v + EncodeInt(1)}));
  }
  EXPECT_EQ(d.commits(), 1u);
  EXPECT_EQ(Probe::Get().serial_commits, serial0 + 1);
  EXPECT_EQ(desc.cm_cooldown, kSerialCooldownCommits);
  EXPECT_EQ(DecodeInt(F::SingleRead(&s)), 2u);
  ExpectGateClean<F>("serial short commit");
}

}  // namespace
}  // namespace spectm
