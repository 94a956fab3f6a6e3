// SpecTM specialized short transactions over orec-based layouts (§2.2).
//
// The programmer contract (checked with assertions in debug builds, free in release,
// exactly as §2.2 "Code complexity" prescribes):
//   * at most kMaxShortReads RO and kMaxShortWrites RW locations per transaction;
//   * every access names a distinct memory location;
//   * the RO and RW sets are disjoint (upgrades move a location from RO to RW);
//   * all writes are deferred to commit, whose argument list supplies the new values
//     in RW-read order;
//   * no write-to-read dependencies (a location written is never subsequently read).
//
// What the restrictions buy (§2.2):
//   * no update log and no read-after-write checks — values arrive at commit;
//   * RW reads lock eagerly (encounter-time locking), so a read-write transaction
//     needs no commit-time validation at all: every location it read is pinned;
//   * all book-keeping lives in fixed-size arrays inside the stack-allocated
//     ShortTx record — no dynamic logs, no dynamic operation indices.
//
// Conflicts never block: any locked orec invalidates the transaction (deadlock is
// avoided conservatively, §2.4), the caller releases its locks via Abort() and
// restarts, mirroring the paper's `goto restart` idiom.
//
// Single-operation transactions (Tx_Single_* in Figure 2) are provided as statics;
// they are linearizable and synchronize with both short and full transactions of the
// same domain because all of them agree on the orec protocol.
#ifndef SPECTM_TM_SHORT_TM_H_
#define SPECTM_TM_SHORT_TM_H_

#include <atomic>
#include <cassert>
#include <initializer_list>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/inline_vec.h"
#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/layout.h"
#include "src/tm/orec.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"

namespace spectm {

template <typename LayoutT, typename ClockT, typename DomainTag>
class ShortTm {
 public:
  using Layout = LayoutT;
  using Clock = ClockT;
  using Slot = typename Layout::Slot;
  using Gate = SerialGate<DomainTag>;

  // The TX_RECORD of Figure 2: stack-allocated, fixed-size, reusable after Abort().
  class ShortTx {
   public:
    ShortTx() : desc_(&DescOf<DomainTag>()) { StartAttempt(); }
    ~ShortTx() {
      // Defensive RAII: a record abandoned mid-transaction must not leak locks.
      if (!finished_) {
        Abort();
      }
    }
    ShortTx(const ShortTx&) = delete;
    ShortTx& operator=(const ShortTx&) = delete;

    // --- Read-write accesses (Tx_RW_R1, Tx_RW_R2, ...) -------------------------------
    //
    // Encounter-time locking: the orec is acquired at read time; the returned value
    // cannot change until this transaction commits or aborts. On conflict the
    // transaction is invalidated and 0 is returned; the caller must Abort() and
    // restart (checking Valid() first, as with ..._Is_Valid in the paper).
    Word ReadRw(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      // Exceeding the fixed-size location arrays is a contract violation (§2.2), but
      // it must not become memory corruption in release builds: invalidate the
      // transaction instead of pushing past the InlineVec bound. The caller's normal
      // Valid()/Abort()/restart path then surfaces the bug safely.
      if (rw_.Full()) {
        UnwindForOverflow();
        return 0;
      }
      // Encounter-time locking makes every RW transaction a committer from its
      // first lock onward: announce at the committer gate BEFORE that lock so a
      // serial-irrevocable transaction (src/tm/serial.h) can exclude us. Fail
      // fast while the token is held — the caller's normal restart loop retries.
      if (!attempt_.EnterCommitter(*desc_)) {
        valid_ = false;
        return 0;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
        valid_ = false;
        return 0;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      Word w = orec.load(std::memory_order_relaxed);
      while (true) {
        if (OrecIsLocked(w)) {
          if (OrecOwnerOf(w) == desc_) {
            // Two distinct slots collided on one shared-table orec; it is already
            // pinned by us, so just record the access without re-locking.
            rw_.PushBack(RwEntry{s, &orec, kAlreadyOwned});
            return Layout::Data(*s).load(std::memory_order_acquire);
          }
          valid_ = false;  // conservative: never wait while holding locks
          return 0;
        }
        if (orec.compare_exchange_weak(w, MakeOrecLocked(desc_),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
          rw_.PushBack(RwEntry{s, &orec, w});
          return Layout::Data(*s).load(std::memory_order_acquire);
        }
      }
    }

    // --- Read-only accesses (Tx_RO_R1, Tx_RO_R2, ...) --------------------------------
    //
    // Invisible reads: record (orec, version) and revalidate the earlier entries so
    // the caller always observes a consistent prefix (bounded by kMaxShortReads, so
    // the incremental cost is a handful of cached loads).
    Word ReadRo(Slot* s) {
      assert(!finished_);
      if (!valid_) {
        return 0;
      }
      if (ro_.Full()) {  // overflow invalidates instead of corrupting (see ReadRw)
        UnwindForOverflow();
        return 0;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      while (true) {
        const Word o1 = orec.load(std::memory_order_acquire);
        if (OrecIsLocked(o1)) {
          assert(OrecOwnerOf(o1) != desc_ && "RO and RW sets must be disjoint");
          valid_ = false;
          return 0;
        }
        const Word value = Layout::Data(*s).load(std::memory_order_acquire);
        SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostReadPreSandwich);
        const Word o2 = orec.load(std::memory_order_acquire);
        if (o1 != o2) {
          continue;
        }
        if (SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich)) {
          valid_ = false;
          return 0;
        }
        // Fast path: the entry just sandwiched is consistent at its own read
        // instant; only EARLIER entries need re-checking (orec versions are
        // monotone, so matching then-and-now means unchanged in between — including
        // at this read's instant, the common consistency point), so the walk runs
        // before the new entry is logged. The first RO read validates nothing.
        const bool prefix_ok = ro_.Empty() || ValidateRo();
        ro_.PushBack(RoEntry{s, &orec, OrecVersionOf(o1)});
        if (!prefix_ok) {
          valid_ = false;
          return 0;
        }
        return value;
      }
    }

    // Current validity (Tx_RW_k_Is_Valid). For pure-RW transactions this is the only
    // check needed: locks pin every location read.
    bool Valid() const { return valid_; }

    // Revalidates the RO set (Tx_RO_k_Is_Valid). For a read-only transaction a final
    // successful call serves in place of commit (§2.2: "Successful validation serves
    // in the place of commit").
    bool ValidateRo() const {
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      for (const RoEntry& e : ro_) {
        const Word w = e.orec->load(std::memory_order_acquire);
        if (w == MakeOrecVersion(e.version)) {
          continue;
        }
        if (OrecIsLocked(w) && OrecOwnerOf(w) == desc_) {
          continue;  // upgraded by us; the lock pins it
        }
        return false;
      }
      return true;
    }

    // Tx_Upgrade_RO_x_To_RW_y: promote the ro_index-th read into the write set by
    // locking its orec at exactly the version observed. Returns false (transaction
    // invalidated) if the location changed or is locked.
    bool UpgradeRoToRw(int ro_index) {
      assert(!finished_);
      if (!valid_) {
        return false;
      }
      assert(ro_index >= 0 && static_cast<std::size_t>(ro_index) < ro_.Size());
      if (rw_.Full()) {  // overflow invalidates instead of corrupting (see ReadRw)
        UnwindForOverflow();
        return false;
      }
      if (!attempt_.EnterCommitter(*desc_)) {  // upgrades lock too (see ReadRw)
        valid_ = false;
        return false;
      }
      if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
        valid_ = false;
        return false;
      }
      RoEntry& e = ro_[static_cast<std::size_t>(ro_index)];
      Word expected = MakeOrecVersion(e.version);
      if (!e.orec->compare_exchange_strong(expected, MakeOrecLocked(desc_),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        if (OrecIsLocked(expected) && OrecOwnerOf(expected) == desc_) {
          // Shared-table collision: another of our RW entries owns this orec.
          rw_.PushBack(RwEntry{e.slot, e.orec, kAlreadyOwned});
          return true;
        }
        valid_ = false;
        return false;
      }
      rw_.PushBack(RwEntry{e.slot, e.orec, MakeOrecVersion(e.version)});
      return true;
    }

    // Tx_RW_k_Commit: stores values[i] to the i-th RW location (RW-read order) and
    // releases the locks. Pure-RW transactions need no validation (§2.2 point iii), so
    // this always succeeds; the bool return exists only so fine-grained full-tx
    // adapters can share the interface.
    bool CommitRw(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size() && "commit arity must match RW access count");
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        Layout::Data(*rw_[i].slot).store(v[i], std::memory_order_release);
      }
      ReleaseLocksCommitted();
      Finish();
      return true;
    }

    // Tx_RO_x_RW_y_Commit: validates the remaining RO entries, then commits the RW
    // set. Returns false — with all locks released and values untouched — if
    // validation fails; the caller restarts.
    bool CommitMixed(std::initializer_list<Word> values) {
      assert(valid_ && !finished_);
      assert(values.size() == rw_.Size());
      if (!ValidateRo()) {
        Abort();
        return false;
      }
      const Word* v = values.begin();
      for (std::size_t i = 0; i < rw_.Size(); ++i) {
        Layout::Data(*rw_[i].slot).store(v[i], std::memory_order_release);
      }
      ReleaseLocksCommitted();
      Finish();
      return true;
    }

    // Tx_RW_k_Abort: releases locks restoring the pre-transaction versions. Also the
    // required cleanup path after any access invalidated the transaction.
    void Abort() {
      // After an overflow unwind the encounter locks were already restored —
      // re-storing the saved words here would clobber whatever other
      // transactions committed into those slots since.
      if (!unwound_) {
        ReleaseLocksAborted();
      }
      // Locks are restored above BEFORE the attempt releases its gate flag: a
      // draining serial transaction must never observe flags at zero while
      // our locks stand.
      attempt_.Dropped(*desc_, !rw_.Empty(), !ro_.Empty(), valid_);
      finished_ = true;
      valid_ = false;
    }

    // Re-arms the record for the caller's `goto restart` loop, releasing any locks
    // still held.
    void Reset() {
      if (!finished_) {
        Abort();
      }
      rw_.Clear();
      ro_.Clear();
      valid_ = true;
      finished_ = false;
      unwound_ = false;
      StartAttempt();
    }

    std::size_t RwCount() const { return rw_.Size(); }
    std::size_t RoCount() const { return ro_.Size(); }

   private:
    struct RwEntry {
      Slot* slot;
      std::atomic<Word>* orec;
      Word old_word;  // pre-lock orec body; kAlreadyOwned for hash-collision repeats
    };
    struct RoEntry {
      Slot* slot;
      std::atomic<Word>* orec;
      Word version;
    };

    // Odd (locked-looking) and never a valid owner pointer: cannot collide with a
    // genuine displaced orec word, which is always an even version.
    static constexpr Word kAlreadyOwned = ~Word{0};

    // The escalation checkpoint: past the (hysteretic) abort-streak threshold
    // this attempt takes the serialization token up front and cannot conflict
    // thereafter.
    void StartAttempt() { attempt_.Begin(*desc_); }

    // Restores every displaced orec word recorded in the RW set. Shared by
    // Abort() and the overflow unwind; hash-collision repeats (kAlreadyOwned)
    // are skipped — only the entry that actually displaced a word restores it.
    void ReleaseLocksAborted() {
      for (const RwEntry& e : rw_) {
        if (e.old_word != kAlreadyOwned) {
          e.orec->store(e.old_word, std::memory_order_release);
        }
      }
    }

    // Contract-overflow unwind (§2.2 violations surfaced safely): releases the
    // encounter-time locks, retracts the gate flag, and releases the serial
    // token — the same mandatory order as Abort() — the moment the overflow is
    // detected, instead of holding every lock until the caller notices
    // Valid() == false and aborts. The recorded access arrays are kept intact
    // (RwCount()/RoCount() still describe the overflowing transaction for
    // diagnosis); Abort() skips its restore loop afterwards, because the
    // released slots may since have been re-locked and committed by others.
    // Kept out of line: this is a cold contract-violation path, and inlining
    // it into the access fast paths only bloats them (and trips GCC's
    // flow-insensitive maybe-uninitialized analysis on the InlineVec storage).
#if defined(__GNUC__)
    __attribute__((cold, noinline))
#endif
    void UnwindForOverflow() {
      ReleaseLocksAborted();
      attempt_.Release(*desc_);
      unwound_ = true;
      valid_ = false;
    }

    void ReleaseLocksCommitted() {
      if (rw_.Empty()) {
        return;  // nothing locked: no orecs to release, no timestamp to draw
      }
      Word wv = 0;
      if constexpr (Clock::kHasGlobalClock) {
        wv = Clock::NextCommitVersion();
      }
      for (const RwEntry& e : rw_) {
        if (e.old_word != kAlreadyOwned) {
          e.orec->store(MakeOrecVersion(Clock::ReleaseVersion(wv, e.old_word)),
                        std::memory_order_release);
        }
      }
    }

    // Locks were released by the caller; the gate can drop now (and must
    // not before — see Abort()).
    void Finish() {
      finished_ = true;
      valid_ = false;
      attempt_.Committed(*desc_);
    }

    TxDesc* desc_;
    InlineVec<RwEntry, kMaxShortWrites> rw_;
    InlineVec<RoEntry, kMaxShortReads> ro_;
    TxAttempt<DomainTag> attempt_;
    bool valid_ = true;
    bool finished_ = false;
    bool unwound_ = false;  // overflow unwind already released the locks
  };

  // --- Single-operation transactions (Tx_Single_*, Figure 2) -------------------------

  // Linearizable single-word transactional read: orec–data–orec sandwich.
  static Word SingleRead(Slot* s) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    while (true) {
      const Word o1 = orec.load(std::memory_order_acquire);
      if (OrecIsLocked(o1)) {
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        continue;
      }
      const Word value = Layout::Data(*s).load(std::memory_order_acquire);
      const Word o2 = orec.load(std::memory_order_acquire);
      if (o1 == o2) {
        return value;
      }
    }
  }

  // Linearizable single-word transactional write. A committer like any other:
  // it waits out a serial transaction at the gate (it has no abort/retry loop
  // to fail fast into), bounded by the serial transaction's solo execution.
  static void SingleWrite(Slot* s, Word value) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    TxDesc* self = &DescOf<DomainTag>();
    Gate::EnterCommitterWait(self);
    // Unwind guards (src/tm/txguard.h): the publication sequence below hosts
    // pause-style fail points that can throw with the orec locked and the gate
    // flag announced. Reverse destruction order enforces the mandatory release
    // sequence — orec restored first, gate flag retracted second. The gate
    // guard also serves the normal return (never dismissed).
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    const Word old_word = AcquireOrec(&orec, self);
    TxUnwindGuard lock_guard([&orec, old_word] {
      orec.store(old_word, std::memory_order_release);
    });
    Layout::Data(*s).store(value, std::memory_order_release);
    Word wv = 0;
    if constexpr (Clock::kHasGlobalClock) {
      wv = Clock::NextCommitVersion();
    }
    orec.store(MakeOrecVersion(Clock::ReleaseVersion(wv, old_word)),
               std::memory_order_release);
    lock_guard.Dismiss();  // the version store above was the lock release
  }

  // Linearizable single-word transactional compare-and-swap. Returns the observed
  // value; the CAS succeeded iff the return value equals `expected`.
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    std::atomic<Word>& orec = Layout::OrecOf(*s);
    TxDesc* self = &DescOf<DomainTag>();
    Gate::EnterCommitterWait(self);
    // Same guard pair as SingleWrite; the compare-mismatch path returns
    // through both guards, which restore the unchanged orec word (no update:
    // version unchanged) and retract the gate flag in the mandatory order.
    TxUnwindGuard gate_guard([self] { Gate::ExitCommitter(self); });
    const Word old_word = AcquireOrec(&orec, self);
    TxUnwindGuard lock_guard([&orec, old_word] {
      orec.store(old_word, std::memory_order_release);
    });
    const Word observed = Layout::Data(*s).load(std::memory_order_acquire);
    if (observed != expected) {
      return observed;
    }
    Layout::Data(*s).store(desired, std::memory_order_release);
    Word wv = 0;
    if constexpr (Clock::kHasGlobalClock) {
      wv = Clock::NextCommitVersion();
    }
    orec.store(MakeOrecVersion(Clock::ReleaseVersion(wv, old_word)),
               std::memory_order_release);
    lock_guard.Dismiss();  // the version store above was the lock release
    return observed;
  }

  static TxStats& StatsForCurrentThread() { return DescOf<DomainTag>().stats; }

 private:
  // Spin-acquires an orec. Safe only for single-op transactions, which hold no other
  // locks (no deadlock) — multi-location transactions must fail fast instead.
  static Word AcquireOrec(std::atomic<Word>* orec, TxDesc* self) {
    while (true) {
      SPECTM_FAILPOINT_PAUSE(failpoint::Site::kLockAcquire);
      Word w = orec->load(std::memory_order_relaxed);
      if (!OrecIsLocked(w) &&
          orec->compare_exchange_weak(w, MakeOrecLocked(self), std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return w;
      }
      SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
      CpuRelax();
    }
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_SHORT_TM_H_
