// BaseTM: the general-purpose word-based STM (§2.1, §4.1).
//
// Algorithm: TL2 (Dice, Shalev, Shavit) with
//   * timebase extension (Riegel, Fetzer, Felber) — a read that observes a version
//     newer than the transaction's snapshot revalidates the read set against a fresh
//     clock sample instead of aborting;
//   * the hash-based write set of Spear et al. for O(1) read-after-write checks
//     (with a descriptor-resident bloom so the common MISS costs one AND+TEST);
//   * commit-time locking, invisible reads, deferred updates;
//   * opacity: with a global clock via rv-sampling + extension, with local per-orec
//     clocks via full read-set revalidation after every read (§4.1);
//   * contention management: self-abort plus randomized linear backoff (SwissTM's
//     first phase), driven by the caller's retry loop; past an abort streak of
//     kSerialEscalationStreak the next attempt runs serial-irrevocable behind the
//     domain's SerialGate (src/tm/serial.h) — it excludes every other committer
//     (read-only transactions keep running) and therefore cannot conflict-abort,
//     bounding the streak.
//
// Read-set layout: the log is SoA (src/common/soa_log.h) storing (orec, expected
// unlocked orec body) lanes, and every validation walk runs through the batch
// kernel (validate_batch.h) — AVX2 gather-compare four entries per iteration
// where available, scalar otherwise, identical abort decisions either way.
//
// Usage pattern (mirrors the paper's §2.1 example):
//
//   typename Tm::Tx tx;
//   do {
//     tx.Start();
//     Word v = tx.Read(&slot);
//     if (!tx.ok()) continue;            // conflict: Read returned 0, tx will retry
//     tx.Write(&slot, v + EncodeInt(1));
//   } while (!tx.Commit());
//
// Read() returns 0 and poisons the transaction on conflict; callers must check ok()
// before acting on values in ways that could fault (e.g. dereferencing). Commit()
// returns false on conflict or user abort and performs the backoff, so the retry loop
// needs no extra contention handling.
#ifndef SPECTM_TM_FULL_TM_H_
#define SPECTM_TM_FULL_TM_H_

#include <atomic>
#include <cassert>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/layout.h"
#include "src/tm/orec.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"

namespace spectm {

template <typename LayoutT, typename ClockT, typename DomainTag>
class FullTm {
 public:
  using Layout = LayoutT;
  using Clock = ClockT;
  using Slot = typename Layout::Slot;
  // Batch-kernel evidence only (simd_batches / scalar_checks): the orec
  // engines keep no writer summary, so no skip counter moves here.
  using Probe = ValProbe<DomainTag>;

  class Tx {
   public:
    Tx() = default;
    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    // Defensive unwind for manual retry loops that let an exception escape
    // between Start() and Commit(): no commit lock can be outstanding here
    // (Commit never escapes while holding any — its internal guard sees to
    // that), but the serial token and the attempt accounting can be.
    ~Tx() { AbortForUnwind(); }

    void Start() {
      desc_ = &DescOf<DomainTag>();
      desc_->read_log.Clear();
      desc_->wset.Clear();
      desc_->lock_log.clear();
      active_ = true;
      user_abort_ = false;
      // Watchdog feed and serial escalation, before the first read.
      attempt_.Begin(*desc_);
      if constexpr (Clock::kHasGlobalClock) {
        rv_ = Clock::Sample();
      }
    }

    // Transactional read. Returns the buffered value for locations this transaction
    // has already written. On conflict returns 0 with ok() == false.
    Word Read(Slot* s) {
      if (!active_) {
        return 0;
      }
      Word buffered;
      if (desc_->wset.Lookup(s, &buffered)) {  // bloom-filtered: miss is AND+TEST
        return buffered;
      }
      std::atomic<Word>& orec = Layout::OrecOf(*s);
      int spins = 0;
      while (true) {
        const Word o1 = orec.load(std::memory_order_acquire);
        if (OrecIsLocked(o1)) {
          // Commit-time locking: the owner is mid-commit; wait briefly, then concede.
          if (++spins <= kReadLockSpin) {
            CpuRelax();
            continue;
          }
          return Fail();
        }
        const Word value = Layout::Data(*s).load(std::memory_order_acquire);
        // Widen the data-load -> version-recheck window (and optionally force
        // a conflict) under fault injection; no-op in production builds.
        SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostReadPreSandwich);
        const Word o2 = orec.load(std::memory_order_acquire);
        if (o1 != o2) {
          continue;  // raced with a commit; re-sandwich
        }
        if (SPECTM_FAILPOINT(failpoint::Site::kPostReadPreSandwich)) {
          return Fail();
        }
        // o1 is the unlocked orec body — exactly the word validation expects to
        // re-observe, so it goes into the log's expected-word lane verbatim.
        if constexpr (Clock::kHasGlobalClock) {
          if (OrecVersionOf(o1) > rv_) {
            // GV5-style clocks can lag published versions; give the policy a chance
            // to drag the clock up so the extension below can succeed.
            Clock::OnStaleRead(OrecVersionOf(o1));
            // Timebase extension: advance the snapshot if the read set still holds.
            if (!Extend()) {
              return Fail();
            }
            continue;
          }
          desc_->read_log.PushBack(&orec, o1);
          return value;
        } else {
          desc_->read_log.PushBack(&orec, o1);
          // No snapshot number to compare against: preserve opacity by revalidating
          // the read set after every read (§4.1, the "-l" cost). Fast path: the
          // entry just appended was read through an orec-data-orec sandwich, so it
          // is consistent as of its own read instant; only the EARLIER entries need
          // re-checking. Orec versions advance monotonically on every committed
          // update, so an earlier entry whose version matches both at its original
          // read and now was unchanged for the whole interval in between — including
          // the new entry's read instant, which therefore serves as the single
          // consistency point for the full set. A first read validates nothing.
          if (desc_->read_log.Size() > 1 &&
              !ValidateReadLogPrefix(desc_->read_log.Size() - 1)) {
            return Fail();
          }
          return value;
        }
      }
    }

    // Deferred update: buffered in the write set, flushed on commit.
    void Write(Slot* s, Word value) {
      if (!active_) {
        return;
      }
      desc_->wset.Put(s, value);
    }

    // Programmatic abort (e.g. the skip list's "window changed" bail-out, Fig. 4).
    // The transaction still terminates through Commit(), which will return false
    // without publishing anything; no backoff is applied for user aborts.
    void AbortTx() { user_abort_ = true; }

    bool ok() const { return active_; }

    // Attempts to commit. On success returns true. On conflict (or if the transaction
    // was already poisoned) applies contention-manager backoff and returns false; on
    // user abort returns false immediately.
    bool Commit() {
      if (!active_) {
        attempt_.Aborted(*desc_);
        return false;
      }
      active_ = false;
      if (user_abort_) {
        attempt_.Unwound(*desc_);  // no backoff: a user abort is not contention
        return false;
      }
      if (desc_->wset.Empty()) {
        // Read-only: reads were kept consistent throughout (rv/extension or
        // incremental validation), so there is nothing left to check. Readers
        // never enter the committer gate — this is the path that keeps running
        // concurrently with a serial transaction.
        attempt_.Committed(*desc_);
        return true;
      }
      // Committer gate before the first lock CAS; fails fast while a serial
      // transaction holds the token.
      if (!attempt_.EnterCommitter(*desc_)) {
        attempt_.Aborted(*desc_);
        return false;
      }
      // Unwind guard over the locked region: every early conflict return AND
      // any exception erupting between the first lock CAS and the end of
      // validation (fail-point throw injection — nothing else on this path
      // throws) runs one release sequence: locks restored, then the attempt's
      // gate flag and token (docs/VALIDATION.md §8).
      TxUnwindGuard cleanup([this] {
        ReleaseLocks();
        attempt_.Aborted(*desc_);
      });
      if (!LockWriteSet()) {
        return false;
      }
      Word wv = 0;
      bool skip_validation = false;
      if constexpr (Clock::kHasGlobalClock) {
        const CommitStamp stamp = Clock::NextCommitStamp();
        wv = stamp.wv;
        // TL2 optimization: if no other transaction committed since our snapshot,
        // the read set cannot have changed. Requires a UNIQUE stamp — a GV4-adopted
        // timestamp is shared with a racing committer whose writes may overlap our
        // read set, so adopters always validate.
        skip_validation = stamp.unique && wv == rv_ + 1;
      }
      // Commit-time validation: one walk over the whole log. A foreign lock on
      // a read-log entry fails it; entries locked by this transaction's own
      // commit are pinned and valid.
      if (!skip_validation && !ValidateReadLogPrefix(desc_->read_log.Size())) {
        return false;
      }
      cleanup.Dismiss();  // past the last throwing/failing operation: commit
      for (const WriteSet::Entry& e : desc_->wset) {
        Layout::Data(*static_cast<Slot*>(e.addr)).store(e.value, std::memory_order_release);
      }
      for (const LockLogEntry& l : desc_->lock_log) {
        l.orec->store(MakeOrecVersion(Clock::ReleaseVersion(wv, l.old_word)),
                      std::memory_order_release);
      }
      attempt_.Committed(*desc_);
      return true;
    }

    // Unwind entry point for the retry loop (and the destructor): finishes an
    // attempt that an exception tore out of the BODY. Locks are only ever held
    // inside Commit(), which unwinds them internally, so here only the serial
    // token and the attempt accounting can be outstanding. Idempotent: after
    // Commit already finished the attempt, nothing is left to release. A
    // failed read deactivates the attempt without finishing it, so a token
    // taken at Start() is released here too. No backoff — like a user abort,
    // a cancel is not contention.
    void AbortForUnwind() {
      if (desc_ == nullptr) {
        return;  // never started
      }
      if (active_) {
        active_ = false;
        attempt_.Unwound(*desc_);
      } else {
        attempt_.Release(*desc_);
      }
    }

   private:
    Word Fail() {
      active_ = false;
      return 0;
    }

    // Validates the first `count` read-log entries (the per-read fast path excludes
    // the freshly sandwiched tail entry) through the batch kernel: gather-compare
    // over the SoA lanes where SIMD is enabled, scalar otherwise. The expected-word
    // lane holds unlocked orec bodies, so a mismatch is either a real conflict or
    // an orec this transaction itself locked at commit time — tolerated iff the
    // displaced body still matches.
    bool ValidateReadLogPrefix(std::size_t count) const {
      // Forced failure here exercises every abort edge that follows a walk.
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      typename Probe::Counters& probe = Probe::Get();
      return ValidateEqualSpan(
          desc_->read_log.Ptrs(), desc_->read_log.Words(), count,
          probe.simd_batches, probe.scalar_checks,
          [this](std::size_t i, Word observed) {
            return OrecIsLocked(observed) && OrecOwnerOf(observed) == desc_ &&
                   FindLockedOldWord(desc_->read_log.PtrAt(i)) ==
                       desc_->read_log.WordAt(i);
          });
    }

    Word FindLockedOldWord(const std::atomic<Word>* orec) const {
      for (const LockLogEntry& l : desc_->lock_log) {
        if (l.orec == orec) {
          return l.old_word;
        }
      }
      assert(false && "self-locked orec missing from lock log");
      return 0;
    }

    // Timebase extension (global clock only): sample a fresh timestamp, prove the
    // read set is still intact, and adopt the new snapshot.
    bool Extend() {
      const Word t = Clock::Sample();
      if (!ValidateReadLogPrefix(desc_->read_log.Size())) {
        return false;
      }
      rv_ = t;
      return true;
    }

    bool LockWriteSet() {
      // Request every orec and data line exclusive before the first CAS, so the
      // misses overlap instead of each landing while earlier locks are held.
      for (const WriteSet::Entry& e : desc_->wset) {
        Slot& s = *static_cast<Slot*>(e.addr);
        PrefetchForWrite(&Layout::OrecOf(s));
        PrefetchForWrite(&Layout::Data(s));
      }
      for (const WriteSet::Entry& e : desc_->wset) {
        if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
          return false;  // partial-lock abort: ReleaseLocks restores the prefix
        }
        std::atomic<Word>& orec = Layout::OrecOf(*static_cast<Slot*>(e.addr));
        Word w = orec.load(std::memory_order_relaxed);
        while (true) {
          if (OrecIsLocked(w)) {
            if (OrecOwnerOf(w) == desc_) {
              break;  // two slots hashed to one orec; already ours
            }
            return false;  // deadlock avoidance: never wait while holding locks
          }
          if (orec.compare_exchange_weak(w, MakeOrecLocked(desc_),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
            desc_->lock_log.push_back(LockLogEntry{&orec, w});
            break;
          }
        }
      }
      return true;
    }

    void ReleaseLocks() {
      for (const LockLogEntry& l : desc_->lock_log) {
        l.orec->store(l.old_word, std::memory_order_release);
      }
      desc_->lock_log.clear();
    }

    TxDesc* desc_ = nullptr;
    Word rv_ = 0;
    TxAttempt<DomainTag> attempt_;
    bool active_ = false;
    bool user_abort_ = false;
  };

  // Retry wrapper: runs `body(tx)` until it commits (src/tm/txguard.h
  // RunAtomically, which also states the exception contract).
  template <typename Body>
  static bool Atomically(Body&& body) {
    return RunAtomically<Tx>(body);
  }

  static TxStats& StatsForCurrentThread() { return DescOf<DomainTag>().stats; }
};

}  // namespace spectm

#endif  // SPECTM_TM_FULL_TM_H_
