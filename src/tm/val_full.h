// General-purpose transactions over the `val` layout ("val-full").
//
// Needed for two reasons: (1) the paper's Figure 5 measures it (its per-read read-set
// revalidation "dominates execution time"), and (2) the val-short data structures use
// it as the fall-back for operations that exceed short-transaction limits — e.g.
// skip-list towers above level 2 (§3) — so it must share the 1-bit-lock protocol with
// ValShortTm.
//
// Design: value-based read log (there are no versions to record), hash write set,
// deferred updates, commit-time locking. Opacity is preserved by revalidating the
// whole value log after every read under the ValidationPolicy's commit-counter
// stability rule (NOrec-style); with NonReuseValidation the counter check vanishes
// and soundness rests on the paper's special cases, exactly as in Figure 5's setup
// ("The val-full RO transactions assume the non-re-use property from Section 2.4").
//
// The read log is SoA (src/common/soa_log.h; the expected-word lane holds the
// values read) and the revalidation walk runs through the batch kernel
// (validate_batch.h) — this engine walks more than any other (per READ under
// counter policies), so it gains the most from gather-compare.
//
// The per-read revalidation is strategy-driven (valstrategy.h StrategyState): the
// default kCounterSkip mode reproduces the classic NOrec skip; kPartitioned
// skips on stable read-occupied stripes (needs a kPartitioned policy);
// kIncremental always walks. Non-precise policies always walk.
#ifndef SPECTM_TM_VAL_FULL_H_
#define SPECTM_TM_VAL_FULL_H_

#include <atomic>
#include <cassert>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/txguard.h"
#include "src/tm/val_short.h"
#include "src/tm/val_word.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"

namespace spectm {

template <typename ValidationT, ValMode kMode = ValMode::kCounterSkip>
class ValFullTm {
 public:
  using Validation = ValidationT;
  using Slot = ValSlot;
  using Probe = ValProbe<ValDomainTag>;
  static constexpr ValMode kValMode = kMode;
  // Strategy machinery only matters when the counter is precise; otherwise every
  // path degenerates to the incremental walk and the extra state is dead.
  static constexpr bool kStrategic = Validation::kPrecise;
  // A counter that does not track commits proves nothing: such policies walk.
  using StratState = StrategyState<Validation, Probe,
                                   kStrategic ? kMode : ValMode::kIncremental>;
  // MVCC snapshot mode (PR 9): reads run at a pinned snapshot through the
  // version chains until the first Write() promotes the attempt, and commits
  // publish displaced values (src/tm/mvcc.h). Everything it adds compiles out
  // for every other mode.
  static constexpr bool kSnapshotMode = kMode == ValMode::kSnapshot;
  static_assert(!kSnapshotMode || Validation::kMvcc,
                "ValMode::kSnapshot requires a kMvcc validation policy");

  class Tx {
   public:
    Tx() = default;
    Tx(const Tx&) = delete;
    Tx& operator=(const Tx&) = delete;

    // Defensive unwind for manual retry loops that let an exception escape
    // between Start() and Commit(): value locks are only ever held inside
    // Commit() (which unwinds them internally), so here only the serial token
    // and the attempt accounting can be outstanding.
    ~Tx() { AbortForUnwind(); }

    void Start() {
      desc_ = &DescOf<ValDomainTag>();
      desc_->val_read_log.Clear();
      desc_->wset.Clear();
      desc_->val_lock_log.clear();
      active_ = true;
      user_abort_ = false;
      // Watchdog feed and serial escalation, before the first read. A serial
      // commit still bumps the writer summary — concurrent READERS keep
      // validating against it (VALIDATION.md "Serial-irrevocable interop").
      attempt_.Begin(*desc_);
      // Non-precise policies keep the sample current for ValidateReads'
      // re-anchor all the same.
      state_.StartAttempt();
      if constexpr (kSnapshotMode) {
        // Pin-then-sample (two-step, epoch.h): the done-stamp scan either
        // sees the pending pin and reclaims nothing, or ran wholly before it
        // and bounded itself by a clock value our sample can only meet or
        // exceed — either way no node this snapshot can reach is recycled.
        // The epoch Guard spans the pin: chain memory retired by writers
        // (mvcc.h Recycle/DrainDeferred) cannot return to the allocator
        // while this transaction may still be dereferencing a chain pointer.
        EpochManager& mgr = mvcc::MvccEpoch();
        chain_guard_.Acquire(mgr);
        mgr.BeginSnapshotPin();
        snapshot_ts_ = Validation::Sample();
        mgr.SetSnapshotPin(snapshot_ts_);
        pinned_ = true;
        snapshot_phase_ = true;
      }
    }

    Word Read(Slot* s) {
      if (!active_) {
        return 0;
      }
      if constexpr (kSnapshotMode) {
        if (snapshot_phase_) {
          return SnapshotPhaseRead(s);  // wset is empty until promotion
        }
      }
      Word buffered;
      if (desc_->wset.Lookup(s, &buffered)) {  // bloom-filtered: miss is AND+TEST
        return buffered;
      }
      int spins = 0;
      Word w;
      while (true) {
        w = s->word.load(std::memory_order_acquire);
        if (!ValIsLocked(w)) {
          break;
        }
        // Commit-time locking: owner is mid-commit; wait briefly, then concede.
        if (++spins > kReadLockSpin) {
          return Fail();
        }
        CpuRelax();
      }
      desc_->val_read_log.PushBack(&s->word, w);
      if constexpr (kStrategic) {
        state_.NoteRead(&s->word);
      }
      // Per-read revalidation — the val-full cost highlighted in Figure 5 — with
      // strategy-dependent fast paths:
      //   * a one-entry log is trivially consistent (a single location);
      //   * under a precise commit counter (val_word.h), an unchanged counter since
      //     the log was last fully valid proves no writer released a value in
      //     between (NOrec's observation), so the O(read-set) re-check is skipped.
      //     The anchor always names a counter value at which the whole log was
      //     valid, so the entry just appended joins a still-valid snapshot;
      //   * under kPartitioned, a moved counter still skips the walk when every
      //     stripe this read set occupies is unchanged.
      if (desc_->val_read_log.Size() > 1) {
        if constexpr (kStrategic) {
          if (state_.TrySkipRead() == StratState::ReadSkip::kSkipped) {
            return w;
          }
        }
        if (!ValidateReads()) {
          return Fail();
        }
      }
      return w;
    }

    void Write(Slot* s, Word value) {
      if (!active_) {
        return;
      }
      assert((value & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
      if constexpr (kSnapshotMode) {
        if (snapshot_phase_) {
          // Promotion: the snapshot values become an ordinary read log, which
          // must hold at the current clock before this attempt may buffer
          // writes (a writer that committed over any of them since the
          // snapshot aborts us — the snapshot cut cannot extend to a write).
          snapshot_phase_ = false;
          if (desc_->val_read_log.Size() > 0 && !ValidateReads()) {
            Fail();
            return;
          }
        }
      }
      desc_->wset.Put(s, value);
    }

    void AbortTx() { user_abort_ = true; }

    bool ok() const { return active_; }

    bool Commit() {
      if (!active_) {
        OnAbort();
        return false;
      }
      active_ = false;
      if (user_abort_) {
        UnpinIfPinned();
        attempt_.Unwound(*desc_);  // no backoff: a user abort is not contention
        return false;
      }
      if (desc_->wset.Empty()) {
        OnCommit();
        return true;  // reads were kept consistent incrementally
      }
      // Committer gate before the first lock CAS; fails fast while a serial
      // transaction holds the token (read-only transactions above never get
      // here and keep running).
      if (!attempt_.EnterCommitter(*desc_)) {
        OnAbort();
        return false;
      }
      // Unwind guard over the locked region: every early conflict return AND
      // any exception erupting between the first lock CAS and the end of
      // validation (fail-point throw injection — nothing else on this path
      // throws) runs one release sequence: displaced values restored, then the
      // attempt's gate flag and token (docs/VALIDATION.md §8).
      TxUnwindGuard cleanup([this] {
        if constexpr (kSnapshotMode) {
          // Before the locks restore: a kVersionPublish throw left at most
          // one half-published (unstamped) head per locked slot; stamp each
          // with the empty interval so no snapshot ever selects it.
          TombstoneUnstampedHeads();
        }
        ReleaseLocks();
        OnAbort();
      });
      // The bump mask is gathered inside the lock loop below: a second pass
      // over the lock log measured ~10% slower on two-word commits.
      unsigned write_stripes = 0;
      // Request every word exclusive before the first CAS, so the misses
      // overlap instead of each landing while earlier locks are held.
      for (const WriteSet::Entry& e : desc_->wset) {
        PrefetchForWrite(&static_cast<Slot*>(e.addr)->word);
      }
      for (const WriteSet::Entry& e : desc_->wset) {
        auto* word = &static_cast<Slot*>(e.addr)->word;
        write_stripes |= StripeBitOf<Validation>(word);
        if (SPECTM_FAILPOINT(failpoint::Site::kLockAcquire)) {
          return false;
        }
        Word w = word->load(std::memory_order_relaxed);
        while (true) {
          if (ValIsLocked(w)) {
            // Never wait while holding locks (conservative deadlock avoidance).
            return false;
          }
          if (word->compare_exchange_weak(w, MakeValLocked(desc_),
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
            desc_->val_lock_log.push_back(ValLockLogEntry{word, w});
            break;
          }
        }
      }
      // Writer bump BEFORE the commit-time validation and the stores,
      // while every lock is held (bump-before-validate, valstrategy.h): of two
      // crossing committers the one that bumps second fails its skip test below
      // and walks into the other's locks. Under a partitioned policy only the
      // counter stripes this write set touches are bumped.
      const Word own_idx =
          BumpWriterSummary<Validation, Probe>(desc_, write_stripes);
      // Commit-time skip (StrategyState): own bump index == anchor + 1 (or, for
      // policies without a single index, a fresh sample at anchor + 1) proves no
      // foreign writer released a value since the log was last known valid (our
      // own commit locks pin the rest); under kPartitioned the same test runs
      // per READ-occupied stripe with the own-bump contribution subtracted.
      bool skip_walk = false;
      if constexpr (kStrategic) {
        skip_walk = state_.TrySkipCommit(own_idx, write_stripes);
      }
      if (!skip_walk && !ValidateReads()) {
        return false;
      }
      if constexpr (kSnapshotMode) {
        // Version publication runs after validation (the commit is decided)
        // but before the guard dismisses: the kVersionPublish pause inside
        // can throw, and the unwind must tombstone the half-published heads
        // while we still hold every lock.
        PublishVersions(own_idx);
      }
      cleanup.Dismiss();  // past the last throwing/failing operation: commit
      for (const WriteSet::Entry& e : desc_->wset) {
        // The value store is also the lock release: one atomic write (§2.4).
        static_cast<Slot*>(e.addr)->word.store(e.value, std::memory_order_release);
      }
      OnCommit();
      return true;
    }

    // Unwind entry point for the retry loop (and the destructor): finishes an
    // attempt that an exception tore out of the BODY. Value locks are only
    // ever held inside Commit(), which unwinds them internally, so here only
    // the snapshot pin, the serial token and the attempt accounting can be
    // outstanding. Idempotent: after Commit already finished the attempt,
    // nothing is left to release. A failed read deactivates the attempt
    // without finishing it, so its pin and a token taken at Start() are
    // released here too. No backoff — like a user abort, a cancel is not
    // contention.
    void AbortForUnwind() {
      if (desc_ == nullptr) {
        return;  // never started
      }
      UnpinIfPinned();
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

    // --- MVCC snapshot machinery (compiled only under kSnapshotMode) ---------

    // One read in snapshot phase: the chain read at the pinned stamp, logged
    // for a later write promotion. Never validates; the only non-wait-free
    // exit is a chain truncated below the snapshot, which refreshes the pin.
    Word SnapshotPhaseRead(Slot* s) {
      while (true) {
        const SnapshotReadResult r = SnapshotReadSlot(s, snapshot_ts_);
        if (r.ok) {
          typename Probe::Counters& probe = Probe::Get();
          ++probe.snapshot_reads;
          probe.version_hops += static_cast<std::uint64_t>(r.hops);
          desc_->val_read_log.PushBack(&s->word, r.value);
          if constexpr (kStrategic) {
            state_.NoteRead(&s->word);
          }
          return r.value;
        }
        if (!RefreshSnapshot()) {
          return Fail();
        }
      }
    }

    // Truncation fallback: move the pin forward and re-validate the values
    // already read at a stable clock point, which becomes the new snapshot.
    // This is the one place snapshot mode can walk or abort — it requires a
    // writer to have both overflowed a chain and overwritten one of our
    // reads, i.e. a genuine conflict, never mere same-stripe traffic.
    bool RefreshSnapshot() {
      EpochManager& mgr = mvcc::MvccEpoch();
      mgr.BeginSnapshotPin();
      snapshot_ts_ = Validation::Sample();
      mgr.SetSnapshotPin(snapshot_ts_);
      if (desc_->val_read_log.Size() == 0) {
        return true;
      }
      if (!ValidateReads()) {
        return false;
      }
      // The walk proved the whole log simultaneously valid at the stable
      // re-anchor point, which may lie past the pre-walk sample; read on at
      // that point (the pin below it just protects more than needed).
      snapshot_ts_ = state_.sample();
      return true;
    }

    // Publishes every displaced value onto its slot's chain stamped with our
    // commit index, trims against the done stamp, and drains this thread's
    // deferred nodes. Caller holds every commit lock; the wset and lock log
    // were filled by the same iteration, so entries correspond by index.
    void PublishVersions(Word own_idx) {
      mvcc::NodePool& pool = mvcc::Pool();
      const Word done =
          mvcc::MvccEpoch().SnapshotDoneStamp(Validation::Sample());
      mvcc::PublishStats pub;
      std::size_t i = 0;
      for (const WriteSet::Entry& e : desc_->wset) {
        Slot* slot = static_cast<Slot*>(e.addr);
        const ValLockLogEntry& l = desc_->val_lock_log[i++];
        assert(l.word == &slot->word && "lock log order diverged from write set");
        mvcc::PublishVersion(slot->versions, l.old_value, own_idx, done, pool,
                             &pub);
      }
      pool.DrainDeferred(done);
      typename Probe::Counters& probe = Probe::Get();
      probe.versions_retired += static_cast<std::uint64_t>(pub.retired);
      probe.chain_splices += static_cast<std::uint64_t>(pub.splices);
    }

    void TombstoneUnstampedHeads() {
      for (const ValLockLogEntry& l : desc_->val_lock_log) {
        // ValSlot is standard-layout with `word` first: the logged word
        // pointer is pointer-interconvertible with its slot.
        Slot* slot = reinterpret_cast<Slot*>(l.word);
        mvcc::TombstoneUnstampedHead(slot->versions);
      }
    }

    void UnpinIfPinned() {
      if constexpr (kSnapshotMode) {
        if (pinned_) {
          mvcc::MvccEpoch().UnpinSnapshot();
          pinned_ = false;
          chain_guard_.Release();
        }
      }
    }

    // Value-based read-log validation under commit-counter stability, batched:
    // each pass runs the whole SoA log through the gather-compare kernel; entries
    // locked by our own commit are compared against the displaced value they
    // held. Starts from a FRESH counter sample (the old anchor is known-stale
    // whenever this runs — the skip already failed, or our own commit bump moved
    // the counter — so looping on it would guarantee a wasted second walk), and
    // re-anchors once a sample is stable across a full pass.
    bool ValidateReads() {
      if (SPECTM_FAILPOINT(failpoint::Site::kPreValidate)) {
        return false;
      }
      ++Probe::Get().validation_walks;
      typename StratState::Snapshot snap = state_.DrawSnapshot();
      typename Probe::Counters& probe = Probe::Get();
      while (true) {
        const bool pass = ValidateEqualSpan(
            desc_->val_read_log.Ptrs(), desc_->val_read_log.Words(),
            desc_->val_read_log.Size(), probe.simd_batches, probe.scalar_checks,
            [this](std::size_t i, Word observed) {
              return ValIsLocked(observed) && ValOwnerOf(observed) == desc_ &&
                     FindDisplacedValue(desc_->val_read_log.PtrAt(i)) ==
                         desc_->val_read_log.WordAt(i);
            });
        if (!pass) {
          return false;
        }
        if (Validation::Stable(snap.global)) {
          state_.ReanchorStable(snap);
          return true;
        }
        snap = state_.DrawSnapshot();
      }
    }

    Word FindDisplacedValue(const std::atomic<Word>* word) const {
      for (const ValLockLogEntry& l : desc_->val_lock_log) {
        if (l.word == word) {
          return l.old_value;
        }
      }
      assert(false && "self-locked word missing from lock log");
      return ~Word{0};
    }

    void ReleaseLocks() {
      for (const ValLockLogEntry& l : desc_->val_lock_log) {
        l.word->store(l.old_value, std::memory_order_release);
      }
      desc_->val_lock_log.clear();
    }

    // The gate is held through the releasing stores (the value store IS the
    // lock release here), so the attempt finishes only after them.
    void OnCommit() {
      UnpinIfPinned();
      attempt_.Committed(*desc_);
    }

    void OnAbort() {
      UnpinIfPinned();
      attempt_.Aborted(*desc_);
    }

    TxDesc* desc_ = nullptr;
    StratState state_;
    TxAttempt<ValDomainTag> attempt_;
    bool active_ = false;
    bool user_abort_ = false;
    // Snapshot mode only (dead otherwise): the pinned read stamp, whether the
    // epoch-registry pin is published, whether reads still run through the
    // chains (cleared by the first Write()'s promotion), and the epoch Guard
    // held for the pin's duration (keeps retired chain nodes' memory alive
    // past any pointer this transaction may still hold).
    Word snapshot_ts_ = 0;
    bool pinned_ = false;
    bool snapshot_phase_ = false;
    EpochManager::GuardSlot chain_guard_;
  };

  // Retry wrapper: runs `body(tx)` until it commits (src/tm/txguard.h
  // RunAtomically, which also states the exception contract).
  template <typename Body>
  static bool Atomically(Body&& body) {
    return RunAtomically<Tx>(body);
  }

  static TxStats& StatsForCurrentThread() { return DescOf<ValDomainTag>().stats; }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_FULL_H_
