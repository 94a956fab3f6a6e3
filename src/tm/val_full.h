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
// skips on stable read-occupied stripes (needs a kPartitioned policy); kAdaptive
// re-picks per attempt from the descriptor's abort-rate EWMA. Non-precise policies always walk.
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
  using Cm = SerialCm<ValDomainTag>;
  using Gate = SerialGate<ValDomainTag>;
  static constexpr ValMode kValMode = kMode;
  // Strategy machinery only matters when the counter is precise; otherwise every
  // path degenerates to the incremental walk and the extra state is dead.
  static constexpr bool kStrategic = Validation::kPrecise;
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
    ~Tx() {
      if (desc_ != nullptr && active_) {
        AbortForUnwind();
      }
    }

    void Start() {
      desc_ = &DescOf<ValDomainTag>();
      desc_->val_read_log.Clear();
      desc_->wset.Clear();
      desc_->val_lock_log.clear();
      active_ = true;
      user_abort_ = false;
      // Health watchdog attempt-start feed (no-op unless SPECTM_HEALTH):
      // observes foreign serial holds before the escalation decision below.
      Cm::NoteAttemptStart(*desc_);
      // Serial escalation (src/tm/serial.h): token before the first read, so
      // the attempt observes a committer-quiescent domain and cannot abort.
      // The serial commit below still bumps the writer summary —
      // concurrent READERS keep validating against it (see VALIDATION.md
      // "Serial-irrevocable interop").
      if (!serial_ && Cm::ShouldEscalate(*desc_)) {
        Gate::AcquireSerial(desc_);
        serial_ = true;
        Cm::NoteEscalated(*desc_);
      }
      if constexpr (kStrategic) {
        state_.StartAttempt(kMode, desc_->stats);
      } else {
        state_.Anchor();  // sample kept current for ValidateReads' re-anchor
      }
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
          if (state_.TrySkipRead(&desc_->stats) ==
              StratState::ReadSkip::kSkipped) {
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
        desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
        UpdateAbortEwma(desc_->stats, /*aborted=*/true);
        ReleaseSerialIfHeld();
        return false;
      }
      if (desc_->wset.Empty()) {
        OnCommit();
        return true;  // reads were kept consistent incrementally
      }
      // Committer gate: announce before the first lock CAS; fail fast while a
      // serial transaction holds the token (read-only transactions above never
      // get here and keep running).
      if (!serial_) {
        if (!Gate::TryEnterCommitter(desc_)) {
          OnAbort();
          return false;
        }
        gated_ = true;
      }
      // Unwind guard over the locked region: every early conflict return AND
      // any exception erupting between the first lock CAS and the end of
      // validation (fail-point throw injection — nothing else on this path
      // throws) runs one release sequence, in OnAbort's mandatory order:
      // displaced values restored, then the gate flag retracted, then the
      // serial token released (docs/VALIDATION.md §8).
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
      unsigned write_stripes =
          Validation::kPartitioned ? 0u : kAllCounterStripesMask;
      for (const WriteSet::Entry& e : desc_->wset) {
        auto* word = &static_cast<Slot*>(e.addr)->word;
        if constexpr (Validation::kPartitioned) {
          write_stripes |= 1u << CounterStripeOf(word);
        }
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
      const Word own_idx = Validation::OnWriterCommit(desc_, write_stripes);
      if constexpr (kStrategic) {
        ++Probe::Get().summary_publishes;
        if constexpr (Validation::kPartitioned) {
          Probe::Get().stripe_bumps +=
              static_cast<std::uint64_t>(CountStripeBits(write_stripes));
        }
      }
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
    // the serial token and the attempt accounting can be outstanding.
    // Idempotent: after Commit's internal guard already finished the attempt,
    // this is a no-op. No backoff — like a user abort, a cancel is not
    // contention.
    void AbortForUnwind() {
      if (!active_) {
        return;
      }
      active_ = false;
      UnpinIfPinned();
      ReleaseSerialIfHeld();
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
    }

   private:
    using StratState = StrategyState<Validation, Probe>;

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

    // Gate held through the releasing stores (the value store IS the lock
    // release here), so a draining serial transaction never sees our locks.
    void ExitGateIfHeld() {
      if (gated_) {
        Gate::ExitCommitter(desc_);
        gated_ = false;
      }
    }

    void ReleaseSerialIfHeld() {
      if (serial_) {
        Gate::ReleaseSerial(desc_);
        serial_ = false;
      }
    }

    void OnCommit() {
      UnpinIfPinned();
      ExitGateIfHeld();
      desc_->stats.commits.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/false);
      if (serial_) {
        Gate::ReleaseSerial(desc_);
        serial_ = false;
        Cm::OnSerialCommit(*desc_);
      } else {
        Cm::OnOptimisticCommit(*desc_);
      }
    }

    void OnAbort() {
      UnpinIfPinned();
      ExitGateIfHeld();
      ReleaseSerialIfHeld();  // fail-point aborts can hit a serial attempt
      desc_->stats.aborts.fetch_add(1, std::memory_order_relaxed);
      UpdateAbortEwma(desc_->stats, /*aborted=*/true);
      Cm::NoteAbortBackoff(*desc_);
    }

    TxDesc* desc_ = nullptr;
    StratState state_;
    bool active_ = false;
    bool user_abort_ = false;
    bool serial_ = false;  // this attempt holds the serialization token
    bool gated_ = false;   // this attempt announced itself as a committer
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

  // Convenience retry wrapper: runs `body(tx)` until it commits. Exception
  // contract (src/tm/txguard.h): a TxCancel thrown anywhere inside the body
  // aborts the attempt through the ordinary unwind path, then either retries
  // (Policy::kRetry) or returns false with nothing published (Policy::kAbort).
  // Any OTHER exception aborts the attempt the same way and rethrows, with
  // every displaced value restored and the serial token released before the
  // exception leaves this frame. Returns true iff a body execution committed.
  template <typename Body>
  static bool Atomically(Body&& body) {
    Tx tx;
    while (true) {
      try {
        tx.Start();
        body(tx);
        if (tx.Commit()) {
          return true;
        }
      } catch (const TxCancel& cancel) {
        tx.AbortForUnwind();
        if (cancel.policy == TxCancel::Policy::kAbort) {
          return false;
        }
      } catch (...) {
        tx.AbortForUnwind();
        throw;
      }
    }
  }

  static TxStats& StatsForCurrentThread() { return DescOf<ValDomainTag>().stats; }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_FULL_H_
