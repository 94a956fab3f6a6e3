// The `val` meta-data layout (Figure 3(c)): a transactional location is ONE word in
// which bit 0 is reserved as the STM lock bit.
//
//   unlocked: the 63-bit application value (bit 0 clear — aligned pointer or
//             EncodeInt()-shifted integer, §2.4)
//   locked:   (TxDesc* | 1) — the displaced value is saved in the owner's record
//
// "Traditional STMs need to perform a sequence of three reads (orec, data word and
// then orec again) to get a correct snapshot... When data and meta-data are held in
// the same word, this sequence becomes a single atomic read. Similarly, at
// commit-time, the entire TVar can be updated by an atomic write." (§2.4)
//
// With no version numbers, read-only validation is value-based. The paper identifies
// three cases where that is safe without extra machinery (§2.4): (1) transactions
// that update everything they read (locks pin all of it), (2) "mostly-read-write"
// transactions with a single read-only location (the read is the linearization
// point), (3) locations with the non-re-use property (here: node pointers protected
// by epoch-based reclamation). For the general case, Dalessandro et al.'s global
// commit counter — or the distributed per-thread variant — makes value-based
// validation safe; both are provided as ValidationPolicy implementations and their
// cost is measured in bench/abl_val_validation.
#ifndef SPECTM_TM_VAL_WORD_H_
#define SPECTM_TM_VAL_WORD_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/common/thread_registry.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/txdesc.h"
#include "src/tm/valstrategy.h"

namespace spectm {

// The data+lock word, plus the MVCC chain head (PR 9): an indirect, bounded,
// newest-first list of displaced values (src/tm/mvcc.h). The head stays null
// until a kMvcc-policy writer commits over the slot, and no non-snapshot
// engine ever reads or writes it — the one-word in-place protocol on `word`
// is unchanged.
struct ValSlot {
  std::atomic<Word> word{0};
  std::atomic<mvcc::VersionNode*> versions{nullptr};
};

constexpr bool ValIsLocked(Word w) { return (w & kLockBit) != 0; }

inline TxDesc* ValOwnerOf(Word w) {
  return reinterpret_cast<TxDesc*>(static_cast<std::uintptr_t>(w & ~kLockBit));
}

inline Word MakeValLocked(TxDesc* owner) {
  return static_cast<Word>(reinterpret_cast<std::uintptr_t>(owner)) | kLockBit;
}

// --- Validation policies -------------------------------------------------------------
//
// Protocol shared by all writers (short RW commits, full commits, single writes):
// while holding the lock(s), call OnWriterCommit() BEFORE the value stores that
// release them — and, for commits that validate a read set, BEFORE that final
// validation (bump-before-validate; see the crossing-committer note in
// valstrategy.h — a writer may only skip its commit-time walk when no foreign
// bump lies between its sample anchor and its own bump). A validator whose
// Sample() is stable across a value re-check then knows that any commit it could
// have missed was still holding its locks during the re-check — and a held lock
// always fails the value comparison, because a locked word has bit 0 set and
// recorded values never do.

// `kPrecise` marks policies whose counter genuinely tracks writer commits: for those,
// "counter unchanged since the log was last fully validated" proves no writer
// released any value in between (writers bump while holding their locks, before the
// releasing stores, and lock acquisition precedes the bump — so a writer whose bump
// is not yet visible was still holding its locks during the last value re-check,
// where a held lock always fails the comparison). Engines use it to skip redundant
// per-read revalidation. NonReuseValidation's trivially-stable pseudo-counter proves
// nothing, so it must not enable that fast path.

// OnWriterCommit() returns the writer's own commit index where the policy has a
// single counter (the commit-skip test compares it against the reader's anchor),
// and 0 where it has none.

// `kPartitioned` marks policies whose counter is additionally sharded into
// per-stripe counters keyed by the metadata word's address region
// (valstrategy.h kCounterStripes): writers pass the stripe mask of their write
// set to OnWriterCommit, and readers under ValMode::kPartitioned skip
// walks when every READ-occupied stripe is unchanged. Non-partitioned policies
// ignore the mask; StrategyState compiles the stripe paths out for them.

// `kMvcc` marks the policy whose writers additionally publish every displaced
// value onto the slot's version chain (src/tm/mvcc.h), stamped with their own
// commit index — the precondition for ValMode::kSnapshot's pinned-snapshot
// reads. Engines compile every chain touch out when it is false.

// Case-3 reliance: no tracking at all. Sound when values satisfy non-re-use (or one
// of the other two special cases); this is the paper's default for val-short.
struct NonReuseValidation {
  static constexpr const char* kName = "non-reuse";
  static constexpr bool kPrecise = false;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;
  static Word Sample() { return 0; }
  static bool Stable(Word /*sample*/) { return true; }
  static Word OnWriterCommit(TxDesc* /*self*/, unsigned /*stripe_mask*/ = 0) {
    return 0;
  }
};

// One shared commit counter (Dalessandro et al.): cheap to read, but every writer
// commit contends on one cache line.
struct GlobalCounterValidation {
  static constexpr const char* kName = "global-counter";
  static constexpr bool kPrecise = true;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;

  static std::atomic<Word>& Counter() {
    static CacheAligned<std::atomic<Word>> counter;
    return *counter;
  }

  static Word Sample() { return Counter().load(std::memory_order_seq_cst); }
  static bool Stable(Word sample) { return Sample() == sample; }
  static Word OnWriterCommit(TxDesc* /*self*/, unsigned /*stripe_mask*/ = 0) {
    return Counter().fetch_add(1, std::memory_order_seq_cst) + 1;
  }
};

// Global counter + per-stripe counters (partitioned NOrec, valstrategy.h): the
// precise commit counter plus kCounterStripes cache-line-separated stripe
// counters. Writers bump ONLY the stripes their write set touches — two
// committers in disjoint regions no longer exchange a counter line — and bump
// them BEFORE the global counter, so any commit a global sample counts already
// has its stripe bumps visible. The protocol is writer-side, so it belongs to
// the whole summary domain: every family on this policy (or on
// SnapshotValidation, which inherits it) bumps stripes, whatever its readers'
// strategy.
struct StripedCounterValidation {
  static constexpr const char* kName = "striped-counter";
  static constexpr bool kPrecise = true;
  static constexpr bool kPartitioned = true;
  static constexpr bool kMvcc = false;

  static std::atomic<Word>& Counter() {
    static CacheAligned<std::atomic<Word>> counter;
    return *counter;
  }

  static std::atomic<Word>& StripeCounter(int s) {
    static CacheAligned<std::atomic<Word>> counters[kCounterStripes];
    return *counters[s];
  }

  static Word Sample() { return Counter().load(std::memory_order_seq_cst); }
  static bool Stable(Word sample) { return Sample() == sample; }
  static Word StripeNow(int s) {
    return StripeCounter(s).load(std::memory_order_seq_cst);
  }
  static StripeSample StripeSampleNow() {
    StripeSample x;
    for (int s = 0; s < kCounterStripes; ++s) {
      x.v[s] = StripeNow(s);
    }
    return x;
  }

  // Returns the writer's own commit index, which the commit-skip test compares
  // against the sample anchor: own_idx == sample + 1 proves no FOREIGN bump
  // lies between anchor and bump (later writers validate after this writer's
  // locks are visible and detect them — the crossing-committer note in
  // valstrategy.h).
  //
  // `stripe_mask` names the counter stripes the write set occupies (bit s set =
  // some locked word lives in stripe s). A writer path with no cheap write-set
  // enumeration keeps the all-stripes default, which readers absorb as "every
  // stripe moved": they walk for that commit, never skip unsoundly. The whole
  // sequence runs while every commit lock is held, before the commit-time
  // validation and the releasing stores, so each stripe inherits the global
  // bump-before-validate discipline.
  static Word OnWriterCommit(TxDesc* /*self*/,
                             unsigned stripe_mask = kAllCounterStripesMask) {
    // Fault injection (no-ops in production): widen the stripe-bumps vs
    // global-bump gap the ordering argument above closes.
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreStripeBump);
    for (int s = 0; s < kCounterStripes; ++s) {
      if ((stripe_mask >> s) & 1u) {
        StripeCounter(s).fetch_add(1, std::memory_order_seq_cst);
      }
    }
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreBump);
    const Word idx = Counter().fetch_add(1, std::memory_order_seq_cst) + 1;
    // Bumped, locks still held: a pause site (delay/throw injection) that is
    // also a schedule point under SPECTM_SCHED, so the explorer drives readers
    // and crossing committers through the bump -> release window both ways.
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostBump);
    return idx;
  }
};

// MVCC snapshot policy: writer-side protocol identical to the striped counter
// policy — same summary domain, same stripe counters — plus kMvcc: committing
// writers publish every displaced value onto the slot's version chain stamped
// with their own commit index (src/tm/mvcc.h). Under ValMode::kSnapshot, read-only transactions pin a
// snapshot from this clock and read through the chains with zero validation;
// read-write transactions keep the precise stripe protocol unchanged.
struct SnapshotValidation : StripedCounterValidation {
  static constexpr const char* kName = "snapshot";
  static constexpr bool kMvcc = true;
};

// One snapshot read against `s` at pinned snapshot stamp `snapshot`: the
// current word if its reign began at or before the snapshot, else the newest
// chain version whose interval [floor, stamp) contains it. Loops past the two
// transient states (commit lock held with no usable version yet; unstamped
// head) — in-flight writers resolve both in a handful of instructions, and on
// a single core the yield hands them the CPU. Returns ok == false only when
// the chain has been truncated below the snapshot (deepest floor > snapshot):
// the caller must refresh its snapshot, never guess.
struct SnapshotReadResult {
  Word value = 0;
  int hops = 0;    // chain nodes dereferenced (0 = in-place fast path)
  bool ok = false;
};

inline SnapshotReadResult SnapshotReadSlot(ValSlot* s, Word snapshot) {
  for (int spins = 0;; ++spins) {
    const Word w = s->word.load(std::memory_order_acquire);
    mvcc::VersionNode* head = s->versions.load(std::memory_order_acquire);
    const Word head_stamp =
        (head != nullptr) ? head->stamp.load(std::memory_order_acquire) : 0;
    if (!ValIsLocked(w)) {
      if (head == nullptr || (head_stamp != mvcc::kUnstamped && head_stamp <= snapshot)) {
        return {w, 0, true};  // current value already reigned at the snapshot
      }
      // head_stamp == kUnstamped here means our two loads straddled a
      // writer's push: retry (the next word load sees its lock or its store).
    } else {
      // Commit lock held. The chain serves the read iff a stamped head with
      // stamp > snapshot exists (the in-flight writer cannot affect versions
      // at or below its own displaced head); otherwise the value this
      // snapshot needs is still in the owner's lock log — wait it out.
      if (head != nullptr && head_stamp != mvcc::kUnstamped && head_stamp > snapshot) {
        // fall through to the walk
      } else {
        if (spins >= kReadLockSpin) {
          std::this_thread::yield();
        }
        SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
        CpuRelax();
        continue;
      }
    }
    if (head_stamp == mvcc::kUnstamped) {
      SPECTM_SCHED_SPIN(failpoint::Site::kLockAcquire);
      CpuRelax();
      continue;
    }
    // Walk newest -> oldest for the node covering the snapshot. Invariant on
    // every node reached: stamp > snapshot (head was checked; each deeper
    // node's stamp equals its predecessor's floor, which exceeded the
    // snapshot for us to descend).
    int hops = 0;
    for (mvcc::VersionNode* n = head; n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      ++hops;
      if (n->floor <= snapshot) {
        return {n->word, hops, true};
      }
    }
    return {0, hops, false};  // truncated below the snapshot
  }
}

// Distributed counters (§2.4 last paragraph): each thread bumps its own padded
// counter on commit — "fast to (logically) increment the shared counter, at the cost
// of reading all of the threads' counters" when validating. Counters only increase,
// so an unchanged sum implies every individual counter is unchanged.
struct PerThreadCounterValidation {
  static constexpr const char* kName = "per-thread-counters";
  static constexpr bool kPrecise = true;
  static constexpr bool kPartitioned = false;
  static constexpr bool kMvcc = false;

  static Word Sample() {
    const int bound = ThreadRegistry::IdBound();
    Word sum = 0;
    for (int i = 0; i < bound; ++i) {
      sum += Counters()[i]->load(std::memory_order_seq_cst);
    }
    return sum;
  }

  static bool Stable(Word sample) { return Sample() == sample; }

  // No single commit index exists for a distributed sum, so this returns 0;
  // callers use the uniform "Sample() == sample + 1 after own bump" test
  // instead (sums count all bumps, so anchor+1 means exactly this writer's own).
  static Word OnWriterCommit(TxDesc* self, unsigned /*stripe_mask*/ = 0) {
    Counters()[self->thread_slot]->fetch_add(1, std::memory_order_seq_cst);
    return 0;
  }

 private:
  static CacheAligned<std::atomic<Word>>* Counters() {
    static CacheAligned<std::atomic<Word>> counters[ThreadRegistry::kMaxThreads];
    return counters;
  }
};

}  // namespace spectm

#endif  // SPECTM_TM_VAL_WORD_H_
