// Validation strategies of the val layout: the machinery that cuts per-read
// revalidation cost for the val families (val_full.h, val_short.h), each with
// one strategy fixed when the family is built.
//
// Value-based validation pays O(read-set) revalidation on every read to preserve
// opacity (§2.4, Figure 5) — the cost behind the Figs 7–9 crossovers. A val
// family's ValMode names its remedy, and StrategyState resolves it at compile
// time (StrategyFor below) to one of:
//
//   kCounterSkip — NOrec's precise-counter skip: a domain-wide commit counter that
//     every writer bumps while holding its locks, before its releasing stores.
//     "Counter unchanged since the log was last known valid" proves no writer
//     released a value/version in between, so the O(read-set) walk is skipped.
//     Cheapest when writer commits are rare relative to this thread's reads.
//
//   kIncremental — the paper's baseline: walk the read set, no shared-counter
//     reliance.
//
//   kStripe (partitioned NOrec, ValMode::kPartitioned) — the commit counter is
//     SHARDED into kCounterStripes cache-line-separated per-stripe counters keyed
//     by the metadata word's address region: a committing writer bumps only the
//     stripes its write set touches, and a reader's skip test compares a
//     per-stripe sample vector against only the stripes its read set occupies.
//     Disjoint-stripe write traffic no longer invalidates the reader's anchor at
//     all. The per-stripe soundness argument (anchor re-derivation, crossing
//     committers) lives in docs/VALIDATION.md.
//
// The skip ladder is two steps: a stable counter (or, under kStripe, stable
// read-occupied stripes) skips the walk; anything else walks. Which families
// run which strategy, and the bench cell behind each choice, is tabulated in
// docs/ARCHITECTURE.md. The orec engines (full_tm.h, short_tm.h) keep the
// paper's two plain validation designs instead — "-g" extends its timebase
// against the global clock, "-l" walks after every read — and bump no summary:
// on the hash-scattered orec table the shared counter line cost more than the
// walks it saved (docs/ARCHITECTURE.md, "Family composition").
//
// Soundness of the skip paths (NOrec discipline):
//   * Writer protocol: acquire ALL commit locks, bump, validate (or skip), only
//     then perform the releasing stores. The lock is held across the whole
//     bump..release window, so a writer whose bump predates a reader's sample is
//     visibly locked on (or already done with) every location it will store to.
//   * Every read-log entry was admitted through an unlocked observation (reads
//     spin past a locked word), so any writer that had bumped before the
//     reader's sample had already finished with that location — its later
//     stores cannot touch it.
//   * Therefore "counter unchanged since sample" => every logged location is
//     unchanged, and the newest read instant is a consistency point for the whole
//     log.
//
// Tail rule: the engines' classic per-read walk may exclude the just-read entry
// (consistent at its own read instant). A TRACKED walk — one that re-anchors the
// persistent sample — must instead cover the ENTIRE log: anchoring at counter c
// asserts "whole log valid at c", and on a preempted thread thousands of commits
// can land between the tail's read sandwich and the walk, silently invalidating
// the tail while the prefix still checks out.
//
// Why writers bump BEFORE their own commit-time validation (not after, as a
// reader-only analysis would allow): two crossing committers — R reads X and
// writes Y while W reads Y and writes X — could otherwise BOTH skip/pass: W
// validates before R locks Y, R's counter check passes before W bumps, and both
// store, committing a write skew (observed as lost hash-set unlinks => double
// retire). With bump-before-validate, a committing writer may only skip when NO
// foreign bump lies in (its sample anchor, its own bump]; of two crossing
// committers one always bumps second, and that one's validation runs after the
// first's locks are in place — the locked-word check then kills it. The
// commit-time walk must therefore stay conservative: a foreign lock on a
// read-log entry fails validation even though the underlying value is intact.
#ifndef SPECTM_TM_VALSTRATEGY_H_
#define SPECTM_TM_VALSTRATEGY_H_

#include <atomic>
#include <cstdint>

#include "src/common/tagged.h"
#include "src/tm/txdesc.h"

namespace spectm {

// Per-family validation mode of a val family. kIncremental maintains the
// writer summary but never consults it (measures pure maintenance overhead);
// the rest consult it as described above.
enum class ValMode : std::uint8_t {
  kIncremental,
  kCounterSkip,
  kPartitioned,
  // MVCC (PR 9): read-only transactions pin a snapshot stamp and read through
  // the version chains (src/tm/mvcc.h) — no sandwiching, no walks, no aborts;
  // read-write attempts resolve to the partitioned stripe protocol and
  // additionally publish displaced values. Requires a kMvcc policy.
  kSnapshot,
};

// The strategy a family's transactions run with (kStripe is the
// partitioned-NOrec per-stripe skip).
enum class ValStrategy : std::uint8_t { kIncremental, kCounterSkip, kStripe };

// The compile-time mapping from a family's mode to its strategy. The stripe
// modes fall back to the whole counter when the family's summary shards
// nothing. kSnapshot names the read-write side: read-only work never reaches
// a strategy at all (chain reads).
constexpr ValStrategy StrategyFor(ValMode mode, bool partitioned_summary) {
  switch (mode) {
    case ValMode::kIncremental:
      return ValStrategy::kIncremental;
    case ValMode::kCounterSkip:
      return ValStrategy::kCounterSkip;
    case ValMode::kPartitioned:
    case ValMode::kSnapshot:
      return partitioned_summary ? ValStrategy::kStripe : ValStrategy::kCounterSkip;
  }
  return ValStrategy::kIncremental;
}

// --- Partitioned NOrec: counter stripes -----------------------------------------
//
// The precise commit counter is sharded into kCounterStripes cache-line-separated
// per-stripe counters keyed by the metadata word's ADDRESS REGION (a
// 2^kCounterStripeShift-byte block): stripe(m) = (m >> shift) mod kCounterStripes.
// The partition key is the metadata word — the conflict unit — so a writer and a
// reader always agree on which stripe guards a location. Region (rather than
// hash-bit) keying is what makes the partition worth having: on layouts whose
// metadata is co-located with the data (the val layout, §2.4), a structurally
// local read set — a btree leaf-chain scan, a node's field cluster — occupies few
// stripes no matter how many ENTRIES it has, so writers elsewhere in the
// structure leave its anchor alone.
inline constexpr int kCounterStripes = 4;
inline constexpr int kCounterStripeShift = 12;  // 4 KiB regions
inline constexpr unsigned kAllCounterStripesMask = (1u << kCounterStripes) - 1;

inline int CounterStripeOf(const void* metadata_word) {
  return static_cast<int>(
      (reinterpret_cast<std::uintptr_t>(metadata_word) >> kCounterStripeShift) &
      static_cast<std::uintptr_t>(kCounterStripes - 1));
}

inline int CountStripeBits(unsigned mask) {
  int n = 0;
  for (unsigned m = mask; m != 0; m &= m - 1) {
    ++n;
  }
  return n;
}

// A reader's per-stripe counter sample vector (the partitioned analogue of the
// single Word sample). Components are meaningful only for stripes the owner's
// read-stripe mask occupies; the rest are whatever the draw happened to load.
struct StripeSample {
  Word v[kCounterStripes] = {};
};

// The stripe bit a write to `metadata_word` contributes to a writer's bump
// mask. Summaries without stripe counters bump their one counter whatever the
// mask, so they take the all-stripes mask and skip the address arithmetic.
template <typename SummaryT>
unsigned StripeBitOf(const void* metadata_word) {
  if constexpr (SummaryT::kPartitioned) {
    return 1u << CounterStripeOf(metadata_word);
  } else {
    static_cast<void>(metadata_word);
    return kAllCounterStripesMask;
  }
}

// The bump mask of a whole write set; `meta_of(e)` names entry e's metadata
// word.
template <typename SummaryT, typename Range, typename MetaOf>
unsigned WriteStripesOf(const Range& writes, MetaOf meta_of) {
  if constexpr (SummaryT::kPartitioned) {
    unsigned mask = 0;
    for (const auto& e : writes) {
      mask |= StripeBitOf<SummaryT>(meta_of(e));
    }
    return mask;
  } else {
    static_cast<void>(writes);
    static_cast<void>(meta_of);
    return kAllCounterStripesMask;
  }
}

// The writer-summary bump of one committer — full and short commits and
// single-op writers of the val layout. Runs while every lock of the write set
// is held, before the commit-time validation and the releasing stores (the
// ordering argued above). Counts the stripe bumps into ProbeT under a
// partitioned summary. Returns the writer's own commit index (0 for summaries
// without one).
template <typename SummaryT, typename ProbeT>
Word BumpWriterSummary(TxDesc* self, unsigned stripe_mask) {
  if constexpr (SummaryT::kPartitioned) {
    ProbeT::Get().stripe_bumps += static_cast<std::uint64_t>(CountStripeBits(stripe_mask));
  }
  return SummaryT::OnWriterCommit(self, stripe_mask);
}

// Per-(thread, domain) validation instrumentation, mirroring ClockProbe: plain
// thread-local integers, zero shared-state cost, release-build enabled. Tests and
// benches use these to prove the hot-path claims (counter and stripe skips
// firing, walks avoided).
template <typename DomainTag>
struct ValProbe {
  struct Counters {
    std::uint64_t counter_skips = 0;      // walks avoided by a stable counter
    // Always 0: no skip path feeds it any more. Kept only because the stmbench
    // harness still reads the field; drop both together.
    std::uint64_t bloom_skips = 0;
    std::uint64_t validation_walks = 0;   // full read-set walks performed
    // Partitioned-NOrec evidence: walks avoided because every READ-occupied
    // stripe counter was stable; writer-side per-stripe counter bumps; and walks
    // a kStripe attempt could not avoid (some read-occupied stripe moved).
    std::uint64_t stripe_skips = 0;
    std::uint64_t stripe_bumps = 0;
    std::uint64_t cross_stripe_walks = 0;
    // Batch-validation kernel evidence (validate_batch.h): 4-entry SIMD
    // iterations and scalar-path entry checks. The CI SIMD and forced-scalar
    // jobs each assert their column is the one that moved.
    std::uint64_t simd_batches = 0;
    std::uint64_t scalar_checks = 0;
    // MVCC evidence (PR 9, ValMode::kSnapshot + src/tm/mvcc.h): reads served
    // at a pinned snapshot (in place or from a chain); chain nodes
    // dereferenced beyond the in-place fast path; nodes unlinked by writers
    // (recycled or deferred); and chain truncation operations. The zero-cost
    // RO-scan claim is "snapshot_reads > 0 while validation_walks stays 0".
    std::uint64_t snapshot_reads = 0;
    std::uint64_t version_hops = 0;
    std::uint64_t versions_retired = 0;
    std::uint64_t chain_splices = 0;
  };
  static Counters& Get() {
    thread_local Counters counters;
    return counters;
  }
  static void Reset() { Get() = Counters{}; }
};

// Per-attempt strategy state of the two val engines (val_full.h, val_short.h).
// Owns the persistent counter anchor (global sample AND, for the stripe
// strategy, the per-stripe sample vector), the read-stripe mask, and the
// counter/stripe skip ladder. SummaryT is the family's ValidationPolicy
// (val_word.h: Sample/Stable and kPartitioned, plus StripeNow/StripeSampleNow
// where kPartitioned is true); ProbeT is the family's ValProbe; kMode is the
// family's mode, resolved once to kStrategy.
//
// The anchor invariant every user maintains: `sample()` names a summary-counter
// value at which the ENTIRE read log was simultaneously valid, and the stripe
// vector was drawn at the same anchoring event, so "every READ-occupied stripe
// unchanged" proves the same thing one shard at a time (docs/VALIDATION.md
// carries the per-stripe re-derivation). Anchor() establishes both before the
// first read of an attempt; the engines' stability loops re-establish them via
// ReanchorStable (tail rule: such walks must cover the whole log). Mutating
// members are mutable + const because engines call the skip paths from const
// validation paths (val_short's ValidateRo).
template <typename SummaryT, typename ProbeT, ValMode kMode>
class StrategyState {
 public:
  static constexpr ValStrategy kStrategy =
      StrategyFor(kMode, SummaryT::kPartitioned);

  // Outcome of the per-read skip paths: the walk was skipped (stable counter /
  // stable stripes), or the caller must run its walk.
  enum class ReadSkip : std::uint8_t { kSkipped, kMustWalk };

  // Pre-walk snapshot for tracked walks: the global sample plus (kStripe
  // only) the stripe vector. Drawn global-first: writers bump stripes
  // BEFORE the global counter, so every commit a global sample counts already
  // has its stripe bumps included in a vector drawn after that sample.
  struct Snapshot {
    Word global = 0;
    StripeSample stripes;
  };

  // Re-arms for a fresh attempt: reset the read-stripe mask and anchor the
  // persistent sample BEFORE any read (the skip soundness argument needs the
  // anchor drawn no later than the first read).
  void StartAttempt() {
    read_stripe_mask_ = 0;
    Anchor();
  }

  Word sample() const { return sample_; }
  unsigned read_stripe_mask() const { return read_stripe_mask_; }

  void Anchor() const {
    sample_ = SummaryT::Sample();
    if constexpr (kStrategy == ValStrategy::kStripe) {
      // The stripe vector costs kCounterStripes extra seq-cst loads; only the
      // kStripe strategy ever consults it, so other strategies skip the draw.
      stripe_sample_ = SummaryT::StripeSampleNow();
    }
  }

  // Accumulates a just-read location's stripe into the occupancy mask (kStripe
  // only; the other strategies never consult it, so the OR would be dead work).
  void NoteRead(const void* metadata_word) {
    if constexpr (kStrategy == ValStrategy::kStripe) {
      read_stripe_mask_ |= 1u << CounterStripeOf(metadata_word);
    } else {
      static_cast<void>(metadata_word);
    }
  }

  // The skip ladder, cheapest first: stable global counter, then (kStripe)
  // stable READ-occupied stripes, else walk.
  ReadSkip TrySkipRead() const {
    if constexpr (kStrategy == ValStrategy::kIncremental) {
      return ReadSkip::kMustWalk;
    } else {
      if (SummaryT::Stable(sample_)) {
        ++ProbeT::Get().counter_skips;
        return ReadSkip::kSkipped;
      }
      if constexpr (kStrategy == ValStrategy::kStripe) {
        if (StripesUnchanged()) {
          ++ProbeT::Get().stripe_skips;
          return ReadSkip::kSkipped;
        }
        ++ProbeT::Get().cross_stripe_walks;  // a read-occupied stripe moved
      }
      return ReadSkip::kMustWalk;
    }
  }

  // Commit-time skip for a writer that has bumped its summary (bump-before-
  // validate; see the crossing-committer note atop this file). `own_idx` is the
  // writer's own commit index, or 0 for policies without one (per-thread counter
  // sums), which fall back to the fresh-sample test — sums count every bump, so
  // anchor+1 still means "exactly my own". `write_stripe_mask` is the stripe
  // mask this writer bumped; the partitioned arm expects each READ-occupied
  // stripe at anchor + own contribution, so a foreign bump of any
  // stripe guarding a logged location before this writer's own bump is caught,
  // and writers bumping those stripes afterwards validate against this writer's
  // already-visible locks (the per-stripe crossing-committer argument,
  // docs/VALIDATION.md).
  bool TrySkipCommit(Word own_idx, unsigned write_stripe_mask = 0) const {
    if constexpr (kStrategy == ValStrategy::kIncremental) {
      return false;
    }
    const bool counter_ok = own_idx != 0
                                ? own_idx == sample_ + 1
                                : SummaryT::Sample() == sample_ + 1;
    if (counter_ok) {
      ++ProbeT::Get().counter_skips;
      return true;
    }
    if constexpr (kStrategy == ValStrategy::kStripe) {
      if (StripesUnchangedWithOwn(write_stripe_mask)) {
        ++ProbeT::Get().stripe_skips;
        return true;
      }
    }
    return false;
  }

  // Snapshot for the engines' stability loops: global sample first, then the
  // stripe vector (see Snapshot for why this order).
  Snapshot DrawSnapshot() const {
    Snapshot snap;
    snap.global = SummaryT::Sample();
    if constexpr (kStrategy == ValStrategy::kStripe) {  // see Anchor()
      snap.stripes = SummaryT::StripeSampleNow();
    }
    return snap;
  }

  // Re-anchor for walks that loop until the global counter is stable across a
  // full pass of the whole log (the val engines' NOrec-style ValidateReads and
  // ValidateRo); the snapshot must be the one drawn before that pass. A stable
  // global also vouches for the stripe vector: no commit completed, and an
  // in-flight writer's pending stripe bump either predates the vector (its
  // still-held locks then failed the pass on any logged target) or postdates
  // it (its eventual release is caught as stripe movement).
  void ReanchorStable(const Snapshot& stable) const {
    sample_ = stable.global;
    if constexpr (kStrategy == ValStrategy::kStripe) {
      stripe_sample_ = stable.stripes;
    }
  }

 private:
  // True iff every READ-occupied stripe counter equals its anchor component.
  // An empty mask is vacuously stable (an empty — trivially consistent — read
  // set).
  bool StripesUnchanged() const {
    for (int s = 0; s < kCounterStripes; ++s) {
      if (((read_stripe_mask_ >> s) & 1u) != 0 &&
          SummaryT::StripeNow(s) != stripe_sample_.v[s]) {
        return false;
      }
    }
    return true;
  }

  // Commit-time variant: this writer already bumped `own_mask`, so a
  // read-occupied stripe it also wrote must read exactly anchor + 1 (its own
  // bump and nothing else) and any other read-occupied stripe exactly the
  // anchor. anchor + 2 on a self-bumped stripe means a foreign bump crossed us
  // — the partitioned analogue of own_idx != sample + 1.
  bool StripesUnchangedWithOwn(unsigned own_mask) const {
    for (int s = 0; s < kCounterStripes; ++s) {
      if (((read_stripe_mask_ >> s) & 1u) == 0) {
        continue;
      }
      const Word expected = stripe_sample_.v[s] + ((own_mask >> s) & 1u);
      if (SummaryT::StripeNow(s) != expected) {
        return false;
      }
    }
    return true;
  }

  mutable Word sample_ = 0;
  mutable StripeSample stripe_sample_;
  unsigned read_stripe_mask_ = 0;
};

}  // namespace spectm

#endif  // SPECTM_TM_VALSTRATEGY_H_
