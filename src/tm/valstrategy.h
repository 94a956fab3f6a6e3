// Adaptive validation engine: the machinery that turns per-read revalidation cost
// from a fixed property of a TM family into a runtime choice.
//
// The paper's local-clock and value-based variants pay O(read-set) revalidation on
// every read to preserve opacity (§4.1, Figure 5) — the cost behind the Figs 7–9
// crossovers. No single remedy wins across workloads, so engines that opt in pick
// a strategy per attempt, driven by the descriptor's abort-rate EWMA (txdesc.h):
//
//   kCounterSkip — NOrec's precise-counter skip: a domain-wide commit counter that
//     every writer bumps while holding its locks, before its releasing stores.
//     "Counter unchanged since the log was last known valid" proves no writer
//     released a value/version in between, so the O(read-set) walk is skipped.
//     Cheapest when writer commits are rare relative to this thread's reads.
//
//   kIncremental — the paper's baseline: walk the read set, no shared-counter
//     reliance. The fallback when contention is high enough that the counter
//     has almost always moved and the walk happens anyway.
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
// read-occupied stripes) skips the walk; anything else walks.
//
// Strategy choice (kAdaptive) is re-evaluated from the EWMA at every transaction
// start: low abort rate -> counter-skip, high -> incremental. The band edge is
// HYSTERETIC (same enter/exit dead-band pattern as the GV6 clock flip in
// clock.h): moving to incremental uses the enter threshold, moving back requires
// the EWMA to fall through a lower exit threshold, so a border workload whose
// EWMA wiggles around one edge does not alternate strategies on every outcome.
// Fixed modes exist for ablation benches (bench/abl_adaptive_val) so the adaptive
// engine can be measured against every fixed point it switches between.
//
// Soundness of the skip paths (NOrec discipline):
//   * Writer protocol: acquire ALL commit locks, bump, validate (or skip), only
//     then perform the releasing stores. The lock is held across the whole
//     bump..release window, so a writer whose bump predates a reader's sample is
//     visibly locked on (or already done with) every location it will store to.
//   * Every read-log entry was admitted through an unlocked observation (val-layout
//     reads spin past locks; orec reads sandwich an unlocked orec), so any writer
//     that had bumped before the reader's sample had already finished with that
//     location — its later stores cannot touch it.
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
// first's locks are in place — the locked-orec (or locked-word) check then kills
// it. The commit-time walk must therefore stay conservative: a foreign lock on a
// read-log entry fails validation even though the underlying version is intact.
#ifndef SPECTM_TM_VALSTRATEGY_H_
#define SPECTM_TM_VALSTRATEGY_H_

#include <atomic>
#include <cstdint>

#include "src/common/cacheline.h"
#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/tm/txdesc.h"

namespace spectm {

// Per-family validation mode. kPassive is the zero-overhead default (no summary
// maintenance at all — existing families are bit-for-bit unchanged); kIncremental
// maintains the writer summary but never consults it (measures pure maintenance
// overhead); the rest consult it as described above.
enum class ValMode : std::uint8_t {
  kPassive,
  kIncremental,
  kCounterSkip,
  kAdaptive,
  kPartitioned,
  // MVCC (PR 9): read-only transactions pin a snapshot stamp and read through
  // the version chains (src/tm/mvcc.h) — no sandwiching, no walks, no aborts;
  // read-write attempts resolve to the partitioned stripe protocol and
  // additionally publish displaced values. Requires a kMvcc policy.
  kSnapshot,
};

// The strategy a transaction attempt actually runs with (kAdaptive resolves to one
// of these at Start(); kStripe is the partitioned-NOrec per-stripe skip).
enum class ValStrategy : std::uint8_t { kIncremental, kCounterSkip, kStripe };

inline const char* ValStrategyName(ValStrategy s) {
  switch (s) {
    case ValStrategy::kIncremental:
      return "incremental";
    case ValStrategy::kCounterSkip:
      return "counter-skip";
    case ValStrategy::kStripe:
      return "partitioned";
  }
  return "?";
}

// EWMA thresholds for the adaptive choice, Q16 (65536 = 100% abort rate). Below
// the band the bare counter skip almost always fires; at or above it walks
// happen regardless, so the summary is not worth consulting.
//
// The edge is a hysteresis PAIR (the GV6 clock.h pattern): crossing the enter
// threshold upward moves to incremental; only falling below the exit threshold
// moves back. Inside the dead band the previous choice sticks, so a border
// workload's EWMA noise cannot alternate strategies per attempt
// (ValProbe::strategy_switches pins the damping).
inline constexpr std::uint32_t kEwmaWalkEnterQ16 = 1u << 14;  // 25%: enter incremental
inline constexpr std::uint32_t kEwmaWalkExitQ16 = 1u << 13;   // 12.5%: back to counter-skip
static_assert(kEwmaWalkExitQ16 < kEwmaWalkEnterQ16,
              "the dead band must be non-empty or the hysteresis degenerates to "
              "single-threshold flapping");

// Below this skip-efficacy EWMA (txdesc.h) the adaptive engine stops paying for
// skip attempts: when the domain's write traffic moves the counter between
// almost every pair of reads, the skip checks are pure overhead on top of the
// walk that happens anyway, and plain incremental is the better fixed point.
// Re-enabling skips requires the efficacy to recover through the higher
// kSkipEwmaRecoverQ16 (hysteresis, as with the abort bands).
inline constexpr std::uint32_t kSkipEwmaMinQ16 = 1u << 13;      // 12.5%: stop skipping
inline constexpr std::uint32_t kSkipEwmaRecoverQ16 = 1u << 14;  // 25%: resume skipping
static_assert(kSkipEwmaMinQ16 < kSkipEwmaRecoverQ16,
              "the efficacy dead band must be non-empty");

// In the incremental-because-skips-don't-pay regime the efficacy EWMA would
// freeze (no skip attempts -> no updates), so every N-th attempt probes a skip
// strategy anyway to notice when the workload turns quiet again.
inline constexpr std::uint32_t kSkipProbePeriod = 16;

// Strategy choice for a new attempt. Without history (`has_prev` false) the
// plain enter thresholds apply — the memoryless mapping the band tests pin.
// With history, the previous attempt's strategy supplies the hysteresis state:
// moving toward incremental needs the enter edge, moving back the exit edge.
// kPartitioned is a fixed mode resolving to kStripe; StrategyState clamps it to
// kCounterSkip at compile time when the family's summary has no stripe counters.
inline ValStrategy ChooseStrategy(ValMode mode, std::uint32_t abort_ewma_q16,
                                  std::uint32_t skip_ewma_q16 = 65536u,
                                  bool has_prev = false,
                                  ValStrategy prev = ValStrategy::kIncremental) {
  switch (mode) {
    case ValMode::kPassive:
    case ValMode::kIncremental:
      return ValStrategy::kIncremental;
    case ValMode::kCounterSkip:
      return ValStrategy::kCounterSkip;
    case ValMode::kPartitioned:
      return ValStrategy::kStripe;
    case ValMode::kSnapshot:
      // Read-only work never reaches a strategy at all (chain reads); this is
      // the read-write side, which keeps the per-stripe precise protocol.
      return ValStrategy::kStripe;
    case ValMode::kAdaptive: {
      // Both gates key their hysteresis off whether the engine was walking:
      // once it fell back, skips must prove themselves through the recover
      // threshold and the abort EWMA must fall through the exit edge before
      // they are paid for again. A fresh descriptor starts on the skip side.
      const bool was_walking = has_prev && prev == ValStrategy::kIncremental;
      if (skip_ewma_q16 < (was_walking ? kSkipEwmaRecoverQ16 : kSkipEwmaMinQ16)) {
        return ValStrategy::kIncremental;  // skips are not paying for themselves
      }
      const std::uint32_t edge = was_walking ? kEwmaWalkExitQ16 : kEwmaWalkEnterQ16;
      return abort_ewma_q16 >= edge ? ValStrategy::kIncremental
                                    : ValStrategy::kCounterSkip;
    }
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
// structure leave its anchor alone. On the hash-scattered shared orec table the
// stripe of an orec is effectively random, so wide orec read sets still occupy
// every stripe; the region partition only degrades to the whole-counter
// behavior there, never below it (ROADMAP notes the striped-table alignment as
// follow-up).
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

// Per-domain writer summary for orec-based families: the precise commit counter
// plus, for partitioned domains, the per-stripe counters. Writers call Bump()
// after acquiring all commit locks, BEFORE their commit-time validation and any
// data store or orec release (the ordering the soundness argument above depends
// on). The val layout reaches the same machinery through its ValidationPolicy
// (StripedCounterValidation in val_word.h).
//
// Summary concept (shared with the ValidationPolicy classes in val_word.h, so
// StrategyState below can drive either): Sample/Stable and kPartitioned, plus
// StripeNow/StripeSampleNow where kPartitioned is true.
// `kPartitionedCounters` opts the DOMAIN into partitioned NOrec: per-stripe
// commit counters alongside the precise global counter (which remains the
// commit-skip own_idx). Writers then bump ONLY the
// stripes their write set touches — cache-line-separated, so two committers in
// disjoint regions no longer exchange a counter line — and bump them BEFORE the
// global counter, so any commit counted by a global sample already has its
// stripe bumps visible. It is a compile-time property of the whole domain
// because the protocol is writer-side: a domain with any kStripe reader needs
// EVERY writer bumping stripes; conversely a domain with none should not pay
// the extra seq-cst RMWs on its commit path (the orec ablation families each
// own a private domain, so they opt in per family; the val families share one
// summary domain, which therefore stays partitioned for ValPart's readers).
template <typename DomainTag, bool kPartitionedCounters = true>
struct WriterSummary {
  static constexpr bool kPartitioned = kPartitionedCounters;

  static std::atomic<Word>& Counter() {
    static CacheAligned<std::atomic<Word>> counter;
    return *counter;
  }

  static std::atomic<Word>& StripeCounter(int s) {
    static CacheAligned<std::atomic<Word>> counters[kCounterStripes];
    return *counters[s];
  }

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

  static Word Sample() { return Counter().load(std::memory_order_seq_cst); }
  static bool Stable(Word sample) { return Sample() == sample; }

  // Returns the writer's own commit index. Commit-time skip tests compare it
  // against the sample anchor: own_idx == sample + 1 proves no FOREIGN bump lies
  // between anchor and bump (later writers validate after this writer's locks are
  // visible and detect them — see the crossing-committer note above).
  //
  // `stripe_mask` names the counter stripes the write set occupies (bit s set =
  // some locked metadata word lives in stripe s); callers that cannot enumerate
  // their write set pass kAllCounterStripesMask, which readers absorb as "every
  // stripe moved" — conservative, never unsound. Stripe bumps precede the global
  // bump (see kPartitioned above), and the whole sequence runs while every
  // commit lock is held, before the commit-time validation and the releasing
  // stores — each stripe inherits the global bump-before-validate discipline.
  static Word Bump(unsigned stripe_mask = kAllCounterStripesMask) {
    if constexpr (kPartitioned) {
      // Fault injection (no-ops in production): widen the stripe-bumps vs
      // global-bump gap the ordering argument above closes.
      SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreStripeBump);
      for (int s = 0; s < kCounterStripes; ++s) {
        if ((stripe_mask >> s) & 1u) {
          StripeCounter(s).fetch_add(1, std::memory_order_seq_cst);
        }
      }
    } else {
      (void)stripe_mask;  // non-partitioned domain: the global bump is the protocol
    }
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPreBump);
    const Word idx = Counter().fetch_add(1, std::memory_order_seq_cst) + 1;
    // Bumped, locks still held: a pause site (delay/throw injection) that is
    // also a schedule point under SPECTM_SCHED, so the explorer drives readers
    // and crossing committers through the bump -> release window both ways.
    SPECTM_FAILPOINT_PAUSE(failpoint::Site::kPostBump);
    return idx;
  }

  // The writer entry point of the summary concept, shared with the val
  // layout's ValidationPolicy classes (val_word.h) so BumpWriterSummary below
  // drives either.
  static Word OnWriterCommit(TxDesc* /*self*/, unsigned stripe_mask) {
    return Bump(stripe_mask);
  }
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
// single-op writers, on every layout. Runs while every lock of the write set
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
// benches use these to prove the hot-path claims (counter skips firing, the EWMA
// switch actually transitioning strategy).
template <typename DomainTag>
struct ValProbe {
  struct Counters {
    std::uint64_t counter_skips = 0;      // walks avoided by a stable counter
    // Always 0: no skip path feeds it any more. Kept only because the stmbench
    // harness still reads the field; drop both together.
    std::uint64_t bloom_skips = 0;
    std::uint64_t validation_walks = 0;   // full read-set walks performed
    std::uint64_t strategy_switches = 0;  // attempts started with a new strategy
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
    // Not counters: the strategy the last attempt started with (for tests) and
    // the attempt tick driving the periodic skip-efficacy probe.
    ValStrategy last_strategy = ValStrategy::kIncremental;
    bool has_strategy = false;
    std::uint32_t attempt_tick = 0;
    // Hysteresis memory for ChooseStrategy: the last UN-probed adaptive choice
    // (the kSkipProbePeriod override must not masquerade as a recovered skip
    // phase, or incremental-with-probing would flap once per probe period).
    ValStrategy steady_strategy = ValStrategy::kIncremental;
    bool has_steady = false;
  };
  static Counters& Get() {
    thread_local Counters counters;
    return counters;
  }
  static void Reset() { Get() = Counters{}; }

  // Records the strategy chosen for a new attempt, counting transitions.
  static void OnStrategyChosen(ValStrategy s) {
    Counters& c = Get();
    if (c.has_strategy && c.last_strategy != s) {
      ++c.strategy_switches;
    }
    c.last_strategy = s;
    c.has_strategy = true;
  }
};

// Per-attempt strategy state, shared by all four engines (full/short x orec/val —
// previously open-coded in each with small drift; the ROADMAP refactor item).
// Owns the choose/probe-tick at attempt start, the persistent counter anchor
// (global sample AND, for partitioned summaries, the per-stripe sample vector),
// the read-stripe mask, and the counter/stripe skip ladder with its
// efficacy-EWMA feedback. SummaryT is anything satisfying the summary concept
// (WriterSummary, or a ValidationPolicy from val_word.h); ProbeT is the family's
// ValProbe.
//
// The anchor invariant every user maintains: `sample()` (when `sample_valid()`)
// names a summary-counter value at which the ENTIRE read log was simultaneously
// valid, and the stripe vector (when stripe-valid) was drawn at the same
// anchoring event, so "every READ-occupied stripe unchanged" proves the same
// thing one shard at a time (docs/VALIDATION.md carries the per-stripe
// re-derivation). Anchor() establishes both before the first read of an attempt;
// tracked walks re-establish them via ConfirmAnchorAfterWalk (tail rule: such
// walks must cover the whole log). Mutating members are mutable + const because
// engines call the skip paths from const validation paths (short_tm's
// ValidateRo).
template <typename SummaryT, typename ProbeT>
class StrategyState {
 public:
  // Outcome of the per-read skip paths: the walk was skipped (stable counter /
  // stable stripes), or the caller must run its walk.
  enum class ReadSkip : std::uint8_t { kSkipped, kMustWalk };

  // Pre-walk snapshot for tracked walks: the global sample plus (partitioned
  // summaries only) the stripe vector. Drawn global-first: writers bump stripes
  // BEFORE the global counter, so every commit a global sample counts already
  // has its stripe bumps included in a vector drawn after that sample.
  struct Snapshot {
    Word global = 0;
    StripeSample stripes;
  };

  // Re-arms for a fresh attempt: pick the strategy from the descriptor EWMAs
  // (hysteretic band edges keyed off the thread's previous steady choice, with
  // the periodic skip-efficacy probe under kAdaptive), reset the read-stripe
  // mask, and anchor the persistent sample BEFORE any read (the skip
  // soundness argument needs the anchor drawn no later than the first read).
  void StartAttempt(ValMode mode, const TxStats& stats) {
    typename ProbeT::Counters& probe = ProbeT::Get();
    strat_ = ChooseStrategy(mode, AbortEwmaQ16(stats),
                            SkipEwmaQ16(stats), probe.has_steady,
                            probe.steady_strategy);
    if constexpr (!SummaryT::kPartitioned) {
      if (strat_ == ValStrategy::kStripe) {
        strat_ = ValStrategy::kCounterSkip;  // summary shards nothing: whole counter
      }
    }
    // The hysteresis memory records the steady choice BEFORE the probe override:
    // a probe attempt must not masquerade as a recovered skip phase, or
    // incremental-with-probing would flap once per probe period.
    probe.steady_strategy = strat_;
    probe.has_steady = true;
    if (mode == ValMode::kAdaptive && strat_ == ValStrategy::kIncremental &&
        ++probe.attempt_tick % kSkipProbePeriod == 0) {
      strat_ = ValStrategy::kCounterSkip;  // efficacy probe (see kSkipProbePeriod)
    }
    ProbeT::OnStrategyChosen(strat_);
    read_stripe_mask_ = 0;
    Anchor();
  }

  ValStrategy strategy() const { return strat_; }
  Word sample() const { return sample_; }
  bool sample_valid() const { return sample_valid_; }
  unsigned read_stripe_mask() const { return read_stripe_mask_; }

  void Anchor() const {
    sample_ = SummaryT::Sample();
    sample_valid_ = true;
    if constexpr (SummaryT::kPartitioned) {
      // The stripe vector costs kCounterStripes extra seq-cst loads; only the
      // kStripe strategy ever consults it, so other strategies skip the draw.
      if (strat_ == ValStrategy::kStripe) {
        stripe_sample_ = SummaryT::StripeSampleNow();
        stripe_valid_ = true;
      } else {
        stripe_valid_ = false;
      }
    }
  }

  // Accumulates a just-read location's stripe into the occupancy mask (kStripe
  // only; the other strategies never consult it, so the OR would be dead work).
  void NoteRead(const void* metadata_word) {
    if (strat_ == ValStrategy::kStripe) {
      read_stripe_mask_ |= 1u << CounterStripeOf(metadata_word);
    }
  }

  // The skip ladder, cheapest first: stable global counter, then (partitioned)
  // stable READ-occupied stripes, else walk. Updates the skip-efficacy EWMA
  // when `ewma_stats` is non-null (per-read call sites feed the adaptive
  // engine; final-validation call sites pass nullptr, matching the engines'
  // historical behavior).
  ReadSkip TrySkipRead(TxStats* ewma_stats) const {
    const bool skippable =
        strat_ != ValStrategy::kIncremental && sample_valid_;
    if (skippable && SummaryT::Stable(sample_)) {
      ++ProbeT::Get().counter_skips;
      if (ewma_stats != nullptr) {
        UpdateSkipEwma(*ewma_stats, /*skipped=*/true);
      }
      return ReadSkip::kSkipped;
    }
    if constexpr (SummaryT::kPartitioned) {
      if (skippable && strat_ == ValStrategy::kStripe && stripe_valid_ &&
          StripesUnchanged()) {
        ++ProbeT::Get().stripe_skips;
        if (ewma_stats != nullptr) {
          UpdateSkipEwma(*ewma_stats, /*skipped=*/true);
        }
        return ReadSkip::kSkipped;
      }
    }
    if (strat_ != ValStrategy::kIncremental && ewma_stats != nullptr) {
      UpdateSkipEwma(*ewma_stats, /*skipped=*/false);
    }
    if (strat_ == ValStrategy::kStripe) {
      ++ProbeT::Get().cross_stripe_walks;  // a read-occupied stripe moved
    }
    return ReadSkip::kMustWalk;
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
    if (strat_ == ValStrategy::kIncremental || !sample_valid_) {
      return false;
    }
    const bool counter_ok = own_idx != 0
                                ? own_idx == sample_ + 1
                                : SummaryT::Sample() == sample_ + 1;
    if (counter_ok) {
      ++ProbeT::Get().counter_skips;
      return true;
    }
    if constexpr (SummaryT::kPartitioned) {
      if (strat_ == ValStrategy::kStripe && stripe_valid_ &&
          StripesUnchangedWithOwn(write_stripe_mask)) {
        ++ProbeT::Get().stripe_skips;
        return true;
      }
    }
    return false;
  }

  // Snapshot for tracked walks and the val engines' stability loops: global
  // sample first, then the stripe vector (see Snapshot for why this order).
  Snapshot DrawSnapshot() const {
    Snapshot snap;
    snap.global = SummaryT::Sample();
    if constexpr (SummaryT::kPartitioned) {
      if (strat_ == ValStrategy::kStripe) {  // see Anchor(): nobody else reads it
        snap.stripes = SummaryT::StripeSampleNow();
      }
    }
    return snap;
  }

  // Tracked-walk anchoring: call with a Snapshot drawn BEFORE the walk. The
  // pre-walk snapshot becomes the new anchor only if the global counter stayed
  // stable across the walk (a writer that bumped mid-walk may have released
  // mid-walk too); a stable global also vouches for the stripe vector — no
  // commit completed, and an in-flight writer's pending stripe bump either
  // predates the vector (its still-held locks then failed the walk on any
  // logged target) or postdates it (its eventual release is caught as stripe
  // movement). On a failed confirm the walk's result stands but both anchors
  // are invalidated, so later skips walk until a quiet window re-anchors.
  void ConfirmAnchorAfterWalk(const Snapshot& pre_walk) const {
    if (SummaryT::Stable(pre_walk.global)) {
      sample_ = pre_walk.global;
      sample_valid_ = true;
      if constexpr (SummaryT::kPartitioned) {
        if (strat_ == ValStrategy::kStripe) {
          stripe_sample_ = pre_walk.stripes;
          stripe_valid_ = true;
        }
      }
    } else {
      sample_valid_ = false;
      if constexpr (SummaryT::kPartitioned) {
        stripe_valid_ = false;
      }
    }
  }

  // Direct re-anchor for walks that themselves loop until the global counter is
  // stable across a full pass (the val engines' NOrec-style ValidateReads); the
  // snapshot must be the one drawn before that pass.
  void ReanchorStable(const Snapshot& stable) const {
    sample_ = stable.global;
    sample_valid_ = true;
    if constexpr (SummaryT::kPartitioned) {
      if (strat_ == ValStrategy::kStripe) {
        stripe_sample_ = stable.stripes;
        stripe_valid_ = true;
      }
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
  ValStrategy strat_ = ValStrategy::kIncremental;
  mutable bool sample_valid_ = false;
  mutable bool stripe_valid_ = false;
};

}  // namespace spectm

#endif  // SPECTM_TM_VALSTRATEGY_H_
