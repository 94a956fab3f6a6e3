// Named TM domains ("families") binding a meta-data layout, a clock policy, and the
// engines that share them. A family is what data-structure templates are instantiated
// over; the structure decides which API it uses:
//
//   TmHashSet<OrecG>    -> "orec-full-g"   (whole-operation transactions, §2.1)
//   SpecHashSet<OrecG>  -> "orec-short-g"  (decomposed short transactions, §2.2)
//   SpecHashSet<TvarG>  -> "tvar-short-g"  (short + co-located meta-data, §2.3)
//   SpecHashSet<Val>    -> "val-short"     (short + 1-bit meta-data, §2.4)
//   ...
//
// Short and full transactions within one family interoperate: they agree on the orec
// (or lock-bit) protocol and on version numbering, which is what lets a data
// structure run its common cases as short transactions and fall back to full
// transactions elsewhere (§2.2, §3).
#ifndef SPECTM_TM_VARIANTS_H_
#define SPECTM_TM_VARIANTS_H_

#include <cassert>

#include "src/common/cacheline.h"
#include "src/common/tagged.h"
#include "src/tm/clock.h"
#include "src/tm/full_tm.h"
#include "src/tm/layout.h"
#include "src/tm/short_tm.h"
#include "src/tm/val_full.h"
#include "src/tm/val_short.h"
#include "src/tm/val_word.h"
#include "src/tm/valstrategy.h"

namespace spectm {

namespace internal {

template <typename Tag, template <typename> class LayoutTmpl,
          template <typename> class ClockTmpl>
struct OrecBasedFamily {
  using DomainTag = Tag;
  using Layout = LayoutTmpl<Tag>;
  using Clock = ClockTmpl<Tag>;
  using Full = FullTm<Layout, Clock, Tag>;
  using Short = ShortTm<Layout, Clock, Tag>;
  using Slot = typename Layout::Slot;
  using FullTx = typename Full::Tx;
  using ShortTx = typename Short::ShortTx;

  static Word SingleRead(Slot* s) { return Short::SingleRead(s); }
  static void SingleWrite(Slot* s, Word v) { Short::SingleWrite(s, v); }
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    return Short::SingleCas(s, expected, desired);
  }

  // Non-transactional accessors for thread-private data (e.g. initializing a node's
  // links before it is published into a shared structure).
  static void RawWrite(Slot* s, Word v) {
    Layout::Data(*s).store(v, std::memory_order_relaxed);
  }
  static Word RawRead(Slot* s) {
    return Layout::Data(*s).load(std::memory_order_relaxed);
  }

  // Hint that `s` is about to be read transactionally: prefetches its data
  // word and its orec (one line under TvarLayout, two under OrecLayout).
  static void Prefetch(Slot* s) {
    spectm::Prefetch(&Layout::Data(*s));
    spectm::Prefetch(&Layout::OrecOf(*s));
  }
};

template <typename ValidationT, ValMode kMode = ValMode::kCounterSkip>
struct ValFamilyT {
  // All val families share one descriptor/metadata domain (they interoperate on
  // the same words), so they also share one SerialGate/CmProbe. Named here so
  // generic code can say CmProbe<typename Family::DomainTag> for either kind.
  using DomainTag = ValDomainTag;
  using Validation = ValidationT;
  using Full = ValFullTm<ValidationT, kMode>;
  using Short = ValShortTm<ValidationT, kMode>;
  using Slot = ValSlot;
  using FullTx = typename Full::Tx;
  using ShortTx = typename Short::ShortTx;
  static constexpr ValMode kValMode = kMode;

  static Word SingleRead(Slot* s) { return Short::SingleRead(s); }
  static void SingleWrite(Slot* s, Word v) { Short::SingleWrite(s, v); }
  static Word SingleCas(Slot* s, Word expected, Word desired) {
    return Short::SingleCas(s, expected, desired);
  }

  static void RawWrite(Slot* s, Word v) {
    assert((v & kLockBit) == 0 && "val layout reserves bit 0 (use EncodeInt)");
    s->word.store(v, std::memory_order_relaxed);
  }
  static Word RawRead(Slot* s) { return s->word.load(std::memory_order_relaxed); }

  // Hint that `s` is about to be read transactionally: its word is both data
  // and metadata (§2.4), so one line covers it.
  static void Prefetch(Slot* s) { spectm::Prefetch(&s->word); }
};

}  // namespace internal

struct OrecGTag {};
struct OrecLTag {};
struct TvarGTag {};
struct TvarLTag {};
struct OrecGNaiveTag {};

// Shared orec table + global version clock (Figure 3(a)). The global clock is the
// GV4 pass-on-failure policy with a thread-local sample cache (clock.h).
using OrecG = internal::OrecBasedFamily<OrecGTag, OrecLayout, GlobalClockPolicy>;
// Shared orec table + per-orec version numbers: with no clock to compare against,
// every read revalidates the whole read set (§4.1). No writer summary and no
// skip — on this table the counter skip cost more than the walks it saved
// (docs/ARCHITECTURE.md, "Family composition").
using OrecL = internal::OrecBasedFamily<OrecLTag, OrecLayout, LocalClockPolicy>;
// Co-located TVar meta-data + global clock (Figure 3(b)).
using TvarG = internal::OrecBasedFamily<TvarGTag, TvarLayout, GlobalClockPolicy>;
// Co-located TVar meta-data + per-orec versions.
using TvarL = internal::OrecBasedFamily<TvarLTag, TvarLayout, LocalClockPolicy>;

// Ablation baseline: the TL2/GV1-style fetch_add clock (every writer commit bumps
// one shared cache line). A distinct domain tag keeps its clock and orec table
// fully isolated from the GV4 families; bench/abl_clock_scale sweeps it against
// the defaults.
using OrecGNaive = internal::OrecBasedFamily<OrecGNaiveTag, OrecLayout, GlobalClockNaive>;

// Clock-policy ablations beyond GV4 (clock.h): GV5 draws commit stamps with a plain
// load (no RMW on the commit path — ClockProbe's rmw_draws stays zero) at the price
// of extra false aborts; GV6 flips between GV4 and GV5 per draw from the
// descriptor's abort-rate EWMA, with hysteresis (separate enter/exit thresholds).
struct OrecGv5Tag {};
struct OrecGv6Tag {};
using OrecGv5 = internal::OrecBasedFamily<OrecGv5Tag, OrecLayout, GlobalClockGv5>;
using OrecGv6 = internal::OrecBasedFamily<OrecGv6Tag, OrecLayout, GlobalClockGv6>;

// 1-bit meta-data with value-based validation (Figure 3(c)); version-free by default
// (relies on the paper's three special cases, §2.4), with counter-backed general
// modes for code outside those cases.
using Val = internal::ValFamilyT<NonReuseValidation>;
using ValGlobalCounter = internal::ValFamilyT<GlobalCounterValidation>;
using ValPerThreadCounter = internal::ValFamilyT<PerThreadCounterValidation>;

// Validation-strategy ablations for the val layout, ALL over the striped counter
// policy (val_word.h) so every row of bench/abl_adaptive_val pays the identical
// writer protocol (stripe bumps + global bump) and the cells differ only in
// reader strategy: incremental (walk every read — the pure
// summary-maintenance-overhead baseline) and counter-skip. ValGlobalCounter
// above stays on the classic unstriped Dalessandro counter for the original
// abl_val_validation comparison.
using ValIncremental =
    internal::ValFamilyT<StripedCounterValidation, ValMode::kIncremental>;
using ValCounterSkip =
    internal::ValFamilyT<StripedCounterValidation, ValMode::kCounterSkip>;
// Partitioned NOrec over the val layout: metadata IS the data word (§2.4), so the
// address-region counter stripes inherit the structure's locality — a btree
// leaf-chain scan occupies few stripes however many ENTRIES it logs, so writers
// elsewhere in the tree leave its anchor alone (abl_readset_layout's range-scan
// rows).
using ValPart =
    internal::ValFamilyT<StripedCounterValidation, ValMode::kPartitioned>;
// MVCC snapshot reads (mvcc.h): the one family whose read-only transactions
// validate NOTHING — each read is a single traversal of the slot's bounded
// version chain at a stamp pinned at start, so RO work can neither walk nor
// abort however hot concurrent writers run. Writers keep the ValPart-style
// stripe protocol and additionally thread their displaced values onto the
// chains at commit. SnapshotValidation is StripedCounterValidation plus
// the kMvcc marker; the commit counter doubles as the version clock.
using ValSnap = internal::ValFamilyT<SnapshotValidation, ValMode::kSnapshot>;

// Service-facing aliases (src/svc): the three engine configurations the KV
// service scenario instantiates over, named by the role they play there rather
// than by layout internals. SvcOrec is the orec baseline on the GV4 global
// clock: a batch walks its read log only when a read sees an orec newer than
// the attempt's snapshot (timebase extension, §2.1), so validation is linear
// in the batch's reads. OrecL's per-read revalidation costs O(reads²) per
// batch (§4.1); it stays measured on KvStore<OrecL> by the wide-batch SIMD
// probes and in bench/abl_adaptive_val. SvcVal is the partitioned-counter val
// engine where KvStore's stripe-homed shard arenas make region-local batches
// genuinely stripe-resident; and SvcSnapshot routes read-only batches through
// pinned MVCC snapshots (never validates, never aborts).
using SvcOrec = OrecG;
using SvcVal = ValPart;
using SvcSnapshot = ValSnap;

}  // namespace spectm

#endif  // SPECTM_TM_VARIANTS_H_
