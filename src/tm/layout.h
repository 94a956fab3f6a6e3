// Meta-data placement layouts for orec-based engines (Figure 3(a) and 3(b)).
//
// A Layout maps a transactional Slot (the thing data structures embed) to its data
// word and its ownership record:
//
//   OrecLayout — Slot is a bare word; the orec lives in a shared global table reached
//   through a hash of the slot address. Each transactional access touches two cache
//   lines and distinct slots can collide on one orec (§2.3).
//
//   TvarLayout — Slot is a TVar: the orec is co-located with the data word on the
//   same (16-byte-aligned) line, following STM-Haskell's TVar design (§2.3). One
//   cache line per access, one orec per location, no false conflicts.
//
// The `val` layout of Figure 3(c) has no separate orec at all and is implemented by
// dedicated engines (val_short.h / val_full.h).
//
// Layouts are additionally tagged by the clock policy's domain so that, e.g., the
// orec table used by global-clock structures is distinct from the one used by
// local-clock structures (their version-number disciplines are incompatible).
#ifndef SPECTM_TM_LAYOUT_H_
#define SPECTM_TM_LAYOUT_H_

#include <atomic>

#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/orec.h"

namespace spectm {

// Packing audit: the table packs eight 8-byte orecs per cache line, so two
// *adjacent table indices* share a line. That is deliberate — padding 2^20 orecs
// to a line each would inflate the table from 8 MB to 64 MB and evict the data it
// protects. What keeps dense packing from becoming systematic false sharing is the
// Fibonacci hash (orec.h), which scatters memory-adjacent slots to table indices
// ~2^61 apart (collision only at the 8/2^20 base probability). The global clock
// and per-thread descriptors are padded instead (clock.h, txdesc.h) because they
// are single hot words, not a footprint trade.
template <typename DomainTag>
struct OrecLayout {
  struct Slot {
    std::atomic<Word> value{0};
  };

  static std::atomic<Word>& Data(Slot& s) { return s.value; }

  static std::atomic<Word>& OrecOf(Slot& s) { return Table().ForAddr(&s); }

  static OrecTable& Table() {
    // leaked: program-lifetime
    static OrecTable* table = new OrecTable(kOrecTableLog2);
    return *table;
  }
};

template <typename DomainTag>
struct TvarLayout {
  // 2-word-aligned so the whole TVar sits on one cache line (§2.3).
  struct alignas(16) Slot {
    std::atomic<Word> orec{0};
    std::atomic<Word> value{0};
  };

  static std::atomic<Word>& Data(Slot& s) { return s.value; }
  static std::atomic<Word>& OrecOf(Slot& s) { return s.orec; }
};

}  // namespace spectm

#endif  // SPECTM_TM_LAYOUT_H_
