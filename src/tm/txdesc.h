// Per-thread transaction descriptor.
//
// §4.1: "all transactions executed by the same thread use the same per-thread
// transaction descriptor that is allocated and initialized at thread start-up".
// The descriptor owns the full-transaction logs (read log, hash write set, commit
// lock log) so they are allocated once and reused; short transactions keep their
// fixed-size location arrays on the stack (§2.2) and use the descriptor only as the
// lock-owner identity and for statistics.
//
// Each TM domain (meta-data layout x clock policy) has its own descriptor per thread,
// obtained via DescOf<DomainTag>(). Descriptors are never nested: SpecTM transactions
// do not compose (§2.2 "Code complexity"), so a thread runs at most one transaction
// per domain at a time.
#ifndef SPECTM_TM_TXDESC_H_
#define SPECTM_TM_TXDESC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/cacheline.h"
#include "src/common/soa_log.h"
#include "src/common/tagged.h"
#include "src/common/thread_registry.h"
#include "src/common/write_set.h"

namespace spectm {

// Aggregate commit/abort counters, readable cross-thread (relaxed; statistics only).
// `abort_ewma_q16` is the per-descriptor abort-rate EWMA in Q16 fixed point
// (0 = never aborts, 65536 = always aborts). Only the owning thread writes it, on
// every commit/abort outcome; it rides on the same padded stats cache line because
// that line is already dirtied by the outcome counters. Atomic relaxed keeps
// cross-thread peeks (benches, the GV6 clock reading another view of the same
// descriptor) race-free without fencing the hot path.
struct TxStats {
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint32_t> abort_ewma_q16{0};
  // High-water mark of the consecutive-abort streak (Backoff::attempts()).
  // Written by the owner via SerialCm::NoteAbortBackoff; rolled up by
  // TxStatsRegistry so benches can report the worst streak a cell produced
  // (bounded by kSerialEscalationStreak + hysteresis when escalation is on).
  std::atomic<std::uint64_t> max_abort_streak{0};
};

// EWMA smoothing: alpha = 1/16 per transaction outcome. ~16 outcomes to move
// half-way toward a new steady state — fast enough to track workload phase shifts
// (the GV6 clock re-reads it at every draw), slow enough not to flap on a single
// unlucky abort.
inline constexpr int kAbortEwmaShift = 4;

inline void UpdateAbortEwma(TxStats& stats, bool aborted) {
  const std::uint32_t ewma = stats.abort_ewma_q16.load(std::memory_order_relaxed);
  std::uint32_t next;
  if (aborted) {
    next = ewma + ((65536u - ewma) >> kAbortEwmaShift);
  } else {
    // Round the decay up so the EWMA actually reaches 0 under an abort-free run
    // instead of stalling at a small residue.
    next = ewma - ((ewma + (1u << kAbortEwmaShift) - 1) >> kAbortEwmaShift);
  }
  stats.abort_ewma_q16.store(next, std::memory_order_relaxed);
}

inline std::uint32_t AbortEwmaQ16(const TxStats& stats) {
  return stats.abort_ewma_q16.load(std::memory_order_relaxed);
}

// Process-wide roll-up of every live descriptor's statistics, for tests and the
// benchmark harness (abort-rate reporting). Registration is cold-path only.
class TxStatsRegistry {
 public:
  static void Register(TxStats* stats);
  static void Unregister(TxStats* stats);

  struct Totals {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    // Max (not sum) over live + retained descriptors' streak high-water marks.
    std::uint64_t max_abort_streak = 0;
  };
  // Sum over live descriptors plus the retained counts of exited threads.
  static Totals Snapshot();
  // Zeroes every live descriptor's streak high-water mark and the retained
  // max, so benches can measure the worst streak of one timed window via
  // ResetMaxStreak() ... Snapshot().max_abort_streak.
  static void ResetMaxStreak();
};

// Read logs are SoA lanes (src/common/soa_log.h): `read_log` records
// (orec, expected unlocked orec body) pairs for the orec/tvar layouts,
// `val_read_log` records (data word, expected value) pairs for the val layout.
// Both store the EXPECTED WORD directly (an unlocked orec body IS the encoded
// version), so every validation is a raw 64-bit equality the batch kernel
// (validate_batch.h) can gather-compare without re-encoding.

struct LockLogEntry {
  std::atomic<Word>* orec;
  Word old_word;  // pre-lock orec body, restored on abort
};

struct ValLockLogEntry {
  std::atomic<Word>* word;
  Word old_value;  // displaced application value, restored on abort
};

// Field layout is deliberate (hot-path false-sharing audit):
//   * The descriptor address doubles as the lock-owner identity in orecs, and the
//     whole struct is cache-line aligned so two threads' descriptors never share a
//     line.
//   * `stats` lives on its own cache line: it is the only cross-thread-readable
//     state (TxStatsRegistry::Snapshot polls it from the harness thread), and every
//     commit/abort writes it — keeping it apart stops Snapshot polls from stealing
//     the line that holds the owner's log headers mid-transaction.
//   * Everything else is owner-private: thread_slot/backoff and the log headers sit
//     together on the leading lines, touched on every transaction.
struct alignas(kCacheLineSize) TxDesc {
  TxDesc()
      : thread_slot(ThreadRegistry::CurrentId()),
        backoff_serial(NextBackoffSerial()),
        backoff_seed(MixBackoffSeed(thread_slot, backoff_serial)),
        backoff(backoff_seed) {
    lock_log.reserve(64);
    val_lock_log.reserve(64);
    TxStatsRegistry::Register(&stats);
  }

  ~TxDesc() { TxStatsRegistry::Unregister(&stats); }

  // Backoff seed: thread slot alone is not enough — one thread owns one
  // descriptor PER DOMAIN, and two domains' descriptors on the same slot would
  // replay identical delay sequences. A process-wide construction serial
  // (unique per descriptor by definition) mixed with the slot through
  // splitmix64 de-synchronizes them; regression-tested in
  // tests/common/backoff_test.cc. (Deliberately NOT the descriptor address:
  // descriptors are thread_local, and folding a TLS address into seed
  // arithmetic makes the compiler emit the whole mixed constant as one
  // 32-bit TPOFF relocation addend, which overflows at link time.)
  //
  // Both the serial and the resulting seed are RETAINED on the descriptor
  // (and surfaced through CmProbe and the health watchdog's diagnostics
  // snapshot): an injected-schedule failure replays from the fail-point seed
  // plus THESE two values — without them the phase-1 backoff delays of the
  // failing run are unreproducible from the dump alone.
  static std::uint64_t NextBackoffSerial() {
    static std::atomic<std::uint64_t> serial{0};
    return serial.fetch_add(1, std::memory_order_relaxed);
  }
  static std::uint64_t MixBackoffSeed(int slot, std::uint64_t serial) {
    std::uint64_t mix = 0xb0ffULL +
                        static_cast<std::uint64_t>(slot) * 0x9e3779b9ULL +
                        (serial << 32);
    return Xorshift128Plus::SplitMix64(&mix);
  }

  // Owner-private hot fields.
  int thread_slot;
  std::uint64_t backoff_serial;  // process-wide descriptor construction serial
  std::uint64_t backoff_seed;    // the seed backoff's RNG was constructed with
  Backoff backoff;
  // Serial-escalation hysteresis: optimistic commits remaining before the
  // escalation threshold drops back from 2x to 1x after a serial commit
  // (src/tm/serial.h). Owner-private; rides the hot leading line because every
  // commit already touches `backoff` next to it.
  std::uint32_t cm_cooldown = 0;

  // Full-transaction logs (orec/tvar layouts); owner-private. The read log is
  // SoA (one chunk pre-sized, capacity persisted across attempts); the write
  // set carries its own cache-line alignment so its read-path header never
  // shares a line with the log headers around it.
  SoaReadLog read_log;
  WriteSet wset;
  std::vector<LockLogEntry> lock_log;

  // Full-transaction logs (val layout); owner-private.
  SoaReadLog val_read_log;
  std::vector<ValLockLogEntry> val_lock_log;

  // Cross-thread-readable counters, isolated on their own cache line.
  alignas(kCacheLineSize) TxStats stats;
};

// One descriptor per (thread, TM domain). The descriptor address doubles as the lock
// owner identity stored in locked orecs, so it must remain stable for the thread's
// lifetime — guaranteed by thread_local storage duration.
template <typename DomainTag>
TxDesc& DescOf() {
  thread_local TxDesc desc;
  return desc;
}

}  // namespace spectm

#endif  // SPECTM_TM_TXDESC_H_
