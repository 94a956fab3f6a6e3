// Deterministic fail-point fault injection, compiled out of production builds.
//
// The PR-2/PR-4 skip-soundness bugs both lived in windows a few instructions
// wide (the orec sandwich, the counter-bump/release gap). Plain stress
// tests hit such windows by luck; a fail point turns luck into a schedule: at
// each named site an armed build can (a) force the transaction to abort, or
// (b) inject a delay/yield to widen the race window, both driven by a seeded
// per-thread RNG so a failing schedule replays from its seed.
//
// The whole layer is gated on SPECTM_FAILPOINTS (CMake option of the same
// name). When the gate is off the macros fold to compile-time constants — no
// loads, no branches, nothing for the optimizer to even see — which is
// asserted by tests/common/failpoint_test.cc via static_assert.
#ifndef SPECTM_COMMON_FAILPOINT_H_
#define SPECTM_COMMON_FAILPOINT_H_

#include <cstdint>

#if defined(SPECTM_FAILPOINTS)
#include <atomic>
#include <thread>

#include "src/common/cacheline.h"
#include "src/common/rng.h"
#include "src/common/thread_registry.h"
#endif

namespace spectm {

#if defined(SPECTM_SCHED)
namespace sched {
// Bridge into the cooperative scheduler (src/common/sched.h), declared here and
// defined in src/common/sched.cc so this header never includes sched.h (which
// includes it back). Both are no-ops on threads not registered with a run.
void SchedulePointAtSite(int site);  // decision point: the controller picks who runs
void SpinYieldAtSite(int site);      // forced hand-off out of a spin-wait loop
}  // namespace sched
#endif

namespace failpoint {

// Injection sites sit at the protocol's razor edges — the spots where the
// validation soundness argument (docs/VALIDATION.md) depends on ordering.
enum class Site : int {
  kPostReadPreSandwich = 0,  // between the data load and the version re-check
  kPreValidate,              // before a skip check / read-set walk
  kPreBump,                  // before the global commit-counter fetch_add
  kPostBump,                 // counter bumped, locks held: the bump -> release window
  kPreStripeBump,            // before the per-stripe counter bumps
  kLockAcquire,              // before a lock-word CAS
  // Scheduler-era sites (PR 8): planted with SPECTM_SCHED_POINT/_SPIN, so
  // they never inject faults — they only mark reach and (under SPECTM_SCHED)
  // hand the interleaving decision to the cooperative scheduler. Several sit
  // on exception-unwind paths, where an injected throw would std::terminate.
  kSerialGateEnter,    // committer flag raised, owner not yet examined
  kSerialGateExit,     // before the committer flag retract
  kSerialTokenAcquire, // serial CAS/drain loop, and the instant the drain ends
  kSerialTokenRelease, // before the owner-pointer clearing store
  kEpochAdvance,       // epoch advance/reclaim scan entry
  kEpochRetire,        // object pushed into a limbo bag
  kBackoffWait,        // once per contention-abort backoff wait
  // MVCC sites (PR 9): the version-chain publication window and the snapshot
  // reclamation edges. kVersionPublish is a pause site between the displaced
  // value's chain push and the lazy stamp CAS — the window where an unstamped
  // head is visible to snapshot readers; the other two are pure schedule
  // points on the done-stamp scan and the node-reclaim step.
  kVersionPublish,     // chain node pushed, stamp CAS not yet executed
  kDoneStampAdvance,   // done-stamp scan over the pinned-snapshot registry
  kVersionRetire,      // version node unlinked and handed to reclamation
  kCount,
};

inline constexpr int kSiteCount = static_cast<int>(Site::kCount);

inline const char* SiteName(Site s) {
  switch (s) {
    case Site::kPostReadPreSandwich:
      return "post-read-pre-sandwich";
    case Site::kPreValidate:
      return "pre-validate";
    case Site::kPreBump:
      return "pre-bump";
    case Site::kPostBump:
      return "post-bump";
    case Site::kPreStripeBump:
      return "pre-stripe-bump";
    case Site::kLockAcquire:
      return "lock-acquire";
    case Site::kSerialGateEnter:
      return "serial-gate-enter";
    case Site::kSerialGateExit:
      return "serial-gate-exit";
    case Site::kSerialTokenAcquire:
      return "serial-token-acquire";
    case Site::kSerialTokenRelease:
      return "serial-token-release";
    case Site::kEpochAdvance:
      return "epoch-advance";
    case Site::kEpochRetire:
      return "epoch-retire";
    case Site::kBackoffWait:
      return "backoff-wait";
    case Site::kVersionPublish:
      return "version-publish";
    case Site::kDoneStampAdvance:
      return "done-stamp-advance";
    case Site::kVersionRetire:
      return "version-retire";
    default:
      return "?";
  }
}

#if defined(SPECTM_FAILPOINTS)

inline constexpr bool kEnabled = true;

// Per-site arming. All fields are probabilities in percent except
// `delay_spins` (CpuRelax iterations per injected delay) and `yield_instead`
// (os-yield instead of spinning, for single-core hosts where spinning cannot
// widen a window).
struct SiteConfig {
  std::atomic<std::uint32_t> abort_pct{0};
  std::atomic<std::uint32_t> delay_pct{0};
  std::atomic<std::uint32_t> delay_spins{0};
  std::atomic<bool> yield_instead{false};
  std::atomic<std::uint32_t> throw_pct{0};
};

// Exception injection (PR 7): a throw-armed site raises InjectedFault instead
// of returning a forced-abort decision — a foreign exception erupting at the
// protocol's razor edges, exactly where user code can never throw but the
// unwind machinery (src/tm/txguard.h) must still hold. The engines do NOT
// catch this type anywhere; it must unwind through their guards and out of
// the retry loop with every lock restored and the serial token released
// (tests/tm/exception_safety_test.cc asserts that, site by site).
struct InjectedFault {
  Site site;
};

namespace internal {

inline SiteConfig& Config(Site s) {
  static SiteConfig configs[kSiteCount];
  return configs[static_cast<int>(s)];
}

inline std::atomic<std::uint64_t>& HitCounter(Site s) {
  static CacheAligned<std::atomic<std::uint64_t>> hits[kSiteCount];
  return hits[static_cast<int>(s)].value;
}

// Reach counters, distinct from HitCounter: bumped every time control REACHES
// a planted site, armed or not. Hits() counting only fired injections means a
// silently-dead site (planted but never executed) is invisible to the suite;
// SiteHits() below makes "every planted site actually runs" assertable
// (tests/tm/exception_safety_test.cc).
inline std::atomic<std::uint64_t>& ReachCounter(Site s) {
  static CacheAligned<std::atomic<std::uint64_t>> reaches[kSiteCount];
  return reaches[static_cast<int>(s)].value;
}

inline std::atomic<std::uint64_t>& GlobalSeed() {
  static std::atomic<std::uint64_t> seed{0x5eedf417ULL};
  return seed;
}

// Bumped on every SetSeed so live threads discard their cached RNG state and
// re-derive it from the new seed — reruns replay without restarting threads.
inline std::atomic<std::uint64_t>& SeedEpoch() {
  static std::atomic<std::uint64_t> epoch{0};
  return epoch;
}

// Per-thread RNG derived from (global seed, dense thread slot) so a fixed
// seed yields a fixed per-thread decision stream.
inline Xorshift128Plus& ThreadRng() {
  struct TlState {
    Xorshift128Plus rng{0};
    std::uint64_t epoch = ~std::uint64_t{0};
  };
  thread_local TlState tl;
  const std::uint64_t epoch = SeedEpoch().load(std::memory_order_acquire);
  if (tl.epoch != epoch) {
    std::uint64_t mix = GlobalSeed().load(std::memory_order_acquire) +
                        0x9e3779b97f4a7c15ULL *
                            static_cast<std::uint64_t>(ThreadRegistry::CurrentId() + 1);
    tl.rng = Xorshift128Plus(Xorshift128Plus::SplitMix64(&mix));
    tl.epoch = epoch;
  }
  return tl.rng;
}

}  // namespace internal

inline void SetSeed(std::uint64_t seed) {
  internal::GlobalSeed().store(seed, std::memory_order_release);
  internal::SeedEpoch().fetch_add(1, std::memory_order_acq_rel);
}

inline void Arm(Site s, std::uint32_t abort_pct, std::uint32_t delay_pct = 0,
                std::uint32_t delay_spins = 0, bool yield_instead = false) {
  SiteConfig& c = internal::Config(s);
  c.delay_pct.store(delay_pct, std::memory_order_relaxed);
  c.delay_spins.store(delay_spins, std::memory_order_relaxed);
  c.yield_instead.store(yield_instead, std::memory_order_relaxed);
  // abort_pct last (release): a site is "armed" once this is visible.
  c.abort_pct.store(abort_pct, std::memory_order_release);
}

// Arms exception injection at `s`: each fire throws InjectedFault with
// probability throw_pct (drawn from the same per-thread seeded stream as the
// abort/delay decisions, so a schedule mixing all three replays from one
// seed). Orthogonal to Arm(): a site can force aborts AND throw.
inline void ArmThrow(Site s, std::uint32_t throw_pct) {
  internal::Config(s).throw_pct.store(throw_pct, std::memory_order_release);
}

inline void Disarm(Site s) {
  Arm(s, 0, 0, 0, false);
  ArmThrow(s, 0);
}

inline void DisarmAll() {
  for (int i = 0; i < kSiteCount; ++i) {
    Disarm(static_cast<Site>(i));
  }
}

inline std::uint64_t Hits(Site s) {
  return internal::HitCounter(s).load(std::memory_order_relaxed);
}

inline void ResetHits() {
  for (int i = 0; i < kSiteCount; ++i) {
    internal::HitCounter(static_cast<Site>(i)).store(0, std::memory_order_relaxed);
  }
}

// Marks `s` as reached. Called at the top of FireAbort/FirePause and by the
// SPECTM_SCHED_POINT/_SPIN macros; no RNG draw, so arming-era decision
// streams are untouched (same seed => same abort/delay/throw sequence).
inline void MarkReached(Site s) {
  internal::ReachCounter(s).fetch_add(1, std::memory_order_relaxed);
}

// Times control reached `s` since the last ResetSiteHits(), fired or not.
inline std::uint64_t SiteHits(Site s) {
  return internal::ReachCounter(s).load(std::memory_order_relaxed);
}

inline void ResetSiteHits() {
  for (int i = 0; i < kSiteCount; ++i) {
    internal::ReachCounter(static_cast<Site>(i)).store(0, std::memory_order_relaxed);
  }
}

namespace internal {

inline void MaybeDelay(Site s, SiteConfig& c) {
  const std::uint32_t delay_pct = c.delay_pct.load(std::memory_order_relaxed);
  if (delay_pct != 0 && ThreadRng().NextPercent() < delay_pct) {
    HitCounter(s).fetch_add(1, std::memory_order_relaxed);
    if (c.yield_instead.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    } else {
      const std::uint32_t spins = c.delay_spins.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < spins; ++i) {
        CpuRelax();
      }
    }
  }
}

// The RNG is drawn ONLY when throw_pct is armed, so schedules that never arm
// throws keep their exact historical decision streams (same seed => same
// forced-abort/delay sequence as before this mode existed).
inline void MaybeThrow(Site s, SiteConfig& c) {
  const std::uint32_t throw_pct = c.throw_pct.load(std::memory_order_acquire);
  if (throw_pct != 0 && ThreadRng().NextPercent() < throw_pct) {
    HitCounter(s).fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault{s};
  }
}

}  // namespace internal

// Abort-style fire: inject any armed delay, then any armed throw, then decide
// a forced abort. Call sites treat `true` exactly like a real conflict at
// that point.
inline bool FireAbort(Site s) {
  MarkReached(s);
#if defined(SPECTM_SCHED)
  // One integration point for the cooperative scheduler: EVERY planted
  // pause/abort site is a schedule point, so all engines inherit the
  // controller's interleaving control without per-site wiring.
  sched::SchedulePointAtSite(static_cast<int>(s));
#endif
  SiteConfig& c = internal::Config(s);
  const std::uint32_t abort_pct = c.abort_pct.load(std::memory_order_acquire);
  internal::MaybeDelay(s, c);
  internal::MaybeThrow(s, c);
  if (abort_pct != 0 && internal::ThreadRng().NextPercent() < abort_pct) {
    internal::HitCounter(s).fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

// Pause-style fire: delay/yield only — no abort decision, for sites that
// cannot conflict (e.g. the publication sequence after locks are held, where
// a forced abort would have to unwind the bump — widening the window is the
// useful injection there). Throw injection IS honored: pause sites run with
// locks held and gate flags announced, which makes them the harshest unwind
// tests of all, and "every planted site can erupt" is the tentpole's claim.
inline void FirePause(Site s) {
  MarkReached(s);
#if defined(SPECTM_SCHED)
  sched::SchedulePointAtSite(static_cast<int>(s));
#endif
  SiteConfig& c = internal::Config(s);
  internal::MaybeDelay(s, c);
  internal::MaybeThrow(s, c);
}

#else  // !SPECTM_FAILPOINTS

inline constexpr bool kEnabled = false;

#endif  // SPECTM_FAILPOINTS

}  // namespace failpoint
}  // namespace spectm

// The macros reference the site token in both forms so an invalid site fails
// to compile even in production builds, while the disabled form is a pure
// constant expression (see failpoint_test.cc's static_assert).
#if defined(SPECTM_FAILPOINTS)
#define SPECTM_FAILPOINT(site) (::spectm::failpoint::FireAbort(site))
#define SPECTM_FAILPOINT_PAUSE(site) (::spectm::failpoint::FirePause(site))
#else
#define SPECTM_FAILPOINT(site) (static_cast<void>(site), false)
#define SPECTM_FAILPOINT_PAUSE(site) static_cast<void>(site)
#endif

// Pure schedule points (PR 8): mark reach and hand control to the cooperative
// scheduler, but NEVER run the injection machinery — several of these sit on
// exception-unwind paths (gate retract, token release), where a second throw
// would std::terminate. _POINT is a decision point (the controller's policy
// picks who runs next, recorded in the trace); _SPIN is a forced deterministic
// hand-off for unbounded wait loops (gate drain, single-op lock waits,
// backoff), NOT recorded as a decision, so exhaustive exploration stays
// finite while cooperative runs can never livelock on one core.
#if defined(SPECTM_SCHED)
#define SPECTM_SCHED_POINT(site)                 \
  (::spectm::failpoint::MarkReached(site),       \
   ::spectm::sched::SchedulePointAtSite(static_cast<int>(site)))
#define SPECTM_SCHED_SPIN(site)                  \
  (::spectm::failpoint::MarkReached(site),       \
   ::spectm::sched::SpinYieldAtSite(static_cast<int>(site)))
#elif defined(SPECTM_FAILPOINTS)
#define SPECTM_SCHED_POINT(site) (::spectm::failpoint::MarkReached(site))
#define SPECTM_SCHED_SPIN(site) (::spectm::failpoint::MarkReached(site))
#else
#define SPECTM_SCHED_POINT(site) static_cast<void>(site)
#define SPECTM_SCHED_SPIN(site) static_cast<void>(site)
#endif

#endif  // SPECTM_COMMON_FAILPOINT_H_
