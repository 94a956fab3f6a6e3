// Systematic interleaving exploration of the commit protocols
// (src/common/sched.h over the PR 6/7 fail-point plants): bounded exhaustive
// enumeration of the two-thread crossing-committers commit window for all
// four engines (OrecL/Val x full/short, plus the summary-running ValPart and
// ValCounterSkip families) asserting the balance invariant on
// EVERY explored schedule, exhaustive exploration of the serial-gate drain,
// byte-identical replay with identical probe counters, and a planted-bug
// canary — a validate-before-bump mini-TM (the PR-2 skew, resurrected in
// miniature) that the explorer MUST find within the preemption bound and the
// shrinker must cut to a handful of decisions.
#include "src/common/sched.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/epoch/epoch.h"
#include "src/svc/kv_store.h"
#include "src/tm/config.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

#if !defined(SPECTM_SCHED)

static_assert(!sched::kEnabled,
              "sched_explore_test only runs under SPECTM_SCHED; the OFF build "
              "must see the disabled constexpr surface");

#else  // SPECTM_SCHED

using sched::Controller;
using sched::Explorer;
using sched::Trace;

// ---- The crossing-committers window, on the real engines ---------------------------
//
// Two transactions read BOTH slots and each writes a different one:
//   T0: a = a + b + 1        T1: b = a + b + 1
// from (0, 0). The serializable outcomes are exactly (1,2) and (2,1); the
// write-skew outcome (1,1) — both commit against the initial snapshot — is
// what the bump-before-validate discipline forbids. Every explored schedule
// must land in the serializable set.

template <typename Family>
std::function<void()> FullCrossingBody(typename Family::Slot* a,
                                       typename Family::Slot* b, bool write_a) {
  return [a, b, write_a] {
    Family::Full::Atomically([a, b, write_a](typename Family::FullTx& tx) {
      const Word va = tx.Read(a);
      if (!tx.ok()) {
        return;
      }
      const Word vb = tx.Read(b);
      if (!tx.ok()) {
        return;
      }
      tx.Write(write_a ? a : b, EncodeInt(DecodeInt(va) + DecodeInt(vb) + 1));
    });
  };
}

template <typename Family>
std::function<void()> ShortCrossingBody(typename Family::Slot* a,
                                        typename Family::Slot* b, bool write_a) {
  return [a, b, write_a] {
    typename Family::Slot* own = write_a ? a : b;
    typename Family::Slot* other = write_a ? b : a;
    while (true) {
      typename Family::ShortTx tx;
      const Word vr = tx.ReadRw(own);
      if (!tx.Valid()) {
        sched::Yield();
        continue;
      }
      const Word vo = tx.ReadRo(other);
      if (!tx.Valid()) {
        sched::Yield();
        continue;
      }
      if (tx.CommitMixed({EncodeInt(DecodeInt(vr) + DecodeInt(vo) + 1)})) {
        return;
      }
      sched::Yield();  // conflicted: hand the window to the peer before retrying
    }
  };
}

// Runs the bounded exhaustive exploration for one engine/shape over the slot
// pair (a, b) and asserts the balance invariant held on every schedule. The
// slots must live across all schedules; values reset per run.
template <typename Family>
void ExploreCrossingWindow(bool short_shape, typename Family::Slot* a,
                           typename Family::Slot* b) {
  auto make_bodies = [&]() {
    Family::SingleWrite(a, EncodeInt(0));
    Family::SingleWrite(b, EncodeInt(0));
    std::vector<std::function<void()>> bodies;
    if (short_shape) {
      bodies.push_back(ShortCrossingBody<Family>(a, b, /*write_a=*/true));
      bodies.push_back(ShortCrossingBody<Family>(a, b, /*write_a=*/false));
    } else {
      bodies.push_back(FullCrossingBody<Family>(a, b, /*write_a=*/true));
      bodies.push_back(FullCrossingBody<Family>(a, b, /*write_a=*/false));
    }
    return bodies;
  };
  std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes;
  auto check = [&] {
    const std::uint64_t ra = DecodeInt(Family::SingleRead(a));
    const std::uint64_t rb = DecodeInt(Family::SingleRead(b));
    outcomes.insert({ra, rb});
    return (ra == 1 && rb == 2) || (ra == 2 && rb == 1);
  };
  Explorer::Options opt;
  opt.preemption_bound = 2;
  opt.stop_on_violation = true;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "write-skew (or torn state) reached on schedule: "
      << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.truncated, 0u) << "a schedule hit the point cap (runaway spin?)";
  EXPECT_EQ(res.divergences, 0u) << "a prefix failed to reproduce: nondeterminism";
  EXPECT_GT(res.schedules, 20u) << "the window produced almost no schedules";
  // Both serializable orders must actually be reachable within the bound —
  // otherwise the exploration never drove the commit window both ways.
  EXPECT_EQ(outcomes.size(), 2u);
}

template <typename Family>
void ExploreCrossingWindow(bool short_shape) {
  static typename Family::Slot a, b;
  ExploreCrossingWindow<Family>(short_shape, &a, &b);
}

// A pair of val slots whose words share one counter stripe (`same_stripe`), or
// sit exactly one stripe region apart and so on two neighbouring stripes. The
// pool is static: it must outlive every explored schedule.
std::pair<ValSlot*, ValSlot*> ValSlotPair(bool same_stripe) {
  constexpr std::size_t kRegion = std::size_t{1} << kCounterStripeShift;
  static_assert(kRegion % sizeof(ValSlot) == 0, "slots must tile a region");
  constexpr std::size_t kStride = kRegion / sizeof(ValSlot);
  static ValSlot pool[kStride + 2];
  if (!same_stripe) {
    return {&pool[0], &pool[kStride]};
  }
  std::size_t i = 0;
  while (CounterStripeOf(&pool[i].word) != CounterStripeOf(&pool[i + 1].word)) {
    ++i;
  }
  return {&pool[i], &pool[i + 1]};
}

// The partitioned family runs both skip arms of the commit (counter, then
// per-stripe): with both slots on one stripe a crossing committer moves the
// stripe the reader occupies; with them on two stripes each committer's own
// write stripe is one the other reads.
void ExplorePartitionedCrossingWindow(bool short_shape, bool same_stripe) {
  const auto [a, b] = ValSlotPair(same_stripe);
  ASSERT_EQ(CounterStripeOf(&a->word) == CounterStripeOf(&b->word), same_stripe);
  ExploreCrossingWindow<ValPart>(short_shape, a, b);
}

TEST(SchedExploreEngines, OrecFullCrossingCommitWindow) {
  ExploreCrossingWindow<OrecL>(/*short_shape=*/false);
}

TEST(SchedExploreEngines, ValFullCrossingCommitWindow) {
  ExploreCrossingWindow<Val>(/*short_shape=*/false);
}

TEST(SchedExploreEngines, OrecShortCrossingCommitWindow) {
  ExploreCrossingWindow<OrecL>(/*short_shape=*/true);
}

TEST(SchedExploreEngines, ValShortCrossingCommitWindow) {
  ExploreCrossingWindow<Val>(/*short_shape=*/true);
}

TEST(SchedExploreEngines, PartFullCrossingCommitWindowOneStripe) {
  ExplorePartitionedCrossingWindow(/*short_shape=*/false, /*same_stripe=*/true);
}

TEST(SchedExploreEngines, PartFullCrossingCommitWindowTwoStripes) {
  ExplorePartitionedCrossingWindow(/*short_shape=*/false, /*same_stripe=*/false);
}

TEST(SchedExploreEngines, PartShortCrossingCommitWindowOneStripe) {
  ExplorePartitionedCrossingWindow(/*short_shape=*/true, /*same_stripe=*/true);
}

TEST(SchedExploreEngines, PartShortCrossingCommitWindowTwoStripes) {
  ExplorePartitionedCrossingWindow(/*short_shape=*/true, /*same_stripe=*/false);
}

TEST(SchedExploreEngines, CounterSkipFullCrossingCommitWindow) {
  ExploreCrossingWindow<ValCounterSkip>(/*short_shape=*/false);
}

// ---- The serial-gate drain ---------------------------------------------------------
//
// One thread takes the serialization token and drains the gate; the other
// announces itself as a committer (retreating and retrying while the token is
// held). Exhaustively explored mutual exclusion: no schedule may ever see a
// committer inside the gate while the serial section runs. The plants inside
// SerialGate itself (kSerialGateEnter in the Dekker window, the drain spin,
// token release) are the decision points.

struct SchedGateExploreTag {};

TEST(SchedExploreGate, SerialDrainExcludesCommittersOnEverySchedule) {
  using Gate = SerialGate<SchedGateExploreTag>;
  std::atomic<int> in_serial{0};
  std::atomic<int> committers_inside{0};
  std::atomic<bool> violation{false};
  std::vector<int> event_log;
  auto make_bodies = [&]() {
    in_serial.store(0);
    committers_inside.store(0);
    violation.store(false);
    event_log.clear();
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {  // the serial side
      TxDesc* self = &DescOf<SchedGateExploreTag>();
      Gate::AcquireSerial(self);
      if (committers_inside.load() != 0) {
        violation.store(true);  // drain returned with a committer still inside
      }
      in_serial.store(1);
      event_log.push_back(1);
      sched::TestPoint(sched::kTestPointBase + 1);  // solo window: widest temptation
      if (committers_inside.load() != 0) {
        violation.store(true);
      }
      in_serial.store(0);
      Gate::ReleaseSerial(self);
    });
    bodies.push_back([&] {  // the committer side, two gate round-trips
      TxDesc* self = &DescOf<SchedGateExploreTag>();
      for (int round = 0; round < 2; ++round) {
        while (true) {
          if (Gate::TryEnterCommitter(self)) {
            committers_inside.fetch_add(1);
            if (in_serial.load() != 0) {
              violation.store(true);  // passed the gate during the serial section
            }
            event_log.push_back(2);
            sched::TestPoint(sched::kTestPointBase + 2);
            if (in_serial.load() != 0) {
              violation.store(true);
            }
            committers_inside.fetch_sub(1);
            Gate::ExitCommitter(self);
            break;
          }
          sched::Yield();  // token held: fail fast, let the serial side finish
        }
      }
    });
    return bodies;
  };
  std::set<std::vector<int>> orders;
  auto check = [&] {
    orders.insert(event_log);
    return !violation.load();
  };
  Explorer::Options opt;
  opt.preemption_bound = 3;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "gate exclusion broke on: " << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.truncated, 0u);
  // The exploration must have driven the committer through BOTH sides of the
  // serial section (before it and after it), or the drain was never raced.
  EXPECT_GE(orders.size(), 2u);
}

// Three threads at the gate: one serial side against TWO independent
// committers (PR 9 satellite — the two-thread drain above can never exercise
// a committer arriving while another committer is already inside during the
// drain scan). Same invariant, every schedule, bound 3 (the ROADMAP
// carry-over: bound 2 cannot preempt the drain scan once per committer AND
// split the two committers' windows in one schedule).
TEST(SchedExploreGate, ThreeThreadDrainExcludesBothCommitters) {
  using Gate = SerialGate<SchedGateExploreTag>;
  std::atomic<int> in_serial{0};
  std::atomic<int> committers_inside{0};
  std::atomic<bool> violation{false};
  auto committer_body = [&](int tag) {
    return [&, tag] {
      TxDesc* self = &DescOf<SchedGateExploreTag>();
      while (true) {
        if (Gate::TryEnterCommitter(self)) {
          committers_inside.fetch_add(1);
          if (in_serial.load() != 0) {
            violation.store(true);
          }
          sched::TestPoint(sched::kTestPointBase + tag);
          if (in_serial.load() != 0) {
            violation.store(true);
          }
          committers_inside.fetch_sub(1);
          Gate::ExitCommitter(self);
          return;
        }
        sched::Yield();
      }
    };
  };
  auto make_bodies = [&]() {
    in_serial.store(0);
    committers_inside.store(0);
    violation.store(false);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {
      TxDesc* self = &DescOf<SchedGateExploreTag>();
      Gate::AcquireSerial(self);
      if (committers_inside.load() != 0) {
        violation.store(true);
      }
      in_serial.store(1);
      sched::TestPoint(sched::kTestPointBase + 1);
      if (committers_inside.load() != 0) {
        violation.store(true);
      }
      in_serial.store(0);
      Gate::ReleaseSerial(self);
    });
    bodies.push_back(committer_body(2));
    bodies.push_back(committer_body(3));
    return bodies;
  };
  auto check = [&] { return !violation.load(); };
  Explorer::Options opt;
  opt.preemption_bound = 3;
  opt.stop_on_violation = true;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "three-thread gate exclusion broke on: "
      << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.truncated, 0u);
  EXPECT_GT(res.schedules, 20u);
}

// ---- Batch-granularity retry through the service store (PR 10) ---------------------
//
// Two threads run whole-batch read-modify-writes over the SAME two keys of a
// KvStore: T0 adds (+1, +2), T1 adds (+10, +20), both from (0, 0). A batch is
// ONE transaction, so retry-at-batch-granularity must make each batch atomic
// as a unit on every schedule: the only reachable final state is (11, 22).
// A torn batch (one key's delta applied without the other) or a lost update
// (a batch re-applying against a stale read) surfaces as any other pair.
TEST(SchedExploreSvc, BatchRetryNeverCommitsATornBatch) {
  using F = Val;
  constexpr std::uint64_t kA = 3, kB = 11;
  std::unique_ptr<svc::KvStore<F>> store;
  auto transfer_body = [&store](std::uint64_t da, std::uint64_t db) {
    return [&store, da, db] {
      const std::uint64_t keys[2] = {kA, kB};
      store->BatchTransact(
          keys, 2,
          [da, db](std::uint64_t* vals, const std::vector<bool>& found,
                   std::size_t) {
            if (found[0]) {
              vals[0] += da;
            }
            if (found[1]) {
              vals[1] += db;
            }
          });
    };
  };
  auto make_bodies = [&] {
    svc::KvStore<F>::Config cfg;
    cfg.shards = 2;  // tiny store: the exploration rebuilds it per schedule
    cfg.buckets_per_shard = 4;
    store = std::make_unique<svc::KvStore<F>>(cfg);
    store->Put(kA, 0);
    store->Put(kB, 0);
    std::vector<std::function<void()>> bodies;
    bodies.push_back(transfer_body(1, 2));
    bodies.push_back(transfer_body(10, 20));
    return bodies;
  };
  std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes;
  auto check = [&] {
    F::Slot* a = store->DebugValueSlotOf(kA);
    F::Slot* b = store->DebugValueSlotOf(kB);
    if (a == nullptr || b == nullptr) {
      return false;  // a torn insert lost a key entirely
    }
    const std::uint64_t ra = DecodeInt(F::RawRead(a));
    const std::uint64_t rb = DecodeInt(F::RawRead(b));
    outcomes.insert({ra, rb});
    return ra == 11 && rb == 22;
  };
  Explorer::Options opt;
  opt.preemption_bound = 2;
  opt.stop_on_violation = true;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "a torn or lost batch committed on: "
      << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.truncated, 0u) << "a schedule hit the point cap (runaway retry?)";
  EXPECT_GT(res.schedules, 20u);
  // Every explored schedule converged to the single serializable total.
  EXPECT_EQ(outcomes.size(), 1u);
}

// ---- Epoch advance/retire and the MVCC done-stamp race (PR 9) ----------------------
//
// (1) A guarded reader against a retire-then-advance writer: no schedule may
// free the object while the reader's guard is active — the kEpochRetire /
// kEpochAdvance plants (PR 8) plus Enter's publish-then-recheck handshake are
// the decision points, explored exhaustively at bound 2.
TEST(SchedExploreEpoch, AdvanceNeverFreesUnderAForeignGuard) {
  struct Shared {
    EpochManager* mgr = nullptr;
    std::atomic<bool> linked{true};  // cleared by the writer just before Retire
    std::atomic<bool> freed{false};
    std::atomic<bool> violation{false};
  };
  auto* sh = new Shared;
  auto make_bodies = [sh]() {
    delete sh->mgr;  // previous schedule's manager; its threads have exited
    sh->mgr = new EpochManager;
    sh->linked.store(true);
    sh->freed.store(false);
    sh->violation.store(false);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([sh] {  // the guarded reader
      EpochManager::Guard g(*sh->mgr);
      sched::TestPoint(sched::kTestPointBase + 11);
      // Only a guard that demonstrably predates the retire makes a claim: if
      // the object is still linked here, the retire (which follows the unlink
      // in the writer's program order) lands in a bag stamped no older than
      // this guard's entry epoch, so no advance may free it until we exit.
      // A guard entered after the unlink may legitimately see freed==true.
      if (sh->linked.load()) {
        if (sh->freed.load()) {
          sh->violation.store(true);
        }
        sched::TestPoint(sched::kTestPointBase + 12);
        if (sh->freed.load()) {
          sh->violation.store(true);
        }
      }
    });
    bodies.push_back([sh] {  // unlink, retire, then force advances
      {
        EpochManager::Guard g(*sh->mgr);
        sh->linked.store(false);
        sh->mgr->Retire(static_cast<void*>(&sh->freed), [](void* p) {
          static_cast<std::atomic<bool>*>(p)->store(true);
        });
      }
      sh->mgr->ReclaimAllForTesting();
    });
    return bodies;
  };
  auto check = [sh] { return !sh->violation.load(); };
  Explorer::Options opt;
  opt.preemption_bound = 2;
  opt.stop_on_violation = true;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "an epoch advance freed under a live guard on: "
      << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.truncated, 0u);
}

// (2) The MVCC snapshot against single-op writer churn: a pinned reader must
// see ONE stable value across repeated reads of a slot the writer overwrites
// between them, on every schedule. Decision points: the writer's publish
// window (kVersionRetire on trims, kDoneStampAdvance on every done-stamp
// scan) and the reader's chain walk — the races the two-step pin and the
// lazy-stamp protocol exist for.
TEST(SchedExploreMvcc, PinnedSnapshotIsStableAcrossWriterChurn) {
  static ValSnap::Slot slot;  // static: its chain nodes must stay reachable
  ValSnap::Slot* s = &slot;
  std::atomic<bool> violation{false};
  auto make_bodies = [&]() {
    ValSnap::SingleWrite(s, EncodeInt(1));
    violation.store(false);
    std::vector<std::function<void()>> bodies;
    bodies.push_back([&] {  // snapshot reader: two reads, one cut
      ValSnap::Full::Atomically([&](ValSnap::FullTx& tx) {
        const Word v1 = tx.Read(s);
        if (!tx.ok()) {
          return;
        }
        sched::TestPoint(sched::kTestPointBase + 21);
        const Word v2 = tx.Read(s);
        if (!tx.ok()) {
          return;
        }
        if (v1 != v2) {
          violation.store(true);  // the snapshot moved mid-transaction
        }
      });
    });
    bodies.push_back([&] {  // single-op writer churn across the reader
      ValSnap::SingleWrite(s, EncodeInt(2));
      ValSnap::SingleWrite(s, EncodeInt(3));
    });
    return bodies;
  };
  auto check = [&] {
    return !violation.load() && DecodeInt(ValSnap::SingleRead(s)) == 3u;
  };
  Explorer::Options opt;
  opt.preemption_bound = 2;
  opt.stop_on_violation = true;
  const Explorer::Result res = Explorer::Explore(make_bodies, check, opt);
  EXPECT_FALSE(res.violation_found)
      << "snapshot instability (or lost write) on: "
      << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_EQ(res.truncated, 0u);
  EXPECT_GT(res.schedules, 10u);
}

// ---- Replay determinism on a real engine schedule ----------------------------------
//
// Same seed => identical decision trace, identical body-retry counters,
// identical final slot values, across two full executions (satellite: replay
// determinism with probe counters).

TEST(SchedExploreReplay, EngineScheduleReplaysByteIdentically) {
  static OrecL::Slot slot_a, slot_b;  // static, like the MVCC case's slot
  OrecL::Slot* a = &slot_a;
  OrecL::Slot* b = &slot_b;
  struct Observed {
    Trace trace;
    std::array<std::uint64_t, 2> body_runs{};
    std::uint64_t final_a = 0, final_b = 0;
  };
  auto run_once = [&](std::uint64_t seed) {
    Observed obs;
    OrecL::SingleWrite(a, EncodeInt(0));
    OrecL::SingleWrite(b, EncodeInt(0));
    std::array<std::uint64_t, 2> runs{};
    std::vector<std::function<void()>> bodies;
    for (int tid = 0; tid < 2; ++tid) {
      const bool write_a = tid == 0;
      bodies.push_back([a, b, write_a, tid, &runs] {
        OrecL::Full::Atomically([&](OrecL::FullTx& tx) {
          ++runs[static_cast<std::size_t>(tid)];  // attempts = 1 + aborts
          const Word va = tx.Read(a);
          if (!tx.ok()) {
            return;
          }
          const Word vb = tx.Read(b);
          if (!tx.ok()) {
            return;
          }
          tx.Write(write_a ? a : b, EncodeInt(DecodeInt(va) + DecodeInt(vb) + 1));
        });
      });
    }
    sched::RandomWalkPolicy policy(seed);
    const sched::RunRecord rec = Controller::Instance().Run(std::move(bodies), policy);
    obs.trace = sched::TraceOf(rec);
    obs.body_runs = runs;
    obs.final_a = DecodeInt(OrecL::SingleRead(a));
    obs.final_b = DecodeInt(OrecL::SingleRead(b));
    return obs;
  };
  const Observed first = run_once(0xdec1de);
  const Observed second = run_once(0xdec1de);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (std::size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace[i].site, second.trace[i].site) << "decision " << i;
    EXPECT_EQ(first.trace[i].thread, second.trace[i].thread) << "decision " << i;
  }
  EXPECT_EQ(first.body_runs, second.body_runs);
  EXPECT_EQ(first.final_a, second.final_a);
  EXPECT_EQ(first.final_b, second.final_b);
  EXPECT_FALSE(first.trace.empty());
}

// ---- The planted-bug canary --------------------------------------------------------
//
// A miniature NOrec-with-skip model: two locations, a commit counter, and a
// counter-stability skip check. The CORRECT variant bumps before the skip
// check (own_idx == sample + 1 => only our own bump happened — the repo's
// own-index rule); the BUGGY variant checks counter == sample BEFORE bumping,
// which lets two crossing committers both skip validation against each
// other's un-stored writes: write-skew (1,1). The explorer must find the skew
// in the buggy variant within preemption bound 2 and prove its absence in the
// correct one; the shrinker must reduce the failing trace to <= 8 decisions;
// the trace must replay byte-identically.

struct MiniLoc {
  std::atomic<int> val{0};
  std::atomic<int> lock{0};  // holds owner id (1 or 2); 0 = free
};

struct MiniTm {
  std::atomic<int> counter{0};
  MiniLoc a, b;
  bool buggy = false;

  void Reset() {
    counter.store(0);
    a.val.store(0);
    a.lock.store(0);
    b.val.store(0);
    b.lock.store(0);
  }
};

std::function<void()> MiniTxBody(MiniTm* tm, bool write_a) {
  return [tm, write_a] {
    MiniLoc* own = write_a ? &tm->a : &tm->b;
    MiniLoc* other = write_a ? &tm->b : &tm->a;
    const int id = write_a ? 1 : 2;
    const int base = sched::kTestPointBase + id * 100;
    while (true) {
      sched::TestPoint(base + 0);
      const int sample = tm->counter.load();
      if (own->lock.load() != 0 || other->lock.load() != 0) {
        sched::Yield();
        continue;  // read phase fails fast past a committing peer
      }
      const int v_own = own->val.load();
      const int v_other = other->val.load();
      sched::TestPoint(base + 1);
      int expected = 0;
      if (!own->lock.compare_exchange_strong(expected, id)) {
        sched::Yield();
        continue;
      }
      // Value-based validation walk; a foreign lock is a conflict.
      auto walk = [&] {
        return other->lock.load() == 0 && other->val.load() == v_other &&
               own->val.load() == v_own;
      };
      bool ok;
      if (tm->buggy) {
        // WRONG ORDER: skip check first, bump after. Two committers can both
        // observe "counter unchanged" before either bump lands.
        sched::TestPoint(base + 2);
        ok = tm->counter.load() == sample || walk();
        sched::TestPoint(base + 3);
        tm->counter.fetch_add(1);
      } else {
        tm->counter.fetch_add(1);  // own bump FIRST (bump-before-validate)
        sched::TestPoint(base + 2);
        ok = tm->counter.load() == sample + 1 || walk();
        sched::TestPoint(base + 3);
      }
      if (ok) {
        own->val.store(v_own + v_other + 1);
        sched::TestPoint(base + 4);
        own->lock.store(0);
        return;
      }
      own->lock.store(0);
      sched::Yield();  // aborted: let the conflicting peer finish
    }
  };
}

class SchedCanaryTest : public ::testing::Test {
 protected:
  MiniTm tm_;

  std::vector<std::function<void()>> MakeBodies() {
    tm_.Reset();
    return {MiniTxBody(&tm_, true), MiniTxBody(&tm_, false)};
  }

  bool Serializable() const {
    const int ra = tm_.a.val.load();
    const int rb = tm_.b.val.load();
    return (ra == 1 && rb == 2) || (ra == 2 && rb == 1);
  }

  Explorer::Result Explore(bool buggy, int bound) {
    tm_.buggy = buggy;
    Explorer::Options opt;
    opt.preemption_bound = bound;
    return Explorer::Explore([&] { return MakeBodies(); },
                             [&] { return Serializable(); }, opt);
  }
};

TEST_F(SchedCanaryTest, CorrectOrderHasNoSkewAcrossTheWholeBoundedTree) {
  // One bound DEEPER than what suffices to break the buggy variant: the
  // correct order must survive strictly more schedules than the bug needs.
  const Explorer::Result res = Explore(/*buggy=*/false, /*bound=*/3);
  EXPECT_FALSE(res.violation_found)
      << "the CORRECT model skewed on: " << sched::FormatTrace(res.violation_trace);
  EXPECT_TRUE(res.frontier_exhausted);
  EXPECT_EQ(res.divergences, 0u);
  EXPECT_GT(res.schedules, 50u);
}

TEST_F(SchedCanaryTest, ExplorerFindsThePlantedSkewAndShrinksIt) {
  const Explorer::Result res = Explore(/*buggy=*/true, /*bound=*/2);
  ASSERT_TRUE(res.violation_found)
      << "the canary survived " << res.schedules
      << " schedules — the explorer is blind to the planted bug";
  EXPECT_EQ(tm_.a.val.load(), 1);
  EXPECT_EQ(tm_.b.val.load(), 1);

  // Byte-identical replay of the failing schedule from its trace alone.
  {
    sched::ReplayPolicy replay(res.violation_trace);
    const sched::RunRecord rec =
        Controller::Instance().Run(MakeBodies(), replay, 1u << 20);
    EXPECT_EQ(replay.divergence, 0u) << "the failing trace did not reproduce";
    EXPECT_FALSE(Serializable()) << "replay lost the violation";
    const Trace again = sched::TraceOf(rec);
    ASSERT_EQ(again.size(), res.violation_trace.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].site, res.violation_trace[i].site);
      EXPECT_EQ(again[i].thread, res.violation_trace[i].thread);
    }
  }

  // Greedy minimization: the skew needs only the start choice plus two
  // preemptions; everything else is default-reconstructible.
  auto verify = [&](const Trace& t) {
    sched::ReplayPolicy replay(t);
    Controller::Instance().Run(MakeBodies(), replay, 1u << 20);
    return !Serializable();
  };
  const Trace shrunk = sched::ShrinkTrace(res.violation_trace, verify);
  EXPECT_TRUE(verify(shrunk)) << "shrunk trace lost the failure";
  EXPECT_LE(shrunk.size(), 8u)
      << "shrinker left " << shrunk.size()
      << " decisions: " << sched::FormatTrace(shrunk);
}

#endif  // SPECTM_SCHED

}  // namespace
}  // namespace spectm
