// MVCC snapshot reads (src/tm/mvcc.h, ValSnap): read-only transactions pin a
// snapshot stamp and serve every read from the per-slot version chains — no
// validation walks, no aborts, regardless of concurrent same-stripe writers.
// Probe-asserted here: snapshot_reads > 0 with validation_walks == 0 under
// writer churn; the chain-bound overflow fallback; pin-based retirement (a
// dropped node a pinned reader could still reach is deferred, never recycled);
// write promotion; and a TSan-targeted consistency battery over ValSnap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/epoch/epoch.h"
#include "src/tm/config.h"
#include "src/tm/mvcc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

using F = ValSnap;
using Probe = ValProbe<ValDomainTag>;

std::uint64_t RoAbortsNow() {
  return F::Full::StatsForCurrentThread().aborts.load(std::memory_order_relaxed);
}

// --- The tentpole property, deterministically ---------------------------------------

// A snapshot transaction keeps reading its start-time state while single-op
// writers commit over the very slots it scans — and pays ZERO validation
// walks and zero aborts for it. The writers hit the same counter stripe as
// the reads (same slots), which under every other precise family would abort
// or at least force full read-set walks.
TEST(SnapshotReads, SeeStartStateDespiteInterleavedWriters) {
  constexpr int kSlots = 8;
  // Slots here (and below) have static duration: committed writers hang
  // version chains off them, and chain nodes are reclaimed by later publishes,
  // not by slot destruction — a slot dying with history attached would strand
  // its nodes (LeakSanitizer-visible). Static slots keep every node reachable.
  static F::Slot a[kSlots];
  for (int i = 0; i < kSlots; ++i) {
    F::SingleWrite(&a[i], EncodeInt(static_cast<Word>(i)));
  }
  Probe::Reset();
  const std::uint64_t aborts_before = RoAbortsNow();

  F::FullTx tx;
  tx.Start();
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(DecodeInt(tx.Read(&a[i])), static_cast<Word>(i));
    ASSERT_TRUE(tx.ok());
    // A writer commits over the NEXT slot before the snapshot gets there —
    // and over this one, for depth: the chain must carry the old value.
    F::SingleWrite(&a[(i + 1) % kSlots], EncodeInt(1000 + static_cast<Word>(i)));
  }
  // Re-read everything: still the start-time values, however hot the churn.
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(DecodeInt(tx.Read(&a[i])), static_cast<Word>(i));
    ASSERT_TRUE(tx.ok());
  }
  EXPECT_TRUE(tx.Commit());

  const Probe::Counters& c = Probe::Get();
  EXPECT_GT(c.snapshot_reads, 0u);
  EXPECT_GT(c.version_hops, 0u) << "no read ever traversed a chain node";
  EXPECT_EQ(c.validation_walks, 0u) << "a snapshot RO transaction validated";
  EXPECT_EQ(RoAbortsNow(), aborts_before) << "a snapshot RO transaction aborted";
}

// Same property through the short-transaction API: RO reads are single chain
// traversals at the pinned stamp, with no incremental revalidation.
TEST(SnapshotReads, ShortRoReadsAreChainReadsWithoutValidation) {
  static F::Slot x, y;
  F::SingleWrite(&x, EncodeInt(7));
  F::SingleWrite(&y, EncodeInt(9));
  Probe::Reset();

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 7u);
  F::SingleWrite(&x, EncodeInt(70));  // commits after the pin: invisible
  F::SingleWrite(&y, EncodeInt(90));
  EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 7u);
  EXPECT_EQ(DecodeInt(tx.ReadRo(&y)), 9u);
  EXPECT_TRUE(tx.Valid());

  const Probe::Counters& c = Probe::Get();
  EXPECT_EQ(c.snapshot_reads, 3u);
  EXPECT_EQ(c.validation_walks, 0u)
      << "short snapshot reads must not revalidate the RO log";
  EXPECT_GE(c.version_hops, 2u);
}

// --- Write promotion ----------------------------------------------------------------

// The snapshot cut cannot extend to a write: the first Write() promotes the
// attempt, which must fail when a writer committed over a snapshot read.
TEST(SnapshotPromotion, FirstWriteValidatesAndFailsOnConflict) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(1));
  F::SingleWrite(&out, EncodeInt(0));

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&x)), 1u);
  F::SingleWrite(&x, EncodeInt(2));  // invalidates the snapshot value "now"
  tx.Write(&out, EncodeInt(99));     // promotion: must detect the conflict
  EXPECT_FALSE(tx.ok());
  EXPECT_FALSE(tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 0u) << "a failed promotion published";
}

TEST(SnapshotPromotion, CleanPromotionCommitsAndPublishesVersions) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(5));
  F::SingleWrite(&out, EncodeInt(1));

  F::FullTx tx;
  tx.Start();
  const Word vx = tx.Read(&x);
  tx.Write(&out, EncodeInt(DecodeInt(vx) + 10));
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx.Commit());
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 15u);
  // The commit displaced EncodeInt(1) onto out's chain: a later snapshot that
  // pinned before this commit would still find it. Chain head must be stamped.
  mvcc::VersionNode* head = out.versions.load(std::memory_order_acquire);
  ASSERT_NE(head, nullptr);
  EXPECT_NE(head->stamp.load(std::memory_order_acquire), mvcc::kUnstamped);
  EXPECT_EQ(DecodeInt(head->word), 1u);
}

// Promotion through the short API rides the first lock (ReadRw / upgrade).
TEST(SnapshotPromotion, ShortFirstLockValidatesSnapshotLog) {
  static F::Slot x, out;
  F::SingleWrite(&x, EncodeInt(3));
  F::SingleWrite(&out, EncodeInt(0));

  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 3u);
    F::SingleWrite(&x, EncodeInt(4));
    tx.ReadRw(&out);  // first lock: promotion validates the RO log and fails
    EXPECT_FALSE(tx.Valid());
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 0u);

  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRo(&x)), 4u);
    const Word vo = tx.ReadRw(&out);
    ASSERT_TRUE(tx.Valid());
    EXPECT_TRUE(tx.CommitMixed({EncodeInt(DecodeInt(vo) + 42)}));
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&out)), 42u);
}

// --- Chain bound: overflow fallback and retirement ----------------------------------

// A chain truncated below the snapshot is the one case a snapshot read cannot
// serve: the reader refreshes its pin (one validation walk over what it
// already read) and continues at the new snapshot — it does not abort.
TEST(SnapshotChains, OverflowFallsBackToRefreshedSnapshot) {
  static F::Slot stable, hot;
  F::SingleWrite(&stable, EncodeInt(11));
  F::SingleWrite(&hot, EncodeInt(0));
  Probe::Reset();

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&stable)), 11u);
  // Overflow hot's chain past kMaxVersions while the snapshot is pinned below
  // all of it: the surviving suffix's floors all exceed the pin.
  for (int i = 1; i <= mvcc::kMaxVersions + 4; ++i) {
    F::SingleWrite(&hot, EncodeInt(static_cast<Word>(i)));
  }
  EXPECT_LE(mvcc::ChainLength(hot.versions), mvcc::kMaxVersions);
  const Word latest = static_cast<Word>(mvcc::kMaxVersions + 4);
  // The read must succeed at a refreshed snapshot (stable was not overwritten,
  // so the refresh validation passes) and return the current value.
  EXPECT_EQ(DecodeInt(tx.Read(&hot)), latest);
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(DecodeInt(tx.Read(&stable)), 11u);
  EXPECT_TRUE(tx.Commit());

  const Probe::Counters& c = Probe::Get();
  EXPECT_GE(c.validation_walks, 1u) << "the refresh path never walked";
  EXPECT_GE(c.chain_splices, 1u) << "the bound never spliced the chain";
  EXPECT_GT(c.versions_retired, 0u);
}

// Retirement is pin-bounded: a node dropped from a chain while its stamp
// exceeds the done stamp (a pinned reader could still reach it) parks on the
// deferred list instead of being recycled, and drains once the pin lifts.
TEST(SnapshotChains, RetirementDefersNodesAPinnedReaderCouldReach) {
  static F::Slot hot;
  F::SingleWrite(&hot, EncodeInt(0));
  // Settle earlier deferred traffic from this thread so the counts below are
  // attributable: with no pin, one more publish drains everything stale.
  F::SingleWrite(&hot, EncodeInt(0));
  ASSERT_EQ(mvcc::Pool().DeferredCount(), 0u);

  F::FullTx tx;
  tx.Start();
  EXPECT_EQ(DecodeInt(tx.Read(&hot)), 0u);  // pin S below everything that follows
  for (int i = 1; i <= mvcc::kMaxVersions + 6; ++i) {
    F::SingleWrite(&hot, EncodeInt(static_cast<Word>(i)));
  }
  // Bound-truncation dropped nodes stamped AFTER the pin: all deferred.
  EXPECT_GT(mvcc::Pool().DeferredCount(), 0u)
      << "overflow drops were recycled under a live pin";
  EXPECT_TRUE(tx.Commit());  // unpins

  // With the pin lifted the next publish's drain reclaims the parked nodes.
  F::SingleWrite(&hot, EncodeInt(777));
  EXPECT_EQ(mvcc::Pool().DeferredCount(), 0u);
}

// The abort path repairs a half-published chain by tombstoning, never by
// popping: an aborted writer's displaced-value node must be unreachable to
// every snapshot (empty validity interval), while the slot value is restored.
TEST(SnapshotChains, AbortedWriterLeavesNoSelectableVersion) {
  static F::Slot x;
  F::SingleWrite(&x, EncodeInt(21));

  // A short RW attempt locks x (displacing 21), then aborts.
  {
    F::ShortTx tx;
    EXPECT_EQ(DecodeInt(tx.ReadRw(&x)), 21u);
    ASSERT_TRUE(tx.Valid());
    tx.Abort();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&x)), 21u);
  // Any chain head must be stamped (no dangling unstamped node), and a fresh
  // snapshot must read 21 — the abort published nothing selectable.
  mvcc::VersionNode* head = x.versions.load(std::memory_order_acquire);
  if (head != nullptr) {
    EXPECT_NE(head->stamp.load(std::memory_order_acquire), mvcc::kUnstamped);
  }
  F::FullTx ro;
  ro.Start();
  EXPECT_EQ(DecodeInt(ro.Read(&x)), 21u);
  EXPECT_TRUE(ro.Commit());
}

// --- Guard nesting (epoch.h re-entrancy, carried by this PR) ------------------------

TEST(EpochGuardNesting, InnerGuardDoesNotRetractActivity) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  {
    EpochManager::Guard outer(mgr);
    {
      EpochManager::Guard inner(mgr);  // same thread, same manager: depth bump
    }
    // The outer guard must STILL be active: an object retired now by another
    // thread can not be freed while we remain inside.
    std::thread t([&] {
      EpochManager::Guard g(mgr);
      mgr.Retire(&freed, [](void* p) {
        static_cast<std::atomic<bool>*>(p)->store(true);
      });
    });
    t.join();
    mgr.ReclaimAllForTesting();  // advances are blocked by our activity word
    EXPECT_FALSE(freed.load()) << "inner Guard exit retracted the outer guard";
  }
  mgr.ReclaimAllForTesting();
  EXPECT_TRUE(freed.load());
}

// A chain node that leaves the pool's bounded free list must go through the
// epoch manager, never straight back to the allocator: a snapshot reader that
// loaded a chain pointer just before the node's unlink may still dereference
// its stamp word once (mvcc.h "selection-dead is not touch-dead").
TEST(NodePoolReclamation, FreeListOverflowRoutesThroughTheEpochManager) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  const std::uint64_t freed_before = mgr.FreedCount();
  constexpr std::size_t kOverflow = 32;
  {
    mvcc::NodePool pool;
    for (std::size_t i = 0; i < mvcc::NodePool::kMaxFree + kOverflow; ++i) {
      pool.Recycle(new mvcc::VersionNode);
    }
    // The overflow nodes are retired (pending or already epoch-freed), not
    // raw-deleted; the kMaxFree resident nodes stay type-stable in the pool.
    EXPECT_GE((mgr.FreedCount() - freed_before) + mgr.PendingCount(), kOverflow);
    mgr.ReclaimAllForTesting();
    EXPECT_GE(mgr.FreedCount() - freed_before, kOverflow);
  }
}

// The reader-side half of the same contract: while any guard is held (a
// pinned snapshot transaction holds one for its whole duration), nodes
// retired by writers must NOT reach the allocator.
TEST(NodePoolReclamation, AHeldGuardBlocksRetiredNodeFrees) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  const std::uint64_t freed_before = mgr.FreedCount();
  {
    EpochManager::Guard reader(mgr);  // stands in for a pinned snapshot tx
    std::thread writer([] {
      mvcc::NodePool pool;
      for (std::size_t i = 0; i < mvcc::NodePool::kMaxFree + 32; ++i) {
        pool.Recycle(new mvcc::VersionNode);
      }
    });
    writer.join();
    mgr.ReclaimAllForTesting();  // frees nothing: our guard pins the epoch
    EXPECT_EQ(mgr.FreedCount(), freed_before)
        << "a retired chain node was freed under a live guard";
  }
  mgr.ReclaimAllForTesting();
  EXPECT_GE(mgr.FreedCount() - freed_before, 32u);
}

// Reuse obeys the same contract as freeing: a recycled node is handed out
// again only after the global epoch has advanced twice past its unlink. A
// reader that loaded the node as a slot's head just before the unlink would
// otherwise read another slot's stamp, floor and word through it.
TEST(NodePoolReclamation, RecycledNodeIsReusedOnlyTwoEpochsLater) {
  EpochManager& mgr = GlobalEpochManager();
  mgr.ReclaimAllForTesting();
  mvcc::NodePool pool;
  auto* recycled = new mvcc::VersionNode;
  pool.Recycle(recycled);
  mvcc::VersionNode* immediate = pool.Acquire();
  EXPECT_NE(immediate, recycled) << "a node was reused in its unlink epoch";
  {
    EpochManager::Guard reader(mgr);  // stands in for a pinned snapshot tx
    mgr.ReclaimAllForTesting();       // at most one advance past our guard
    mvcc::VersionNode* guarded = pool.Acquire();
    EXPECT_NE(guarded, recycled) << "a node was reused under a live guard";
    delete guarded;
  }
  mgr.ReclaimAllForTesting();
  EXPECT_EQ(pool.Acquire(), recycled);
  delete immediate;
  delete recycled;
}

// --- Concurrency battery (run under TSan in CI) -------------------------------------

// Writers move value between two slots keeping x + y constant; snapshot
// readers assert the invariant on every read pair. Any torn snapshot, any
// misordered publish, any premature node recycle shows up as a violated sum
// (or as a TSan report on the chain accesses).
TEST(SnapshotConcurrency, ScannersSeeConsistentCutsUnderTransfer) {
  constexpr int kTransfers = 4000;
  constexpr int kScans = 4000;
  constexpr Word kTotal = 1000;
  static auto* x = new F::Slot();
  static auto* y = new F::Slot();
  F::SingleWrite(x, EncodeInt(kTotal));
  F::SingleWrite(y, EncodeInt(0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_sums{0};

  std::thread writer([&] {
    for (int i = 0; i < kTransfers; ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word vx = tx.Read(x);
        if (!tx.ok()) {
          return;
        }
        const Word vy = tx.Read(y);
        if (!tx.ok()) {
          return;
        }
        if (DecodeInt(vx) == 0) {
          return;
        }
        tx.Write(x, EncodeInt(DecodeInt(vx) - 1));
        tx.Write(y, EncodeInt(DecodeInt(vy) + 1));
      });
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread scanner([&] {
    for (int i = 0; i < kScans && !stop.load(std::memory_order_acquire); ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word vx = tx.Read(x);
        if (!tx.ok()) {
          return;
        }
        const Word vy = tx.Read(y);
        if (!tx.ok()) {
          return;
        }
        if (DecodeInt(vx) + DecodeInt(vy) != kTotal) {
          bad_sums.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  std::thread short_scanner([&] {
    for (int i = 0; i < kScans && !stop.load(std::memory_order_acquire); ++i) {
      while (true) {
        F::ShortTx tx;
        const Word vx = tx.ReadRo(x);
        if (!tx.Valid()) {
          continue;
        }
        const Word vy = tx.ReadRo(y);
        if (!tx.Valid()) {
          continue;
        }
        if (DecodeInt(vx) + DecodeInt(vy) != kTotal) {
          bad_sums.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
  });
  writer.join();
  scanner.join();
  short_scanner.join();
  EXPECT_EQ(bad_sums.load(), 0u) << "a snapshot saw a torn transfer";
  EXPECT_EQ(DecodeInt(F::SingleRead(x)) + DecodeInt(F::SingleRead(y)), kTotal);
}

// Single-op churn against full-transaction snapshot scans: exercises the
// single-op publish path (displace -> bump -> publish -> store) under real
// concurrency, with single-op readers spinning out publish windows.
TEST(SnapshotConcurrency, SingleOpChurnKeepsChainsSoundForScanners) {
  constexpr int kWrites = 6000;
  constexpr int kScans = 3000;
  static auto* s = new F::Slot();
  F::SingleWrite(s, EncodeInt(0));
  std::atomic<std::uint64_t> regressions{0};

  std::thread writer([&] {
    for (int i = 1; i <= kWrites; ++i) {
      F::SingleWrite(s, EncodeInt(static_cast<Word>(i)));
    }
  });
  std::thread scanner([&] {
    Word last = 0;
    for (int i = 0; i < kScans; ++i) {
      F::Full::Atomically([&](F::FullTx& tx) {
        const Word v = tx.Read(s);
        if (!tx.ok()) {
          return;
        }
        // The writer only increments: any later snapshot reading an EARLIER
        // value than a previous snapshot would break monotonicity.
        if (DecodeInt(v) < last) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last = DecodeInt(v);
      });
    }
  });
  std::thread single_reader([&] {
    Word last = 0;
    for (int i = 0; i < kScans; ++i) {
      const Word v = DecodeInt(F::SingleRead(s));
      if (v < last) {
        regressions.fetch_add(1, std::memory_order_relaxed);
      }
      last = v;
    }
  });
  writer.join();
  scanner.join();
  single_reader.join();
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_EQ(DecodeInt(F::SingleRead(s)), static_cast<Word>(kWrites));
}

}  // namespace
}  // namespace spectm
