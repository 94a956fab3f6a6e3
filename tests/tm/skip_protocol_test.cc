// Validation skip protocol of the val layout (valstrategy.h): the strategy each
// val family is built with, the abort EWMA, the striped counter policy's
// counter stripes, and the probe-verified hot-path claims — counter skips
// firing on unchanged-counter RO reads (short and full transactions), stripe
// skips absorbing write traffic in stripes the read set does not occupy, and
// the commit-time skip keeping crossing committers apart.
#include "src/tm/valstrategy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/structures/hash_tm_full.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

// Each family's strategy is fixed when it is built (valstrategy.h StrategyFor):
// pin what its full and short engines both resolve to.
template <typename F>
constexpr bool ResolvesTo(ValStrategy s) {
  return F::Full::StratState::kStrategy == s &&
         F::Short::StratState::kStrategy == s;
}
static_assert(ResolvesTo<Val>(ValStrategy::kIncremental),
              "a non-precise policy's counter proves nothing: it walks");
static_assert(ResolvesTo<ValGlobalCounter>(ValStrategy::kCounterSkip),
              "an unstriped summary takes the whole counter");
static_assert(ResolvesTo<ValPerThreadCounter>(ValStrategy::kCounterSkip));
static_assert(ResolvesTo<ValIncremental>(ValStrategy::kIncremental));
static_assert(ResolvesTo<ValCounterSkip>(ValStrategy::kCounterSkip));
static_assert(ResolvesTo<ValPart>(ValStrategy::kStripe));
static_assert(ResolvesTo<ValSnap>(ValStrategy::kStripe));

// Per-operation cost tracks the transaction object's size (one unused 16-byte
// field in FullTm::Tx cost orec full-rw2 ~9%), so no field may creep back into
// the engines unnoticed. LP64 sizes: OrecG Tx 24 / ShortTx 224 (the orec
// engines carry no strategy state); ValPart and ValSnap Tx 88 / ShortTx 264.
constexpr bool kLp64 = sizeof(void*) == 8;
static_assert(!kLp64 || sizeof(OrecG::FullTx) <= 24);
static_assert(!kLp64 || sizeof(OrecG::ShortTx) <= 224);
static_assert(!kLp64 || sizeof(ValPart::FullTx) <= 88);
static_assert(!kLp64 || sizeof(ValPart::ShortTx) <= 264);
static_assert(!kLp64 || sizeof(ValSnap::FullTx) <= 88);
static_assert(!kLp64 || sizeof(ValSnap::ShortTx) <= 264);

TEST(AbortEwma, TracksOutcomesAndDecaysToZero) {
  TxStats stats;
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);

  // Commits keep it at zero.
  for (int i = 0; i < 10; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/false);
  }
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);

  // A run of aborts drives it toward 100%...
  for (int i = 0; i < 100; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/true);
  }
  EXPECT_GT(AbortEwmaQ16(stats), 65000u) << "sustained aborts look contended";

  // ...and a long abort-free run decays it all the way back to zero (the rounded
  // decrement must not stall at a small residue).
  for (int i = 0; i < 400; ++i) {
    UpdateAbortEwma(stats, /*aborted=*/false);
  }
  EXPECT_EQ(AbortEwmaQ16(stats), 0u);
}

TEST(AbortEwma, SingleAbortMovesOneSixteenth) {
  TxStats stats;
  UpdateAbortEwma(stats, /*aborted=*/true);
  // One abort from a cold start: 1/16 of full scale = 4096 Q16.
  EXPECT_EQ(AbortEwmaQ16(stats), 4096u);
}

// Acceptance: the short-tx counter skip fires on unchanged-counter RO reads — the
// second RO read of a short transaction must skip the prefix walk when no writer
// committed since the sample. Run over the striped counter (ValCounterSkip) and
// the classic unstriped one (ValGlobalCounter).
template <typename F>
void ExpectShortRoReadsSkipOnStableCounter() {
  using Probe = ValProbe<ValDomainTag>;
  static typename F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(5));
  F::SingleWrite(&b, EncodeInt(6));

  Probe::Reset();
  typename F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 5u);
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 6u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().counter_skips, 1u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "ValShortTx revalidated the whole RO set despite a stable counter";
}

TEST(CounterSkip, ShortTxRoReadsSkipOnStableCounter) {
  ExpectShortRoReadsSkipOnStableCounter<ValCounterSkip>();
  ExpectShortRoReadsSkipOnStableCounter<ValGlobalCounter>();
}

// When the counter moves between reads, the skip must NOT fire: the engine walks
// (and the values are still intact, so the transaction stays valid).
TEST(CounterSkip, MovedCounterForcesTheWalk) {
  using F = ValCounterSkip;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot a, b, unrelated;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(&unrelated, EncodeInt(9));  // bumps the domain counter
  EXPECT_EQ(DecodeInt(tx.ReadRo(&b)), 2u);
  EXPECT_TRUE(tx.Valid()) << "disjoint write must not invalidate, only force a walk";
  tx.Abort();

  EXPECT_GE(Probe::Get().validation_walks, 1u)
      << "a moved counter must walk the prefix";
}

// Overlap case: a writer that DOES hit the read set must be caught — the skip
// may not fire and the transaction must invalidate.
TEST(CounterSkip, OverlappingWriterIsDetected) {
  using F = ValCounterSkip;
  static F::Slot a, b;
  F::SingleWrite(&a, EncodeInt(1));
  F::SingleWrite(&b, EncodeInt(2));

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&a)), 1u);
  F::SingleWrite(&a, EncodeInt(99));  // overlaps the read set
  tx.ReadRo(&b);
  EXPECT_FALSE(tx.Valid()) << "a changed read-set entry must invalidate the tx";
  tx.Abort();
}

// Full-transaction counter skip: with no concurrent writers, a read-heavy full
// transaction over the counter-skip family must do zero walks after the first
// read — the O(read-set) per-read revalidation collapses.
TEST(CounterSkip, FullTxReadsSkipOnStableCounter) {
  using F = ValCounterSkip;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot slots[16];
  for (int i = 0; i < 16; ++i) {
    F::SingleWrite(&slots[i], EncodeInt(static_cast<std::uint64_t>(i)));
  }

  Probe::Reset();
  F::FullTx tx;
  bool done = false;
  while (!done) {
    tx.Start();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(DecodeInt(tx.Read(&slots[i])), static_cast<std::uint64_t>(i));
    }
    done = tx.Commit();
  }
  EXPECT_GE(Probe::Get().counter_skips, 14u);
  EXPECT_EQ(Probe::Get().validation_walks, 0u)
      << "quiescent read-heavy full tx must never walk under counter-skip";
}

// Multi-threaded sanity for the stripe skip under real concurrency: disjoint-slot
// writers churn while RO pairs are read; pairs must stay consistent. (The
// heavyweight cross-family battery lives in concurrency_test.cc.)
TEST(PartitionedSkip, ConcurrentDisjointChurnKeepsPairsConsistent) {
  using F = ValPart;
  static F::Slot pair_a, pair_b;
  static F::Slot churn[8];
  F::SingleWrite(&pair_a, EncodeInt(0));
  F::SingleWrite(&pair_b, EncodeInt(0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      const Word v = EncodeInt(static_cast<std::uint64_t>(i) + 1);
      while (true) {
        F::ShortTx tx;
        tx.ReadRw(&pair_a);
        tx.ReadRw(&pair_b);
        if (!tx.Valid()) {
          tx.Abort();
          continue;
        }
        tx.CommitRw({v, v});
        break;
      }
      F::SingleWrite(&churn[i % 8], EncodeInt(static_cast<std::uint64_t>(i)));
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      F::ShortTx tx;
      const Word va = tx.ReadRo(&pair_a);
      const Word vb = tx.ReadRo(&pair_b);
      if (!tx.Valid() || !tx.ValidateRo()) {
        continue;
      }
      if (va != vb) {
        torn.fetch_add(1);
      }
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
}

// Linked-structure regression for the commit-time skip protocol: concurrent
// inserts/removes on a transactional hash set must keep (successful inserts -
// successful removes) equal to the final cardinality. The crossing-committer
// write skew this pins down (two committers whose read sets cross each other's
// write sets both skipping/passing validation) manifests exactly as a lost
// unlink: a Remove returns true while its victim stays reachable, breaking this
// balance — and later corrupting the heap via a double retire. Fixed by the
// bump-before-validate + own-index commit discipline (valstrategy.h).
template <typename Family>
void RunLinkedSetBalanceCheck(std::uint64_t seed) {
  TmHashSet<Family> set(64);
  constexpr int kWorkers = 4;
  constexpr int kOpsPerThread = 120000;
  constexpr std::uint64_t kKeys = 512;
  std::vector<std::int64_t> balance(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      Xorshift128Plus rng(seed + static_cast<std::uint64_t>(t) * 7919);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = rng.NextBounded(kKeys);
        if (rng.Next() & 1) {
          if (set.Insert(k)) {
            ++balance[static_cast<std::size_t>(t)];
          }
        } else {
          if (set.Remove(k)) {
            --balance[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::int64_t expected = 0;
  for (const std::int64_t b : balance) {
    expected += b;
  }
  std::int64_t present = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    present += set.Contains(k) ? 1 : 0;
  }
  EXPECT_EQ(present, expected)
      << "insert/remove balance diverged from the set cardinality: a commit "
         "skipped validation past a crossing committer (lost unlink/insert)";
}

TEST(CommitSkipProtocol, LinkedSetBalanceValCounterSkip) {
  RunLinkedSetBalanceCheck<ValCounterSkip>(0xada9);
}

// Crossing-committers regression, re-derived for the PARTITIONED skip protocol:
// the per-stripe commit skip (expected = anchor + own-bump contribution per
// READ-occupied stripe) must keep two crossing committers from write-skewing
// past each other exactly as the global own-index test did — a lost unlink
// breaks the insert/remove balance below. It runs in the TSan smoke subset via
// this test binary.
TEST(CommitSkipProtocol, LinkedSetBalanceValPart) {
  RunLinkedSetBalanceCheck<ValPart>(0x57a1);
}

// --- Partitioned NOrec: per-stripe counters -------------------------------------

// The sharded bump: a writer commit moves exactly the masked stripe counters
// plus the global counter (the own_idx), nothing else.
TEST(PartitionedSkip, StripeCountersShardTheBump) {
  using S = StripedCounterValidation;
  const StripeSample before = S::StripeSampleNow();
  const Word global_before = S::Sample();
  const Word own_idx = S::OnWriterCommit(nullptr, 0b0101u);
  EXPECT_EQ(own_idx, global_before + 1);
  EXPECT_EQ(S::StripeNow(0), before.v[0] + 1);
  EXPECT_EQ(S::StripeNow(1), before.v[1]);
  EXPECT_EQ(S::StripeNow(2), before.v[2] + 1);
  EXPECT_EQ(S::StripeNow(3), before.v[3]);
  EXPECT_EQ(S::Sample(), global_before + 1);
}

// Returns a slot from `pool` whose counter stripe is NOT in `occupied_mask`
// (metadata word = the val-layout data word). The pool must span enough 4 KiB
// regions that every stripe occurs in it.
template <std::size_t N>
ValSlot* FindStripeDisjointValSlot(ValSlot (&pool)[N], unsigned occupied_mask) {
  for (auto& s : pool) {
    if (((occupied_mask >> CounterStripeOf(&s.word)) & 1u) == 0) {
      return &s;
    }
  }
  return nullptr;
}

// Acceptance: disjoint-STRIPE writer traffic moves the global counter but not
// the reader's occupied stripes — the partitioned skip fires with zero walks.
TEST(PartitionedSkip, DisjointStripeChurnSkipsWithoutWalks) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot pair_a, pair_b;
  static F::Slot pool[4096];  // 32 KiB of slots: every 4 KiB stripe occurs
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));
  const unsigned occupied =
      (1u << CounterStripeOf(&pair_a.word)) | (1u << CounterStripeOf(&pair_b.word));
  F::Slot* churn = FindStripeDisjointValSlot(pool, occupied);
  ASSERT_NE(churn, nullptr);
  F::SingleWrite(churn, EncodeInt(3));

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(churn, EncodeInt(7));  // bumps the global counter, other stripe
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_GE(Probe::Get().stripe_skips, 1u)
      << "disjoint-stripe traffic must be absorbed by the stripe vector";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
  EXPECT_EQ(Probe::Get().cross_stripe_walks, 0u);
  EXPECT_GE(Probe::Get().stripe_bumps, 1u) << "the churn writer bumped its stripe";
}

// Same-stripe traffic to a slot outside the read set: the stripe vector cannot
// prove anything (an occupied stripe moved), so the engine must walk — and the
// walk finds the read set intact, so the transaction stays valid.
TEST(PartitionedSkip, SameStripeTrafficForcesTheWalk) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot pair_a, pair_b;
  static F::Slot pool[4096];
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));
  const unsigned occupied =
      (1u << CounterStripeOf(&pair_a.word)) | (1u << CounterStripeOf(&pair_b.word));
  F::Slot* churn = nullptr;
  for (auto& s : pool) {
    if (((occupied >> CounterStripeOf(&s.word)) & 1u) != 0) {
      churn = &s;
      break;
    }
  }
  ASSERT_NE(churn, nullptr);

  Probe::Reset();
  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(churn, EncodeInt(5));  // moves an OCCUPIED stripe
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_b)), 2u);
  EXPECT_TRUE(tx.Valid());
  tx.Abort();

  EXPECT_EQ(Probe::Get().stripe_skips, 0u)
      << "a moved occupied stripe must not stripe-skip";
  EXPECT_GE(Probe::Get().cross_stripe_walks, 1u);
  EXPECT_GE(Probe::Get().validation_walks, 1u);
}

// Correctness under the partitioned family: a write that actually hits the read
// set must still invalidate the reader (stripe check fails, the walk sees the
// changed value).
TEST(PartitionedSkip, SameLocationWriteIsDetected) {
  using F = ValPart;
  static F::Slot pair_a, pair_b;
  F::SingleWrite(&pair_a, EncodeInt(1));
  F::SingleWrite(&pair_b, EncodeInt(2));

  F::ShortTx tx;
  EXPECT_EQ(DecodeInt(tx.ReadRo(&pair_a)), 1u);
  F::SingleWrite(&pair_a, EncodeInt(99));
  tx.ReadRo(&pair_b);
  EXPECT_FALSE(tx.Valid()) << "a changed read-set entry must invalidate the tx";
  tx.Abort();
}

// Commit-time partitioned skip: a committing writer whose read-occupied stripes
// saw only its own bump (foreign traffic entirely in other stripes) skips its
// final walk via the per-stripe expected-increment test.
TEST(PartitionedSkip, CommitSkipSurvivesDisjointStripeTraffic) {
  using F = ValPart;
  using Probe = ValProbe<ValDomainTag>;
  static F::Slot read_slot, write_slot;
  static F::Slot pool[4096];
  F::SingleWrite(&read_slot, EncodeInt(4));
  F::SingleWrite(&write_slot, EncodeInt(5));
  const unsigned occupied = 1u << CounterStripeOf(&read_slot.word);
  F::Slot* churn = FindStripeDisjointValSlot(pool, occupied);
  ASSERT_NE(churn, nullptr);

  Probe::Reset();
  F::FullTx tx;
  Word v = 0;
  do {
    tx.Start();
    v = tx.Read(&read_slot);
    F::SingleWrite(churn, EncodeInt(11));  // foreign bump, disjoint stripe
    tx.Write(&write_slot, EncodeInt(6));
  } while (!tx.Commit());
  EXPECT_EQ(DecodeInt(v), 4u);
  EXPECT_GE(Probe::Get().stripe_skips, 1u)
      << "the commit must skip through the per-stripe test, not walk";
  EXPECT_EQ(Probe::Get().validation_walks, 0u);
}

}  // namespace
}  // namespace spectm
