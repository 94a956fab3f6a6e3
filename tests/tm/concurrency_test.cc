// Multi-threaded correctness tests for every TM family: atomicity (no lost updates,
// no torn multi-word writes), consistency of read snapshots, and interoperation of
// the short, full, and single-op APIs under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/tm/config.h"
#include "src/tm/pver.h"
#include "src/tm/val_eager.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr int kThreads = 8;

template <typename Family>
class TmConcurrency : public ::testing::Test {};

// The list includes the GV5/GV6 clock families (shared non-unique timestamps +
// reader-side clock catch-up under real races) and the counter-skip/partitioned
// val families (writer-summary bumps racing counter-skip/stripe-skip readers).
// All of it runs under TSan in CI.
// CMakeLists.txt reads this list and registers one CTest entry per family
// (filter TmConcurrency/<index>.*), so every test in this file must be a
// TmConcurrency typed test.
using AllFamilies =
    ::testing::Types<OrecG, OrecL, TvarG, TvarL, Val, ValGlobalCounter,
                     ValPerThreadCounter, Pver, ValEager, OrecGv5, OrecGv6,
                     ValPart, ValCounterSkip>;
TYPED_TEST_SUITE(TmConcurrency, AllFamilies);

// No lost updates: every committed full transaction's increment must survive.
TYPED_TEST(TmConcurrency, FullTxCounterNoLostUpdates) {
  using F = TypeParam;
  typename F::Slot counter;
  constexpr int kIncrementsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        typename F::FullTx tx;
        do {
          tx.Start();
          const Word v = tx.Read(&counter);
          if (!tx.ok()) {
            continue;
          }
          tx.Write(&counter, EncodeInt(DecodeInt(v) + 1));
        } while (!tx.Commit());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&counter)),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

// Same property through the short RW path (encounter-time locking).
TYPED_TEST(TmConcurrency, ShortRwCounterNoLostUpdates) {
  using F = TypeParam;
  typename F::Slot counter;
  constexpr int kIncrementsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        while (true) {
          typename F::ShortTx tx;
          const Word v = tx.ReadRw(&counter);
          if (!tx.Valid()) {
            tx.Abort();
            continue;
          }
          tx.CommitRw({EncodeInt(DecodeInt(v) + 1)});
          break;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&counter)),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

// SingleCas must behave exactly like hardware CAS under contention.
TYPED_TEST(TmConcurrency, SingleCasCounterNoLostUpdates) {
  using F = TypeParam;
  typename F::Slot counter;
  constexpr int kIncrementsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        while (true) {
          const Word v = F::SingleRead(&counter);
          if (F::SingleCas(&counter, v, EncodeInt(DecodeInt(v) + 1)) == v) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&counter)),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

// Short and full transactions must serialize against each other on the same data.
TYPED_TEST(TmConcurrency, MixedApiCounterNoLostUpdates) {
  using F = TypeParam;
  typename F::Slot counter;
  constexpr int kIncrementsPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        if (t % 2 == 0) {
          typename F::FullTx tx;
          do {
            tx.Start();
            const Word v = tx.Read(&counter);
            if (!tx.ok()) {
              continue;
            }
            tx.Write(&counter, EncodeInt(DecodeInt(v) + 1));
          } while (!tx.Commit());
        } else {
          while (true) {
            typename F::ShortTx tx;
            const Word v = tx.ReadRw(&counter);
            if (!tx.Valid()) {
              tx.Abort();
              continue;
            }
            tx.CommitRw({EncodeInt(DecodeInt(v) + 1)});
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&counter)),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

// Torn-write detection: writers commit {v, v} pairs through short RW2 transactions;
// RO2 readers must never observe two different values.
TYPED_TEST(TmConcurrency, ShortRoReadsSeeConsistentPairs) {
  using F = TypeParam;
  typename F::Slot a, b;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads_ok{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads / 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        typename F::ShortTx tx;
        const Word va = tx.ReadRo(&a);
        const Word vb = tx.ReadRo(&b);
        if (!tx.Valid() || !tx.ValidateRo()) {
          continue;
        }
        if (va != vb) {
          torn.fetch_add(1);
        }
        reads_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads / 2; ++w) {
    writers.emplace_back([&, w] {
      Xorshift128Plus rng(static_cast<std::uint64_t>(w) + 77);
      for (int i = 0; i < 20000; ++i) {
        // Monotonically fresh values: the non-re-use property the val layout's
        // default validation relies on (§2.4 case 3). 46 random bits keep the
        // encoded value inside pver's 48-bit payload field (its narrowest family).
        const Word v = EncodeInt(rng.Next() >> 18);
        while (true) {
          typename F::ShortTx tx;
          tx.ReadRw(&a);
          tx.ReadRw(&b);
          if (!tx.Valid()) {
            tx.Abort();
            continue;
          }
          tx.CommitRw({v, v});
          break;
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
}

// Same invariant via the full-transaction API (tests opacity / snapshot validity).
TYPED_TEST(TmConcurrency, FullTxReadsSeeConsistentPairs) {
  using F = TypeParam;
  typename F::Slot a, b;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads / 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        typename F::FullTx tx;
        Word va = 0, vb = 0;
        do {
          tx.Start();
          va = tx.Read(&a);
          vb = tx.Read(&b);
        } while (!tx.Commit());
        if (va != vb) {
          torn.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads / 2; ++w) {
    writers.emplace_back([&, w] {
      Xorshift128Plus rng(static_cast<std::uint64_t>(w) + 99);
      for (int i = 0; i < 20000; ++i) {
        const Word v = EncodeInt(rng.Next() >> 18);  // 46 bits: fits pver payloads
        typename F::FullTx tx;
        do {
          tx.Start();
          tx.Write(&a, v);
          tx.Write(&b, v);
        } while (!tx.Commit());
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0u);
}

// Bank invariant: transfers between accounts must preserve the total, observed by
// concurrent full-tx readers scanning all accounts.
TYPED_TEST(TmConcurrency, BankTransfersPreserveTotal) {
  using F = TypeParam;
  constexpr int kAccounts = 16;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<typename F::Slot> accounts(kAccounts);
  for (auto& acc : accounts) {
    F::SingleWrite(&acc, EncodeInt(kInitial));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_totals{0};

  std::vector<std::thread> auditors;
  for (int r = 0; r < 2; ++r) {
    auditors.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        typename F::FullTx tx;
        std::uint64_t total = 0;
        bool good = true;
        do {
          tx.Start();
          total = 0;
          good = true;
          for (auto& acc : accounts) {
            const Word v = tx.Read(&acc);
            if (!tx.ok()) {
              good = false;
              break;
            }
            total += DecodeInt(v);
          }
        } while (!tx.Commit() || !good);
        if (total != kAccounts * kInitial) {
          bad_totals.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> transferrers;
  for (int w = 0; w < kThreads - 2; ++w) {
    transferrers.emplace_back([&, w] {
      Xorshift128Plus rng(static_cast<std::uint64_t>(w) * 31 + 5);
      for (int i = 0; i < 20000; ++i) {
        const auto from = rng.NextBounded(kAccounts);
        auto to = rng.NextBounded(kAccounts);
        if (to == from) {
          to = (to + 1) % kAccounts;
        }
        // Transfer via a short RW2 transaction.
        while (true) {
          typename F::ShortTx tx;
          const Word vf = tx.ReadRw(&accounts[from]);
          const Word vt = tx.ReadRw(&accounts[to]);
          if (!tx.Valid()) {
            tx.Abort();
            continue;
          }
          const std::uint64_t f = DecodeInt(vf);
          const std::uint64_t amount = f > 0 ? 1 + rng.NextBounded(f) : 0;
          tx.CommitRw({EncodeInt(f - amount), EncodeInt(DecodeInt(vt) + amount)});
          break;
        }
      }
    });
  }
  for (auto& t : transferrers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : auditors) {
    t.join();
  }
  EXPECT_EQ(bad_totals.load(), 0u);

  std::uint64_t final_total = 0;
  for (auto& acc : accounts) {
    final_total += DecodeInt(F::SingleRead(&acc));
  }
  EXPECT_EQ(final_total, kAccounts * kInitial);
}

// The upgrade path under contention: concurrent conditional increments built from
// RO reads + upgrade must neither lose updates nor fire on stale guards.
TYPED_TEST(TmConcurrency, UpgradePathConditionalIncrements) {
  using F = TypeParam;
  typename F::Slot guard_slot, counter;
  F::SingleWrite(&guard_slot, EncodeInt(1));  // guard always satisfied
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (true) {
          typename F::ShortTx tx;
          const Word g = tx.ReadRo(&guard_slot);
          const Word c = tx.ReadRo(&counter);
          if (!tx.Valid() || DecodeInt(g) != 1) {
            tx.Reset();
            continue;
          }
          if (!tx.UpgradeRoToRw(1)) {
            tx.Reset();
            continue;
          }
          if (tx.CommitMixed({EncodeInt(DecodeInt(c) + 1)})) {
            break;
          }
          tx.Reset();
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(DecodeInt(F::SingleRead(&counter)),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace spectm
