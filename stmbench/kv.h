// KV service workloads: closed-loop clients issuing seeded BatchGet / BatchPut /
// BatchScan requests against src/svc's KvStore, with every returned value
// checked.
//
// Values are self-describing: EncodeValue(key, writer, seq) packs the key a
// value belongs to together with a nonce (the writing client, 1-based, and
// that client's put sequence number; writer 0 is the prefill). A read that
// decodes to another key, a prefilled key that is reported missing, or a
// nonce no client has issued is a failed operation.
#ifndef STMBENCH_KV_H_
#define STMBENCH_KV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/svc/kv_store.h"
#include "src/svc/zipf.h"
#include "stmbench/harness.h"

namespace stmbench {

struct KvSpec {
  std::uint64_t keys;       // power of two, all prefilled
  std::size_t batch;
  double theta;             // Zipf skew of key popularity
  int get_pct;
  int put_pct;              // remainder is scans
  std::size_t load_factor;  // keys per bucket
};

inline constexpr int kKeyBits = 23;  // key spaces up to 2^23
inline constexpr int kSeqBits = 28;
inline constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

inline std::uint64_t EncodeValue(std::uint64_t key, std::uint64_t writer,
                                 std::uint64_t seq) {
  return (((writer << kSeqBits) | seq) << kKeyBits) | key;
}
inline std::uint64_t ValueKey(std::uint64_t v) { return v & kKeyMask; }
inline std::uint64_t ValueSeq(std::uint64_t v) { return (v >> kKeyBits) & kSeqMask; }
inline std::uint64_t ValueWriter(std::uint64_t v) { return v >> (kKeyBits + kSeqBits); }

// A value read for `key` while clients are running: it must belong to `key`
// and come from the prefill or one of the `writers` clients.
inline bool PlausibleValue(std::uint64_t key, bool found, std::uint64_t v,
                           std::uint64_t writers) {
  return found && ValueKey(v) == key && ValueWriter(v) <= writers &&
         (ValueWriter(v) != 0 || ValueSeq(v) == 0);
}

enum class KvOp { kGet, kPut, kScan };

// One client's request stream: a pure function of (spec, seed, writer).
class KvRequestGen {
 public:
  KvRequestGen(const KvSpec& spec, std::uint64_t seed, std::uint64_t writer)
      : spec_(spec),
        zipf_(spec.keys, spec.theta, seed),
        rng_(seed ^ 0x6b7652657175ULL),
        writer_(writer),
        keys_(spec.batch),
        vals_(spec.batch) {}

  // Draws the next request into keys()/vals()/lo().
  KvOp Next() {
    const std::uint32_t pct = rng_.NextPercent();
    if (pct < static_cast<std::uint32_t>(spec_.get_pct)) {
      FillKeys();
      return KvOp::kGet;
    }
    if (pct < static_cast<std::uint32_t>(spec_.get_pct + spec_.put_pct)) {
      FillKeys();
      for (std::size_t i = 0; i < spec_.batch; ++i) {
        vals_[i] = EncodeValue(keys_[i], writer_, ++seq_ & kSeqMask);
      }
      return KvOp::kPut;
    }
    lo_ = DrawKey();
    if (lo_ + spec_.batch > spec_.keys) {
      lo_ = spec_.keys - spec_.batch;
    }
    return KvOp::kScan;
  }

  const std::uint64_t* keys() const { return keys_.data(); }
  const std::uint64_t* vals() const { return vals_.data(); }
  std::uint64_t lo() const { return lo_; }
  // Puts' sequence numbers issued so far: every value this client wrote has
  // seq in [1, issued()].
  std::uint64_t issued() const { return seq_; }

 private:
  std::uint64_t DrawKey() { return spectm::svc::ScatterRank(zipf_.NextRank(), spec_.keys); }

  void FillKeys() {
    for (std::size_t i = 0; i < spec_.batch; ++i) {
      keys_[i] = DrawKey();
    }
  }

  KvSpec spec_;
  spectm::svc::ZipfianGenerator zipf_;
  spectm::Xorshift128Plus rng_;
  std::uint64_t writer_;
  std::uint64_t seq_ = 0;
  std::uint64_t lo_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> vals_;
};

// Number of entries of a BatchGet/BatchScan result that fail the check.
// `keys` null means the contiguous range [lo, lo + n).
inline std::size_t CountBadReads(const std::uint64_t* keys, std::uint64_t lo,
                                 std::size_t n, const std::uint64_t* out,
                                 const bool* found, std::uint64_t writers) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = keys != nullptr ? keys[i] : lo + i;
    bad += PlausibleValue(key, found[i], out[i], writers) ? 0 : 1;
  }
  return bad;
}

template <typename Family>
class KvWorkload {
 public:
  using Store = spectm::svc::KvStore<Family>;
  using DomainTag = typename Family::DomainTag;

  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kPrefillBatch = 256;
  static constexpr std::size_t kAuditBatch = 64;

  explicit KvWorkload(const KvSpec& spec) : spec_(spec) {}

  // Builds the store, prefills every key in ascending order (value
  // EncodeValue(key, 0, 0)), and builds one request generator per client. A
  // single prefill thread keeps the node layout the same on every run.
  void Setup(std::uint64_t seed, int clients) {
    typename Store::Config cfg;
    cfg.shards = kShards;
    cfg.buckets_per_shard = spec_.keys / spec_.load_factor / kShards;
    store_ = std::make_unique<Store>(cfg);
    std::vector<std::uint64_t> keys(kPrefillBatch), vals(kPrefillBatch);
    for (std::uint64_t base = 0; base < spec_.keys; base += kPrefillBatch) {
      std::size_t n = 0;
      for (; n < kPrefillBatch && base + n < spec_.keys; ++n) {
        keys[n] = base + n;
        vals[n] = EncodeValue(base + n, 0, 0);
      }
      store_->BatchPut(keys.data(), vals.data(), n);
    }
    gens_.clear();
    std::uint64_t s = seed;
    for (int t = 0; t < clients; ++t) {
      gens_.push_back(std::make_unique<KvRequestGen>(
          spec_, spectm::Xorshift128Plus::SplitMix64(&s), static_cast<std::uint64_t>(t) + 1));
    }
    failed_.assign(static_cast<std::size_t>(clients), 0);
    attempted_.assign(static_cast<std::size_t>(clients), 0);
  }

  void Teardown() {
    gens_.clear();
    store_.reset();
  }

  // Closed loop of one client: one request per step, each result checked.
  void Client(int tid, const Schedule& sched, std::vector<WindowStats>& windows,
              SpanBuffer* trace) {
    KvRequestGen& gen = *gens_[static_cast<std::size_t>(tid)];
    const std::size_t n = spec_.batch;
    const auto writers = static_cast<std::uint64_t>(gens_.size());
    std::vector<std::uint64_t> out(n);
    std::unique_ptr<bool[]> found(new bool[n]);
    std::uint64_t failed = 0, attempted = 0, request = 0;
    RunClientWindows<DomainTag>(sched, windows, trace, [&](WindowStats& ps, SpanBuffer* tr) {
      const std::uint64_t t0 = tr != nullptr ? NowNs() : 0;
      const KvOp op = gen.Next();
      std::fill(found.get(), found.get() + n, false);
      SpanName call = SpanName::kSvcBatchGet;
      std::size_t bad = 0;
      const std::uint64_t t1 = NowNs();
      try {
        switch (op) {
          case KvOp::kGet:
            store_->BatchGet(gen.keys(), n, out.data(), found.get());
            break;
          case KvOp::kPut:
            call = SpanName::kSvcBatchPut;
            store_->BatchPut(gen.keys(), gen.vals(), n);
            break;
          case KvOp::kScan:
            call = SpanName::kSvcBatchScan;
            store_->BatchScan(gen.lo(), n, out.data(), found.get());
            break;
        }
      } catch (...) {
        bad = n;
      }
      const std::uint64_t t2 = NowNs();
      if (bad == 0 && op != KvOp::kPut) {
        bad = CountBadReads(op == KvOp::kGet ? gen.keys() : nullptr, gen.lo(), n,
                            out.data(), found.get(), writers);
      }
      attempted += n;
      failed += bad;
      ps.ops += n - bad;
      ++ps.requests;
      ps.latency.Record(t2 - t1);
      if (tr != nullptr) {
        tr->Record(request, call, t0, t1, t2, NowNs());
      }
      ++request;
    });
    failed_[static_cast<std::size_t>(tid)] = failed;
    attempted_[static_cast<std::size_t>(tid)] = attempted;
  }

  // Quiescent audit after the clients joined: every key is present, holds a
  // value of its own, and that value's nonce was really issued.
  void Audit(int threads, std::uint64_t* attempted, std::uint64_t* failed) {
    std::vector<std::uint64_t> issued;
    for (const auto& g : gens_) {
      issued.push_back(g->issued());
    }
    std::vector<std::uint64_t> bad(static_cast<std::size_t>(threads), 0);
    Parallel(threads, [&](int t) {
      std::vector<std::uint64_t> keys(kAuditBatch), out(kAuditBatch);
      std::unique_ptr<bool[]> found(new bool[kAuditBatch]);
      const std::uint64_t lo = spec_.keys * static_cast<std::uint64_t>(t) /
                               static_cast<std::uint64_t>(threads);
      const std::uint64_t hi = spec_.keys * static_cast<std::uint64_t>(t + 1) /
                               static_cast<std::uint64_t>(threads);
      for (std::uint64_t base = lo; base < hi; base += kAuditBatch) {
        std::size_t n = 0;
        for (; n < kAuditBatch && base + n < hi; ++n) {
          keys[n] = base + n;
          found[n] = false;
        }
        store_->BatchGet(keys.data(), n, out.data(), found.get());
        for (std::size_t i = 0; i < n; ++i) {
          bad[static_cast<std::size_t>(t)] +=
              AuditValue(keys[i], found[i], out[i], issued) ? 0 : 1;
        }
      }
    });
    *attempted = spec_.keys;
    *failed = 0;
    for (std::uint64_t b : bad) {
      *failed += b;
    }
    for (std::size_t t = 0; t < failed_.size(); ++t) {
      *attempted += attempted_[t];
      *failed += failed_[t];
    }
  }

  static bool AuditValue(std::uint64_t key, bool found, std::uint64_t v,
                         const std::vector<std::uint64_t>& issued) {
    if (!PlausibleValue(key, found, v, issued.size())) {
      return false;
    }
    const std::uint64_t w = ValueWriter(v);
    return w == 0 || (ValueSeq(v) >= 1 && ValueSeq(v) <= issued[w - 1]);
  }

  Store& store() { return *store_; }
  KvRequestGen& gen(int tid) { return *gens_[static_cast<std::size_t>(tid)]; }

 private:
  template <typename Fn>
  static void Parallel(int threads, Fn fn) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(fn, t);
    }
    for (std::thread& th : pool) {
      th.join();
    }
  }

  KvSpec spec_;
  std::unique_ptr<Store> store_;
  std::vector<std::unique_ptr<KvRequestGen>> gens_;
  std::vector<std::uint64_t> failed_;
  std::vector<std::uint64_t> attempted_;
};

}  // namespace stmbench

#endif  // STMBENCH_KV_H_
