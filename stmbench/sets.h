// Integer-set workloads (§4.4 of the paper): closed-loop clients issuing a
// seeded lookup/insert/remove mix against one of src/structures' sets.
//
// A concurrent lookup has no single right answer, so correctness is checked
// through conservation: every client counts the inserts and removes that
// reported success, and after the run the quiescent set must hold exactly
// prefill + inserts - removes keys. Each key of imbalance is a failed op.
#ifndef STMBENCH_SETS_H_
#define STMBENCH_SETS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "stmbench/harness.h"

namespace stmbench {

struct SetSpec {
  std::uint64_t key_range;  // keys in [0, key_range), half prefilled
  int lookup_pct;           // remainder split evenly between insert and remove
};

// Latency and trace sampling stride: a clock read costs a noticeable share of a
// sub-microsecond op, so only every kSampleStride-th op is timed.
inline constexpr std::uint64_t kSampleStride = 16;

enum class SetOp { kContains, kInsert, kRemove };

struct SetRequest {
  SetOp op;
  std::uint64_t key;
};

// One client's request stream: a pure function of (spec, seed).
class SetRequestGen {
 public:
  SetRequestGen(const SetSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

  SetRequest Next() {
    const std::uint32_t pct = rng_.NextPercent();
    const std::uint64_t key = rng_.NextBounded(spec_.key_range);
    if (pct < static_cast<std::uint32_t>(spec_.lookup_pct)) {
      return {SetOp::kContains, key};
    }
    return {(pct - static_cast<std::uint32_t>(spec_.lookup_pct)) % 2 == 0 ? SetOp::kInsert
                                                                          : SetOp::kRemove,
            key};
  }

 private:
  SetSpec spec_;
  spectm::Xorshift128Plus rng_;
};

// Keys present after a quiescent run must equal prefill + net successful
// updates; returns the imbalance (0 when the set is consistent).
inline std::uint64_t ConservationImbalance(std::uint64_t final_size, std::uint64_t prefill,
                                           std::int64_t net_inserts) {
  const std::int64_t expect = static_cast<std::int64_t>(prefill) + net_inserts;
  const std::int64_t got = static_cast<std::int64_t>(final_size);
  return static_cast<std::uint64_t>(got > expect ? got - expect : expect - got);
}

template <typename Set, typename Family>
class SetWorkload {
 public:
  using DomainTag = typename Family::DomainTag;

  SetWorkload(const SetSpec& spec, std::size_t buckets) : spec_(spec), buckets_(buckets) {}

  // Builds the set, inserts a seeded half of the key range, and builds one
  // request generator per client.
  void Setup(std::uint64_t seed, int clients) {
    set_ = MakeSet();
    spectm::Xorshift128Plus fill(seed ^ 0xf111ULL);
    prefill_ = 0;
    for (std::uint64_t k = 0; k < spec_.key_range; ++k) {
      if ((fill.Next() & 1) == 0 && set_->Insert(k)) {
        ++prefill_;
      }
    }
    gens_.clear();
    std::uint64_t s = seed;
    for (int t = 0; t < clients; ++t) {
      gens_.push_back(std::make_unique<SetRequestGen>(
          spec_, spectm::Xorshift128Plus::SplitMix64(&s)));
    }
    net_.assign(static_cast<std::size_t>(clients), 0);
    failed_.assign(static_cast<std::size_t>(clients), 0);
    attempted_.assign(static_cast<std::size_t>(clients), 0);
  }

  void Teardown() {
    gens_.clear();
    set_.reset();
  }

  void Client(int tid, const Schedule& sched, std::vector<WindowStats>& windows,
              SpanBuffer* trace) {
    SetRequestGen& gen = *gens_[static_cast<std::size_t>(tid)];
    std::int64_t net = 0;
    std::uint64_t failed = 0, attempted = 0, op_index = 0;
    RunClientWindows<DomainTag>(sched, windows, trace, [&](WindowStats& ps, SpanBuffer* tr) {
      const bool sampled = op_index % kSampleStride == 0;
      const std::uint64_t t0 = sampled && tr != nullptr ? NowNs() : 0;
      const SetRequest r = gen.Next();
      const std::uint64_t t1 = sampled ? NowNs() : 0;
      bool hit = false;
      bool threw = false;
      SpanName call = SpanName::kStructContains;
      try {
        switch (r.op) {
          case SetOp::kContains:
            hit = set_->Contains(r.key);
            break;
          case SetOp::kInsert:
            call = SpanName::kStructInsert;
            hit = set_->Insert(r.key);
            net += hit ? 1 : 0;
            break;
          case SetOp::kRemove:
            call = SpanName::kStructRemove;
            hit = set_->Remove(r.key);
            net -= hit ? 1 : 0;
            break;
        }
      } catch (...) {
        threw = true;
      }
      if (sampled) {
        const std::uint64_t t2 = NowNs();
        ps.latency.Record(t2 - t1);
        if (tr != nullptr) {
          tr->Record(op_index, call, t0, t1, t2, NowNs());
        }
      }
      ++attempted;
      failed += threw ? 1 : 0;
      ps.ops += threw ? 0 : 1;
      ++ps.requests;
      if (r.op != SetOp::kContains) {
        ++ps.updates;
        ps.update_hits += hit ? 1 : 0;
      }
      ++op_index;
    });
    net_[static_cast<std::size_t>(tid)] = net;
    failed_[static_cast<std::size_t>(tid)] = failed;
    attempted_[static_cast<std::size_t>(tid)] = attempted;
  }

  // Quiescent audit: counts the keys present and checks conservation.
  void Audit(int /*threads*/, std::uint64_t* attempted, std::uint64_t* failed) {
    std::uint64_t size = 0;
    for (std::uint64_t k = 0; k < spec_.key_range; ++k) {
      size += set_->Contains(k) ? 1 : 0;
    }
    std::int64_t net = 0;
    *attempted = 0;
    *failed = 0;
    for (std::size_t t = 0; t < net_.size(); ++t) {
      net += net_[t];
      *attempted += attempted_[t];
      *failed += failed_[t];
    }
    *failed += ConservationImbalance(size, prefill_, net);
  }

  Set& set() { return *set_; }
  SetRequestGen& gen(int tid) { return *gens_[static_cast<std::size_t>(tid)]; }

 private:
  std::unique_ptr<Set> MakeSet() {
    if constexpr (std::is_constructible_v<Set, std::size_t>) {
      return std::make_unique<Set>(buckets_);
    } else {
      return std::make_unique<Set>();
    }
  }

  SetSpec spec_;
  std::size_t buckets_;
  std::unique_ptr<Set> set_;
  std::uint64_t prefill_ = 0;
  std::vector<std::unique_ptr<SetRequestGen>> gens_;
  std::vector<std::int64_t> net_;
  std::vector<std::uint64_t> failed_;
  std::vector<std::uint64_t> attempted_;
};

}  // namespace stmbench

#endif  // STMBENCH_SETS_H_
