// Micro-op suite over the engine primitives: per-operation throughput of single
// reads/CAS, short RO/RW transactions and full transactions for each meta-data
// layout. Complements fig5_single_thread (which reproduces the paper's exact
// normalization).
//
// Runs on the in-tree runner.h throughput loop — no external benchmark library —
// so it always builds, honors the SPECTM_BENCH_* knobs, and can emit through the
// standard JSON pipeline (--json <path> / SPECTM_BENCH_JSON; no JSON by default).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/benchsupport/runner.h"
#include "src/benchsupport/table.h"
#include "src/common/cacheline.h"
#include "src/common/rng.h"
#include "src/tm/config.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::uint32_t kArraySize = 1024;

template <typename Family>
struct Fixture {
  std::vector<CacheAligned<typename Family::Slot>> slots{kArraySize};
  Fixture() {
    for (std::uint32_t i = 0; i < kArraySize; ++i) {
      Family::RawWrite(&slots[i].value, EncodeInt(i + 1));
    }
  }
  typename Family::Slot* At(std::uint32_t i) { return &slots[i % kArraySize].value; }
};

// Keeps a result from being optimized away without google-benchmark's helper.
inline void Consume(Word v) { asm volatile("" : : "r"(v) : "memory"); }

// Measures `op(fixture, rng)` single-threaded through the runner.h loop and
// returns ops/sec aggregated with the paper statistic.
template <typename Family, typename Op>
double MeasureOp(const Op& op) {
  const int runs = BenchRuns(3);
  const int duration_ms = BenchDurationMs(100);
  std::vector<double> samples;
  for (int run = 0; run < runs; ++run) {
    Fixture<Family> fixture;
    const ThroughputResult r = RunThroughput(
        /*threads=*/1, duration_ms, [&](int /*tid*/, const std::atomic<bool>& stop) {
          Xorshift128Plus rng(0x5eed + static_cast<std::uint64_t>(run));
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            op(fixture, rng);
            ++ops;
          }
          return ops;
        });
    samples.push_back(r.ops_per_sec);
  }
  return AggregateRuns(std::move(samples));
}

template <typename Family>
void SingleReadOp(Fixture<Family>& f, Xorshift128Plus& rng) {
  Consume(Family::SingleRead(f.At(static_cast<std::uint32_t>(rng.Next()))));
}

template <typename Family>
void SingleCasOp(Fixture<Family>& f, Xorshift128Plus& rng) {
  auto* slot = f.At(static_cast<std::uint32_t>(rng.Next()));
  const Word v = Family::SingleRead(slot);
  Consume(Family::SingleCas(slot, v, v));
}

template <typename Family>
void ShortRw2Op(Fixture<Family>& f, Xorshift128Plus& rng) {
  const auto base = static_cast<std::uint32_t>(rng.Next());
  typename Family::ShortTx t;
  const Word a = t.ReadRw(f.At(base));
  const Word b = t.ReadRw(f.At(base + 1));
  t.CommitRw({a, b});
}

template <typename Family>
void ShortRo2Op(Fixture<Family>& f, Xorshift128Plus& rng) {
  const auto base = static_cast<std::uint32_t>(rng.Next());
  typename Family::ShortTx t;
  Consume(t.ReadRo(f.At(base)));
  Consume(t.ReadRo(f.At(base + 1)));
  Consume(t.ValidateRo() ? 1 : 0);
}

template <typename Family>
void FullRw2Op(Fixture<Family>& f, Xorshift128Plus& rng) {
  const auto base = static_cast<std::uint32_t>(rng.Next());
  typename Family::FullTx tx;
  do {
    tx.Start();
    const Word a = tx.Read(f.At(base));
    const Word b = tx.Read(f.At(base + 1));
    tx.Write(f.At(base), a);
    tx.Write(f.At(base + 1), b);
  } while (!tx.Commit());
}

struct Cell {
  std::string family;
  std::string op;
  double ops_per_sec;
};

template <typename Family>
void MeasureFamily(const char* name, bool short_api, std::vector<Cell>& out) {
  out.push_back({name, "single-read", MeasureOp<Family>(SingleReadOp<Family>)});
  out.push_back({name, "single-cas", MeasureOp<Family>(SingleCasOp<Family>)});
  if (short_api) {
    out.push_back({name, "short-rw2", MeasureOp<Family>(ShortRw2Op<Family>)});
    out.push_back({name, "short-ro2", MeasureOp<Family>(ShortRo2Op<Family>)});
  }
  out.push_back({name, "full-rw2", MeasureOp<Family>(FullRw2Op<Family>)});
}

bool Run(const std::string& json_path) {
  std::vector<Cell> cells;
  MeasureFamily<OrecG>("orec-g", /*short_api=*/true, cells);
  MeasureFamily<OrecL>("orec-l", /*short_api=*/true, cells);
  MeasureFamily<TvarG>("tvar-g", /*short_api=*/true, cells);
  MeasureFamily<TvarL>("tvar-l", /*short_api=*/true, cells);
  MeasureFamily<Val>("val", /*short_api=*/true, cells);
  MeasureFamily<ValAdaptive>("val-adaptive", /*short_api=*/true, cells);
  MeasureFamily<OrecLAdaptive>("orec-l-adaptive", /*short_api=*/true, cells);

  std::printf("\nMicro-op throughput, single thread (Mops/s)\n");
  TextTable table({"family", "single-read", "single-cas", "short-rw2", "short-ro2",
                   "full-rw2"});
  JsonReport report("micro_ops");
  std::string current;
  std::vector<std::string> row;
  auto flush_row = [&] {
    if (!row.empty()) {
      row.resize(6);
      table.AddRow(row);
      row.clear();
    }
  };
  for (const Cell& c : cells) {
    if (c.family != current) {
      flush_row();
      current = c.family;
      row = {c.family, "", "", "", "", ""};
    }
    const std::size_t col = c.op == "single-read"   ? 1
                            : c.op == "single-cas"  ? 2
                            : c.op == "short-rw2"   ? 3
                            : c.op == "short-ro2"   ? 4
                                                    : 5;
    row[col] = TextTable::Num(c.ops_per_sec / 1e6, 3);

    BenchRecord r;
    r.variant = c.family;
    r.clock = "-";
    r.workload = c.op;
    r.threads = 1;
    r.ops_per_sec = c.ops_per_sec;
    report.Add(r);
  }
  flush_row();
  std::fputs(table.ToString().c_str(), stdout);

  return json_path.empty() || report.WriteFile(json_path);
}

}  // namespace
}  // namespace spectm

int main(int argc, char** argv) {
  // No JSON by default; pass --json (or SPECTM_BENCH_JSON) to emit the
  // per-primitive rows (BENCH_micro_ops.json is the committed baseline).
  const std::string json_path = spectm::JsonPathFromArgs(argc, argv, "");
  return spectm::Run(json_path) ? 0 : 1;
}
