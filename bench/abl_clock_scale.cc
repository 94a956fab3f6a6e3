// Clock-policy scalability ablation: GV4 pass-on-failure (+ thread-local sample
// cache) vs GV5 (load-only commit stamps) vs GV6 (GV4/GV5 by abort rate) vs the
// naive fetch_add global clock vs per-orec local versions, swept over thread
// counts on the hash-table workload.
//
// The paper's §4.1 and Figures 7–9 identify the shared commit clock as the
// scalability limiter of the *-g variants; TL2's GV4 scheme removes the CAS-retry
// convoy (a failed clock advance adopts the racing timestamp) and the sample cache
// removes the shared-line load from the transaction-start path of threads that just
// committed. This bench quantifies both against the naive baseline, on a write-heavy
// mix (where the clock is hottest) and a read-heavy mix (where Sample() dominates).
//
// Output: the usual text table, plus a machine-readable JSON report (default
// BENCH_clock_scale.json, override with --json <path> or SPECTM_BENCH_JSON) —
// the first entry of this repo's BENCH_*.json perf trajectory.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/set_bench.h"
#include "src/structures/hash_tm_full.h"
#include "src/structures/hash_tm_short.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::size_t kBuckets = 16384;

struct Cell {
  std::string variant;  // "orec-short" / "orec-full"
  std::string clock;    // the family's Clock::kName
  bench::CellResult result;

  // Text-table column, keyed by engine and clock name: "short-gv4", ...
  std::string Column() const {
    return (variant == "orec-short" ? "short-" : "full-") + clock;
  }
};

template <typename Family>
Cell MeasureShort(const WorkloadConfig& cfg, int threads) {
  return Cell{"orec-short", Family::Clock::kName,
              bench::MeasureCellDetailed(
                  [] { return std::make_unique<SpecHashSet<Family>>(kBuckets); }, cfg,
                  threads)};
}

template <typename Family>
Cell MeasureFull(const WorkloadConfig& cfg, int threads) {
  return Cell{"orec-full", Family::Clock::kName,
              bench::MeasureCellDetailed(
                  [] { return std::make_unique<TmHashSet<Family>>(kBuckets); }, cfg,
                  threads)};
}

bool Run(const std::string& json_path) {
  const std::vector<int> threads = bench::ThreadSweep();
  JsonReport report("clock_scale");

  for (const int lookup_pct : {10, 90}) {
    WorkloadConfig cfg;
    cfg.key_range = 65536;
    cfg.lookup_pct = lookup_pct;

    std::vector<std::string> header{"threads"};
    std::vector<std::vector<std::string>> rows;
    for (const int t : threads) {
      const std::vector<Cell> cells = {
          MeasureShort<OrecG>(cfg, t),      MeasureShort<OrecGv5>(cfg, t),
          MeasureShort<OrecGv6>(cfg, t),    MeasureShort<OrecGNaive>(cfg, t),
          MeasureFull<OrecG>(cfg, t),       MeasureFull<OrecGv5>(cfg, t),
          MeasureFull<OrecGv6>(cfg, t),     MeasureFull<OrecGNaive>(cfg, t),
          MeasureFull<OrecL>(cfg, t)};

      std::vector<std::string> row{std::to_string(t)};
      double full_gv4_abort_rate = 0.0;
      for (const Cell& c : cells) {
        BenchRecord r;
        r.variant = c.variant;
        r.clock = c.clock;
        r.threads = t;
        r.lookup_pct = lookup_pct;
        r.ops_per_sec = c.result.ops_per_sec;
        r.abort_rate = c.result.abort_rate;
        r.commits = c.result.commits;
        r.aborts = c.result.aborts;
        r.duration_s = c.result.duration_s;
        report.Add(r);

        if (rows.empty()) {
          header.push_back(c.Column());
        }
        row.push_back(TextTable::Num(c.result.ops_per_sec / 1e6, 3));
        if (c.Column() == "full-gv4") {
          full_gv4_abort_rate = c.result.abort_rate;
        }
      }
      row.push_back(TextTable::Num(full_gv4_abort_rate * 100.0, 2));
      rows.push_back(std::move(row));
    }
    header.push_back("abort% (full-gv4)");

    std::printf("\nClock-policy scaling (hash table, %d%% lookups)\n", lookup_pct);
    TextTable table(std::move(header));
    for (std::vector<std::string>& row : rows) {
      table.AddRow(std::move(row));
    }
    std::printf("(Mops/s)\n%s", table.ToString().c_str());
  }

  return json_path.empty() || report.WriteFile(json_path);
}

}  // namespace
}  // namespace spectm

int main(int argc, char** argv) {
  const std::string json_path =
      spectm::JsonPathFromArgs(argc, argv, "BENCH_clock_scale.json");
  return spectm::Run(json_path) ? 0 : 1;
}
