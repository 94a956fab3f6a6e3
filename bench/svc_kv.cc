// Transactional KV service scenario: batched requests over the sharded
// embedding-table store (src/svc), Zipfian hot-key skew, per-batch latency
// percentiles — writes BENCH_svc_kv.json.
//
// Timed section: (engine family x batch size x zipf theta) cells running the
// seeded request loop (70/20/10 get/put/scan) with every batch one
// transaction; rows carry ops/s (keys touched), abort rate at BATCH
// granularity, descriptors_per_op (attempts / keys — the amortization
// statistic, < 1 by construction), and p50/p99/p999 batch latency in rdtsc
// cycles from the fixed-bucket log-scale histogram (svc/latency.h), merged
// across worker-thread histograms.
//
// Deterministic probe section (single-threaded, thread-local ValProbe/TxStats
// deltas — the abl_readset_layout idiom at service granularity):
//   * amortization rows per family: exactly one descriptor activation per
//     batch (attempts == batches, descriptors_per_op == 1/batch_size);
//   * a region-local stripe row (svc-val): a one-shard batch under
//     cross-stripe churn — stripe_skips > 0 with zero validation walks, the
//     partitioned counter absorbing a realistic service batch;
//   * a wide-batch SIMD row (orec-l, KvStore<OrecL>): the
//     local-clock engine's per-read revalidation over a 64-key batch log
//     reaching the 4-entry gather kernel (simd_batches > 0 where the ISA has
//     it). SvcOrec runs on the global clock, whose solo batches never walk;
//   * a snapshot row (svc-snapshot): a read-only batch pinned across mid-batch
//     churn — snapshot_reads > 0, version_hops > 0, validation_walks == 0,
//     and snapshot_probe_aborts == 0 (the acceptance columns).
//
// Cite a throughput cell only from a run with threads <= cores and >= 5 runs
// (bench/README.md).
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/set_bench.h"
#include "src/benchsupport/runner.h"
#include "src/benchsupport/table.h"
#include "src/svc/driver.h"
#include "src/svc/kv_store.h"
#include "src/svc/latency.h"
#include "src/tm/txdesc.h"
#include "src/tm/validate_batch.h"
#include "src/tm/valstrategy.h"
#include "src/tm/variants.h"

namespace spectm {
namespace {

constexpr std::uint64_t kKeySpace = 1ULL << 14;
constexpr std::size_t kBatchSizes[] = {8, 64};
constexpr double kThetas[] = {0.5, 0.99};
constexpr int kGetPct = 70;
constexpr int kPutPct = 20;

int ThreadCount() {
  const std::vector<int> sweep = bench::ThreadSweep();
  return sweep.back();
}

// The `clock` label of a family's rows: its clock policy's name, or "none"
// for the val families, which validate by value and keep no version clock.
template <typename Family, typename = void>
struct ClockLabel {
  static constexpr const char* kName = "none";
};
template <typename Family>
struct ClockLabel<Family, std::void_t<typename Family::Clock>> {
  static constexpr const char* kName = Family::Clock::kName;
};

template <typename Family>
void RunServiceCell(JsonReport& report, TextTable& table, const char* variant,
                    const char* strategy, std::size_t batch_size, double theta,
                    int threads) {
  svc::KvStore<Family> store;
  {
    svc::DriverConfig fill;
    fill.key_space = kKeySpace;
    fill.batch_size = 256;
    svc::RequestDriver<Family> prefill(store, fill);
    prefill.Prefill();
  }

  std::vector<double> samples;
  std::uint64_t commits = 0, aborts = 0, total_keys = 0;
  double duration_s = 0.0;
  svc::LatencyHistogram merged;
  for (int run = 0; run < BenchRuns(); ++run) {
    std::vector<svc::LatencyHistogram> hists(static_cast<std::size_t>(threads));
    const TxStatsRegistry::Totals before = TxStatsRegistry::Snapshot();
    const ThroughputResult r = RunThroughput(
        threads, BenchDurationMs(),
        [&store, &hists, batch_size, theta, run](int tid,
                                                 const std::atomic<bool>& stop) {
          svc::DriverConfig cfg;
          cfg.key_space = kKeySpace;
          cfg.zipf_theta = theta;
          cfg.batch_size = batch_size;
          cfg.get_pct = kGetPct;
          cfg.put_pct = kPutPct;
          cfg.seed = 0xc0ffee ^ (static_cast<std::uint64_t>(run) << 32) ^
                     (static_cast<std::uint64_t>(tid) * 1000003ULL);
          svc::RequestDriver<Family> driver(store, cfg);
          svc::LatencyHistogram& hist = hists[static_cast<std::size_t>(tid)];
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            ops += driver.Step(&hist, &svc::CycleNow);
          }
          return ops;
        });
    const TxStatsRegistry::Totals after = TxStatsRegistry::Snapshot();
    samples.push_back(r.ops_per_sec);
    commits += after.commits - before.commits;
    aborts += after.aborts - before.aborts;
    total_keys += r.total_ops;
    duration_s += r.duration_s;
    for (const svc::LatencyHistogram& h : hists) {
      merged.Merge(h);
    }
  }

  const std::uint64_t attempts = commits + aborts;
  BenchRecord r;
  r.variant = variant;
  r.clock = ClockLabel<Family>::kName;
  r.workload = "kv-batch";
  r.strategy = strategy;
  r.threads = threads;
  r.lookup_pct = kGetPct;
  r.ops_per_sec = AggregateRuns(samples);
  r.abort_rate = attempts == 0 ? 0.0
                               : static_cast<double>(aborts) /
                                     static_cast<double>(attempts);
  r.commits = commits;
  r.aborts = aborts;
  r.duration_s = duration_s;
  r.has_svc = true;
  r.batch_size = static_cast<int>(batch_size);
  r.zipf_theta = theta;
  r.batches = attempts;
  r.descriptors_per_op = total_keys == 0
                             ? 0.0
                             : static_cast<double>(attempts) /
                                   static_cast<double>(total_keys);
  r.p50 = merged.P50();
  r.p99 = merged.P99();
  r.p999 = merged.P999();
  report.Add(r);

  table.AddRow({std::string(variant) + "/" + strategy,
                std::to_string(batch_size), TextTable::Num(theta, 2),
                TextTable::Num(r.ops_per_sec / 1e6, 3),
                TextTable::Num(r.abort_rate * 100.0, 2),
                TextTable::Num(r.descriptors_per_op, 4),
                std::to_string(r.p50), std::to_string(r.p99),
                std::to_string(r.p999)});
}

// Amortization probe: single-threaded, exact — attempts delta over M batches
// of size B must be exactly M, with real per-batch cycle latencies.
template <typename Family>
void RunAmortizationProbe(JsonReport& report, TextTable& table,
                          const char* variant, const char* strategy) {
  constexpr std::size_t kBatch = 32;
  constexpr std::uint64_t kBatches = 64;
  svc::KvStore<Family> store;
  std::uint64_t keys[kBatch], vals[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    keys[i] = i * 3;
    vals[i] = i + 1;
  }
  store.BatchPut(keys, vals, kBatch);

  TxStats& stats = DescOf<typename Family::DomainTag>().stats;
  svc::LatencyHistogram hist;
  const std::uint64_t commits_before = stats.commits.load(std::memory_order_relaxed);
  const std::uint64_t aborts_before = stats.aborts.load(std::memory_order_relaxed);
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = svc::CycleNow();
    store.BatchUpdate(keys, kBatch,
                      [](std::size_t, std::uint64_t old_v, bool) { return old_v + 1; });
    hist.Record(svc::CycleNow() - t0);
  }
  const std::uint64_t attempts =
      stats.commits.load(std::memory_order_relaxed) - commits_before +
      stats.aborts.load(std::memory_order_relaxed) - aborts_before;

  BenchRecord r;
  r.variant = variant;
  r.clock = ClockLabel<Family>::kName;
  r.workload = "amortization-probe";
  r.strategy = strategy;
  r.threads = 1;
  r.lookup_pct = 0;
  r.commits = attempts;
  r.has_svc = true;
  r.batch_size = static_cast<int>(kBatch);
  r.batches = attempts;
  r.descriptors_per_op =
      static_cast<double>(attempts) / static_cast<double>(kBatches * kBatch);
  r.p50 = hist.P50();
  r.p99 = hist.P99();
  r.p999 = hist.P999();
  report.Add(r);
  table.AddRow({std::string(variant) + "/" + strategy, std::to_string(kBatch),
                std::to_string(kBatches), std::to_string(attempts),
                TextTable::Num(r.descriptors_per_op, 4), std::to_string(r.p50),
                std::to_string(r.p99)});
}

// Region-local stripe probe (svc-val): a batch confined to one shard's pages
// under cross-stripe churn — the partitioned counter absorbs every would-be
// walk (stripe_skips > 0, validation_walks == 0).
void RunStripeProbe(JsonReport& report, TextTable& table) {
  using F = SvcVal;
  using Probe = F::Full::Probe;
  svc::KvStore<F> store;
  std::vector<std::uint64_t> all(1024), vals(1024);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    all[k] = k;
    vals[k] = k + 1;
  }
  store.BatchPut(all.data(), vals.data(), all.size());

  std::vector<std::uint64_t> local;
  for (std::uint64_t k = 0; k < 1024 && local.size() < 32; ++k) {
    if (store.ShardOf(k) == 0) {
      local.push_back(k);
    }
  }
  std::size_t churn_shard = 0;
  for (std::size_t s = 0; s < store.shards(); ++s) {
    if (svc::KvStore<F>::StripeOfShard(s) != svc::KvStore<F>::StripeOfShard(0)) {
      churn_shard = s;
      break;
    }
  }
  F::Slot* churn = store.StripeProbeSlot(churn_shard);
  F::SingleWrite(churn, EncodeInt(1));

  const Probe::Counters before = Probe::Get();
  std::vector<std::uint64_t> out(local.size());
  store.BatchGet(local.data(), local.size(), out.data(), nullptr,
                 [&](std::size_t i) {
                   if (i % 4 == 3) {
                     F::SingleWrite(churn, EncodeInt(2 + i));
                   }
                 });
  const Probe::Counters after = Probe::Get();

  BenchRecord r;
  r.variant = "svc-val";
  r.clock = ClockLabel<F>::kName;
  r.workload = "region-local-probe";
  r.strategy = "partitioned";
  r.threads = 1;
  r.lookup_pct = 100;
  r.has_probes = true;
  r.counter_skips = after.counter_skips - before.counter_skips;
  r.validation_walks = after.validation_walks - before.validation_walks;
  r.has_stripes = true;
  r.stripe_skips = after.stripe_skips - before.stripe_skips;
  r.stripe_bumps = after.stripe_bumps - before.stripe_bumps;
  r.cross_stripe_walks = after.cross_stripe_walks - before.cross_stripe_walks;
  r.has_svc = true;
  r.batch_size = static_cast<int>(local.size());
  r.batches = 1;
  r.descriptors_per_op = 1.0 / static_cast<double>(local.size());
  report.Add(r);
  table.AddRow({"svc-val/region-local", std::to_string(local.size()),
                std::to_string(r.stripe_skips), std::to_string(r.stripe_bumps),
                std::to_string(r.cross_stripe_walks),
                std::to_string(r.validation_walks)});
}

// Wide-batch SIMD probe (orec-l): the local-clock engine revalidates
// the growing read log on every read, so a 64-key batch drives the gathered
// batch kernel. Named explicitly: SvcOrec's global clock never walks here.
void RunSimdProbe(JsonReport& report, TextTable& table) {
  using F = OrecL;
  using Probe = F::Full::Probe;
  svc::KvStore<F> store;
  constexpr std::size_t kWide = 64;
  std::uint64_t keys[kWide], vals[kWide], out[kWide];
  for (std::size_t i = 0; i < kWide; ++i) {
    keys[i] = i * 7;
    vals[i] = i;
  }
  store.BatchPut(keys, vals, kWide);

  SetSimdEnabled(SimdAvailable());
  const Probe::Counters before = Probe::Get();
  store.BatchGet(keys, kWide, out, nullptr);
  const Probe::Counters after = Probe::Get();

  BenchRecord r;
  r.variant = "orec-l";
  r.clock = ClockLabel<F>::kName;
  r.workload = "wide-batch-probe";
  r.strategy = "baseline";
  r.threads = 1;
  r.lookup_pct = 100;
  r.has_layout = true;
  r.layout = "hashed";
  r.simd = SimdAvailable() ? "simd" : "scalar";
  r.simd_batches = after.simd_batches - before.simd_batches;
  r.scalar_checks = after.scalar_checks - before.scalar_checks;
  r.has_svc = true;
  r.batch_size = static_cast<int>(kWide);
  r.batches = 1;
  r.descriptors_per_op = 1.0 / static_cast<double>(kWide);
  report.Add(r);
  table.AddRow({"orec-l/wide-batch", std::to_string(kWide), r.simd,
                std::to_string(r.simd_batches), std::to_string(r.scalar_checks)});
}

// Snapshot probe (svc-snapshot): a read-only batch pinned across mid-batch
// churn — served off the version chains, never walking, never aborting.
void RunSnapshotProbe(JsonReport& report, TextTable& table) {
  using F = SvcSnapshot;
  using Probe = F::Full::Probe;
  svc::KvStore<F> store;
  constexpr std::size_t kBatch = 32;
  std::uint64_t keys[kBatch], vals[kBatch], out[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    keys[i] = i * 5;
    vals[i] = 1000 + i;
  }
  store.BatchPut(keys, vals, kBatch);
  F::Slot* victim = store.DebugValueSlotOf(keys[kBatch - 1]);

  TxStats& stats = DescOf<F::DomainTag>().stats;
  const std::uint64_t aborts_before = stats.aborts.load(std::memory_order_relaxed);
  const Probe::Counters before = Probe::Get();
  store.BatchGet(keys, kBatch, out, nullptr, [&](std::size_t i) {
    if (i % 8 == 1 && victim != nullptr) {
      // Overwrites a key the pinned batch reads LAST: served past the head.
      F::SingleWrite(victim, EncodeInt(90000 + i));
    }
  });
  const Probe::Counters after = Probe::Get();

  BenchRecord r;
  r.variant = "svc-snapshot";
  r.clock = ClockLabel<F>::kName;
  r.workload = "snapshot-probe";
  r.strategy = "snapshot";
  r.threads = 1;
  r.lookup_pct = 100;
  r.has_probes = true;
  r.validation_walks = after.validation_walks - before.validation_walks;
  r.has_mvcc = true;
  r.snapshot_reads = after.snapshot_reads - before.snapshot_reads;
  r.version_hops = after.version_hops - before.version_hops;
  r.versions_retired = after.versions_retired - before.versions_retired;
  r.chain_splices = after.chain_splices - before.chain_splices;
  r.snapshot_probe_aborts =
      stats.aborts.load(std::memory_order_relaxed) - aborts_before;
  r.has_svc = true;
  r.batch_size = static_cast<int>(kBatch);
  r.batches = 1;
  r.descriptors_per_op = 1.0 / static_cast<double>(kBatch);
  report.Add(r);
  table.AddRow({"svc-snapshot/pinned", std::to_string(kBatch),
                std::to_string(r.snapshot_reads), std::to_string(r.version_hops),
                std::to_string(r.validation_walks),
                std::to_string(r.snapshot_probe_aborts)});
}

bool Run(const std::string& json_path) {
  const int threads = ThreadCount();
  JsonReport report("svc_kv");

  std::printf("\nKV service scenario — %llu keys, %d/%d/%d get/put/scan, "
              "%d threads, one transaction per batch\n",
              static_cast<unsigned long long>(kKeySpace), kGetPct, kPutPct,
              100 - kGetPct - kPutPct, threads);
  TextTable timed({"family/strategy", "batch", "theta", "Mkeys/s", "abort%",
                   "desc/op", "p50cyc", "p99cyc", "p999cyc"});
  for (const std::size_t batch : kBatchSizes) {
    for (const double theta : kThetas) {
      RunServiceCell<SvcOrec>(report, timed, "svc-orec", "baseline", batch,
                              theta, threads);
      RunServiceCell<SvcVal>(report, timed, "svc-val", "partitioned", batch,
                             theta, threads);
      RunServiceCell<SvcSnapshot>(report, timed, "svc-snapshot", "snapshot",
                                  batch, theta, threads);
    }
  }
  std::fputs(timed.ToString().c_str(), stdout);

  std::printf("\ndeterministic probe rows — single-threaded, thread-local deltas\n");
  TextTable amort({"family/strategy", "batch", "batches", "attempts", "desc/op",
                   "p50cyc", "p99cyc"});
  RunAmortizationProbe<SvcOrec>(report, amort, "svc-orec", "baseline");
  RunAmortizationProbe<SvcVal>(report, amort, "svc-val", "partitioned");
  RunAmortizationProbe<SvcSnapshot>(report, amort, "svc-snapshot", "snapshot");
  std::fputs(amort.ToString().c_str(), stdout);

  TextTable stripes({"probe", "batch", "stripe-skips", "stripe-bumps",
                     "x-stripe-walks", "walks"});
  RunStripeProbe(report, stripes);
  std::fputs(stripes.ToString().c_str(), stdout);

  TextTable simd({"probe", "batch", "body", "simd-batches", "scalar-checks"});
  RunSimdProbe(report, simd);
  std::fputs(simd.ToString().c_str(), stdout);

  TextTable snap({"probe", "batch", "snap-reads", "hops", "walks",
                  "probe-aborts"});
  RunSnapshotProbe(report, snap);
  std::fputs(snap.ToString().c_str(), stdout);

  SetSimdEnabled(SimdAvailable());
  return json_path.empty() || report.WriteFile(json_path);
}

}  // namespace
}  // namespace spectm

int main(int argc, char** argv) {
  const std::string json_path =
      spectm::JsonPathFromArgs(argc, argv, "BENCH_svc_kv.json");
  return spectm::Run(json_path) ? 0 : 1;
}
