// Result reporting for the benchmark binaries: an aligned text-table printer (each
// figure bench prints the same series the paper plots) and a machine-readable JSON
// emitter so runs are comparable across commits (BENCH_*.json trajectory files).
#ifndef SPECTM_BENCHSUPPORT_TABLE_H_
#define SPECTM_BENCHSUPPORT_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spectm {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);

  // Renders with per-column alignment and a separator under the header.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// One measurement cell of a benchmark, as written to the JSON report. See
// bench/README.md for the on-disk schema. The strategy/workload/probe fields are
// optional extensions (bench/abl_adaptive_val); they are omitted from the JSON
// when unset so earlier benches' files are byte-stable.
struct BenchRecord {
  std::string variant;        // TM family under test, e.g. "orec-short"
  std::string clock;          // clock policy, e.g. "gv4" / "naive" / "local"
  int threads = 0;            // worker thread count
  int lookup_pct = -1;        // workload mix; -1 when not applicable
  double ops_per_sec = 0.0;   // aggregated throughput (paper statistic)
  double abort_rate = 0.0;    // aborts / (commits + aborts) over the whole cell
  std::uint64_t commits = 0;  // total committed transactions over the cell's runs
  std::uint64_t aborts = 0;   // total aborted transactions over the cell's runs
  double duration_s = 0.0;    // total measured wall time across the cell's runs

  std::string workload;   // e.g. "read-heavy" / "write-heavy" / "phase-shift"
  std::string strategy;   // validation strategy, e.g. "counter-skip"
  bool has_probes = false;              // when true, the probe fields are emitted
  std::uint64_t counter_skips = 0;      // ValProbe: walks avoided by stable counter
  std::uint64_t validation_walks = 0;   // ValProbe: full read-set walks

  // Metadata-layout sweep extensions (bench/abl_readset_layout): emitted only
  // when has_layout is set, so every earlier BENCH_*.json stays byte-stable.
  bool has_layout = false;
  std::string layout;        // orec-table indexing: "hashed" / "striped"
  std::string simd;          // validation body the cell ran: "simd" / "scalar"
  int chain_len = 0;         // expected hash-chain length (0 when n/a)
  int scan_width = 0;        // btree range-scan width (0 when n/a)
  std::uint64_t simd_batches = 0;       // ValProbe: 4-entry gather iterations
  std::uint64_t scalar_checks = 0;      // ValProbe: scalar-path entry checks
  std::uint64_t wset_bloom_misses = 0;  // WriteSet: lookups killed by the bloom

  // Partitioned-NOrec extensions (abl_readset_layout scan rows): emitted only
  // when has_stripes is set, so earlier BENCH_*.json files stay byte-stable.
  bool has_stripes = false;
  std::uint64_t stripe_skips = 0;       // ValProbe: walks avoided by stable stripes
  std::uint64_t stripe_bumps = 0;       // ValProbe: writer-side stripe-counter bumps
  std::uint64_t cross_stripe_walks = 0; // ValProbe: kStripe walks no skip absorbed

  // Contention-manager extensions (abl_adaptive_val pathological section):
  // emitted only when has_cm is set, so earlier BENCH_*.json stay byte-stable.
  bool has_cm = false;
  std::uint64_t escalations = 0;       // CmProbe: serial-mode entries
  std::uint64_t serial_commits = 0;    // CmProbe: commits under the token
  std::uint64_t max_abort_streak = 0;  // worst consecutive-abort streak in cell
  std::uint64_t backoff_spins = 0;     // CmProbe: phase-1 spins actually waited

  // Health-watchdog extensions (SPECTM_HEALTH builds of the pathological
  // section): emitted only when has_health is set, so every BENCH_*.json
  // produced by a watchdog-less build stays byte-stable.
  bool has_health = false;
  std::uint64_t health_samples = 0;         // HealthProbe: windows closed
  std::uint64_t health_storms = 0;          // HealthProbe: abort-storm windows
  std::uint64_t degrade_enters = 0;         // HealthProbe: entries into degraded mode
  std::uint64_t degrade_exits = 0;          // HealthProbe: hysteretic recoveries
  std::uint64_t throttled_escalations = 0;  // HealthProbe: escalations declined

  // Scheduler-exploration extensions (SPECTM_SCHED runs reporting systematic
  // interleaving coverage): emitted only when has_sched is set, so every
  // BENCH_*.json produced by a scheduler-less build stays byte-stable.
  bool has_sched = false;
  std::uint64_t explored_schedules = 0;  // Explorer: schedules executed
  std::uint64_t preemption_bound = 0;    // Explorer: bound the walk ran under
  std::uint64_t canary_found = 0;        // planted-bug schedules surfaced

  // MVCC snapshot extensions (abl_readset_layout snapshot rows): emitted only
  // when has_mvcc is set, so every BENCH_*.json from a pre-MVCC build stays
  // byte-stable.
  bool has_mvcc = false;
  std::uint64_t snapshot_reads = 0;    // ValProbe: chain reads by pinned RO txs
  std::uint64_t version_hops = 0;      // ValProbe: nodes traversed past the head
  std::uint64_t versions_retired = 0;  // ValProbe: nodes unlinked by chain trims
  std::uint64_t chain_splices = 0;     // ValProbe: chain truncation operations
  std::uint64_t snapshot_probe_aborts = 0;  // aborts in the deterministic
                                            // pinned-scan probe pass (must be 0)

  // KV-service extensions (bench/svc_kv batch-request rows): emitted only when
  // has_svc is set, so every BENCH_*.json from a pre-service build stays
  // byte-stable.
  bool has_svc = false;
  int batch_size = 0;            // keys per batch transaction
  double zipf_theta = 0.0;       // hot-key skew of the request stream
  std::uint64_t batches = 0;     // batch transactions attempted (commits+aborts)
  double descriptors_per_op = 0.0;  // attempts / keys touched; < 1 = amortized
  std::uint64_t p50 = 0;         // batch latency percentiles, cycle units
  std::uint64_t p99 = 0;         // (LatencyHistogram bucket upper bounds)
  std::uint64_t p999 = 0;
};

// Collects BenchRecords and renders them as a JSON document:
//   {"schema_version":1, "bench":"<name>", "results":[{...}, ...]}
// Writing is atomic enough for CI artifact collection (temp file + rename is
// overkill for single-writer benches; a plain truncate-write suffices).
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name);

  void Add(BenchRecord record);

  bool Empty() const { return records_.empty(); }
  const std::string& bench_name() const { return bench_name_; }

  std::string ToJson() const;

  // Writes ToJson() to `path`; returns false (and prints to stderr) on I/O failure.
  bool WriteFile(const std::string& path) const;

  // JSON string escaping (quotes, backslashes, control characters).
  static std::string Escape(const std::string& s);

 private:
  std::string bench_name_;
  std::vector<BenchRecord> records_;
};

}  // namespace spectm

#endif  // SPECTM_BENCHSUPPORT_TABLE_H_
