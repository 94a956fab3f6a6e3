// stmbench: the standing end-to-end and per-layer benchmark of this repository.
//
//   stmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//   stmbench --self-test
//
// One invocation runs one workload in this process: it sets the structure up,
// starts one closed-loop client thread per core (at most 4), warms up,
// measures --seconds in windows of about a second, and audits the quiescent
// structure. Then it sets the structure up again and again for about two
// seconds; setup_s is the median of all set-ups. Throughput and latency
// percentiles are medians over the measured windows. With --trace 1 every
// second measured window is traced: the untraced and traced windows'
// throughputs give the tracing overhead, and the traced windows' spans and
// counters give the per-layer metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// stmbench/README.md documents every metric and workload.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/epoch/epoch.h"
#include "src/structures/hash_tm_short.h"
#include "src/structures/skip_tm_short.h"
#include "src/tm/variants.h"
#include "stmbench/harness.h"
#include "stmbench/kv.h"
#include "stmbench/sets.h"

namespace stmbench {
namespace {

constexpr int kMaxClients = 4;
constexpr double kWarmupSeconds = 0.5;
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 22;  // per client
constexpr std::size_t kTraceFileRequests = 2000;             // per client
// setup_s is the median of set-ups repeated for this long, and at least
// kMinSetups times: the sets set up in milliseconds and the KV stores in
// tenths of a second, so no fixed count suits both.
constexpr double kSetupSeconds = 2.0;
constexpr std::uint64_t kMinSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// End-to-end figures of one untraced measured window (latencies in ns; a
// negative percentile means the window had too few samples for it).
struct WindowFigures {
  double ops_per_s = 0.0;
  double p50_ns = -1.0;
  double p99_ns = -1.0;
  double p999_ns = -1.0;
  std::uint64_t samples = 0;
};

// Everything one run produced.
struct RunData {
  int clients = 0;
  std::vector<double> setup_s;
  double peak_rss_mib = 0.0;
  std::vector<WindowFigures> untraced;
  std::vector<double> traced_rate;   // ops/s of each traced window
  WindowStats traced;                // all traced windows together
  std::vector<std::unique_ptr<SpanBuffer>> traces;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t epoch_advances = 0;
  std::uint64_t epoch_freed = 0;
  std::uint64_t epoch_pending_end = 0;
};

int Clients() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<int>(kMaxClients, static_cast<int>(hw));
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Peak resident memory of this program: VmHWM, which exec resets. getrusage's
// ru_maxrss is not used because it keeps the peak of the process image before
// exec (the Python interpreter that started this program). -1 if unreadable.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1.0;
  }
  double kib = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib < 0.0 ? -1.0 : kib / 1024.0;
}

// Measured windows of about kWindowSeconds each covering `seconds`.
int WindowsFor(double seconds) {
  return std::max(1, static_cast<int>(seconds / kWindowSeconds + 0.5));
}

WindowFigures FiguresOf(const WindowStats& w, double seconds) {
  auto ns = [&](double p) {
    const std::optional<double> x = Percentile(w.latency, p);
    return x ? *x : -1.0;
  };
  return {static_cast<double>(w.ops) / seconds, ns(50.0), ns(99.0), ns(99.9),
          w.latency.Count()};
}

// Runs the clients on the set-up workload through warm-up and o.seconds of
// measured windows (every second one traced when o.trace), then audits and
// tears down. Results go into `d`.
template <typename W>
void Measure(W& w, const Options& o, RunData& d) {
  // A traced run needs at least one untraced and one traced window.
  const int windows = 1 + std::max(o.trace ? 2 : 1, WindowsFor(o.seconds));
  const double window_s = o.seconds / (windows - 1);
  Schedule sched;
  sched.trace = o.trace;
  std::vector<std::vector<WindowStats>> stats(static_cast<std::size_t>(d.clients),
                                              std::vector<WindowStats>(windows));
  for (int t = 0; t < d.clients && o.trace; ++t) {
    d.traces.push_back(std::make_unique<SpanBuffer>(kSpanCapacity));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < d.clients; ++t) {
    SpanBuffer* trace = o.trace ? d.traces[static_cast<std::size_t>(t)].get() : nullptr;
    threads.emplace_back([&w, &sched, &stats, trace, t] {
      w.Client(t, sched, stats[static_cast<std::size_t>(t)], trace);
    });
  }
  // Epoch counters at the start of every window and at the stop.
  spectm::EpochManager& epoch = spectm::GlobalEpochManager();
  std::vector<std::uint64_t> epochs(static_cast<std::size_t>(windows) + 1, 0);
  std::vector<std::uint64_t> freed(static_cast<std::size_t>(windows) + 1, 0);
  std::vector<double> durations(static_cast<std::size_t>(windows), 0.0);
  SleepSeconds(kWarmupSeconds);
  std::uint64_t t0 = NowNs();
  for (int i = 1; i <= windows; ++i) {
    epochs[static_cast<std::size_t>(i)] = epoch.GlobalEpoch();
    freed[static_cast<std::size_t>(i)] = epoch.FreedCount();
    if (i == windows) {
      break;
    }
    sched.window.store(i, std::memory_order_release);
    SleepSeconds(window_s);
    const std::uint64_t t1 = NowNs();
    durations[static_cast<std::size_t>(i)] = Seconds(t1 - t0);
    t0 = t1;
  }
  sched.window.store(kStop, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }
  d.epoch_pending_end = epoch.PendingCount();
  for (int i = 1; i < windows; ++i) {
    const auto u = static_cast<std::size_t>(i);
    WindowStats merged;
    for (const std::vector<WindowStats>& client : stats) {
      merged.Merge(client[u]);
    }
    if (!sched.Traced(i)) {
      d.untraced.push_back(FiguresOf(merged, durations[u]));
      continue;
    }
    d.traced_rate.push_back(static_cast<double>(merged.ops) / durations[u]);
    d.traced.Merge(merged);
    d.epoch_advances += epochs[u + 1] - epochs[u];
    d.epoch_freed += freed[u + 1] - freed[u];
  }
  std::uint64_t attempted = 0, failed = 0;
  w.Audit(d.clients, &attempted, &failed);
  d.attempted += attempted;
  d.failed += failed;
  w.Teardown();
}

// Sets the workload up with seed o.seed and measures it; the peak resident
// memory covers that one set-up and its run. Then times more set-ups, seeds
// o.seed + 1, o.seed + 2, ..., each torn down at once, until kSetupSeconds
// have passed and at least kMinSetups were made.
template <typename W>
RunData Execute(W& w, const Options& o) {
  RunData d;
  d.clients = Clients();
  std::uint64_t t0 = NowNs();
  w.Setup(o.seed, d.clients);
  d.setup_s.push_back(Seconds(NowNs() - t0));
  Measure(w, o, d);
  d.peak_rss_mib = PeakRssMib();
  const std::uint64_t start = NowNs();
  for (std::uint64_t i = 1; i < kMinSetups || Seconds(NowNs() - start) < kSetupSeconds; ++i) {
    t0 = NowNs();
    w.Setup(o.seed + i, d.clients);
    d.setup_s.push_back(Seconds(NowNs() - t0));
    w.Teardown();
  }
  return d;
}

// --- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const RunData& d, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += d.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(d.attempted);
  s += ", \"failed\": " + std::to_string(d.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

// Percentile in `scale` units; 0 without samples, and a negative value when
// the sample count does not support it (the caller refuses such a run).
double PercentileOr(const LatencyHistogram& h, double p, double scale) {
  if (h.Count() == 0) {
    return 0.0;
  }
  const std::optional<double> x = Percentile(h, p);
  return x ? *x * scale : -1.0;
}

// Median over the untraced windows of one figure; -1 when any window lacks it.
double WindowMedian(const RunData& d, double WindowFigures::*field, double scale) {
  std::vector<double> v;
  for (const WindowFigures& w : d.untraced) {
    if (w.*field < 0.0) {
      return -1.0;
    }
    v.push_back(w.*field * scale);
  }
  return Median(v);
}

double OpsPerSecond(const RunData& d) { return WindowMedian(d, &WindowFigures::ops_per_s, 1.0); }

std::vector<Metric> EndToEnd(RunData& d) {
  return {
      {"ops_per_s", OpsPerSecond(d), "ops/s"},
      {"latency_p50_us", WindowMedian(d, &WindowFigures::p50_ns, 1e-3), "us"},
      {"latency_p99_us", WindowMedian(d, &WindowFigures::p99_ns, 1e-3), "us"},
      {"setup_s", Median(d.setup_s), "s"},
      {"peak_rss_mib", d.peak_rss_mib, "MiB"},
  };
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> PerLayer(RunData& d) {
  // Span durations per layer call, request self time, and busy fractions.
  std::vector<LatencyHistogram> dur(static_cast<std::size_t>(SpanName::kCount));
  LatencyHistogram request_self;
  double call_ns = 0.0, request_ns = 0.0;
  std::uint64_t spans = 0, dropped = 0;
  for (const auto& buf : d.traces) {
    const std::vector<Span>& v = buf->spans();
    spans += v.size();
    dropped += buf->dropped();
    for (const Span& s : v) {
      if (s.parent < 0) {
        continue;
      }
      const Span& req = v[static_cast<std::size_t>(s.parent)];
      const std::uint64_t child = s.end_ns - s.start_ns;
      const std::uint64_t whole = req.end_ns - req.start_ns;
      dur[static_cast<std::size_t>(s.name)].Record(child);
      request_self.Record(whole - child);
      call_ns += static_cast<double>(child);
      request_ns += static_cast<double>(whole);
    }
  }
  auto pct = [&](SpanName n, double p, double scale) {
    return PercentileOr(dur[static_cast<std::size_t>(n)], p, scale);
  };
  const bool svc = dur[static_cast<std::size_t>(SpanName::kSvcBatchGet)].Count() > 0 ||
                   dur[static_cast<std::size_t>(SpanName::kSvcBatchPut)].Count() > 0;
  const WindowStats& t = d.traced;
  const TmCounters& c = t.tm;
  const double commits = static_cast<double>(c.commits);
  const double skips = static_cast<double>(c.counter_skips + c.bloom_skips + c.stripe_skips);
  const double untraced_ops = OpsPerSecond(d);
  const double traced_ops = Median(d.traced_rate);
  return {
      {"svc.get_us_p50", pct(SpanName::kSvcBatchGet, 50.0, 1e-3), "us"},
      {"svc.get_us_p99", pct(SpanName::kSvcBatchGet, 99.0, 1e-3), "us"},
      {"svc.put_us_p50", pct(SpanName::kSvcBatchPut, 50.0, 1e-3), "us"},
      {"svc.put_us_p99", pct(SpanName::kSvcBatchPut, 99.0, 1e-3), "us"},
      {"svc.scan_us_p50", pct(SpanName::kSvcBatchScan, 50.0, 1e-3), "us"},
      {"svc.scan_us_p99", pct(SpanName::kSvcBatchScan, 99.0, 1e-3), "us"},
      {"svc.busy_frac", svc ? Ratio(call_ns, request_ns) : 0.0, "ratio"},
      {"structures.contains_ns_p50", pct(SpanName::kStructContains, 50.0, 1.0), "ns"},
      {"structures.contains_ns_p99", pct(SpanName::kStructContains, 99.0, 1.0), "ns"},
      {"structures.insert_ns_p50", pct(SpanName::kStructInsert, 50.0, 1.0), "ns"},
      {"structures.insert_ns_p99", pct(SpanName::kStructInsert, 99.0, 1.0), "ns"},
      {"structures.remove_ns_p50", pct(SpanName::kStructRemove, 50.0, 1.0), "ns"},
      {"structures.remove_ns_p99", pct(SpanName::kStructRemove, 99.0, 1.0), "ns"},
      {"structures.update_hit_ratio",
       Ratio(static_cast<double>(t.update_hits), static_cast<double>(t.updates)), "ratio"},
      {"tm.commits", commits, "count"},
      {"tm.aborts", static_cast<double>(c.aborts), "count"},
      {"tm.abort_ratio",
       Ratio(static_cast<double>(c.aborts), static_cast<double>(c.commits + c.aborts)),
       "ratio"},
      {"tm.attempts_per_request",
       Ratio(static_cast<double>(c.commits + c.aborts), static_cast<double>(t.requests)),
       "1/request"},
      {"tm.validation_walks_per_commit",
       Ratio(static_cast<double>(c.validation_walks), commits), "1/commit"},
      {"tm.walk_skip_ratio",
       Ratio(skips, skips + static_cast<double>(c.validation_walks)), "ratio"},
      {"tm.stripe_skips", static_cast<double>(c.stripe_skips), "count"},
      {"tm.simd_batches", static_cast<double>(c.simd_batches), "count"},
      {"tm.scalar_checks", static_cast<double>(c.scalar_checks), "count"},
      {"tm.snapshot_reads", static_cast<double>(c.snapshot_reads), "count"},
      {"tm.version_hops_per_snapshot_read",
       Ratio(static_cast<double>(c.version_hops), static_cast<double>(c.snapshot_reads)),
       "1/read"},
      {"tm.versions_retired", static_cast<double>(c.versions_retired), "count"},
      {"tm.chain_splices", static_cast<double>(c.chain_splices), "count"},
      {"tm.clock_shared_loads_per_commit",
       Ratio(static_cast<double>(c.clock_shared_loads), commits), "1/commit"},
      {"tm.clock_rmw_draws_per_commit",
       Ratio(static_cast<double>(c.clock_rmw_draws), commits), "1/commit"},
      {"tm.escalations", static_cast<double>(c.escalations), "count"},
      {"tm.serial_commits", static_cast<double>(c.serial_commits), "count"},
      {"tm.backoff_spins", static_cast<double>(c.backoff_spins), "count"},
      {"tm.max_abort_streak", static_cast<double>(c.max_abort_streak), "count"},
      {"epoch.advances", static_cast<double>(d.epoch_advances), "count"},
      {"epoch.freed", static_cast<double>(d.epoch_freed), "count"},
      {"epoch.pending_end", static_cast<double>(d.epoch_pending_end), "count"},
      {"latency_p999_us", WindowMedian(d, &WindowFigures::p999_ns, 1e-3), "us"},
      {"trace.ops_per_s_untraced", untraced_ops, "ops/s"},
      {"trace.ops_per_s_traced", traced_ops, "ops/s"},
      {"trace.overhead_pct", 100.0 * Ratio(untraced_ops - traced_ops, untraced_ops), "%"},
      {"trace.request_self_ns_p50",
       PercentileOr(request_self, 50.0, 1.0), "ns"},
      {"trace.spans", static_cast<double>(spans), "count"},
      {"trace.dropped_requests", static_cast<double>(dropped), "count"},
  };
}

// Chrome trace-event JSON of the first kTraceFileRequests requests per client.
bool WriteTrace(const RunData& d, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (std::size_t c = 0; c < d.traces.size(); ++c) {
    const std::vector<Span>& v = d.traces[c]->spans();
    const std::size_t n = std::min(v.size(), 2 * kTraceFileRequests);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = v[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                   "\"parent\": %d}}",
                   first ? "" : ",\n", SpanNameStr(s.name), c,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.request), s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- Workloads -------------------------------------------------------------------
//
// Why each exists is recorded in stmbench/README.md.

// θ 0.8, not 0.99: at 0.99 every batch meets the few hottest keys, and the
// resulting aborts and backoff made runs spread by about 0.2.
constexpr KvSpec kKvRead{std::uint64_t{1} << 18, 16, 0.8, 70, 20, 2};
constexpr KvSpec kKvReadSnapshot{std::uint64_t{1} << 18, 16, 0.99, 70, 20, 2};
constexpr KvSpec kKvWriteWide{std::uint64_t{1} << 18, 64, 0.99, 50, 40, 2};
constexpr SetSpec kSkipListRead{65536, 90};
constexpr SetSpec kHashWrite{65536, 10};
constexpr std::size_t kHashBuckets = 16384;

using SkipWorkload = SetWorkload<spectm::SpecSkipList<spectm::OrecG>, spectm::OrecG>;
using HashWorkload = SetWorkload<spectm::SpecHashSet<spectm::Val>, spectm::Val>;

struct WorkloadEntry {
  const char* name;
  RunData (*run)(const Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"kv-read",
     [](const Options& o) {
       KvWorkload<spectm::SvcVal> w(kKvRead);
       return Execute(w, o);
     }},
    {"kv-write-wide",
     [](const Options& o) {
       KvWorkload<spectm::SvcOrec> w(kKvWriteWide);
       return Execute(w, o);
     }},
    {"skiplist-read",
     [](const Options& o) {
       SkipWorkload w(kSkipListRead, 0);
       return Execute(w, o);
     }},
    // Not one of the measured workloads: the host's drift moved its throughput
    // more than any other's (stmbench/README.md, "Workloads").
    {"hash-write",
     [](const Options& o) {
       HashWorkload w(kHashWrite, kHashBuckets);
       return Execute(w, o);
     }},
    // kv-read's store on the MVCC snapshot family, at θ 0.99. Not one of the
    // measured workloads: its gets return other keys' values
    // (stmbench/README.md, "Known defect"), so every run reports correct: false.
    {"kv-read-snapshot",
     [](const Options& o) {
       KvWorkload<spectm::SvcSnapshot> w(kKvReadSnapshot);
       return Execute(w, o);
     }},
};

// --- Self-test ---------------------------------------------------------------------

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::fprintf(stderr, "%s  %s\n", ok ? "ok  " : "FAIL", what);
  g_failures += ok ? 0 : 1;
}

void TestPercentileRule() {
  Expect(!Reportable(99.9, 9999) && Reportable(99.9, 10000),
         "p99.9 needs 10 samples beyond its rank (n >= 10000)");
  Expect(HighestReportablePercentile(100) == 90.0, "n=100: highest reportable is p90");
  Expect(HighestReportablePercentile(1000) == 99.0, "n=1000: highest reportable is p99");
  Expect(HighestReportablePercentile(10) == 0.0, "n=10: nothing is reportable");
  LatencyHistogram few;
  for (int i = 0; i < 50; ++i) {
    few.Record(7);
  }
  Expect(Percentile(few, 50.0) == 7.0 && !Percentile(few, 99.0), "p99 of 50 samples is refused");
}

template <typename Gen, typename Snap>
bool SameStream(Gen a, Gen b, Snap snap) {
  for (int i = 0; i < 1000; ++i) {
    if (snap(a) != snap(b)) {
      return false;
    }
  }
  return true;
}

void TestSeededStreams() {
  auto kv = [](KvRequestGen& g) {
    const KvOp op = g.Next();
    std::vector<std::uint64_t> s{static_cast<std::uint64_t>(op), g.lo()};
    s.insert(s.end(), g.keys(), g.keys() + kKvWriteWide.batch);
    if (op == KvOp::kPut) {
      s.insert(s.end(), g.vals(), g.vals() + kKvWriteWide.batch);
    }
    return s;
  };
  Expect(SameStream(KvRequestGen(kKvWriteWide, 42, 1), KvRequestGen(kKvWriteWide, 42, 1), kv),
         "KV: the same seed gives the same request stream");
  Expect(!SameStream(KvRequestGen(kKvWriteWide, 42, 1), KvRequestGen(kKvWriteWide, 43, 1), kv),
         "KV: another seed gives another request stream");
  auto set = [](SetRequestGen& g) {
    const SetRequest r = g.Next();
    return std::make_pair(static_cast<int>(r.op), r.key);
  };
  Expect(SameStream(SetRequestGen(kHashWrite, 7), SetRequestGen(kHashWrite, 7), set),
         "sets: the same seed gives the same request stream");
  Expect(!SameStream(SetRequestGen(kHashWrite, 7), SetRequestGen(kHashWrite, 8), set),
         "sets: another seed gives another request stream");
}

void TestPlantedWrongValues() {
  // KV: a value of another key, planted through the public BatchPut, is a
  // failed read and a failed audit entry.
  constexpr KvSpec kSmall{1024, 8, 0.99, 70, 20, 2};
  KvWorkload<spectm::SvcOrec> kv(kSmall);
  kv.Setup(5, 1);
  const std::uint64_t victim = 17;
  const std::uint64_t wrong = EncodeValue(victim + 1, 0, 0);
  kv.store().BatchPut(&victim, &wrong, 1);
  std::uint64_t keys[3] = {victim - 1, victim, victim + 1};
  std::uint64_t out[3] = {};
  bool found[3] = {};
  kv.store().BatchGet(keys, 3, out, found);
  Expect(CountBadReads(keys, 0, 3, out, found, 1) == 1, "KV: a planted wrong value fails one get");
  kv.store().BatchScan(victim - 1, 3, out, found);
  Expect(CountBadReads(nullptr, victim - 1, 3, out, found, 1) == 1,
         "KV: a planted wrong value fails one scan entry");
  std::uint64_t attempted = 0, failed = 0;
  kv.Audit(2, &attempted, &failed);
  Expect(failed == 1 && attempted == kSmall.keys, "KV: the audit counts the planted value");
  const std::uint64_t forged = EncodeValue(victim, 1, 5);  // nonce never issued
  kv.store().BatchPut(&victim, &forged, 1);
  kv.Audit(2, &attempted, &failed);
  Expect(failed == 1, "KV: the audit rejects a nonce no client issued");
  kv.Teardown();

  // Sets: a key inserted behind the clients' backs breaks conservation.
  HashWorkload hash(SetSpec{4096, 10}, 1024);
  hash.Setup(9, 1);
  hash.Audit(1, &attempted, &failed);
  Expect(failed == 0, "sets: a fresh set conserves its prefill");
  std::uint64_t k = 0;
  while (!hash.set().Insert(k)) {
    ++k;
  }
  hash.Audit(1, &attempted, &failed);
  Expect(failed == 1, "sets: a planted insert is one failed op");
  hash.Teardown();
}

int SelfTest() {
  TestPercentileRule();
  TestSeededStreams();
  TestPlantedWrongValues();
  std::fprintf(stderr, "%s\n", g_failures == 0 ? "self-test passed" : "self-test FAILED");
  return g_failures == 0 ? 0 : 1;
}

// --- CLI -------------------------------------------------------------------------

int Usage() {
  std::string names;
  for (const WorkloadEntry& e : kWorkloads) {
    names += (names.empty() ? "" : "|") + std::string(e.name);
  }
  std::fprintf(stderr,
               "usage: stmbench --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       stmbench --self-test\n",
               names.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      return SelfTest();
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (o.seconds <= 0.0 || o.seconds > 120.0) {
    return Usage();
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : kWorkloads) {
    entry = o.workload == e.name ? &e : entry;
  }
  if (entry == nullptr) {
    return Usage();
  }
  RunData d = entry->run(o);
  const std::vector<Metric> metrics = o.trace ? PerLayer(d) : EndToEnd(d);
  for (const Metric& m : metrics) {
    if (m.value < 0.0 && m.name.find("overhead") == std::string::npos) {
      std::fprintf(stderr, "stmbench: %s not measured (too few latency samples?)\n",
                   m.name.c_str());
      return 1;
    }
  }
  std::size_t samples = 0, fewest = ~std::size_t{0};
  std::string per_window;
  for (const WindowFigures& w : d.untraced) {
    samples += w.samples;
    fewest = std::min<std::size_t>(fewest, w.samples);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", w.ops_per_s);
    per_window += buf;
  }
  const auto [fastest, slowest] = std::minmax_element(d.setup_s.begin(), d.setup_s.end());
  std::fprintf(stderr,
               "%s seed=%llu clients=%d: %zu latency samples in %zu windows (fewest %zu: "
               "highest reportable p%g), failed_op_ratio=%.6g (%llu/%llu)\n"
               "ops/s per window:%s\n%zu set-ups: median %.4g s, fastest %.4g s, slowest %.4g s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed), d.clients,
               samples, d.untraced.size(), fewest, HighestReportablePercentile(fewest),
               Ratio(static_cast<double>(d.failed), static_cast<double>(d.attempted)),
               static_cast<unsigned long long>(d.failed),
               static_cast<unsigned long long>(d.attempted), per_window.c_str(), d.setup_s.size(), Median(d.setup_s), *fastest, *slowest);
  if (!o.trace_out.empty() && o.trace && !WriteTrace(d, o.trace_out)) {
    std::fprintf(stderr, "stmbench: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", Json(d, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace stmbench

int main(int argc, char** argv) { return stmbench::Main(argc, argv); }
