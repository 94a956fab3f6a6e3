// Load-generator plumbing shared by every stmbench workload: the clock, the
// percentile rule, per-thread TM counter snapshots, the in-memory span buffer
// and the window protocol the closed-loop clients follow.
//
// Everything here sits OUTSIDE the layers it measures: it reads the runtime's
// thread-local probes and TxStats from the thread that owns them, and it
// records spans around calls into src/svc and src/structures, never inside.
#ifndef STMBENCH_HARNESS_H_
#define STMBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/svc/latency.h"
#include "src/tm/clock.h"
#include "src/tm/serial.h"
#include "src/tm/txdesc.h"
#include "src/tm/valstrategy.h"

namespace stmbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Percentiles ---------------------------------------------------------------
//
// Latencies are recorded in src/svc's LatencyHistogram (log-scale buckets,
// about 3% wide, fixed footprint). A percentile p of n samples is reportable
// only when at least kTailSamples samples lie beyond its rank: p99.9 needs
// n >= 10000.

using LatencyHistogram = spectm::svc::LatencyHistogram;

inline constexpr std::size_t kTailSamples = 10;

// 1-based rank of percentile p (0 < p < 100) among n samples.
inline std::size_t RankOf(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::max<std::size_t>(1, static_cast<std::size_t>(r));
}

inline bool Reportable(double p, std::size_t n) {
  return n > 0 && n - std::min(n, RankOf(p, n)) >= kTailSamples;
}

// The highest of the usual tail percentiles that the sample count supports,
// or 0 when even the median does not have kTailSamples beyond it.
inline double HighestReportablePercentile(std::size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (Reportable(p, n)) {
      return p;
    }
  }
  return 0.0;
}

// Value at percentile p; nullopt when p is not reportable.
inline std::optional<double> Percentile(const LatencyHistogram& h, double p) {
  if (!Reportable(p, h.Count())) {
    return std::nullopt;
  }
  return static_cast<double>(h.ValueAtPercentile(p));
}

// --- Per-thread TM counters ---------------------------------------------------
//
// One thread's view of a TM domain: its own descriptor's TxStats plus its own
// ValProbe / ClockProbe / CmProbe. All of these are owned by the calling thread,
// so each client snapshots them before and after its loop and the harness sums
// the deltas — no separate single-threaded probe pass.
//
// What they see: TxStats counts full transactions and SHORT RW transactions
// (commit/abort); single-word operations (SingleRead/SingleWrite/SingleCas) and
// their caller-side retries are invisible to it. The probes count mechanism
// events on whichever engine fired them.
struct TmCounters {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t validation_walks = 0;
  std::uint64_t counter_skips = 0;
  std::uint64_t bloom_skips = 0;
  std::uint64_t stripe_skips = 0;
  std::uint64_t simd_batches = 0;
  std::uint64_t scalar_checks = 0;
  std::uint64_t snapshot_reads = 0;
  std::uint64_t version_hops = 0;
  std::uint64_t versions_retired = 0;
  std::uint64_t chain_splices = 0;
  std::uint64_t clock_shared_loads = 0;
  std::uint64_t clock_rmw_draws = 0;
  std::uint64_t escalations = 0;
  std::uint64_t serial_commits = 0;
  std::uint64_t backoff_spins = 0;
  // High-water mark, not a count: taken as-is from the phase's end snapshot
  // (the client resets its CmProbe when the phase starts) and max-combined.
  std::uint64_t max_abort_streak = 0;

  // Field-wise delta of every count (end - start); the streak stays end's.
  static TmCounters Delta(const TmCounters& end, const TmCounters& start) {
    TmCounters d = end;
    d.ForEachCount(start, [](std::uint64_t& a, std::uint64_t b) { a -= b; });
    return d;
  }

  void Accumulate(const TmCounters& o) {
    ForEachCount(o, [](std::uint64_t& a, std::uint64_t b) { a += b; });
    max_abort_streak = std::max(max_abort_streak, o.max_abort_streak);
  }

 private:
  template <typename Fn>
  void ForEachCount(const TmCounters& o, Fn fn) {
    fn(commits, o.commits);
    fn(aborts, o.aborts);
    fn(validation_walks, o.validation_walks);
    fn(counter_skips, o.counter_skips);
    fn(bloom_skips, o.bloom_skips);
    fn(stripe_skips, o.stripe_skips);
    fn(simd_batches, o.simd_batches);
    fn(scalar_checks, o.scalar_checks);
    fn(snapshot_reads, o.snapshot_reads);
    fn(version_hops, o.version_hops);
    fn(versions_retired, o.versions_retired);
    fn(chain_splices, o.chain_splices);
    fn(clock_shared_loads, o.clock_shared_loads);
    fn(clock_rmw_draws, o.clock_rmw_draws);
    fn(escalations, o.escalations);
    fn(serial_commits, o.serial_commits);
    fn(backoff_spins, o.backoff_spins);
  }
};

// Snapshot of the calling thread's counters for one TM domain.
template <typename DomainTag>
TmCounters ReadTmCounters() {
  TmCounters c;
  const spectm::TxStats& stats = spectm::DescOf<DomainTag>().stats;
  c.commits = stats.commits.load(std::memory_order_relaxed);
  c.aborts = stats.aborts.load(std::memory_order_relaxed);
  const auto& v = spectm::ValProbe<DomainTag>::Get();
  c.validation_walks = v.validation_walks;
  c.counter_skips = v.counter_skips;
  c.bloom_skips = v.bloom_skips;
  c.stripe_skips = v.stripe_skips;
  c.simd_batches = v.simd_batches;
  c.scalar_checks = v.scalar_checks;
  c.snapshot_reads = v.snapshot_reads;
  c.version_hops = v.version_hops;
  c.versions_retired = v.versions_retired;
  c.chain_splices = v.chain_splices;
  const auto& k = spectm::ClockProbe<DomainTag>::Get();
  c.clock_shared_loads = k.shared_loads;
  c.clock_rmw_draws = k.rmw_draws;
  const auto cm = spectm::CmProbe<DomainTag>::Get();
  c.escalations = cm.escalations;
  c.serial_commits = cm.serial_commits;
  c.backoff_spins = cm.backoff_spins;
  c.max_abort_streak = cm.max_abort_streak;
  return c;
}

// --- Spans ----------------------------------------------------------------------
//
// One client's trace: a preallocated buffer of spans, filled on the client's
// own thread and read after it joins. A traced request contributes a
// `request` span and one child span for the layer call it made.

enum class SpanName : std::uint16_t {
  kRequest,
  kSvcBatchGet,
  kSvcBatchPut,
  kSvcBatchScan,
  kStructContains,
  kStructInsert,
  kStructRemove,
  kCount
};

inline const char* SpanNameStr(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "request";
    case SpanName::kSvcBatchGet: return "svc.BatchGet";
    case SpanName::kSvcBatchPut: return "svc.BatchPut";
    case SpanName::kSvcBatchScan: return "svc.BatchScan";
    case SpanName::kStructContains: return "structures.Contains";
    case SpanName::kStructInsert: return "structures.Insert";
    case SpanName::kStructRemove: return "structures.Remove";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t request;  // request id, unique within the client
  std::int32_t parent;    // index of the parent span in the same buffer, or -1
  SpanName name;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  // Records request [t0, t3] with its layer call [t1, t2]. A full buffer
  // drops the request and counts it.
  void Record(std::uint64_t request, SpanName call, std::uint64_t t0, std::uint64_t t1,
              std::uint64_t t2, std::uint64_t t3) {
    if (spans_.size() + 2 > capacity_) {
      ++dropped_;
      return;
    }
    const auto parent = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{t0, t3, request, -1, SpanName::kRequest});
    spans_.push_back(Span{t1, t2, request, parent, call});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// --- Windows ----------------------------------------------------------------------
//
// A run is a sequence of windows the main thread steps through by storing the
// current window's index: window 0 warms up and the measured windows follow.
// In a traced run every second measured window is traced, so that the host's
// drift over the run falls on traced and untraced windows alike. A client
// polls the index once per request and, at each change, closes the old
// window's counters and opens the new one's, so every statistic is kept per
// window and a run can report the median over its windows.

inline constexpr int kStop = -1;

struct Schedule {
  std::atomic<int> window{0};
  bool trace = false;

  bool Traced(int w) const { return trace && w > 0 && w % 2 == 0; }
};

struct WindowStats {
  std::uint64_t ops = 0;          // completed operations (set ops or batch keys)
  std::uint64_t requests = 0;     // set ops or batches
  std::uint64_t updates = 0;      // set workloads: insert + remove calls
  std::uint64_t update_hits = 0;  // ... that changed the set
  LatencyHistogram latency;       // sampled request latency, ns
  TmCounters tm;                  // delta over the window

  void Merge(const WindowStats& o) {
    ops += o.ops;
    requests += o.requests;
    updates += o.updates;
    update_hits += o.update_hits;
    latency.Merge(o.latency);
    tm.Accumulate(o.tm);
  }
};

// Drives one closed-loop client through the windows. `step(stats, trace)`
// performs one request; trace is null outside the traced windows. The
// client's TM counters are snapshotted on its own thread at every change.
template <typename DomainTag, typename StepFn>
void RunClientWindows(const Schedule& sched, std::vector<WindowStats>& windows,
                      SpanBuffer* trace, StepFn&& step) {
  int current = 0;
  spectm::CmProbe<DomainTag>::Reset();
  TmCounters start = ReadTmCounters<DomainTag>();
  while (true) {
    const int w = sched.window.load(std::memory_order_acquire);
    if (w != current) {
      windows[static_cast<std::size_t>(current)].tm =
          TmCounters::Delta(ReadTmCounters<DomainTag>(), start);
      if (w == kStop) {
        return;
      }
      current = w;
      spectm::CmProbe<DomainTag>::Reset();
      start = ReadTmCounters<DomainTag>();
    }
    step(windows[static_cast<std::size_t>(current)],
         sched.Traced(current) ? trace : nullptr);
  }
}

}  // namespace stmbench

#endif  // STMBENCH_HARNESS_H_
