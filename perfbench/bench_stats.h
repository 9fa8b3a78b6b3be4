// The benchmark's own statistics: percentile summaries with the tail rule, a span recorder
// for traced runs, and CPU / peak-memory accounting through getrusage.
//
// Tail rule. A timing is reported as its median and a tail percentile (p90, or p99 where
// enough samples exist); a tail is only meaningful when at least kMinSamplesBeyondTail
// samples lie beyond it, so every summary carries its sample count and the workloads keep
// measuring until the tails they report meet the rule.
//
// Spans. A traced run records one span per call into a layer: name, start, end, the span
// that caused it (its parent), and the id of the replay it belongs to. Spans stay in memory
// and are written out when the run ends. A span's self time is its duration minus the part
// of its interval that its children cover (overlapping children are counted once, and a
// child sticking out of its parent is clipped to the parent).

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Percentiles -----------------------------------------------------------------------------

inline constexpr size_t kMinSamplesBeyondTail = 10;

// Nearest-rank quantile (q in [0, 1]) of `samples`; 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);

// Samples strictly beyond the nearest-rank q-quantile of n samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

// Whether a q-quantile over n samples has at least kMinSamplesBeyondTail samples beyond it.
bool TailReportable(size_t n, double q);

// Fewest samples for which the q-quantile is reportable.
size_t MinSamplesForTail(double q);

struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;  // The tail_q quantile.
  bool tail_reportable = false;
};

Summary Summarize(const std::vector<double>& samples, double tail_q);

// --- Spans -----------------------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_s = 0.0;  // Seconds since the tracer's origin.
  double end_s = 0.0;
  int64_t parent = -1;   // Index of the causing span; -1 for a root.
  uint32_t run = 0;      // Replay the span belongs to.
};

// Collects spans in memory. A disabled tracer records nothing and costs one branch per
// call, so the same replay code serves traced and untraced runs. Begin/End nest: a span
// opened while another is open records that one as its parent.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  // Tags the spans opened from now on with replay id `run`.
  void set_run(uint32_t run) { run_ = run; }

  // Opens a span under the innermost open span and returns its index (-1 when disabled).
  // `name` must have static storage.
  int64_t Begin(const char* name);
  // Closes span `index`, which must be the innermost open span.
  void End(int64_t index);

  // Records an already-measured interval.
  int64_t Add(const char* name, uint32_t run, int64_t parent, double start_s, double end_s);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const char* name) const;
  // Self times (seconds) of every span called `name`.
  std::vector<double> SelfTimes(const char* name) const;

  // Writes every span as CSV (index,name,run,parent,start_us,end_us,self_us).
  bool WriteCsv(const std::string& path) const;

 private:
  double Now() const;
  std::vector<std::vector<size_t>> ChildLists() const;
  double SelfTime(size_t index, const std::vector<std::vector<size_t>>& children) const;

  bool enabled_;
  uint32_t run_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_;
};

// Self time of a span over [start, end] whose children cover `child_intervals`: the
// duration minus the union of the child intervals clipped to the span.
double SelfTimeOf(double start, double end,
                  std::vector<std::pair<double, double>> child_intervals);

// --- CPU and memory --------------------------------------------------------------------------

// User + system CPU seconds of this process and of its reaped descendants (RUSAGE_CHILDREN
// covers every terminated descendant that was waited for, grandchildren included).
struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;
};

CpuTimes ReadCpuTimes();

// CPU seconds of every process in the system between two readings. Descendants count only
// once they have been reaped, so read `after` after waiting for them.
double CpuSecondsBetween(const CpuTimes& before, const CpuTimes& after);

// Peak resident set of the largest process seen: this one or any reaped descendant (MiB).
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
