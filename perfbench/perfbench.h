// Shared types of the wall-time benchmark: run options, the report every workload fills in,
// the metric catalogue (which must match BENCHMARK.json), and the workload entry points.
//
// Every workload drives the scheduler only through its public entry points and always with
// the default engine and service configuration: no workload sets a shard count, async or
// publication mode, partition, pinning, poll sleep, or the incremental flag (the recompute
// reference of offline_micro's correctness check excepted).

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_stats.h"
#include "src/block/block_manager.h"
#include "src/core/task.h"
#include "src/rdp/alpha_grid.h"
#include "src/workload/curve_pool.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 30.0;
  bool trace = false;
  std::string build_id = "unknown";  // Commit or source digest, supplied by run.py.
  std::string run_dir = ".bench_run";  // Sockets and span dumps; inside the checkout.
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run reports, and the per-layer metrics every traced
// run reports. A per-layer metric whose layer call is not on a workload's path reads 0 on
// that workload.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct Metric {
  std::string name;
  double value = 0.0;
  size_t samples = 0;  // Samples behind the value (1 for a single reading).
};

// What one run measured and whether its outputs were correct.
class Report {
 public:
  void Add(const std::string& name, double value, size_t samples = 1);
  // Adds `<prefix>_p50` and the tail `<prefix>_p<100 * tail_q>` (p90, p95), scaled by
  // `scale` (e.g. 1e3 for s -> ms).
  void AddSummary(const std::string& prefix, const std::vector<double>& seconds, double scale,
                  double tail_q = 0.9);
  // Records a failed correctness check; the run exits nonzero.
  void Fail(const std::string& why);
  void Note(const std::string& line);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  uint64_t attempted = 0;  // Cycles (RPCs for service_remote).
  uint64_t failed = 0;
  // Host-shape fields the workload resolved.
  uint64_t shards = 0;
  uint64_t fleet_workers = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

// Budget witness (the per-block (eps_g, delta_g) guarantee): every block has some usable
// order whose consumption is within capacity, up to the filters' admission slack. Returns
// the number of blocks that violate it.
size_t CountBudgetViolations(const dpack::BlockManager& blocks);

// The reference block budget of every workload: (eps_g, delta_g) = (10, 1e-7), §6.2.
inline constexpr double kEpsG = 10.0;
inline constexpr double kDeltaG = 1e-7;

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct SetupTimes {
  std::vector<double> curve_pool_s;
  std::vector<double> generate_s;
  std::vector<double> total_s;  // Pool + generation (+ anything the workload adds).
};

// Builds the curve pool and generates the workload kSetupRepeats times, timing each step;
// returns the last workload and leaves the last pool in `*pool`.
template <typename Generate>
auto TimedSetup(SetupTimes* times, std::unique_ptr<dpack::CurvePool>* pool,
                Generate&& generate) {
  dpack::AlphaGridPtr grid = dpack::AlphaGrid::Default();
  decltype(generate(**pool)) workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point t0 = Clock::now();
    *pool = std::make_unique<dpack::CurvePool>(
        grid, dpack::BlockCapacityCurve(grid, kEpsG, kDeltaG));
    Clock::time_point t1 = Clock::now();
    workload = generate(**pool);
    Clock::time_point t2 = Clock::now();
    times->curve_pool_s.push_back(SecondsBetween(t0, t1));
    times->generate_s.push_back(SecondsBetween(t1, t2));
    times->total_s.push_back(SecondsBetween(t0, t2));
  }
  return workload;
}

// Reports workload.generate_s and rdp.curve_pool_s.
void AddSetupLayerMetrics(Report& report, const SetupTimes& times);

// Compares a replay's per-cycle grant trace against the reference; records a failure (and
// counts the diverging cycles as failed) on any difference.
void CheckGrantTrace(Report& report, const std::string& label,
                     const std::vector<std::vector<dpack::TaskId>>& trace,
                     const std::vector<std::vector<dpack::TaskId>>& reference);

// trace.overhead_pct (median traced vs untraced timed-phase wall) and trace.spans.
void AddTraceMetrics(Report& report, const Tracer& tracer, const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s);

// Whether to run another timed repetition: until `seconds` have elapsed since `start` and
// at least `min_samples` samples exist, within a hard ceiling of 4x `seconds`.
bool KeepMeasuring(Clock::time_point start, double seconds, size_t samples,
                   size_t min_samples);

Report RunAlibabaOnline(const Options& options);
Report RunOfflineMicro(const Options& options);
Report RunServiceRemote(const Options& options);

// The host/build record printed with every result.
std::string HostRecordJson(const Options& options, const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
