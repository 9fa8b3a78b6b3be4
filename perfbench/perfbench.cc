#include "perfbench/perfbench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/cpu_affinity.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"tasks_per_s", "tasks/s"},
    {"cycle_ms_p50", "ms"},
    {"cycle_ms_p90", "ms"},
    {"submit_ms_p50", "ms"},
    {"submit_ms_p95", "ms"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"tasks_granted", "count"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"workload.generate_s", "s"},
    {"rdp.curve_pool_s", "s"},
    {"core.run_cycle_ms_p50", "ms"},
    {"core.run_cycle_ms_p90", "ms"},
    {"core.schedule_batch_ms_p50", "ms"},
    {"core.schedule_batch_ms_p90", "ms"},
    {"core.cycle_self_ms_p50", "ms"},
    {"core.submit_us_p50", "us"},
    {"core.pending_p50", "count"},
    {"core.pending_max", "count"},
    {"core.tasks_rescored_per_cycle", "count"},
    {"core.tasks_reused_per_cycle", "count"},
    {"core.reuse_ratio", "ratio"},
    {"core.best_alpha_recomputes_per_cycle", "count"},
    {"core.shards", "count"},
    {"block.blocks_refreshed_per_cycle", "count"},
    {"block.hot_at_end", "count"},
    {"block.retired_at_end", "count"},
    {"service.grant_submit_us_p50", "us"},
    {"service.grant_cycle_ms_p50", "ms"},
    {"service.grant_cycle_ms_p90", "ms"},
    {"service.edge_cycle_ms_p50", "ms"},
    {"service.edge_submit_ms_p50", "ms"},
    {"service.fleet_cycle_ms_p50", "ms"},
    {"service.msgs_per_cycle", "count"},
    {"service.bytes_per_cycle", "bytes"},
    {"service.score_rounds_per_cycle", "count"},
    {"service.ring_stalls", "count"},
    {"service.net_frames_per_rpc", "count"},
    {"service.net_bytes_per_rpc", "bytes"},
    {"service.recoveries", "count"},
    {"service.admission_rejects", "count"},
    {"service.protocol_rejects", "count"},
    {"service.fleet_cpu_s", "s"},
    {"service.connect_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

void Report::Add(const std::string& name, double value, size_t samples) {
  metrics_.push_back(Metric{name, value, samples});
}

void Report::AddSummary(const std::string& prefix, const std::vector<double>& seconds,
                        double scale, double tail_q) {
  Summary summary = Summarize(seconds, tail_q);
  std::string tail_name =
      prefix + "_p" + std::to_string(static_cast<int>(std::lround(tail_q * 100.0)));
  Add(prefix + "_p50", summary.p50 * scale, summary.count);
  Add(tail_name, summary.tail * scale, summary.count);
  if (!summary.tail_reportable) {
    Note(tail_name + " has fewer than " + std::to_string(kMinSamplesBeyondTail) +
         " samples beyond it (n=" + std::to_string(summary.count) + ")");
  }
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Note(const std::string& line) { notes_.push_back(line); }

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

size_t CountBudgetViolations(const dpack::BlockManager& blocks) {
  size_t violations = 0;
  for (size_t id = 0; id < blocks.block_count(); ++id) {
    const dpack::PrivacyBlock& block = blocks.block(static_cast<dpack::BlockId>(id));
    bool witnessed = false;
    for (size_t a = 0; a < block.capacity().size() && !witnessed; ++a) {
      double cap = block.capacity().epsilon(a);
      witnessed = cap > 0.0 && block.consumed().epsilon(a) <= cap + 1e-9 * (1.0 + cap);
    }
    violations += witnessed ? 0 : 1;
  }
  return violations;
}

void AddSetupLayerMetrics(Report& report, const SetupTimes& times) {
  report.Add("workload.generate_s", Median(times.generate_s), times.generate_s.size());
  report.Add("rdp.curve_pool_s", Median(times.curve_pool_s), times.curve_pool_s.size());
}

void CheckGrantTrace(Report& report, const std::string& label,
                     const std::vector<std::vector<dpack::TaskId>>& trace,
                     const std::vector<std::vector<dpack::TaskId>>& reference) {
  if (trace == reference) {
    return;
  }
  size_t diverged = std::max(trace.size(), reference.size()) - std::min(trace.size(), reference.size());
  for (size_t c = 0; c < std::min(trace.size(), reference.size()); ++c) {
    diverged += trace[c] == reference[c] ? 0 : 1;
  }
  report.failed += diverged;
  report.Fail(label + ": grant trace differs from the reference in " + std::to_string(diverged) +
              " of " + std::to_string(reference.size()) + " cycles");
}

void AddTraceMetrics(Report& report, const Tracer& tracer, const std::vector<double>& traced_s,
                     const std::vector<double>& untraced_s) {
  double untraced = Median(untraced_s);
  double overhead = untraced > 0.0 ? (Median(traced_s) - untraced) / untraced * 100.0 : 0.0;
  report.Add("trace.overhead_pct", overhead, std::min(traced_s.size(), untraced_s.size()));
  report.Add("trace.spans", static_cast<double>(tracer.spans().size()));
}

bool KeepMeasuring(Clock::time_point start, double seconds, size_t samples,
                   size_t min_samples) {
  double elapsed = SecondsBetween(start, Clock::now());
  if (elapsed >= 4.0 * seconds) {
    return false;
  }
  return elapsed < seconds || samples < min_samples;
}

std::string HostRecordJson(const Options& options, const Report& report) {
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer),
                "{\"nproc\": %ld, \"allowed_cores\": %zu, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\", \"core.shards\": %llu, "
                "\"fleet_workers\": %llu, \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d}",
                sysconf(_SC_NPROCESSORS_ONLN), dpack::AllowedCores().size(),
                PERFBENCH_BUILD_TYPE, __VERSION__, options.build_id.c_str(),
                static_cast<unsigned long long>(report.shards),
                static_cast<unsigned long long>(report.fleet_workers),
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
  return buffer;
}

}  // namespace perfbench
