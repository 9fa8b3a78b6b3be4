// dpack_perfbench: runs one workload and prints its metrics.
//
//   dpack_perfbench --workload <alibaba_online|offline_micro|service_remote>
//                   [--seed N] [--seconds S] [--trace 0|1] [--build-id ID] [--run-dir DIR]
//
// Human-readable lines (each metric with its unit and sample count, the host record, and
// any correctness failure) come first; the last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer metrics. Exits 1 when any correctness check fails, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: dpack_perfbench --workload <alibaba_online|offline_micro|service_remote> "
    "[--seed N] [--seconds S] [--trace 0|1] [--build-id ID] [--run-dir DIR]\n";

struct WorkloadEntry {
  const char* name;
  uint64_t default_seed;
  Report (*run)(const Options&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"alibaba_online", 11, &RunAlibabaOnline},
    {"offline_micro", 9, &RunOfflineMicro},
    {"service_remote", 21, &RunServiceRemote},
};

bool ParseArgs(int argc, char** argv, Options* options, const WorkloadEntry** entry) {
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      seed_set = end != value.c_str() && *end == '\0';
      if (!seed_set) {
        return false;
      }
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      options->trace = value == "1";
    } else if (flag == "--build-id") {
      options->build_id = value;
    } else if (flag == "--run-dir") {
      options->run_dir = value;
    } else {
      return false;
    }
  }
  for (const WorkloadEntry& candidate : kWorkloads) {
    if (options->workload == candidate.name) {
      *entry = &candidate;
      if (!seed_set) {
        options->seed = candidate.default_seed;
      }
      return true;
    }
  }
  return false;
}

// Checks the report against the metric catalogue of its mode and prints the result. Per-layer
// metrics a workload does not reach read 0. Returns whether the run is valid.
bool PrintResult(const Options& options, Report& report) {
  const std::vector<MetricSpec>& catalogue = options.trace ? kPerLayerMetrics : kEndToEndMetrics;
  for (const Metric& metric : report.metrics()) {
    bool known = false;
    for (const MetricSpec& spec : catalogue) {
      known = known || metric.name == spec.name;
    }
    if (!known) {
      report.Fail("metric " + metric.name + " is not in the catalogue");
    }
    if (!std::isfinite(metric.value)) {
      report.Fail("metric " + metric.name + " is not finite");
    }
  }
  for (const MetricSpec& spec : catalogue) {
    if (report.Find(spec.name) == nullptr) {
      if (!options.trace) {
        report.Fail(std::string("end-to-end metric ") + spec.name + " was not measured");
      }
      report.Add(spec.name, 0.0, 0);
    }
  }

  std::printf("host: %s\n", HostRecordJson(options, report).c_str());
  for (const std::string& note : report.notes()) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    const Metric* metric = report.Find(spec.name);
    std::printf("metric %-40s %.6g %s (n=%zu)\n", spec.name, metric->value, spec.unit,
                metric->samples);
    if (!report.correct()) {
      continue;  // An incorrect run's metrics are not reported as valid.
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric->value);
    json += std::string(first ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  const WorkloadEntry* entry = nullptr;
  if (!ParseArgs(argc, argv, &options, &entry)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::filesystem::create_directories(options.run_dir);
  Report report = entry->run(options);
  return PrintResult(options, report) ? 0 : 1;
}
