// Tests of the benchmark's own statistics: the tail rule, sample-count reporting, self time
// of nested spans, CPU accounting over this process and its reaped children, the budget
// witness, and the metric catalogue's agreement with BENCHMARK.json.

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/bench_stats.h"
#include "perfbench/perfbench.h"
#include "src/block/block_manager.h"
#include "src/rdp/alpha_grid.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> samples;
  for (size_t i = n; i >= 1; --i) {
    samples.push_back(static_cast<double>(i));
  }
  return samples;
}

TEST(TailRuleTest, P90NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_TRUE(TailReportable(100, 0.9));
  EXPECT_FALSE(TailReportable(99, 0.9));
  EXPECT_EQ(MinSamplesForTail(0.9), 100u);
  EXPECT_EQ(MinSamplesForTail(0.95), 200u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
  EXPECT_EQ(MinSamplesForTail(0.5), 20u);
}

TEST(TailRuleTest, NearestRankQuantiles) {
  std::vector<double> samples = OneTo(100);
  EXPECT_EQ(Quantile(samples, 0.5), 50.0);
  EXPECT_EQ(Quantile(samples, 0.9), 90.0);
  EXPECT_EQ(Quantile(samples, 1.0), 100.0);
  EXPECT_EQ(Quantile(samples, 0.0), 1.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SampleCountTest, SummaryCarriesItsSampleCount) {
  Summary summary = Summarize(OneTo(150), 0.9);
  EXPECT_EQ(summary.count, 150u);
  EXPECT_EQ(summary.tail, 135.0);
  EXPECT_TRUE(summary.tail_reportable);
  EXPECT_FALSE(Summarize(OneTo(50), 0.9).tail_reportable);
  EXPECT_FALSE(Summarize(OneTo(999), 0.99).tail_reportable);
  EXPECT_TRUE(Summarize(OneTo(1000), 0.99).tail_reportable);
}

TEST(SampleCountTest, ReportNotesAnUnsupportedTail) {
  Report report;
  report.AddSummary("cycle_ms", OneTo(150), 1e3);
  report.AddSummary("submit_ms", OneTo(150), 1e3, 0.95);
  ASSERT_NE(report.Find("cycle_ms_p50"), nullptr);
  EXPECT_EQ(report.Find("cycle_ms_p50")->samples, 150u);
  EXPECT_EQ(report.Find("cycle_ms_p90")->value, 135.0 * 1e3);
  EXPECT_EQ(report.Find("submit_ms_p95")->samples, 150u);
  EXPECT_EQ(report.Find("submit_ms_p95")->value, 143.0 * 1e3);
  ASSERT_EQ(report.notes().size(), 1u);  // p95 needs 200 samples.
  EXPECT_NE(report.notes()[0].find("submit_ms_p95"), std::string::npos);
  EXPECT_TRUE(report.correct());
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnce) {
  EXPECT_DOUBLE_EQ(SelfTimeOf(0.0, 10.0, {}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeOf(0.0, 10.0, {{1.0, 3.0}, {6.0, 7.0}}), 7.0);
  // Overlapping children count once; a child beyond the parent is clipped to it.
  EXPECT_DOUBLE_EQ(SelfTimeOf(0.0, 10.0, {{2.0, 5.0}, {1.0, 3.0}, {8.0, 12.0}}), 4.0);
  EXPECT_DOUBLE_EQ(SelfTimeOf(0.0, 10.0, {{0.0, 10.0}}), 0.0);
}

TEST(SelfTimeTest, NestedSpansSubtractOnlyDirectChildren) {
  Tracer tracer(true);
  int64_t root = tracer.Add("root", 0, -1, 0.0, 10.0);
  int64_t child = tracer.Add("child", 0, root, 1.0, 4.0);
  tracer.Add("grandchild", 0, child, 2.0, 3.0);
  tracer.Add("child", 0, root, 6.0, 7.0);
  std::vector<double> root_self = tracer.SelfTimes("root");
  std::vector<double> child_self = tracer.SelfTimes("child");
  ASSERT_EQ(root_self.size(), 1u);
  EXPECT_DOUBLE_EQ(root_self[0], 6.0);  // 10 - (3 + 1): the grandchild lies inside a child.
  ASSERT_EQ(child_self.size(), 2u);
  EXPECT_DOUBLE_EQ(child_self[0], 2.0);
  EXPECT_DOUBLE_EQ(child_self[1], 1.0);
  EXPECT_DOUBLE_EQ(tracer.SelfTimes("grandchild")[0], 1.0);
  EXPECT_EQ(tracer.Durations("child"), (std::vector<double>{3.0, 1.0}));
}

TEST(SelfTimeTest, BeginEndNestAndTagTheRun) {
  Tracer tracer(true);
  tracer.set_run(7);
  {
    ScopedSpan outer(tracer, "outer");
    ScopedSpan inner(tracer, "inner");
  }
  ScopedSpan after(tracer, "after");
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[1].run, 7u);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_LE(spans[1].end_s, spans[0].end_s);
  EXPECT_GE(tracer.SelfTimes("outer")[0], 0.0);
}

TEST(SelfTimeTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(tracer, "ignored"); }
  EXPECT_TRUE(tracer.spans().empty());
}

double BurnCpu(double seconds) {
  CpuTimes start = ReadCpuTimes();
  volatile double sink = 0.0;
  while (ReadCpuTimes().self_s - start.self_s < seconds) {
    for (int i = 0; i < 100'000; ++i) {
      sink = sink + 1.0;
    }
  }
  return sink;
}

TEST(CpuAccountingTest, CountsSelfAndReapedChildren) {
  CpuTimes before = ReadCpuTimes();
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    BurnCpu(0.2);
    _exit(0);
  }
  BurnCpu(0.1);
  // The child's CPU appears only once it has been reaped.
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  CpuTimes after = ReadCpuTimes();
  EXPECT_GE(after.self_s - before.self_s, 0.1);
  EXPECT_GE(after.children_s - before.children_s, 0.2);
  EXPECT_DOUBLE_EQ(CpuSecondsBetween(before, after),
                   (after.self_s - before.self_s) + (after.children_s - before.children_s));
  EXPECT_GT(PeakRssMib(), 0.0);
}

TEST(BudgetWitnessTest, FlagsABlockOverBudgetAtEveryOrder) {
  dpack::AlphaGridPtr grid = dpack::AlphaGrid::Default();
  dpack::BlockManager fresh(grid, kEpsG, kDeltaG);
  fresh.AddBlock(0.0, /*unlocked=*/true);
  EXPECT_EQ(CountBudgetViolations(fresh), 0u);

  dpack::RdpCurve capacity = dpack::BlockCapacityCurve(grid, kEpsG, kDeltaG);
  std::vector<double> over;
  for (double eps : capacity.epsilons()) {
    over.push_back(eps > 0.0 ? 2.0 * eps : 1.0);
  }
  std::vector<dpack::PrivacyBlock> blocks;
  blocks.push_back(dpack::PrivacyBlock::Restore(0, capacity, 0.0, 1.0,
                                                dpack::RdpCurve(grid, over), 1));
  dpack::BlockManager overdrawn =
      dpack::BlockManager::Restore(grid, kEpsG, kDeltaG, 1, std::move(blocks));
  EXPECT_EQ(CountBudgetViolations(overdrawn), 1u);
}

TEST(CatalogueTest, MatchesBenchmarkJson) {
  std::ifstream file(PERFBENCH_REPO_ROOT "/BENCHMARK.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  std::string json = text.str();
  auto section = [&json](const std::string& key) {
    size_t begin = json.find("\"" + key + "\"");
    size_t end = json.find(']', begin);
    std::map<std::string, std::string> units;
    std::regex entry("\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
    std::string body = json.substr(begin, end - begin);
    for (std::sregex_iterator it(body.begin(), body.end(), entry), last; it != last; ++it) {
      units[(*it)[1]] = (*it)[2];
    }
    return units;
  };
  auto catalogue = [](const std::vector<MetricSpec>& specs) {
    std::map<std::string, std::string> units;
    for (const MetricSpec& spec : specs) {
      units[spec.name] = spec.unit;
    }
    return units;
  };
  EXPECT_EQ(section("end_to_end"), catalogue(kEndToEndMetrics));
  EXPECT_EQ(section("per_layer"), catalogue(kPerLayerMetrics));
}

}  // namespace
}  // namespace perfbench
