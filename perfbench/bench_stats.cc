#include "perfbench/bench_stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

bool TailReportable(size_t n, double q) { return SamplesBeyond(n, q) >= kMinSamplesBeyondTail; }

size_t MinSamplesForTail(double q) {
  size_t n = kMinSamplesBeyondTail;
  while (!TailReportable(n, q)) {
    ++n;
  }
  return n;
}

Summary Summarize(const std::vector<double>& samples, double tail_q) {
  Summary summary;
  summary.count = samples.size();
  summary.p50 = Quantile(samples, 0.5);
  summary.tail = Quantile(samples, tail_q);
  summary.tail_reportable = TailReportable(samples.size(), tail_q);
  return summary;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::Now() const { return SecondsBetween(origin_, Clock::now()); }

int64_t Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  double now = Now();
  int64_t parent = open_.empty() ? -1 : open_.back();
  int64_t index = Add(name, run_, parent, now, now);
  open_.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (!enabled_ || index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_s = Now();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

int64_t Tracer::Add(const char* name, uint32_t run, int64_t parent, double start_s,
                    double end_s) {
  spans_.push_back(Span{name, start_s, end_s, parent, run});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

std::vector<std::vector<size_t>> Tracer::ChildLists() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  return children;
}

double Tracer::SelfTime(size_t index, const std::vector<std::vector<size_t>>& children) const {
  std::vector<std::pair<double, double>> intervals;
  for (size_t child : children[index]) {
    intervals.emplace_back(spans_[child].start_s, spans_[child].end_s);
  }
  return SelfTimeOf(spans_[index].start_s, spans_[index].end_s, std::move(intervals));
}

std::vector<double> Tracer::SelfTimes(const char* name) const {
  std::vector<std::vector<size_t>> children = ChildLists();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      out.push_back(SelfTime(i, children));
    }
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::vector<std::vector<size_t>> children = ChildLists();
  std::fprintf(file, "index,name,run,parent,start_us,end_us,self_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu,%s,%u,%lld,%.3f,%.3f,%.3f\n", i, span.name, span.run,
                 static_cast<long long>(span.parent), span.start_s * 1e6, span.end_s * 1e6,
                 SelfTime(i, children) * 1e6);
  }
  return std::fclose(file) == 0;
}

double SelfTimeOf(double start, double end,
                  std::vector<std::pair<double, double>> child_intervals) {
  std::sort(child_intervals.begin(), child_intervals.end());
  double covered = 0.0;
  double reach = start;  // Everything before `reach` is already counted.
  for (auto [child_start, child_end] : child_intervals) {
    double lo = std::max(child_start, reach);
    double hi = std::min(child_end, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return (end - start) - covered;
}

namespace {

double CpuSeconds(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return CpuTimes{CpuSeconds(self), CpuSeconds(children)};
}

double CpuSecondsBetween(const CpuTimes& before, const CpuTimes& after) {
  return (after.self_s - before.self_s) + (after.children_s - before.children_s);
}

double PeakRssMib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

}  // namespace perfbench
