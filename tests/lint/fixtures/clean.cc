// Near-miss patterns every rule must stay quiet on: this file is linted as src/core code
// and must produce zero findings. Each block below sits just outside a rule's boundary.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"

namespace dpack {

// A comment naming std::mutex and std::condition_variable is not a use (raw-mutex).
// A string below names rand() and steady_clock::now() — also not a use.
inline const char* kDocs = "rand() and steady_clock::now() are banned in engine code";

struct CleanTracker {
  // Annotated unordered member: the allow carries the reviewed lookup-only proof.
  // dpack-lint: allow(unordered-member): lookup-only — point lookups in Demand(), never iterated.
  std::unordered_map<uint64_t, double> demand;
  std::map<uint64_t, double> ordered;  // Ordered containers iterate freely.

  double Demand(uint64_t id) const {
    auto it = demand.find(id);
    return it == demand.end() ? 0.0 : it->second;  // Iterator compare, not float-equality.
  }

  double Sum() const {
    double total = 0.0;
    for (const auto& entry : ordered) {  // Iterating the *ordered* map is fine.
      total += entry.second;
    }
    return total;
  }
};

// Capacity bookkeeping through size_t methods is not a budget comparison.
inline bool Grew(const std::vector<int>& v, size_t before) {
  return v.capacity() != before;  // dpack-lint: allow(float-equality): size_t bookkeeping.
}

// Null checks never trip float-equality even when the name contains a budget token.
inline bool HasDemands(const CleanTracker* demands) { return demands != nullptr; }

// Ordered comparisons on budget quantities are the sanctioned form.
inline bool Feasible(double consumed, double demand, double capacity) {
  return consumed + demand <= capacity + 1e-9 * (1.0 + capacity);
}

// Scoped-enum dispatch against a Type::kConstant is not a float comparison, even when the
// member name carries a budget token.
enum class DemandDistribution { kZipfEpsMin, kCapacityFraction };
struct CleanSpec {
  DemandDistribution demand = DemandDistribution::kZipfEpsMin;
};
inline bool IsZipf(const CleanSpec& spec) {
  return spec.demand == DemandDistribution::kZipfEpsMin;
}

// The annotated wrappers are the sanctioned lock primitives (raw-mutex quiet).
struct CleanQueue {
  Mutex mu;
  int depth GUARDED_BY(mu) = 0;

  void Push() {
    MutexLock lock(mu);
    ++depth;
  }
};

// Capitalized or longer names that merely contain a wait verb are not wait calls (raw-wait).
struct CleanTransport {
  bool Poll(int w) const { return w > 0; }
  bool PollOnce() const { return Poll(1); }
  int poll_count = 0;
  int Selected() const { return poll_count; }
};

}  // namespace dpack
