// Alibaba-DP: the paper's macrobenchmark derived from the Alibaba 2022 GPU cluster trace
// (§6.3), reproduced here as a seeded synthetic generator.
//
// Mapping (as in the paper):
//   machine type (CPU/GPU)   -> mechanism family: CPU tasks draw from {Laplace, Gaussian,
//                               Subsampled Laplace}; GPU tasks from {composition of
//                               Subsampled Gaussians, composition of Gaussians};
//   memory GB-hours          -> privacy demand: the normalized eps_min follows a heavy-tailed
//                               (Pareto) distribution truncated to [0.001, 1];
//   network bytes read       -> number of requested blocks: heavy-tailed, truncated to
//                               [1, 100]; tasks request the most recent blocks;
//   weight                   -> 1 for all tasks.
// Arrivals are uniform over the trace window (one block arrives per time unit).

#ifndef SRC_WORKLOAD_ALIBABA_H_
#define SRC_WORKLOAD_ALIBABA_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/task.h"
#include "src/workload/curve_pool.h"

namespace dpack {

struct AlibabaConfig {
  size_t num_tasks = 60'000;
  // Arrival window in virtual time (block inter-arrival units). Tasks arrive uniformly over
  // [0, arrival_span).
  double arrival_span = 90.0;
  double gpu_fraction = 0.35;           // Trace-level CPU/GPU mix.
  // Heavy-tailed eps_min proxy (memory GB-hours -> privacy): Pareto(scale, shape) truncated.
  double eps_pareto_scale = 0.01;
  double eps_pareto_shape = 0.7;
  double eps_min_lo = 0.001;            // Paper's truncation: eps_min in [0.001, 1].
  double eps_min_hi = 1.0;
  // Deep-learning (GPU) tasks consume more privacy per run than statistics: their eps_min
  // draw is scaled up by this factor (then re-truncated). Mirrors the memory-usage gap
  // between GPU and CPU jobs in the trace.
  double gpu_eps_multiplier = 4.0;
  // Heavy-tailed block-count proxy (network bytes -> blocks): Pareto truncated to [1, 100].
  double blocks_pareto_scale = 1.0;
  double blocks_pareto_shape = 0.9;
  size_t max_blocks_per_task = 100;     // Paper's truncation.
  // Per-task eviction timeout (§3.4), in block-interval units.
  double task_timeout = std::numeric_limits<double>::infinity();
  uint64_t seed = 1;
};

// Generates Alibaba-DP tasks against `pool`'s grid and block budget. The pool is only used
// for eps_min normalization; mechanisms are instantiated fresh per task. Tasks carry
// `num_recent_blocks` (resolved at submission) and arrival times; ids are 0..n-1.
std::vector<Task> GenerateAlibabaDp(const CurvePool& pool, const AlibabaConfig& config);

}  // namespace dpack

#endif  // SRC_WORKLOAD_ALIBABA_H_
