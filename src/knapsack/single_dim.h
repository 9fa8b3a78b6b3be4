// Single-dimension 0/1 knapsack solvers.
//
// DPack's COMPUTE_BESTALPHA step (Alg. 1) solves one single-block knapsack per (block, order)
// pair: maximize total profit subject to sum of demands <= capacity. The paper uses a
// (2/3) eta FPTAS (Prop. 2). For uniform profits the problem is exact max-cardinality:
// MaxCardinalityValue is the profit-only kernel BestAlphaForBlock calls, and
// MaxCardinalityKnapsack the set-returning solver (the Optimal baseline reads its selected
// set). Weighted instances get a profit-scaling FPTAS with a density greedy fallback (the
// classical 1/2-approximation), and an exact branch-and-bound serves tests and small
// instances.

#ifndef SRC_KNAPSACK_SINGLE_DIM_H_
#define SRC_KNAPSACK_SINGLE_DIM_H_

#include <cstddef>
#include <span>
#include <vector>

namespace dpack {

// One candidate item: non-negative profit and demand.
struct KnapsackItem {
  double profit = 0.0;
  double demand = 0.0;
};

struct KnapsackSolution {
  double total_profit = 0.0;
  std::vector<size_t> selected;  // Indices into the input span, ascending.
};

// True if all items have the same profit (within exact equality; workload profits are exact).
bool UniformProfits(std::span<const KnapsackItem> items);

// Exact solver for uniform-profit instances: picks the maximum number of items that fit
// (sort ascending by demand, take the longest feasible prefix). O(n log n).
KnapsackSolution MaxCardinalityKnapsack(std::span<const KnapsackItem> items, double capacity);

// Profit and size of MaxCardinalityKnapsack's solution without building it.
struct CardinalityValue {
  double total_profit = 0.0;
  size_t count = 0;  // Items packed.
};

// MaxCardinalityKnapsack's total_profit for items that all carry `profit`, given only their
// demands. Selects instead of sorting everything: demands above capacity are dropped, a
// quickselect on the running sum isolates the smallest demands up to just past the
// capacity, and only those are sorted and walked. Expected cost O(n + count log count).
// The walk sees the same ascending values as MaxCardinalityKnapsack's (tied demands are
// equal values) and adds them and `profit` in the same order, so total_profit is
// bit-identical. `demands` is scratch: the call reorders it.
CardinalityValue MaxCardinalityValue(std::span<double> demands, double profit, double capacity);

// Classical greedy by profit density with the best-single-item fix: a 1/2-approximation.
// O(n log n).
KnapsackSolution GreedyDensityKnapsack(std::span<const KnapsackItem> items, double capacity);

// Upper bound from the LP relaxation (fractional knapsack): optimum <= returned value.
double FractionalKnapsackBound(std::span<const KnapsackItem> items, double capacity);

// Profit-scaling FPTAS: returns a solution with profit >= optimum / (1 + eta).
// Runs the dynamic program over scaled profits; cost O(n^2 / eta). `max_states` caps the DP
// table size; when exceeded the solver falls back to GreedyDensityKnapsack (still 1/2-approx).
KnapsackSolution FptasKnapsack(std::span<const KnapsackItem> items, double capacity, double eta,
                               size_t max_states = 50'000'000);

// Exact branch-and-bound (fractional bound pruning). Exponential worst case; intended for
// tests and small instances (n up to a few hundred).
KnapsackSolution ExactKnapsack(std::span<const KnapsackItem> items, double capacity);

// Dispatcher used by DPack's single-block subproblems: exact max-cardinality when profits are
// uniform, otherwise the FPTAS with the given eta.
KnapsackSolution SolveSingleBlock(std::span<const KnapsackItem> items, double capacity,
                                  double eta);

}  // namespace dpack

#endif  // SRC_KNAPSACK_SINGLE_DIM_H_
