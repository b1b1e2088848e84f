#ifndef SC_OPT_OPTIMIZER_H_
#define SC_OPT_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "opt/alternating.h"
#include "opt/types.h"

namespace sc::opt {

/// High-level facade mirroring the S/C Optimizer component (paper §III-B):
/// given a dependency graph with execution metadata, produces the refresh
/// plan (execution order + nodes to keep in the Memory Catalog) consumed by
/// the Controller / simulator.
class Optimizer {
 public:
  explicit Optimizer(AlternatingOptions options = {})
      : options_(std::move(options)) {}

  /// Runs S/C Opt on `g` with Memory Catalog size `budget`. Speedup scores
  /// must already be present on the graph (either observed or annotated via
  /// cost::SpeedupEstimator).
  AlternatingResult Optimize(const graph::Graph& g,
                             std::int64_t budget) const;

  const AlternatingOptions& options() const { return options_; }

 private:
  AlternatingOptions options_;
};

/// Re-optimization entry point for the Refresh Service: when the
/// BudgetBroker funds a job below the budget its plan was built for, the
/// flagged set may no longer fit. Returns `prior` unchanged (iterations ==
/// 0) when it is still feasible at `budget`; otherwise re-runs the
/// alternating optimization at the granted budget.
AlternatingResult ReOptimizeAtBudget(const graph::Graph& g,
                                     const Plan& prior, std::int64_t budget,
                                     const AlternatingOptions& options = {});

/// Sharing-aware pre-pass for cross-job catalog sharing: `resident[v]`
/// marks nodes whose outputs are already resident in the service's
/// SharedCatalog (published by a concurrent or recent job refreshing the
/// same content). A resident node yields no extra speedup from flagging —
/// the runtime reuses its output at memory speed regardless, and its
/// children scan it from memory, not disk — so its speedup score is
/// re-costed to zero and the alternating optimization re-runs, steering
/// the knapsack budget to nodes that are *not* yet shared. Returns
/// `prior` unchanged (iterations == 0) when no positive-score node is
/// resident or `resident` does not match the graph; the adjustment is
/// then a no-op by construction.
AlternatingResult ReOptimizeWithResidency(
    const graph::Graph& g, const Plan& prior, std::int64_t budget,
    const std::vector<bool>& resident,
    const AlternatingOptions& options = {});

/// Stage-aware ordering post-pass for the parallel runtime. MA-DFS
/// minimizes memory for a sequential walk, which lists each branch
/// depth-first — so under the runtime's in-order publish protocol, an
/// early-completed node of a later branch waits for the whole earlier
/// branch to publish before its children may dispatch, starving early
/// antichains. WidenStages reorders the leading stages of the total order
/// *stage-major*: the first k antichain stages (a node's stage is its DAG
/// depth, so it is order-independent) are listed stage by stage, by
/// original order position within a stage, and the rest keep their
/// original relative order. This front-loads each widened stage's full
/// width and publishes cross-branch siblings as early as possible.
///
/// The pass is memory-gated and picks the largest k whose plan keeps
/// peak Memory-Catalog usage under the flag set within `budget`:
/// interleaving flagged branches keeps more sibling outputs resident
/// simultaneously, so the widened peak may exceed the MA-DFS peak, but
/// never the catalog size. Early antichains are where lane starvation
/// hurts most (the run's tail drains anyway), so a feasible prefix
/// captures most of the full reorder's win when the full reorder would
/// overshoot. With `budget` < 0 (default) the gate is strict memory
/// equivalence: the reordering must not raise the peak at all. When no
/// widened prefix fits, the plan is returned unchanged. Flags are never
/// modified. Throws std::invalid_argument if the order is not a
/// topological order covering the graph.
Plan WidenStages(const graph::Graph& g, const Plan& plan,
                 std::int64_t budget = -1);

/// Independent plan verifier used by tests and the Controller: checks that
/// the order is a valid topological order, that no flagged node is oversize
/// or zero-score-excluded, and that peak memory stays within `budget`.
/// Returns true on success; otherwise fills `error`.
bool ValidatePlan(const graph::Graph& g, const Plan& plan,
                  std::int64_t budget, std::string* error);

/// Human-readable plan summary (order, flagged set, peak/average memory).
std::string DescribePlan(const graph::Graph& g, const Plan& plan);

}  // namespace sc::opt

#endif  // SC_OPT_OPTIMIZER_H_
