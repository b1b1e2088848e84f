#include "opt/alternating.h"

#include "opt/ma_dfs.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"

namespace sc::opt {

namespace {

FlagSet RunSelector(const AlternatingOptions& options, const graph::Graph& g,
                    const graph::Order& order, std::int64_t budget,
                    std::uint64_t seed) {
  if (options.selector == SelectorMethod::kMkp) {
    const ConstraintSets cs = GetConstraints(g, order, budget);
    const MkpProblem problem = BuildMkpProblem(g, cs, budget);
    const MkpResult result = SolveMkpBranchAndBound(problem, options.mkp);
    FlagSet flags = EmptyFlags(g.num_nodes());
    for (std::size_t i = 0; i < cs.mkp_nodes.size(); ++i) {
      if (result.selected[i]) flags[cs.mkp_nodes[i]] = true;
    }
    for (graph::NodeId v : cs.free_nodes) flags[v] = true;
    return flags;
  }
  return SelectFlags(options.selector, g, order, budget, seed);
}

}  // namespace

AlternatingResult AlternatingOptimize(const graph::Graph& g,
                                      std::int64_t budget,
                                      const AlternatingOptions& options) {
  AlternatingResult result;
  // Lines 1-2: initial execution order and empty flag set. Any topological
  // sort is admissible (Algorithm 2 line 1); we start from the DFS-based
  // order, which the paper observes yields high-quality local optima
  // (§I: "starting from a specially designed variant of DFS") — a
  // breadth-first order makes all large roots resident simultaneously and
  // can trap the very first iteration.
  graph::Order tau = MaDfsOrder(g, EmptyFlags(g.num_nodes()));
  FlagSet flags = EmptyFlags(g.num_nodes());
  result.stop_reason = StopReason::kIterationLimit;

  for (std::int32_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Line 4: U_new = SimplifiedMKP(G, S, T, M, tau)  (or an ablated
    // selector). Derive a per-iteration seed so Random differs across
    // iterations but stays reproducible.
    const std::uint64_t iter_seed =
        options.seed + static_cast<std::uint64_t>(iter) * 7919u;
    FlagSet new_flags = RunSelector(options, g, tau, budget, iter_seed);

    // Line 5: convergence test.
    const bool improved =
        options.convergence == AlternatingOptions::Convergence::kScore
            ? TotalScore(g, new_flags) > TotalScore(g, flags)
            : TotalFlaggedSize(g, new_flags) > TotalFlaggedSize(g, flags);
    if (!improved) {
      result.stop_reason = StopReason::kNoImprovement;
      break;
    }
    flags = std::move(new_flags);  // Line 6.

    IterationTrace trace;
    trace.total_score = TotalScore(g, flags);
    trace.total_flagged_size = TotalFlaggedSize(g, flags);
    trace.average_memory = AverageMemoryUsage(g, tau, flags);
    trace.peak_memory = PeakMemoryUsage(g, tau, flags);
    result.trace.push_back(trace);

    // Line 7: tau_new = scheduler(G, S, T, M, U).
    graph::Order new_tau =
        ScheduleOrder(options.scheduler, g, flags, tau, iter_seed, budget);

    // Line 8: if the new order violates the budget, the previous order is
    // final.
    if (PeakMemoryUsage(g, new_tau, flags) > budget) {
      result.stop_reason = StopReason::kInfeasibleOrder;
      break;
    }
    tau = std::move(new_tau);  // Line 9.
  }

  // Guard: never return a plan worse than a single-shot selection on the
  // plain topological order (protects against pathological DAGs where the
  // DFS starting point converges to a poor local optimum).
  const graph::Order kahn = graph::KahnTopologicalOrder(g);
  FlagSet kahn_flags = RunSelector(options, g, kahn, budget, options.seed);
  if (TotalScore(g, kahn_flags) > TotalScore(g, flags)) {
    tau = kahn;
    flags = std::move(kahn_flags);
  }

  result.plan.order = std::move(tau);
  result.plan.flags = std::move(flags);
  if (options.widen_stages) {
    // Budget-gated, so the feasibility guarantees above still hold. It
    // widens only the leading stages when the full stage-major reorder
    // would overshoot.
    result.plan = WidenStages(g, result.plan, budget);
  }
  result.total_score = TotalScore(g, result.plan.flags);
  return result;
}

}  // namespace sc::opt
