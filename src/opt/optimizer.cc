#include "opt/optimizer.h"

#include <algorithm>
#include <sstream>

#include "common/bytes.h"
#include "common/str_util.h"
#include "opt/memory_usage.h"
#include "opt/stages.h"

namespace sc::opt {

AlternatingResult Optimizer::Optimize(const graph::Graph& g,
                                      std::int64_t budget) const {
  return AlternatingOptimize(g, budget, options_);
}

AlternatingResult ReOptimizeAtBudget(const graph::Graph& g,
                                     const Plan& prior, std::int64_t budget,
                                     const AlternatingOptions& options) {
  std::string error;
  if (ValidatePlan(g, prior, budget, &error)) {
    AlternatingResult result;
    result.plan = prior;
    result.total_score = TotalScore(g, prior.flags);
    result.iterations = 0;
    result.stop_reason = StopReason::kNoImprovement;
    return result;
  }
  return AlternatingOptimize(g, budget, options);
}

AlternatingResult ReOptimizeWithResidency(
    const graph::Graph& g, const Plan& prior, std::int64_t budget,
    const std::vector<bool>& resident, const AlternatingOptions& options) {
  bool adjusts = false;
  if (resident.size() == static_cast<std::size_t>(g.num_nodes())) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (resident[static_cast<std::size_t>(v)] &&
          g.node(v).speedup_score > 0.0) {
        adjusts = true;
        break;
      }
    }
  }
  if (!adjusts) {
    AlternatingResult result;
    result.plan = prior;
    result.total_score = TotalScore(g, prior.flags);
    result.iterations = 0;
    result.stop_reason = StopReason::kNoImprovement;
    return result;
  }
  graph::Graph adjusted = g;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (resident[static_cast<std::size_t>(v)]) {
      adjusted.mutable_node(v).speedup_score = 0.0;
    }
  }
  return AlternatingOptimize(adjusted, budget, options);
}

Plan WidenStages(const graph::Graph& g, const Plan& plan,
                 std::int64_t budget) {
  const StageDecomposition stages = DecomposeStages(g, plan.order);
  const std::int64_t gate =
      budget >= 0 ? std::max(budget,
                             PeakMemoryUsage(g, plan.order, plan.flags))
                  : PeakMemoryUsage(g, plan.order, plan.flags);
  // Stage-major listing of the first k stages, original relative order
  // for the rest. Topological either way: prefix nodes only move earlier
  // (their parents sit in even earlier stages of the same prefix), and
  // the suffix preserves the original pairwise order.
  const std::vector<graph::NodeId>& original = plan.order.sequence;
  auto widen_k = [&](std::size_t k) {
    std::vector<graph::NodeId> sequence;
    sequence.reserve(original.size());
    for (std::size_t i = 0; i < k; ++i) {
      sequence.insert(sequence.end(), stages.stages[i].begin(),
                      stages.stages[i].end());
    }
    for (const graph::NodeId v : original) {
      if (static_cast<std::size_t>(stages.stage_of[v]) >= k) {
        sequence.push_back(v);
      }
    }
    return sequence;
  };
  // Greedy: the longest feasible widened prefix wins.
  std::vector<graph::NodeId> previous;
  for (std::size_t k = stages.stages.size(); k > 0; --k) {
    std::vector<graph::NodeId> sequence = widen_k(k);
    // Once the k-prefix reorder is a no-op, every shorter prefix is too.
    if (sequence == original) return plan;
    // Identical to the (k+1)-prefix sequence ⇒ identical (rejected) peak.
    if (sequence == previous) continue;
    Plan widened;
    widened.order = graph::Order::FromSequence(std::move(sequence));
    widened.flags = plan.flags;
    if (PeakMemoryUsage(g, widened.order, widened.flags) <= gate) {
      return widened;
    }
    previous = std::move(widened.order.sequence);
  }
  return plan;
}

bool ValidatePlan(const graph::Graph& g, const Plan& plan,
                  std::int64_t budget, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (plan.flags.size() != static_cast<std::size_t>(g.num_nodes())) {
    return fail("flag set size does not match graph");
  }
  if (!graph::IsTopologicalOrder(g, plan.order)) {
    return fail("execution order is not a valid topological order");
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (plan.flags[v] && g.node(v).size_bytes > budget) {
      return fail(StrFormat("flagged node '%s' (%s) exceeds the budget %s",
                            g.node(v).name.c_str(),
                            FormatBytes(g.node(v).size_bytes).c_str(),
                            FormatBytes(budget).c_str()));
    }
  }
  const std::int64_t peak = PeakMemoryUsage(g, plan.order, plan.flags);
  if (peak > budget) {
    return fail(StrFormat("peak memory usage %s exceeds the budget %s",
                          FormatBytes(peak).c_str(),
                          FormatBytes(budget).c_str()));
  }
  return true;
}

std::string DescribePlan(const graph::Graph& g, const Plan& plan) {
  std::ostringstream out;
  out << "execution order:";
  for (graph::NodeId v : plan.order.sequence) {
    out << ' ' << g.node(v).name;
    if (plan.flags[v]) out << "*";
  }
  out << "\nflagged (*) nodes kept in Memory Catalog: "
      << FlaggedNodes(plan.flags).size() << " of " << g.num_nodes();
  out << "\ntotal speedup score: " << TotalScore(g, plan.flags) << " s";
  out << "\npeak memory: "
      << FormatBytes(PeakMemoryUsage(g, plan.order, plan.flags));
  out << "\naverage memory: "
      << FormatBytes(static_cast<std::int64_t>(
             AverageMemoryUsage(g, plan.order, plan.flags)));
  out << '\n';
  return out.str();
}

}  // namespace sc::opt
