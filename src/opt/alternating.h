#ifndef SC_OPT_ALTERNATING_H_
#define SC_OPT_ALTERNATING_H_

#include <cstdint>
#include <vector>

#include "opt/mkp.h"
#include "opt/schedulers.h"
#include "opt/selectors.h"
#include "opt/types.h"

namespace sc::opt {

/// Why the alternating optimization loop terminated.
enum class StopReason {
  kNoImprovement,    // MKP found no better flag set (Algorithm 2 line 5).
  kInfeasibleOrder,  // New order violates the budget (line 8).
  kIterationLimit,   // Safety valve; should not trigger in practice.
};

/// Configuration for Algorithm 2. The selector/scheduler fields enable the
/// paper's ablation study (§VI-F): the default pair (MKP, MA-DFS) is the
/// S/C solution; swapping either reproduces an ablated method.
struct AlternatingOptions {
  SelectorMethod selector = SelectorMethod::kMkp;
  SchedulerMethod scheduler = SchedulerMethod::kMaDfs;

  /// Convergence test of line 5. The paper's prose argues convergence by
  /// total speedup score while the pseudocode compares total flagged size;
  /// kScore is the default (provably convergent), kSize matches the
  /// pseudocode literally.
  enum class Convergence { kScore, kSize };
  Convergence convergence = Convergence::kScore;

  std::int32_t max_iterations = 50;
  std::uint64_t seed = 42;
  MkpOptions mkp;

  /// Applies the opt::WidenStages post-pass to the converged plan:
  /// lists the longest leading run of antichain stages stage-major that
  /// keeps peak memory within the budget, so early antichains are as wide
  /// as possible — feeding the parallel runtime's lanes without changing
  /// the flag set. Off by default (irrelevant for sequential execution);
  /// the RefreshService turns it on whenever intra-job lanes are enabled.
  bool widen_stages = false;
};

/// One iteration's snapshot, for convergence diagnostics and tests.
struct IterationTrace {
  double total_score = 0.0;
  std::int64_t total_flagged_size = 0;
  double average_memory = 0.0;
  std::int64_t peak_memory = 0;
};

struct AlternatingResult {
  Plan plan;
  double total_score = 0.0;
  std::int32_t iterations = 0;
  StopReason stop_reason = StopReason::kNoImprovement;
  std::vector<IterationTrace> trace;
};

/// Algorithm 2: alternately solve S/C Opt-Nodes (flag selection for a fixed
/// order) and S/C Opt-Order (reordering to lower average memory usage),
/// starting from a plain topological order and an empty flag set.
AlternatingResult AlternatingOptimize(const graph::Graph& g,
                                      std::int64_t budget,
                                      const AlternatingOptions& options = {});

}  // namespace sc::opt

#endif  // SC_OPT_ALTERNATING_H_
