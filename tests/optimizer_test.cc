#include <gtest/gtest.h>

#include "common/bytes.h"
#include "cost/speedup.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"
#include "test_util.h"

namespace sc::opt {
namespace {

TEST(ValidatePlanTest, AcceptsOptimizerOutput) {
  const graph::Graph g = test::Figure7Graph();
  const Optimizer optimizer;
  const AlternatingResult result = optimizer.Optimize(g, 100);
  std::string error;
  EXPECT_TRUE(ValidatePlan(g, result.plan, 100, &error)) << error;
}

TEST(ValidatePlanTest, RejectsWrongFlagSize) {
  const graph::Graph g = test::DiamondGraph();
  Plan plan;
  plan.order = graph::KahnTopologicalOrder(g);
  plan.flags = EmptyFlags(2);  // wrong length
  std::string error;
  EXPECT_FALSE(ValidatePlan(g, plan, 100, &error));
}

TEST(ValidatePlanTest, RejectsNonTopologicalOrder) {
  const graph::Graph g = test::DiamondGraph();
  Plan plan;
  plan.order = graph::Order::FromSequence({3, 2, 1, 0});
  plan.flags = EmptyFlags(4);
  std::string error;
  EXPECT_FALSE(ValidatePlan(g, plan, 100, &error));
  EXPECT_NE(error.find("topological"), std::string::npos);
}

TEST(ValidatePlanTest, RejectsOversizeFlaggedNode) {
  graph::Graph g;
  g.AddNode("huge", 500, 1.0);
  Plan plan;
  plan.order = graph::Order::FromSequence({0});
  plan.flags = MakeFlags(1, {0});
  std::string error;
  EXPECT_FALSE(ValidatePlan(g, plan, 100, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(ValidatePlanTest, RejectsPeakViolation) {
  const graph::Graph g = test::Figure7Graph();
  Plan plan;
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = MakeFlags(6, {0, 2});  // 200 live at once
  std::string error;
  EXPECT_FALSE(ValidatePlan(g, plan, 100, &error));
  EXPECT_NE(error.find("peak"), std::string::npos);
}

TEST(OptimizerTest, EstimatorScoresDriveFlagging) {
  graph::Graph g;
  const auto a = g.AddNode("a", 100 * kMB);
  const auto b = g.AddNode("b", kMB);
  g.AddEdge(a, b);
  cost::SpeedupEstimator{cost::CostModel{}}.AnnotateGraph(&g);
  const AlternatingResult result = Optimizer{}.Optimize(g, /*budget=*/kGB);
  EXPECT_GT(g.node(a).speedup_score, 0.0);
  EXPECT_TRUE(result.plan.flags[a]);
}

TEST(DescribePlanTest, MentionsOrderAndFlags) {
  const graph::Graph g = test::Figure7Graph();
  const Optimizer optimizer;
  const AlternatingResult result = optimizer.Optimize(g, 100);
  const std::string text = DescribePlan(g, result.plan);
  EXPECT_NE(text.find("execution order:"), std::string::npos);
  EXPECT_NE(text.find("v1*"), std::string::npos);  // v1 flagged
  EXPECT_NE(text.find("peak memory"), std::string::npos);
}

TEST(OptimizerTest, OptionsArePropagated) {
  AlternatingOptions options;
  options.selector = SelectorMethod::kGreedy;
  const Optimizer optimizer(options);
  EXPECT_EQ(optimizer.options().selector, SelectorMethod::kGreedy);
}

// ---------------------------------------------------------------------------
// WidenStages (stage-aware ordering post-pass)
// ---------------------------------------------------------------------------

/// Two independent chains a0->a1->a2 and b0->b1->b2.
graph::Graph TwoChains(std::int64_t node_size = 0) {
  graph::Graph g;
  for (char c : {'a', 'b'}) {
    graph::NodeId prev = graph::kInvalidNode;
    for (int d = 0; d < 3; ++d) {
      const graph::NodeId v = g.AddNode(std::string(1, c) +
                                            std::to_string(d),
                                        node_size, 1.0);
      if (prev != graph::kInvalidNode) g.AddEdge(prev, v);
      prev = v;
    }
  }
  return g;
}

TEST(WidenStagesTest, InterleavesChainsStageMajor) {
  const graph::Graph g = TwoChains();
  Plan plan;
  // Depth-first order: all of chain a, then all of chain b.
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = EmptyFlags(g.num_nodes());

  const Plan widened = WidenStages(g, plan);
  // Stage-major: both stage-0 roots first, then both stage-1 nodes, …
  EXPECT_EQ(widened.order.sequence,
            (std::vector<graph::NodeId>{0, 3, 1, 4, 2, 5}));
  EXPECT_TRUE(graph::IsTopologicalOrder(g, widened.order));
  EXPECT_EQ(widened.flags, plan.flags);
}

TEST(WidenStagesTest, StrictGateRejectsPeakGrowth) {
  // Flagging both chain roots: depth-first keeps one root resident at a
  // time (peak 100); stage-major would keep both (peak 200). Without a
  // budget the memory-equivalence gate must keep the original order.
  const graph::Graph g = TwoChains(/*node_size=*/100);
  Plan plan;
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = MakeFlags(g.num_nodes(), {0, 3});
  const std::int64_t before = PeakMemoryUsage(g, plan.order, plan.flags);

  // Every widened prefix puts both roots in stage 0, so none fits.
  const Plan widened = WidenStages(g, plan);
  EXPECT_EQ(widened.order.sequence, plan.order.sequence);
  EXPECT_EQ(PeakMemoryUsage(g, widened.order, widened.flags), before);

  // A budget that cannot absorb the wider peak rejects too.
  const Plan budgeted = WidenStages(g, plan, 150);
  EXPECT_EQ(budgeted.order.sequence, plan.order.sequence);
  EXPECT_TRUE(graph::IsTopologicalOrder(g, budgeted.order));
  EXPECT_LE(PeakMemoryUsage(g, budgeted.order, budgeted.flags), 150);
}

TEST(WidenStagesTest, BudgetGateAcceptsWiderPeakWithinBudget) {
  const graph::Graph g = TwoChains(/*node_size=*/100);
  Plan plan;
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = MakeFlags(g.num_nodes(), {0, 3});

  const Plan widened = WidenStages(g, plan, /*budget=*/400);
  EXPECT_EQ(widened.order.sequence,
            (std::vector<graph::NodeId>{0, 3, 1, 4, 2, 5}));
  EXPECT_LE(PeakMemoryUsage(g, widened.order, widened.flags), 400);
}

TEST(WidenStagesTest, PreservesPeakOnOptimizedPlans) {
  const graph::Graph g = test::Figure7Graph();
  const AlternatingResult base = Optimizer{}.Optimize(g, 100);
  const Plan widened = WidenStages(g, base.plan);
  EXPECT_TRUE(graph::IsTopologicalOrder(g, widened.order));
  EXPECT_EQ(widened.flags, base.plan.flags);
  EXPECT_LE(PeakMemoryUsage(g, widened.order, widened.flags),
            PeakMemoryUsage(g, base.plan.order, base.plan.flags));
}

TEST(WidenStagesTest, AlternatingPostPassKeepsPlanValid) {
  const graph::Graph g = test::Figure7Graph();
  AlternatingOptions options;
  options.widen_stages = true;
  const AlternatingResult widened = AlternatingOptimize(g, 100, options);
  std::string error;
  EXPECT_TRUE(ValidatePlan(g, widened.plan, 100, &error)) << error;
  // The post-pass never touches the flag set or the objective.
  const AlternatingResult base = AlternatingOptimize(g, 100);
  EXPECT_EQ(widened.plan.flags, base.plan.flags);
  EXPECT_DOUBLE_EQ(widened.total_score, base.total_score);
}

// Flagged mid-chain nodes make the *full* stage-major reorder
// co-resident (peak doubles, infeasible under the strict gate), but
// widening only the leading stage keeps the peak and still front-loads
// both roots for the lanes.
TEST(WidenStagesTest, PrefixWideningWinsWhenFullIsInfeasible) {
  graph::Graph g = TwoChains();
  g.mutable_node(1).size_bytes = 100;  // a1
  g.mutable_node(4).size_bytes = 100;  // b1
  Plan plan;
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = MakeFlags(g.num_nodes(), {1, 4});
  const std::int64_t before = PeakMemoryUsage(g, plan.order, plan.flags);
  ASSERT_EQ(before, 100);
  // The full stage-major reorder would interleave a1/b1 residency.
  ASSERT_EQ(PeakMemoryUsage(
                g, graph::Order::FromSequence({0, 3, 1, 4, 2, 5}),
                plan.flags),
            200);

  const Plan prefix = WidenStages(g, plan);
  EXPECT_EQ(prefix.order.sequence,
            (std::vector<graph::NodeId>{0, 3, 1, 2, 4, 5}));
  EXPECT_TRUE(graph::IsTopologicalOrder(g, prefix.order));
  EXPECT_EQ(prefix.flags, plan.flags);
  EXPECT_EQ(PeakMemoryUsage(g, prefix.order, prefix.flags), before);
  // Same prefix at an explicit budget below the full reorder's
  // 200-byte peak.
  const Plan budgeted = WidenStages(g, plan, 150);
  EXPECT_EQ(budgeted.order.sequence, prefix.order.sequence);
  EXPECT_LE(PeakMemoryUsage(g, budgeted.order, budgeted.flags), 150);
}

TEST(WidenStagesTest, PrefixEqualsFullWhenFullIsFeasible) {
  const graph::Graph g = TwoChains();
  Plan plan;
  plan.order = graph::Order::FromSequence({0, 1, 2, 3, 4, 5});
  plan.flags = EmptyFlags(g.num_nodes());
  const Plan widened = WidenStages(g, plan);
  EXPECT_EQ(widened.order.sequence,
            (std::vector<graph::NodeId>{0, 3, 1, 4, 2, 5}));
  // Already stage-major: returned unchanged.
  EXPECT_EQ(WidenStages(g, widened).order.sequence,
            widened.order.sequence);
}

// ---------------------------------------------------------------------------
// ReOptimizeWithResidency (cross-job sharing-aware pre-pass)
// ---------------------------------------------------------------------------

TEST(SharingPrepassTest, ResidentNodeYieldsItsBudgetToOthers) {
  // Two independent flag candidates; budget fits only one, and `a` wins
  // on score. With `a` already resident cross-job, flagging it saves
  // nothing — the knapsack budget must flow to `b`.
  graph::Graph g;
  const auto a = g.AddNode("a", 80, 10.0);
  const auto b = g.AddNode("b", 80, 5.0);
  const auto sink = g.AddNode("sink", 10, 0.0);
  g.AddEdge(a, sink);
  g.AddEdge(b, sink);
  const std::int64_t budget = 100;
  const AlternatingResult base = Optimizer{}.Optimize(g, budget);
  ASSERT_TRUE(base.plan.flags[a]);
  ASSERT_FALSE(base.plan.flags[b]);

  std::vector<bool> resident(3, false);
  resident[static_cast<std::size_t>(a)] = true;
  const AlternatingResult adjusted =
      ReOptimizeWithResidency(g, base.plan, budget, resident);
  EXPECT_FALSE(adjusted.plan.flags[a]);
  EXPECT_TRUE(adjusted.plan.flags[b]);
  std::string error;
  EXPECT_TRUE(ValidatePlan(g, adjusted.plan, budget, &error)) << error;
}

TEST(SharingPrepassTest, NoResidencyReturnsPriorUnchanged) {
  const graph::Graph g = test::Figure7Graph();
  const AlternatingResult base = Optimizer{}.Optimize(g, 100);
  const std::vector<bool> none(
      static_cast<std::size_t>(g.num_nodes()), false);
  const AlternatingResult same =
      ReOptimizeWithResidency(g, base.plan, 100, none);
  EXPECT_EQ(same.iterations, 0);
  EXPECT_EQ(same.plan.flags, base.plan.flags);
  EXPECT_EQ(same.plan.order.sequence, base.plan.order.sequence);
  // A mismatched residency vector is ignored, not trusted.
  const AlternatingResult mismatched =
      ReOptimizeWithResidency(g, base.plan, 100, {true});
  EXPECT_EQ(mismatched.plan.flags, base.plan.flags);
}

TEST(WidenStagesTest, ThrowsOnNonTopologicalOrder) {
  const graph::Graph g = TwoChains();
  Plan plan;
  plan.order = graph::Order::FromSequence({2, 1, 0, 5, 4, 3});
  plan.flags = EmptyFlags(g.num_nodes());
  EXPECT_THROW(WidenStages(g, plan), std::invalid_argument);
}

}  // namespace
}  // namespace sc::opt
