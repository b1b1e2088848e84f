#include <gtest/gtest.h>

#include "common/bytes.h"
#include "cost/speedup.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"
#include "sim/cluster.h"
#include "sim/device.h"
#include "sim/lru_cache.h"
#include "sim/refresh_sim.h"
#include "test_util.h"

namespace sc::sim {
namespace {

graph::Graph MbGraph() {
  // Figure-7 topology with MB-scale sizes and compute costs, annotated
  // with paper-testbed speedup scores.
  graph::Graph g = test::Figure7Graph();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    g.mutable_node(v).size_bytes *= 10 * kMB;  // 100GB node -> 1GB
    g.mutable_node(v).compute_seconds = 0.2;
    g.mutable_node(v).base_input_bytes = 50 * kMB;
  }
  cost::SpeedupEstimator{cost::CostModel{}}.AnnotateGraph(&g);
  return g;
}

SimOptions DefaultOptions(std::int64_t budget) {
  SimOptions options;
  options.budget = budget;
  return options;
}

TEST(FifoChannelTest, SerializesWork) {
  FifoChannel channel;
  EXPECT_DOUBLE_EQ(channel.Submit(0.0, 2.0), 2.0);
  // Submitted at t=1 while busy until 2: starts at 2, ends at 5.
  EXPECT_DOUBLE_EQ(channel.Submit(1.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(channel.QueueDelay(3.0), 2.0);
  EXPECT_DOUBLE_EQ(channel.QueueDelay(10.0), 0.0);
  channel.Reset();
  EXPECT_DOUBLE_EQ(channel.free_at(), 0.0);
}

TEST(RefreshSimTest, EmptyFlagsEqualsNoOpt) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(0);
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(g);
  plan.flags = opt::EmptyFlags(g.num_nodes());
  const RunResult a = SimulateRun(g, plan, options);
  const RunResult b = SimulateNoOpt(g, options);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.total_read_seconds, b.total_read_seconds);
}

TEST(RefreshSimTest, FlaggingNeverSlowsDown) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(2 * kGB);
  const opt::Optimizer optimizer;
  const auto result = optimizer.Optimize(g, options.budget);
  const double optimized = SimulateRun(g, result.plan, options).makespan;
  const double baseline = SimulateNoOpt(g, options).makespan;
  EXPECT_LE(optimized, baseline);
  EXPECT_GT(SpeedupOverNoOpt(g, result.plan, options), 1.0);
}

TEST(RefreshSimTest, PeakMemoryMatchesOptimizerModel) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(2 * kGB);
  const opt::Optimizer optimizer;
  const auto result = optimizer.Optimize(g, options.budget);
  const RunResult run = SimulateRun(g, result.plan, options);
  // The simulator's peak can exceed the slot-model peak only via
  // materialization lag; it must never exceed the budget for a valid plan
  // in which writes finish before release.
  EXPECT_GE(run.peak_memory,
            opt::PeakMemoryUsage(g, result.plan.order, result.plan.flags));
  EXPECT_FALSE(run.exceeded_budget);
}

TEST(RefreshSimTest, MemoryReadsFasterThanDisk) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(4 * kGB);
  opt::Plan all;
  all.order = graph::KahnTopologicalOrder(g);
  all.flags = opt::FlagSet(g.num_nodes(), true);
  const RunResult flagged = SimulateRun(g, all, options);
  const RunResult baseline = SimulateNoOpt(g, options);
  EXPECT_LT(flagged.total_read_seconds, baseline.total_read_seconds);
}

TEST(RefreshSimTest, BackgroundWritesOverlapButCountInMakespan) {
  // One producer, one cheap consumer: with background materialization the
  // makespan is bounded below by the write completing.
  graph::Graph g;
  const auto a = g.AddNode("a", 500 * kMB, 1.0);
  const auto b = g.AddNode("b", kMB, 1.0);
  g.AddEdge(a, b);
  g.mutable_node(a).compute_seconds = 0.1;
  g.mutable_node(b).compute_seconds = 0.1;
  SimOptions options = DefaultOptions(kGB);
  opt::Plan plan;
  plan.order = graph::Order::FromSequence({0, 1});
  plan.flags = opt::MakeFlags(2, {0});
  const RunResult run = SimulateRun(g, plan, options);
  const cost::CostModel model(options.device);
  EXPECT_GE(run.makespan, model.DiskWriteSeconds(500 * kMB));
  // But the downstream node did not wait for it: its read came from
  // memory.
  EXPECT_LT(run.per_node[b].read_seconds,
            model.DiskReadSeconds(500 * kMB));
}

TEST(RefreshSimTest, DiskTermsMoveFileBytes) {
  // Unflagged producer and consumer: the write, the consumer's read of
  // it, and the makespan are priced from the file size, while residency
  // (none here) would be charged size_bytes.
  graph::Graph g;
  const auto a = g.AddNode("a", 500 * kMB, 1.0);
  const auto b = g.AddNode("b", kMB, 1.0);
  g.AddEdge(a, b);
  g.mutable_node(a).disk_bytes = 100 * kMB;
  SimOptions options = DefaultOptions(kGB);
  options.device.table_read_overhead = 0.0;
  options.device.table_write_overhead = 0.0;
  const RunResult run = SimulateNoOpt(g, options);
  const cost::CostModel model(options.device);
  EXPECT_NEAR(run.per_node[a].write_seconds,
              model.DiskWriteSeconds(100 * kMB), 1e-12);
  EXPECT_NEAR(run.per_node[b].read_seconds,
              model.DiskReadSeconds(100 * kMB), 1e-12);
  const RunResult lru = SimulateLruBaseline(g, 0, options);
  EXPECT_NEAR(lru.makespan, run.makespan, 1e-9);
}

TEST(RefreshSimTest, SynchronousMaterializationSlower) {
  const graph::Graph g = MbGraph();
  SimOptions background = DefaultOptions(4 * kGB);
  SimOptions blocking = background;
  blocking.background_materialize = false;
  opt::Plan all;
  all.order = graph::KahnTopologicalOrder(g);
  all.flags = opt::FlagSet(g.num_nodes(), true);
  EXPECT_LE(SimulateRun(g, all, background).makespan,
            SimulateRun(g, all, blocking).makespan);
}

TEST(RefreshSimTest, MoreBudgetNeverHurts) {
  const graph::Graph g = MbGraph();
  const opt::Optimizer optimizer;
  double previous = SimulateNoOpt(g, DefaultOptions(0)).makespan;
  for (const std::int64_t budget :
       {100 * kMB, 500 * kMB, 1 * kGB, 2 * kGB, 4 * kGB}) {
    const auto result = optimizer.Optimize(g, budget);
    const double makespan =
        SimulateRun(g, result.plan, DefaultOptions(budget)).makespan;
    EXPECT_LE(makespan, previous * 1.0001) << FormatBytes(budget);
    previous = makespan;
  }
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(100);
  cache.Insert(1, 40);
  cache.Insert(2, 40);
  EXPECT_TRUE(cache.Lookup(1));  // refresh 1; 2 becomes LRU
  cache.Insert(3, 40);           // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.used_bytes(), 80);
}

TEST(LruCacheTest, OversizeEntriesNotCached) {
  LruCache cache(10);
  cache.Insert(1, 50);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(LruCacheTest, ReinsertUpdatesSize) {
  LruCache cache(100);
  cache.Insert(1, 30);
  cache.Insert(1, 60);
  EXPECT_EQ(cache.used_bytes(), 60);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruBaselineTest, ZeroCacheEqualsNoOpt) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(0);
  const RunResult lru = SimulateLruBaseline(g, 0, options);
  const RunResult noopt = SimulateNoOpt(g, options);
  EXPECT_NEAR(lru.makespan, noopt.makespan, 1e-9);
}

TEST(LruBaselineTest, CacheHelpsButWritesStillBlock) {
  const graph::Graph g = MbGraph();
  const SimOptions options = DefaultOptions(0);
  const RunResult lru = SimulateLruBaseline(g, 8 * kGB, options);
  const RunResult noopt = SimulateNoOpt(g, options);
  EXPECT_LT(lru.total_read_seconds, noopt.total_read_seconds);
  // Writes unchanged: the cache does not short-circuit persistence.
  EXPECT_NEAR(lru.total_write_seconds, noopt.total_write_seconds, 1e-9);
}

TEST(LruBaselineTest, ScWinsOverLruAtSameBudget) {
  // With the same extra memory, S/C (which also reorders and removes
  // blocking writes) should beat the LRU result cache (paper Figure 9).
  const graph::Graph g = MbGraph();
  const std::int64_t budget = 2 * kGB;
  const SimOptions options = DefaultOptions(budget);
  const opt::Optimizer optimizer;
  const auto result = optimizer.Optimize(g, budget);
  const double sc = SimulateRun(g, result.plan, options).makespan;
  const double lru = SimulateLruBaseline(g, budget, options).makespan;
  EXPECT_LT(sc, lru);
}

TEST(ClusterTest, MoreWorkersFasterRuntime) {
  const graph::Graph g = MbGraph();
  const ClusterModel cluster;
  const SimOptions base = DefaultOptions(kGB);
  double previous = 1e18;
  for (int workers = 1; workers <= 5; ++workers) {
    const SimOptions scaled = cluster.Scale(base, workers);
    const double makespan = SimulateNoOpt(g, scaled).makespan;
    EXPECT_LT(makespan, previous);
    previous = makespan;
  }
}

TEST(ClusterTest, SpeedupStaysRoughlyFlat) {
  // Paper Table V: S/C's relative speedup is insensitive to worker count.
  const graph::Graph g = MbGraph();
  const ClusterModel cluster;
  const opt::Optimizer optimizer;
  const std::int64_t budget = 2 * kGB;
  const auto result = optimizer.Optimize(g, budget);
  std::vector<double> speedups;
  for (int workers = 1; workers <= 5; ++workers) {
    const SimOptions scaled = cluster.Scale(DefaultOptions(budget), workers);
    speedups.push_back(SpeedupOverNoOpt(g, result.plan, scaled));
  }
  const auto [lo, hi] =
      std::minmax_element(speedups.begin(), speedups.end());
  EXPECT_LT(*hi / *lo, 1.5);
  EXPECT_GT(*lo, 1.0);
}

}  // namespace
}  // namespace sc::sim
