#include <gtest/gtest.h>

#include "common/bytes.h"
#include "cost/cost_model.h"
#include "cost/speedup.h"
#include "test_util.h"

namespace sc::cost {
namespace {

TEST(CostModelTest, ZeroBytesCostNothing) {
  CostModel model;
  EXPECT_DOUBLE_EQ(model.DiskReadSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(model.DiskWriteSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(model.MemReadSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(model.MemWriteSeconds(0), 0.0);
}

TEST(CostModelTest, PaperTestbedNumbers) {
  CostModel model{DeviceProfile::PaperTestbed()};
  // 519.8 MB at 519.8 MB/s ~ 1 second, plus access latency and the
  // per-table open overhead.
  const DeviceProfile& p = model.profile();
  const double t = model.DiskReadSeconds(static_cast<std::int64_t>(519.8e6));
  EXPECT_NEAR(t, 1.0 + p.disk_latency + p.table_read_overhead, 1e-6);
}

TEST(CostModelTest, WriteChannelExcludesTableOverhead) {
  CostModel model;
  const std::int64_t b = 200 * kMB;
  EXPECT_NEAR(model.DiskWriteSeconds(b) - model.DiskWriteChannelSeconds(b),
              model.profile().table_write_overhead, 1e-9);
}

TEST(CostModelTest, WriteSlowerThanRead) {
  CostModel model;
  const std::int64_t gb = kGB;
  EXPECT_GT(model.DiskWriteSeconds(gb), model.DiskReadSeconds(gb));
}

TEST(CostModelTest, MemoryMuchFasterThanDisk) {
  CostModel model;
  const std::int64_t gb = kGB;
  EXPECT_LT(model.MemReadSeconds(gb) * 10, model.DiskReadSeconds(gb));
}

TEST(CostModelTest, WriteAmplificationScalesChannelTime) {
  DeviceProfile profile;
  profile.write_amplification = 2.0;
  CostModel amplified{profile};
  CostModel plain;
  const std::int64_t b = 100 * kMB;
  EXPECT_NEAR(
      amplified.DiskWriteChannelSeconds(b) - profile.disk_latency,
      2.0 * (plain.DiskWriteChannelSeconds(b) - profile.disk_latency),
      1e-9);
}

TEST(CostModelTest, RejectsNonPositiveBandwidth) {
  DeviceProfile profile;
  profile.disk_read_bw = 0;
  EXPECT_THROW(CostModel{profile}, std::invalid_argument);
}

TEST(SpeedupTest, ScoreZeroForEmptyOutput) {
  graph::Graph g;
  g.AddNode("empty", 0);
  SpeedupEstimator estimator{CostModel{}};
  EXPECT_DOUBLE_EQ(estimator.ScoreFor(g, 0), 0.0);
}

TEST(SpeedupTest, ScoreGrowsWithFanOut) {
  // Same node size, more children -> higher score (more reads saved).
  graph::Graph g1;
  auto a1 = g1.AddNode("a", kGB);
  auto b1 = g1.AddNode("b", 1);
  g1.AddEdge(a1, b1);

  graph::Graph g2;
  auto a2 = g2.AddNode("a", kGB);
  auto b2 = g2.AddNode("b", 1);
  auto c2 = g2.AddNode("c", 1);
  g2.AddEdge(a2, b2);
  g2.AddEdge(a2, c2);

  SpeedupEstimator estimator{CostModel{}};
  EXPECT_GT(estimator.ScoreFor(g2, a2), estimator.ScoreFor(g1, a1));
}

TEST(SpeedupTest, MatchesPaperFormula) {
  // t_i = children * (disk_read - mem_read) + (disk_write - mem_write).
  graph::Graph g;
  const auto a = g.AddNode("a", 100 * kMB);
  const auto b = g.AddNode("b", 1);
  const auto c = g.AddNode("c", 1);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  CostModel model;
  SpeedupEstimator estimator{model};
  const std::int64_t s = 100 * kMB;
  const double expected =
      2.0 * (model.DiskReadSeconds(s) - model.MemReadSeconds(s)) +
      (model.DiskWriteSeconds(s) - model.MemWriteSeconds(s));
  EXPECT_NEAR(estimator.ScoreFor(g, a), expected, 1e-12);
}

TEST(SpeedupTest, DiskTermsPricedFromFileBytes) {
  // A compressed warehouse file is smaller than the resident table: the
  // disk read/write terms move the file, the memory terms the table.
  graph::Graph g;
  const auto a = g.AddNode("a", 100 * kMB);
  const auto b = g.AddNode("b", 1);
  g.AddEdge(a, b);
  g.mutable_node(a).disk_bytes = 30 * kMB;
  CostModel model;
  SpeedupEstimator estimator{model};
  const std::int64_t s = 100 * kMB;
  const std::int64_t d = 30 * kMB;
  const double expected =
      (model.DiskReadSeconds(d) - model.MemReadSeconds(s)) +
      (model.DiskWriteSeconds(d) - model.MemWriteSeconds(s));
  EXPECT_NEAR(estimator.ScoreFor(g, a), expected, 1e-12);
  // Unknown file size (0) falls back to the resident size.
  g.mutable_node(a).disk_bytes = 0;
  EXPECT_EQ(g.node(a).DiskBytes(), s);
}

TEST(SpeedupTest, AnnotateGraphFillsAllNodes) {
  graph::Graph g = test::RandomDag(25, 3, /*max_size=*/kMB);
  SpeedupEstimator estimator{CostModel{}};
  estimator.AnnotateGraph(&g);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.node(v).speedup_score, 0.0);
    if (g.node(v).size_bytes > 0) {
      EXPECT_GT(g.node(v).speedup_score, 0.0);
    }
  }
}

TEST(SpeedupTest, ChildlessNodeStillHasWriteSaving) {
  graph::Graph g;
  g.AddNode("leaf", kGB);
  SpeedupEstimator estimator{CostModel{}};
  EXPECT_GT(estimator.ScoreFor(g, 0), 0.0);
}

}  // namespace
}  // namespace sc::cost
