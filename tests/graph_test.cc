#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dot.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "graph/serde.h"
#include "graph/topo.h"
#include "test_util.h"

namespace sc::graph {
namespace {

TEST(GraphTest, AddNodeAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode("a"), 0);
  EXPECT_EQ(g.AddNode("b"), 1);
  EXPECT_EQ(g.num_nodes(), 2);
}

TEST(GraphTest, DuplicateNameThrows) {
  Graph g;
  g.AddNode("a");
  EXPECT_THROW(g.AddNode("a"), std::invalid_argument);
}

TEST(GraphTest, EmptyNameThrows) {
  Graph g;
  EXPECT_THROW(g.AddNode(""), std::invalid_argument);
}

TEST(GraphTest, AddEdgeRejectsSelfLoopsAndDuplicates) {
  Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  EXPECT_TRUE(g.AddEdge(a, b));
  EXPECT_FALSE(g.AddEdge(a, b));  // duplicate
  EXPECT_FALSE(g.AddEdge(a, a));  // self loop
  EXPECT_FALSE(g.AddEdge(a, 99));  // out of range
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, ParentsAndChildren) {
  Graph g = test::DiamondGraph();
  EXPECT_EQ(g.children(0).size(), 2u);
  EXPECT_EQ(g.parents(3).size(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(GraphTest, RootsAndLeaves) {
  Graph g = test::DiamondGraph();
  EXPECT_EQ(g.Roots(), std::vector<NodeId>{0});
  EXPECT_EQ(g.Leaves(), std::vector<NodeId>{3});
}

TEST(GraphTest, FindByName) {
  Graph g = test::DiamondGraph();
  EXPECT_EQ(g.FindByName("a"), std::optional<NodeId>{0});
  EXPECT_FALSE(g.FindByName("nope").has_value());
}

TEST(GraphTest, ValidateAcceptsDag) {
  Graph g = test::Figure7Graph();
  std::string error;
  EXPECT_TRUE(g.Validate(&error)) << error;
}

TEST(GraphTest, ValidateRejectsCycle) {
  Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(c, a);
  std::string error;
  EXPECT_FALSE(g.Validate(&error));
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(GraphTest, TotalSizeAndScore) {
  Graph g = test::Figure7Graph();
  EXPECT_EQ(g.TotalSize(), 100 + 10 + 100 + 10 + 10 + 10);
  EXPECT_DOUBLE_EQ(g.TotalScore(), 240.0);
}

TEST(GraphTest, OutOfRangeAccessThrows) {
  Graph g;
  g.AddNode("a");
  EXPECT_THROW(g.node(5), std::out_of_range);
  EXPECT_THROW(g.node(-1), std::out_of_range);
}

TEST(OrderTest, FromSequenceBuildsPositions) {
  const Order order = Order::FromSequence({2, 0, 1});
  EXPECT_EQ(order.position[2], 0);
  EXPECT_EQ(order.position[0], 1);
  EXPECT_EQ(order.position[1], 2);
}

TEST(TopoTest, KahnProducesValidOrder) {
  const Graph g = test::Figure7Graph();
  const Order order = KahnTopologicalOrder(g);
  EXPECT_TRUE(IsTopologicalOrder(g, order));
}

TEST(TopoTest, KahnIsDeterministic) {
  const Graph g = test::RandomDag(40, 9);
  EXPECT_EQ(KahnTopologicalOrder(g).sequence,
            KahnTopologicalOrder(g).sequence);
}

TEST(TopoTest, IsTopologicalOrderRejectsViolations) {
  const Graph g = test::DiamondGraph();
  // d before its parents.
  EXPECT_FALSE(IsTopologicalOrder(g, Order::FromSequence({3, 0, 1, 2})));
  // Wrong length.
  EXPECT_FALSE(IsTopologicalOrder(g, Order::FromSequence({0, 1})));
  // Duplicate entry.
  EXPECT_FALSE(IsTopologicalOrder(g, Order::FromSequence({0, 1, 1, 2})));
}

TEST(TopoTest, DfsScheduleIsTopological) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Graph g = test::RandomDag(30, seed);
    const Order order = DfsSchedule(g);
    EXPECT_TRUE(IsTopologicalOrder(g, order)) << "seed " << seed;
  }
}

TEST(TopoTest, DfsScheduleFinishesBranchesDepthFirst) {
  // Chain a->b->c plus root d: DFS must finish the chain before starting d
  // (with id tie-break, a < d).
  Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddNode("d");
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  const Order order = DfsSchedule(g);
  EXPECT_EQ(order.sequence, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(TopoTest, DfsTieBreakCallbackSelectsCandidate) {
  // Two roots 0 and 1; tie-break picks the LAST candidate.
  Graph g;
  g.AddNode("r0");
  g.AddNode("r1");
  const Order order = DfsSchedule(
      g, [](const std::vector<NodeId>& c) { return c.size() - 1; });
  EXPECT_EQ(order.sequence.front(), 1);
}

TEST(TopoTest, AncestorsDescendants) {
  const Graph g = test::Figure7Graph();
  // v3 (id 2) has ancestors v1 (0), v2 (1).
  EXPECT_EQ(Ancestors(g, 2), (std::vector<NodeId>{0, 1}));
  // Descendants of v3: v5 (4), v6 (5).
  EXPECT_EQ(Descendants(g, 2), (std::vector<NodeId>{4, 5}));
  EXPECT_TRUE(Ancestors(g, 0).empty());
}

TEST(TopoTest, LongestPath) {
  EXPECT_EQ(LongestPathLength(test::Figure7Graph()), 5);  // v1-v2-v3-v5-v6
  EXPECT_EQ(LongestPathLength(test::DiamondGraph()), 3);
  EXPECT_EQ(LongestPathLength(Graph{}), 0);
}

TEST(DotTest, RendersNodesAndEdges) {
  const Graph g = test::DiamondGraph();
  DotOptions options;
  options.highlighted = {1};
  const std::string dot = ToDot(g, options);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("lightblue"), std::string::npos);
}

TEST(SerdeTest, RoundTrip) {
  Graph g = test::Figure7Graph();
  g.mutable_node(0).disk_bytes = 12345;  // profiled warehouse file size
  Graph parsed;
  std::string error;
  ASSERT_TRUE(Deserialize(Serialize(g), &parsed, &error)) << error;
  ASSERT_EQ(parsed.num_nodes(), g.num_nodes());
  ASSERT_EQ(parsed.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(parsed.node(v).name, g.node(v).name);
    EXPECT_EQ(parsed.node(v).size_bytes, g.node(v).size_bytes);
    EXPECT_EQ(parsed.node(v).disk_bytes, g.node(v).disk_bytes);
    EXPECT_DOUBLE_EQ(parsed.node(v).speedup_score, g.node(v).speedup_score);
    EXPECT_EQ(parsed.children(v), g.children(v));
  }
}

TEST(SerdeTest, RejectsUnknownDirective) {
  Graph g;
  std::string error;
  EXPECT_FALSE(Deserialize("vertex a 1 2", &g, &error));
  EXPECT_NE(error.find("unknown directive"), std::string::npos);
}

TEST(SerdeTest, RejectsEdgeToUnknownNode) {
  Graph g;
  std::string error;
  EXPECT_FALSE(Deserialize("node a 1 0 0 0\nedge a b\n", &g, &error));
  EXPECT_NE(error.find("unknown node"), std::string::npos);
}

TEST(SerdeTest, IgnoresCommentsAndBlankLines) {
  Graph g;
  std::string error;
  ASSERT_TRUE(
      Deserialize("# hello\n\nnode a 5 1 0 0\n  \nnode b 6 2 0 0\nedge a b\n",
                  &g, &error))
      << error;
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(FingerprintNodesTest, LineageSensitiveAndEdgeOrderInsensitive) {
  // Same names + same parent sets ⇒ same fingerprints, regardless of
  // node/edge insertion order.
  Graph a;
  const auto a_root = a.AddNode("root");
  const auto a_l = a.AddNode("l");
  const auto a_r = a.AddNode("r");
  const auto a_sink = a.AddNode("sink");
  a.AddEdge(a_root, a_l);
  a.AddEdge(a_root, a_r);
  a.AddEdge(a_l, a_sink);
  a.AddEdge(a_r, a_sink);

  Graph b;
  const auto b_r = b.AddNode("r");
  const auto b_sink = b.AddNode("sink");
  const auto b_root = b.AddNode("root");
  const auto b_l = b.AddNode("l");
  b.AddEdge(b_r, b_sink);
  b.AddEdge(b_l, b_sink);
  b.AddEdge(b_root, b_r);
  b.AddEdge(b_root, b_l);

  const auto fa = FingerprintNodes(a);
  const auto fb = FingerprintNodes(b);
  ASSERT_EQ(fa.size(), 4u);
  ASSERT_EQ(fb.size(), 4u);
  EXPECT_EQ(fa[a_sink], fb[b_sink]);
  EXPECT_EQ(fa[a_l], fb[b_l]);
  // Execution metadata is not content: sizes/scores don't change keys.
  Graph c = a;
  c.mutable_node(a_sink).size_bytes = 999;
  c.mutable_node(a_sink).speedup_score = 3.0;
  EXPECT_EQ(FingerprintNodes(c)[a_sink], fa[a_sink]);

  // Different lineage ⇒ different key, even with the same name.
  Graph d;
  const auto d_other = d.AddNode("other");
  const auto d_sink = d.AddNode("sink");
  d.AddEdge(d_other, d_sink);
  EXPECT_NE(FingerprintNodes(d)[d_sink], fa[a_sink]);

  // A node's salt (its base-table versions) reaches its descendants
  // through the lineage, and nothing else.
  std::vector<std::uint64_t> salts(4, 0);
  salts[static_cast<std::size_t>(a_l)] = 1;
  const auto salted = FingerprintNodes(a, salts);
  EXPECT_EQ(salted[a_root], fa[a_root]);
  EXPECT_EQ(salted[a_r], fa[a_r]);
  EXPECT_NE(salted[a_l], fa[a_l]);
  EXPECT_NE(salted[a_sink], fa[a_sink]);
  // A salt vector of the wrong size leaves sharing off.
  EXPECT_TRUE(FingerprintNodes(a, {1, 2}).empty());
}

}  // namespace
}  // namespace sc::graph
