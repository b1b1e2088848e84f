#ifndef SC_TESTS_TEST_UTIL_H_
#define SC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "graph/topo.h"

namespace sc::test {

/// A rule that fails the first disk write of node `v` once, and not as a
/// retryable fault, so a rerun succeeds. FaultRule::match is a substring
/// filter, so the test fails if `v`'s name occurs in another node's name.
inline fault::FaultRule FailFirstWriteOf(const graph::Graph& g,
                                         graph::NodeId v) {
  const std::string& name = g.node(v).name;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u != v && g.node(u).name.find(name) != std::string::npos) {
      ADD_FAILURE() << "'" << name << "' also matches '" << g.node(u).name
                    << "'";
    }
  }
  fault::FaultRule rule;
  rule.site = fault::Site::kDiskWrite;
  rule.match = name;
  rule.nth_hit = 1;
  rule.max_fires = 1;
  rule.transient = false;
  return rule;
}

/// The toy graph of paper Figure 7 (sizes in GB, speedup score == size):
///
///   v1(100) -> v2(10) -> v3(100) -> v5(10) -> v6(10)
///   v1      -> v4(10)
///   v3      -> v4? No: v1 -> v4; v4 depends only on v1.
///
/// Structure used in the paper: v1 feeds v2 and v4; v2 feeds v3; v3 feeds
/// v5; v5 feeds v6. Executing v4 before v3 (order 2) lets both 100GB nodes
/// be flagged under M = 100GB.
inline graph::Graph Figure7Graph() {
  graph::Graph g;
  auto add = [&](const std::string& name, std::int64_t gb) {
    graph::NodeInfo info;
    info.name = name;
    info.size_bytes = gb;          // use GB as abstract units
    info.speedup_score = static_cast<double>(gb);
    return g.AddNode(std::move(info));
  };
  const auto v1 = add("v1", 100);
  const auto v2 = add("v2", 10);
  const auto v3 = add("v3", 100);
  const auto v4 = add("v4", 10);
  const auto v5 = add("v5", 10);
  const auto v6 = add("v6", 10);
  g.AddEdge(v1, v2);
  g.AddEdge(v1, v4);
  g.AddEdge(v2, v3);
  g.AddEdge(v3, v5);
  g.AddEdge(v5, v6);
  return g;
}

/// The toy graph of paper Figure 8 (sizes in GB, score == size):
/// v1(20) feeds v2(100) and v3(80); v2 feeds v5(20) via v4? The paper's
/// figure: v1 -> {v2, v3}; v2 -> v4(80); v3 -> {v5(20), v6(20)};
/// v5 -> v7(100); v6 joins v7's branch. We reproduce the essential
/// tie-break situation: after v1, both v2 (unflagged, 100GB) and v3
/// (flagged, 80GB) are ready; scheduling v2's branch first keeps v3
/// resident longer.
inline graph::Graph Figure8Graph() {
  graph::Graph g;
  auto add = [&](const std::string& name, std::int64_t gb) {
    graph::NodeInfo info;
    info.name = name;
    info.size_bytes = gb;
    info.speedup_score = static_cast<double>(gb);
    return g.AddNode(std::move(info));
  };
  const auto v1 = add("v1", 20);
  const auto v2 = add("v2", 100);
  const auto v3 = add("v3", 80);
  const auto v4 = add("v4", 80);
  const auto v5 = add("v5", 20);
  const auto v6 = add("v6", 20);
  const auto v7 = add("v7", 100);
  g.AddEdge(v1, v2);
  g.AddEdge(v1, v3);
  g.AddEdge(v2, v4);
  g.AddEdge(v3, v5);
  g.AddEdge(v3, v6);
  g.AddEdge(v5, v7);
  g.AddEdge(v6, v7);
  return g;
}

/// A simple diamond: a -> {b, c} -> d.
inline graph::Graph DiamondGraph(std::int64_t size = 10) {
  graph::Graph g;
  auto add = [&](const std::string& name) {
    graph::NodeInfo info;
    info.name = name;
    info.size_bytes = size;
    info.speedup_score = static_cast<double>(size);
    return g.AddNode(std::move(info));
  };
  const auto a = add("a");
  const auto b = add("b");
  const auto c = add("c");
  const auto d = add("d");
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  return g;
}

/// Random layered DAG with random sizes/scores for property tests.
inline graph::Graph RandomDag(std::int32_t num_nodes, std::uint64_t seed,
                              std::int64_t max_size = 100) {
  Rng rng(seed);
  graph::Graph g;
  for (std::int32_t i = 0; i < num_nodes; ++i) {
    graph::NodeInfo info;
    info.name = "n" + std::to_string(i);
    info.size_bytes = rng.UniformInt(1, max_size);
    info.speedup_score = static_cast<double>(rng.UniformInt(0, 50));
    g.AddNode(std::move(info));
  }
  // Edges only from lower to higher ids: acyclic by construction.
  for (std::int32_t to = 1; to < num_nodes; ++to) {
    const std::int64_t num_parents = rng.UniformInt(0, 3);
    for (std::int64_t e = 0; e < num_parents; ++e) {
      const auto from =
          static_cast<graph::NodeId>(rng.UniformInt(0, to - 1));
      g.AddEdge(from, to);
    }
  }
  return g;
}

/// Sums the series of `family` in an obs::Registry snapshot whose
/// rendered labels contain `label_fragment` (e.g. `status="ok"`; empty
/// matches every series). Histograms are summed through their
/// `<name>_count` / `<name>_sum` families.
inline double SumSeries(const std::map<std::string, double>& snapshot,
                        const std::string& family,
                        const std::string& label_fragment = "") {
  double total = 0.0;
  for (const auto& [key, value] : snapshot) {
    if (key.compare(0, family.size(), family) != 0) continue;
    const std::string labels = key.substr(family.size());
    if (!labels.empty() && labels.front() != '{') continue;
    if (labels.find(label_fragment) == std::string::npos) continue;
    total += value;
  }
  return total;
}

}  // namespace sc::test

#endif  // SC_TESTS_TEST_UTIL_H_
