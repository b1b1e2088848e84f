#include "graph/fingerprint.h"

#include <algorithm>

#include "common/fnv.h"
#include "graph/topo.h"

namespace sc::graph {

std::vector<std::uint64_t> FingerprintNodes(
    const Graph& g, const std::vector<std::uint64_t>& node_salts) {
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  if (!node_salts.empty() && node_salts.size() != n) return {};
  const Order order = KahnTopologicalOrder(g);
  if (order.sequence.size() != n) {
    return {};  // cyclic: no well-defined lineage
  }
  std::vector<std::uint64_t> fps(n, 0);
  std::vector<std::uint64_t> parent_fps;
  for (const NodeId v : order.sequence) {
    std::uint64_t h = kFnvOffset;
    FnvMixUint(&h, node_salts.empty()
                       ? 0
                       : node_salts[static_cast<std::size_t>(v)]);
    FnvMixString(&h, g.node(v).name);
    // Sorted, so the fingerprint depends on the parent *set*, not the
    // incidental edge-insertion order.
    parent_fps.clear();
    for (const NodeId p : g.parents(v)) {
      parent_fps.push_back(fps[static_cast<std::size_t>(p)]);
    }
    std::sort(parent_fps.begin(), parent_fps.end());
    FnvMixInt(&h, static_cast<std::int64_t>(parent_fps.size()));
    for (const std::uint64_t pf : parent_fps) FnvMixUint(&h, pf);
    fps[static_cast<std::size_t>(v)] = h;
  }
  return fps;
}

}  // namespace sc::graph
