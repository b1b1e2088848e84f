#include "cost/speedup.h"

#include <algorithm>

namespace sc::cost {

double SpeedupEstimator::ScoreFor(const graph::Graph& g,
                                  graph::NodeId id) const {
  const graph::NodeInfo& info = g.node(id);
  const std::int64_t size = info.size_bytes;
  const std::int64_t disk = info.DiskBytes();
  const double files = info.file_count;
  if (size <= 0) return 0.0;
  // Disk terms move the file as stored; memory terms the resident table.
  const double per_read_saving =
      model_.DiskReadSeconds(disk, files) - model_.MemReadSeconds(size);
  const double write_saving =
      model_.DiskWriteSeconds(disk, files) - model_.MemWriteSeconds(size);
  const double num_children = static_cast<double>(g.children(id).size());
  return std::max(0.0, num_children * per_read_saving + write_saving);
}

void SpeedupEstimator::AnnotateGraph(graph::Graph* g) const {
  for (graph::NodeId i = 0; i < g->num_nodes(); ++i) {
    g->mutable_node(i).speedup_score = ScoreFor(*g, i);
  }
}

}  // namespace sc::cost
