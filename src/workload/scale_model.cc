#include "workload/scale_model.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "cost/speedup.h"

namespace sc::workload {

void AnnotateWorkload(MvWorkload* wl, const ScaleModelOptions& options) {
  const double gb = options.dataset_gb;
  for (graph::NodeId v = 0; v < wl->graph.num_nodes(); ++v) {
    const NodeScale& s = wl->scale[v];
    const double out_mult = options.partitioned ? s.part_out : 1.0;
    const double compute_mult = options.partitioned ? s.part_compute : 1.0;
    const double in_mult = options.partitioned ? s.part_in : 1.0;
    graph::NodeInfo& info = wl->graph.mutable_node(v);
    info.size_bytes = static_cast<std::int64_t>(
        std::llround(s.out_mb_per_gb * out_mult * gb * kMB));
    info.disk_bytes = 0;  // modelled: files as large as the output
    info.compute_seconds = s.compute_sec_per_gb * compute_mult * gb;
    info.base_input_bytes = static_cast<std::int64_t>(
        std::llround(s.base_in_mb_per_gb * in_mult * gb * kMB));
    // Per-table overhead scales with the number of files the MV
    // materializes into: larger tables split across more writer/partition
    // files. Calibrated so a 1.2GB table costs one unit of the device's
    // per-table overhead. Date-partitioned datasets produce more, smaller
    // files per byte.
    const double partition_files = options.partitioned ? 1.5 : 1.0;
    info.file_count = std::clamp(
        std::sqrt(static_cast<double>(info.size_bytes) / (1.2 * kGB)) *
            partition_files,
        0.3, 10.0);
  }
  cost::SpeedupEstimator estimator{cost::CostModel(options.device)};
  estimator.AnnotateGraph(&wl->graph);
}

std::int64_t BudgetForPercent(double dataset_gb, double percent) {
  return static_cast<std::int64_t>(
      std::llround(dataset_gb * kGB * percent / 100.0));
}

double IntermediateIoRatio(const MvWorkload& wl,
                           const ScaleModelOptions& options) {
  // Mirrors the paper's Table III estimate, which profiles the pure data
  // path with Polars: raw transfer time only, no warehouse-side per-table
  // materialization overheads.
  cost::DeviceProfile profile = options.device;
  profile.table_read_overhead = 0.0;
  profile.table_write_overhead = 0.0;
  const cost::CostModel model{profile};
  double intermediate_io = 0.0;
  double total = 0.0;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const graph::NodeInfo& info = wl.graph.node(v);
    const double write = model.DiskWriteSeconds(info.size_bytes);
    const double reads_by_children =
        static_cast<double>(wl.graph.children(v).size()) *
        model.DiskReadSeconds(info.size_bytes);
    const double base_read = model.DiskReadSeconds(info.base_input_bytes);
    intermediate_io += write + reads_by_children;
    total += write + reads_by_children + base_read + info.compute_seconds;
  }
  return total > 0 ? intermediate_io / total : 0.0;
}

}  // namespace sc::workload
