#ifndef SC_GRAPH_FINGERPRINT_H_
#define SC_GRAPH_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace sc::graph {

/// Per-node content fingerprints: fingerprint[v] identifies *what node v
/// computes* — its MV name combined with the fingerprints of its parents
/// (upstream lineage) and with `node_salts[v]` — so two nodes of different
/// jobs agree exactly when they refresh the same MV from the same upstream
/// chain over the same base data. This is the MV key space of the
/// cross-job storage::SharedCatalog: a fingerprint match means another
/// job's resident output is byte-equivalent and can be read instead of
/// recomputed.
///
/// Execution metadata (sizes, speedup scores, observed timings) is
/// deliberately excluded: it describes the *output*, not the content
/// identity, and varies between profiling runs of the same workload —
/// mixing it in (as the plan cache's FingerprintGraph does) would defeat
/// cross-tenant matches between independently profiled copies of one
/// workload. Name+lineage keying therefore inherits the service's
/// warehouse contract (see RefreshJobSpec): MV names form one global
/// namespace on the service's disk, and workloads that must not share
/// state must use distinct node names — the same rule that already
/// governs their on-disk tables governs their shared-catalog entries.
///
/// `node_salts` is empty or holds one value per node. The Controller
/// passes the versions of the base tables each node scans
/// (runtime::ContentKeysFor), so a reloaded base table changes the
/// fingerprint of every MV computed from it, down the whole lineage.
///
/// Returns an empty vector if `g` is not a DAG (no fingerprints can be
/// assigned) or `node_salts` has the wrong size; callers treat that as
/// "sharing unavailable".
std::vector<std::uint64_t> FingerprintNodes(
    const Graph& g, const std::vector<std::uint64_t>& node_salts = {});

}  // namespace sc::graph

#endif  // SC_GRAPH_FINGERPRINT_H_
