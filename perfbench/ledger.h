#ifndef SC_PERFBENCH_LEDGER_H_
#define SC_PERFBENCH_LEDGER_H_

// Per-job layer ledger: splits one job's wall time across layers by self
// time, so the rows plus an explicit `unattributed` row add up to the
// job's wall time exactly.

#include <array>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sc::perfbench {

enum Layer { kService, kOpt, kRuntime, kEngine, kStorage, kUnattributed,
             kNumLayers };
inline constexpr const char* kLayerNames[kNumLayers] = {
    "service", "opt", "runtime", "engine", "storage", "unattributed"};

using LayerSeconds = std::array<double, kNumLayers>;

/// A leaf span inside a job: its interval and the fraction of its time
/// that belongs to each layer (the fractions sum to 1).
struct Leaf {
  double start = 0.0;
  double end = 0.0;
  LayerSeconds share{};
};

/// Self-time ledger of the job spanning [start, end). Time covered by no
/// leaf is `unattributed`. Where k leaves overlap, each is credited 1/k of
/// that stretch, so a layer's row is its share of the *union* of the
/// leaves, never the sum of nested or parallel spans: the rows always add
/// up to end - start.
LayerSeconds AttributeJob(double start, double end, std::vector<Leaf> leaves);

/// Maps an event the library's obs::TraceRecorder emitted to a leaf:
/// node executions (split by their read/compute/write args), publish
/// replays, background materializations, morsel helpers, plan lookups and
/// the service's queue/budget waits. Returns false for instants and for
/// parent spans (the service's "execute").
bool LeafFromEvent(const obs::TraceEvent& event, Leaf* leaf);

/// Reads the numeric argument `key` from an event's args JSON.
bool ArgNumber(const std::string& args, const char* key, double* value);

/// Checks AttributeJob on nested and overlapping spans with known answers.
bool LedgerSelfTest();

}  // namespace sc::perfbench

#endif  // SC_PERFBENCH_LEDGER_H_
