#ifndef SC_RUNTIME_CONTROLLER_H_
#define SC_RUNTIME_CONTROLLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "opt/types.h"
#include "runtime/cancel.h"
#include "storage/memory_catalog.h"
#include "storage/throttled_disk.h"
#include "workload/workloads.h"

namespace sc::runtime {

class LanePool;

/// Background materialization worker (paper §III-C): a single writer
/// channel that persists Memory Catalog tables to external storage while
/// the DBMS executes downstream nodes. FIFO, mirroring one storage write
/// channel.
///
/// Writes drain on a LanePool (the service's shared pool, or the pool a
/// standalone Controller owns) via a single self-requeueing drain task,
/// so a run spawns no writer thread of its own. At most one drain task
/// is ever in flight, which preserves the strict single-writer FIFO
/// ordering per file; spans still land on this materializer's own
/// "materializer-<k>" track regardless of which lane executes the drain.
class Materializer {
 public:
  /// `pool` (not owned; must outlive this object) runs the drain task.
  /// `trace` (optional, not owned) receives a "materialize" span per
  /// completed write on this materializer's track ("materializer-<k>"),
  /// carrying `job_id` (the "job" arg) and whether the disk skipped the
  /// write as already on disk (the "skipped" arg).
  Materializer(storage::ThrottledDisk* disk, LanePool* pool,
               obs::TraceRecorder* trace = nullptr,
               std::uint64_t job_id = 0);
  /// Waits for every queued write to finish.
  ~Materializer();

  Materializer(const Materializer&) = delete;
  Materializer& operator=(const Materializer&) = delete;

  /// Queues `table` for persistence under `name`; the returned future
  /// resolves when the write has completed (or throws on failure).
  std::shared_future<void> Enqueue(std::string name,
                                   engine::TablePtr table);

  /// Blocks until every queued write has finished.
  void Drain();

  /// Retry policy for failed writes: transient failures (fault::
  /// IsTransient) are retried up to `retry_limit` times with capped
  /// exponential backoff before the task's future fails. `cancel`
  /// (optional, not owned) suppresses retries once the owning job is
  /// cancelled; `retry_counter` (optional, not owned) accumulates
  /// attempts consumed. Call before the first Enqueue.
  void SetRetryPolicy(int retry_limit, double retry_backoff_ms,
                      const CancelToken* cancel,
                      std::atomic<std::int64_t>* retry_counter = nullptr);

  /// Hook invoked (from the draining lane) with the table name when
  /// a write permanently fails, *before* the task's future is failed —
  /// the caller's chance to quarantine optimistic publishes of that
  /// output. Call before the first Enqueue. Must not throw.
  void SetWriteFailureHook(std::function<void(const std::string&)> hook);

 private:
  struct Task {
    std::string name;
    engine::TablePtr table;
    std::promise<void> done;
  };

  /// Drain-task body: writes queued tasks FIFO until the queue is empty,
  /// then retires (Enqueue schedules a fresh one as needed).
  void DrainOnPool();
  /// Executes one write and settles its promise.
  void WriteOne(Task task);

  storage::ThrottledDisk* disk_;
  obs::TraceRecorder* trace_;  // not owned; may be null
  LanePool* pool_;             // not owned
  std::string track_;          // "materializer-<k>" trace track
  std::uint64_t job_id_;       // "job" arg of every span
  int retry_limit_ = 0;
  double retry_backoff_ms_ = 1.0;
  const CancelToken* cancel_ = nullptr;  // not owned; may be null
  std::atomic<std::int64_t>* retry_counter_ = nullptr;  // not owned
  std::function<void(const std::string&)> write_failure_hook_;
  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::deque<Task> queue_;
  /// A drain task has been submitted and not yet retired: writes are
  /// queued or in flight.
  bool pool_task_active_ = false;
};

/// The SharedCatalog keys of a workload's run over one disk. A base table
/// is keyed by its file's version (ThrottledDisk::Version), and each MV by
/// graph::FingerprintNodes salted with the versions of the base tables the
/// node scans, so reloading a base table re-keys every MV computed from
/// it and no job can be served the MVs of the old data.
struct ContentKeys {
  /// Per node id; empty when the graph is not a DAG (sharing off).
  std::vector<std::uint64_t> nodes;
  /// Per base table the workload scans and the disk holds: its version.
  std::map<std::string, storage::ThrottledDisk::FileVersion> base;
};

/// Stats every base table `wl` scans on `disk` once (uncharged) and
/// derives the run's content keys from the versions.
ContentKeys ContentKeysFor(const workload::MvWorkload& wl,
                           const storage::ThrottledDisk& disk);

struct ControllerOptions {
  /// Memory Catalog size in bytes.
  std::int64_t budget = 64LL * 1024 * 1024;
  /// Maximum number of DAG nodes of one run executing concurrently
  /// (intra-job lanes). 1 — the default — is the paper's sequential
  /// Controller and is guaranteed to produce the same node stats, catalog
  /// hit/miss counts, and peak memory as the pre-parallel execution loop.
  /// Values > 1 route the run through the stage-scheduled runtime:
  /// independent nodes execute on LanePool lanes while flagged outputs
  /// are still published to the Memory Catalog in optimized order.
  int max_parallel_nodes = 1;
  /// Inline small-node dispatch threshold (seconds). In parallel runs,
  /// a ready node whose estimated wall cost (opt::EstimateNodeSeconds:
  /// profiled compute plus modeled I/O under throttled storage) is at or
  /// below this threshold executes on the coordinator thread itself
  /// instead of being handed to a LanePool lane — for sub-millisecond
  /// nodes the cross-thread handoff and wakeup cost more than the node,
  /// which is what made lanes *lose* to the sequential loop on cheap
  /// workloads. Nodes that were never profiled have unknown cost and
  /// always go to a lane. <= 0 disables inlining. Inlined executions are
  /// reported in RunReport::inlined_nodes; results, publish order, and
  /// catalog behaviour are unaffected (stage_runtime_test asserts the
  /// sequential-equivalence contract with the threshold active).
  ///
  /// The 1 ms default is ~10x the measured lane handoff + wakeup cost:
  /// vectorized operator nodes at bench scale profile at 5-200 us (pure
  /// dispatch overhead if offloaded), while I/O-bound nodes on throttled
  /// storage estimate at several ms and keep their lane parallelism.
  double inline_node_cost_seconds = 0.001;
  /// Service-wide executor pool the run borrows its execution lanes and
  /// its Materializer's writer from (not owned; must outlive the
  /// Controller's runs). When null, the Controller owns one LanePool for
  /// its lifetime, sized max(1, max_parallel_nodes) + 1: its node lanes
  /// plus the writer lane. The RefreshService always supplies its shared
  /// pool, so jobs build no pool of their own.
  LanePool* lane_pool = nullptr;
  /// Morsel-driven intra-operator parallelism (Leis et al., SIGMOD
  /// 2014): a node whose estimated wall cost (opt::EstimateNodeSeconds,
  /// the same model behind inline dispatch) exceeds this target has its
  /// hash-join and aggregation interiors split into up to
  /// opt::MorselBudget(est, target, pool capacity) morsels executed by
  /// idle lanes of the run's LanePool — so one giant node no longer
  /// pins job latency to a single lane. Results are bit-identical to
  /// single-morsel execution (engine_morsel_test pins this against
  /// scalar_reference), the node still completes and publishes as one
  /// unit, and unprofiled nodes (est = +inf) get the full budget with
  /// the per-operator row floor below making the runtime call. <= 0
  /// disables interior fan-out entirely (the exact pre-morsel code
  /// path). Runs on a caller-supplied lane_pool, capped by its capacity,
  /// or — for parallel runs of a standalone Controller — on the owned
  /// pool, capped by the run's node lanes. Sequential runs without a
  /// caller pool stay single-morsel.
  double morsel_target_seconds = 0.005;
  /// Row floor per morsel: operators fan out only ranges of at least
  /// this many rows (a smaller morsel pays more in dispatch than it
  /// saves), regardless of the cost-model budget.
  std::int64_t morsel_min_rows = 8192;
  /// Cap on a node's interior fan-out. 0 (default) caps at the machine's
  /// hardware concurrency: morsel work is pure compute, so extra morsels
  /// beyond physical cores only add dispatch cost even when the LanePool
  /// is deliberately oversubscribed for I/O-bound nodes (on a 1-core CI
  /// runner this disables fan-out outright). An explicit value overrides
  /// the hardware cap — tests pin it for machine-independent behaviour.
  int morsel_max_lanes = 0;
  /// Compressed columnar residency: node outputs have their plain string
  /// columns dictionary-encoded (engine::Column::DictionaryEncode)
  /// before they enter residency accounting, whenever the encoding is
  /// actually smaller (all-unique strings stay plain). Representation is
  /// invisible to consumers — Table::operator== and the disk formats
  /// are representation-agnostic, and every operator accepts encoded
  /// inputs — but the smaller ByteSize is what the Memory Catalog, the
  /// cross-job SharedCatalog, and the profiled NodeScale (hence the
  /// knapsack optimizer) see, so string-heavy workloads pack more MVs
  /// per byte of budget. Off keeps outputs plain — dictionary columns
  /// that arrive from SCC1 warehouse reads are decoded — reproducing the
  /// pre-compression footprints.
  bool compress_residency = true;
  /// Cross-job shared residency layer. When set, the run's Memory
  /// Catalog becomes a per-job view over this content-keyed
  /// SharedCatalog: node and base-table names are bound to their content
  /// keys (ContentKeysFor), flagged outputs are published under their
  /// key as the relaxed-publish replay enters them into the catalog
  /// (unflagged outputs at their publish slot), inputs resident from
  /// other jobs are pinned at dispatch and served at memory speed, and a
  /// node whose own output is already resident is reused outright
  /// instead of recomputed. Base tables are shared too: a scan pins the
  /// resident table, or reads it from storage and publishes it, and the
  /// run holds the pin until the table's last scan. Not owned; must
  /// outlive the runs. Do not combine with ProfileAndAnnotate — reused
  /// nodes report zero compute, which would corrupt the profile.
  storage::SharedCatalog* shared_catalog = nullptr;
  /// Precomputed ContentKeysFor(workload, disk) for the workload about to
  /// run (the RefreshService computes them once for its residency
  /// snapshot). Not owned; must outlive the run and match the graph —
  /// mismatches are ignored and recomputed.
  const ContentKeys* content_keys = nullptr;
  /// Observes cross-job pin lifecycle events (content key, bytes,
  /// pinned). The RefreshService charges pinned shared bytes to the
  /// reading tenant's quota through this hook.
  storage::MemoryCatalog::SharedPinListener shared_pin_listener;
  /// Observability trace recorder. When set (and enabled), the run emits
  /// spans at every execution boundary — per-node execute (on the lane
  /// track that ran it, with read/compute/write args), the in-plan-order
  /// publish replay, and Materializer writes — rendering in
  /// chrome://tracing as a per-lane occupancy timeline. Not owned; must
  /// outlive the runs. Null (the default) keeps the hot path span-free.
  obs::TraceRecorder* trace = nullptr;
  /// Job id stamped into every span this run emits (the "job" arg), so a
  /// multi-job service trace can be sliced per job. 0 for standalone
  /// runs.
  std::uint64_t trace_job_id = 0;
  /// Cooperative cancellation token (not owned; must outlive the run).
  /// When set, the run polls it at every stage-dispatch, node-execute,
  /// morsel-claim, and Materializer-retry boundary and unwinds with
  /// RunReport::cancelled within one such boundary of the token
  /// latching. Null (the default) keeps the hot path probe-free.
  const CancelToken* cancel = nullptr;
  /// Seeded fault injector probed at Site::kNodeExecute before each node
  /// attempt (disk sites are wired on the ThrottledDisk itself). Not
  /// owned; nullptr disables.
  fault::FaultInjector* faults = nullptr;
  /// Per-node retries for transient-classified failures (injected
  /// transient faults, or any exception deriving fault::TransientTag).
  /// 0 — the default — preserves strict fail-fast semantics: any node or
  /// materialization failure aborts the run on first occurrence.
  int retry_limit = 0;
  /// Base backoff between retry attempts, doubling per attempt and
  /// capped at 64x (so misconfigured limits cannot sleep a lane for
  /// minutes). Cancellation interrupts the backoff.
  double retry_backoff_ms = 1.0;
};

/// Per-node statistics from a real refresh run.
struct NodeRunStats {
  std::string name;
  double read_seconds = 0.0;     // time inside disk reads
  double compute_seconds = 0.0;  // plan execution minus reads
  double write_seconds = 0.0;    // blocking write time
  bool output_in_memory = false;
  std::int64_t output_bytes = 0;
  std::uint64_t output_rows = 0;
  /// Antichain stage of the node under the run's order (0-based).
  std::int32_t stage = 0;
  /// The node was not executed: its output was already resident in the
  /// cross-job SharedCatalog and was reused at memory speed.
  bool reused_cross_job = false;
  /// Transient-failure retries this node consumed before succeeding.
  std::int32_t retries = 0;
  /// Base-table scans this node served from external storage (clean-tier
  /// hits excluded) and the bytes of those files as stored — the counted
  /// input of ProfileAndAnnotate's base_input_bytes.
  std::int32_t base_disk_reads = 0;
  std::int64_t base_disk_bytes = 0;
};

struct RunReport {
  bool ok = false;
  std::string error;
  /// The run unwound cooperatively because its cancel token latched
  /// (explicit cancel or deadline — see cancel_reason). Cleanup is
  /// complete either way: budget-visible catalog state, shared pins, and
  /// reservations are all released by the time the report returns.
  bool cancelled = false;
  CancelReason cancel_reason = CancelReason::kNone;
  /// Transient-failure retries consumed across all nodes and
  /// materializations (0 in fail-fast mode).
  std::int64_t node_retries = 0;
  double wall_seconds = 0.0;
  std::int64_t peak_memory = 0;
  /// Memory Catalog budget this run actually executed under (equals the
  /// controller's configured budget unless an external grant overrode it).
  std::int64_t budget = 0;
  /// Input resolutions served from the Memory Catalog's MV entries
  /// (cross-job hits included) vs. not. Base-table scans always count as
  /// misses, whichever tier then serves them, so the clean tier moves
  /// neither figure.
  std::int64_t catalog_hits = 0;
  std::int64_t catalog_misses = 0;
  /// Base-table scans served from memory (the catalog's clean tier or
  /// the shared layer) vs. read from external storage. Which scan reads
  /// first depends on lane timing, so parallel runs may split these
  /// differently from sequential ones.
  std::int64_t base_input_hits = 0;
  std::int64_t base_input_disk_reads = 0;
  /// High-water mark of flagged + clean-tier bytes; never above budget.
  /// (peak_memory covers the flagged entries alone.)
  std::int64_t resident_peak_bytes = 0;
  /// Execution lanes the run actually used (min of max_parallel_nodes and
  /// the widest antichain; 1 for sequential runs).
  int parallel_lanes = 1;
  /// Antichain stages of the executed order.
  std::int32_t num_stages = 0;
  /// Dispatch attempts denied by Memory-Catalog reservation backpressure
  /// (0 for sequential runs): how often concurrent lanes were held back
  /// to keep in-flight flagged outputs within the budget.
  std::int64_t reserve_denials = 0;
  /// Nodes executed inline on the coordinator thread instead of a lane
  /// (below-threshold estimated cost; 0 for sequential runs, which have
  /// no handoff to skip).
  std::int64_t inlined_nodes = 0;
  /// Interior morsel tasks executed by fanned-out operators across the
  /// run (0 when every node ran single-morsel). Counts all participants
  /// of each fan-out, caller and helper lanes alike.
  std::int64_t morsel_tasks = 0;
  /// Resolutions and whole-node reuses served from the cross-job
  /// SharedCatalog (0 without one; subset of catalog_hits).
  std::int64_t cross_job_hits = 0;
  /// Bytes those cross-job hits served in place of disk reads or
  /// recomputation.
  std::int64_t cross_job_bytes_saved = 0;
  std::vector<NodeRunStats> nodes;  // in publish (= plan) order

  double TotalReadSeconds() const;
  double TotalComputeSeconds() const;
  double TotalWriteSeconds() const;
  /// Fraction of input resolutions served at memory speed (0 when the run
  /// resolved no inputs).
  double CatalogHitRate() const;
};

/// The S/C Controller (paper §III-B): executes an MV refresh run against
/// the engine + storage substrate following the Optimizer's plan. All MVs
/// are materialized to external storage exactly as defined; flagged nodes
/// are additionally kept in the Memory Catalog until their last consumer
/// finishes, with their disk write running in the background.
///
/// Base tables ride in the budget the plan leaves free: a base table read
/// from storage while a later node still scans it enters the catalog's
/// clean tier and leaves after its last scan (or earlier, whenever a
/// flagged Put or a reservation needs the room). MV names never enter the
/// clean tier, so which outputs stay resident remains the optimizer's
/// decision and the unoptimized run keeps no MV in memory. With a shared
/// layer, base tables live there instead (see
/// ControllerOptions::shared_catalog), across jobs.
///
/// With max_parallel_nodes > 1 the run executes on the stage-scheduled
/// parallel runtime: a StageScheduler derives antichain stages from the
/// optimizer's total order and dispatches ready nodes (all DAG parents
/// available) to a LanePool (the service's shared pool, or the one the
/// Controller owns), in order-position priority. Flagged outputs are still
/// *published* to the Memory Catalog strictly in the optimized order —
/// the publish step replays the sequential Put / lazy-release sequence,
/// so the catalog's budget behaviour (and the paper's residency
/// semantics) are independent of the lane count; the catalog's
/// reservation API additionally backpressures dispatch so concurrently
/// executing flagged nodes cannot jointly overshoot the budget while
/// their outputs are in flight.
///
/// Availability is decoupled from that residency replay (the relaxed
/// publish protocol): an unflagged node's children become dispatchable
/// the moment its external write completes, and dispatch itself happens
/// from lane-completion callbacks, so the in-order replay — which can
/// block on materializations during lazy release — never stalls
/// execution of independent work. The Materializer keeps its
/// single-writer channel regardless of lanes.
class Controller {
 public:
  Controller(storage::ThrottledDisk* disk, ControllerOptions options);
  ~Controller();

  /// Persists base tables to external storage (ingestion step).
  void LoadBaseTables(
      const std::map<std::string, engine::TablePtr>& tables);

  /// Executes the workload under `plan`. Returns a failed report (ok ==
  /// false) if the plan is invalid or the Memory Catalog budget would be
  /// violated.
  RunReport Run(const workload::MvWorkload& wl, const opt::Plan& plan);

  /// Like Run(), but executes against an externally-granted Memory Catalog
  /// budget instead of the configured one. This is the entry point for the
  /// Refresh Service: a BudgetBroker arbitrates the global catalog across
  /// concurrent jobs and hands each run its funded slice. `stages` may
  /// supply a precomputed DecomposeStages(plan.order) (the service caches
  /// it next to the plan); when null — or when it does not match the plan
  /// — the decomposition is computed here.
  RunReport RunWithBudget(const workload::MvWorkload& wl,
                          const opt::Plan& plan, std::int64_t budget,
                          const opt::StageDecomposition* stages = nullptr);

  /// Executes with the no-optimization baseline plan (topological order,
  /// nothing flagged).
  RunReport RunUnoptimized(const workload::MvWorkload& wl);

  /// Runs unoptimized while recording execution metadata (§III-A) into the
  /// workload's graph: output sizes, compute seconds, base input bytes
  /// (counted from the node's base-table reads, not timed), and speedup
  /// scores derived from the disk profile. This is the
  /// "observed performance metrics from past runs" the Optimizer consumes.
  RunReport ProfileAndAnnotate(workload::MvWorkload* wl);

 private:
  storage::ThrottledDisk* disk_;
  ControllerOptions options_;
  /// Lanes and writer of a Controller built without a lane_pool.
  std::unique_ptr<LanePool> owned_pool_;
};

}  // namespace sc::runtime

#endif  // SC_RUNTIME_CONTROLLER_H_
