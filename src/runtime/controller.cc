#include "runtime/controller.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/fnv.h"
#include "common/str_util.h"
#include "cost/speedup.h"
#include "engine/executor.h"
#include "engine/morsel.h"
#include "graph/fingerprint.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"
#include "opt/stages.h"
#include "runtime/lane_pool.h"
#include "runtime/morsel.h"
#include "runtime/stage_scheduler.h"
#include "storage/format.h"

namespace sc::runtime {

// ---------------------------------------------------------------------------
// Materializer
// ---------------------------------------------------------------------------

namespace {
/// Materializer channels get their own trace tracks so background
/// writes render as a separate timeline row next to the lanes. The
/// index is process-wide: runs overlap, and re-used indices would merge
/// rows.
std::string NextMaterializerTrack() {
  static std::atomic<int> next_writer_index{0};
  return "materializer-" +
         std::to_string(
             next_writer_index.fetch_add(1, std::memory_order_relaxed));
}

/// Capped exponential backoff between retry attempts: base * 2^attempt,
/// capped at 64x base. Sleeps in short slices so a cancel latching
/// mid-backoff aborts the wait within ~1 ms instead of serving it out.
void BackoffSleep(int attempt, double base_ms, const CancelToken* cancel) {
  if (base_ms <= 0.0) return;
  const double capped_ms =
      std::min(base_ms * static_cast<double>(1 << std::min(attempt, 6)),
               base_ms * 64.0);
  const double until = MonotonicSeconds() + capped_ms / 1000.0;
  for (;;) {
    if (cancel != nullptr && cancel->cancelled()) return;
    const double remaining = until - MonotonicSeconds();
    if (remaining <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(remaining, 1e-3)));
  }
}
}  // namespace

Materializer::Materializer(storage::ThrottledDisk* disk, LanePool* pool,
                           obs::TraceRecorder* trace, std::uint64_t job_id)
    : disk_(disk),
      trace_(trace),
      pool_(pool),
      track_(NextMaterializerTrack()),
      job_id_(job_id) {}

// The in-flight drain task references `this` and processes every queued
// write before retiring — wait it out.
Materializer::~Materializer() { Drain(); }

std::shared_future<void> Materializer::Enqueue(std::string name,
                                               engine::TablePtr table) {
  Task task;
  task.name = std::move(name);
  task.table = std::move(table);
  std::shared_future<void> future = task.done.get_future().share();
  bool submit_drain = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    if (!pool_task_active_) {
      // One drain task at a time: the single-writer FIFO channel.
      pool_task_active_ = true;
      submit_drain = true;
    }
  }
  if (submit_drain) {
    pool_->Submit([this] { DrainOnPool(); });
  }
  return future;
}

void Materializer::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return !pool_task_active_; });
}

void Materializer::SetRetryPolicy(int retry_limit, double retry_backoff_ms,
                                  const CancelToken* cancel,
                                  std::atomic<std::int64_t>* retry_counter) {
  retry_limit_ = std::max(0, retry_limit);
  retry_backoff_ms_ = retry_backoff_ms;
  cancel_ = cancel;
  retry_counter_ = retry_counter;
}

void Materializer::SetWriteFailureHook(
    std::function<void(const std::string&)> hook) {
  write_failure_hook_ = std::move(hook);
}

void Materializer::WriteOne(Task task) {
  for (int attempt = 0;; ++attempt) {
    try {
      const double write_start = MonotonicSeconds();
      bool skipped = false;
      disk_->WriteTable(task.name, *task.table, &skipped);
      if (trace_ != nullptr && trace_->enabled()) {
        // Explicit track: the executing thread is some lane, but the
        // write belongs on this materializer's timeline.
        trace_->CompleteOnTrack(
            track_, "materialize", task.name, write_start,
            MonotonicSeconds() - write_start,
            StrFormat("\"job\":%llu,\"bytes\":%lld,\"skipped\":%s",
                      static_cast<unsigned long long>(job_id_),
                      static_cast<long long>(task.table->ByteSize()),
                      skipped ? "true" : "false"));
      }
      task.done.set_value();
      return;
    } catch (const std::exception& e) {
      const bool cancelled = cancel_ != nullptr && cancel_->cancelled();
      if (attempt < retry_limit_ && fault::IsTransient(e) && !cancelled) {
        if (retry_counter_ != nullptr) {
          retry_counter_->fetch_add(1, std::memory_order_relaxed);
        }
        if (trace_ != nullptr && trace_->enabled()) {
          trace_->Instant("retry", task.name,
                          StrFormat("\"attempt\":%d,\"site\":\"write\"",
                                    attempt + 1));
        }
        BackoffSleep(attempt, retry_backoff_ms_, cancel_);
        continue;
      }
      // Permanent failure: give the owner its chance to quarantine the
      // optimistic shared publish of this output before any waiter of
      // the future observes the error.
      if (write_failure_hook_) write_failure_hook_(task.name);
      task.done.set_exception(std::current_exception());
      return;
    } catch (...) {
      if (write_failure_hook_) write_failure_hook_(task.name);
      task.done.set_exception(std::current_exception());
      return;
    }
  }
}

void Materializer::DrainOnPool() {
  for (;;) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        pool_task_active_ = false;
        drained_cv_.notify_all();
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    WriteOne(std::move(task));
  }
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

double RunReport::TotalReadSeconds() const {
  double total = 0;
  for (const auto& n : nodes) total += n.read_seconds;
  return total;
}

double RunReport::TotalComputeSeconds() const {
  double total = 0;
  for (const auto& n : nodes) total += n.compute_seconds;
  return total;
}

double RunReport::TotalWriteSeconds() const {
  double total = 0;
  for (const auto& n : nodes) total += n.write_seconds;
  return total;
}

double RunReport::CatalogHitRate() const {
  const std::int64_t total = catalog_hits + catalog_misses;
  return total == 0 ? 0.0 : static_cast<double>(catalog_hits) / total;
}

// ---------------------------------------------------------------------------
// Content keys
// ---------------------------------------------------------------------------

namespace {

/// The base tables node `v` scans: referenced tables that are not MVs of
/// the graph.
std::vector<std::string> BaseTablesOf(const workload::MvWorkload& wl,
                                      graph::NodeId v) {
  std::vector<std::string> tables;
  for (std::string& table :
       wl.plans[static_cast<std::size_t>(v)]->ReferencedTables()) {
    if (!wl.graph.FindByName(table).has_value()) {
      tables.push_back(std::move(table));
    }
  }
  return tables;
}

}  // namespace

ContentKeys ContentKeysFor(const workload::MvWorkload& wl,
                           const storage::ThrottledDisk& disk) {
  const graph::Graph& g = wl.graph;
  ContentKeys keys;
  std::vector<std::uint64_t> salts(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<std::string> tables = BaseTablesOf(wl, v);
    // Sorted, so the salt depends on the set of tables scanned.
    std::sort(tables.begin(), tables.end());
    std::uint64_t salt = kFnvOffset;
    for (const std::string& table : tables) {
      auto it = keys.base.find(table);
      if (it == keys.base.end()) {
        it = keys.base.emplace(table, disk.Version(table)).first;
      }
      FnvMixString(&salt, table);
      FnvMixUint(&salt, it->second.key);
    }
    salts[static_cast<std::size_t>(v)] = salt;
  }
  // A table the disk does not hold has nothing to share; its scans fail.
  for (auto it = keys.base.begin(); it != keys.base.end();) {
    it = it->second.key == 0 ? keys.base.erase(it) : std::next(it);
  }
  keys.nodes = graph::FingerprintNodes(g, salts);
  return keys;
}

// ---------------------------------------------------------------------------
// Run state shared by the sequential loop and the parallel runtime
// ---------------------------------------------------------------------------

namespace {

/// Per-node wall-cost estimates over the run's storage device — the
/// shared model behind both inline dispatch and the interior morsel
/// budget. Unprofiled nodes estimate to +infinity.
std::vector<double> EstimateNodeCosts(const graph::Graph& g,
                                      const opt::FlagSet& flags,
                                      storage::ThrottledDisk* disk) {
  const storage::DiskProfile& dp = disk->profile();
  cost::DeviceProfile device;
  device.disk_read_bw = dp.read_bw;
  device.disk_write_bw = dp.write_bw;
  device.disk_latency = dp.latency;
  // ThrottledDisk emulates bandwidth + latency only; the cost model's
  // per-table open/commit overheads are not lane-occupancy time here.
  device.table_read_overhead = 0.0;
  device.table_write_overhead = 0.0;
  return opt::EstimateNodeSeconds(g, flags, cost::CostModel(device),
                                  dp.throttle);
}

/// Everything one refresh run owns. Both execution paths drive the same
/// ExecuteNode / PublishNode pair against this state.
struct RunState {
  RunState(const workload::MvWorkload& wl_in, const opt::Plan& plan_in,
           const opt::StageDecomposition& stages_in,
           const ControllerOptions& options_in,
           storage::ThrottledDisk* disk_in, std::int64_t budget,
           LanePool* pool)
      : wl(wl_in),
        plan(plan_in),
        stages(stages_in),
        options(options_in),
        disk(disk_in),
        catalog(budget, options_in.shared_catalog),
        materializer(disk_in, pool, options_in.trace,
                     options_in.trace_job_id) {
    const graph::Graph& g = wl.graph;
    materializer.SetRetryPolicy(options.retry_limit,
                                options.retry_backoff_ms, options.cancel,
                                &retries);
    // A write that permanently fails leaves the shared layer holding an
    // entry whose durability signal will never arrive: condemn it so no
    // later job skips its own write against a phantom file. (The members
    // outlive the materializer — it is declared after them.)
    materializer.SetWriteFailureHook([this](const std::string& name) {
      catalog.QuarantineShared(name);
    });
    if (options.morsel_target_seconds > 0) {
      node_est_seconds = EstimateNodeCosts(g, plan.flags, disk);
    }
    if (options.shared_catalog != nullptr) {
      // The catalog becomes the per-job view onto the cross-job layer:
      // every MV and base-table name is bound to its content key (reusing
      // the service's precomputed keys when provided). An empty key set
      // (non-DAG) simply leaves sharing off for the run.
      catalog.SetSharedPinListener(options.shared_pin_listener);
      const std::size_t n = static_cast<std::size_t>(g.num_nodes());
      ContentKeys computed;
      const ContentKeys* keys = options.content_keys;
      if (keys == nullptr || keys->nodes.size() != n) {
        computed = ContentKeysFor(wl, *disk);
        keys = &computed;
      }
      if (keys->nodes.size() == n) {
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          catalog.BindSharedKey(g.node(v).name,
                                keys->nodes[static_cast<std::size_t>(v)],
                                g.node(v).DiskBytes());
        }
        for (const auto& [table, version] : keys->base) {
          catalog.BindSharedKey(table, version.key, version.bytes,
                                /*base=*/true);
        }
      }
    }
    pending_children.resize(static_cast<std::size_t>(g.num_nodes()));
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      pending_children[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(g.children(v).size());
    }
    // Every scan of a base table, keyed by its plan position, so the
    // clean tier knows each table's next reader and its last one. MV
    // names are left out: their residency is the plan's flags alone.
    position.resize(pending_children.size());
    for (std::size_t i = 0; i < plan.order.sequence.size(); ++i) {
      position[static_cast<std::size_t>(plan.order.sequence[i])] =
          static_cast<std::int64_t>(i);
    }
    base_scans.resize(pending_children.size());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto slot = static_cast<std::size_t>(v);
      base_scans[slot] = BaseTablesOf(wl, v);
      for (const std::string& table : base_scans[slot]) {
        pending_scans[table].insert(position[slot]);
      }
    }
  }

  const workload::MvWorkload& wl;
  const opt::Plan& plan;
  const opt::StageDecomposition& stages;
  const ControllerOptions& options;
  storage::ThrottledDisk* disk;
  storage::MemoryCatalog catalog;
  Materializer materializer;
  std::vector<std::int32_t> pending_children;
  /// Plan position of each node, and the base tables each node scans.
  std::vector<std::int64_t> position;
  std::vector<std::vector<std::string>> base_scans;
  /// Per base table, the plan positions of the scans still to finish.
  /// The key set is fixed at construction; the sets are guarded by
  /// scans_mutex, which is taken before the catalog's own lock.
  std::map<std::string, std::multiset<std::int64_t>> pending_scans;
  std::mutex scans_mutex;
  std::atomic<std::int64_t> base_input_hits{0};
  std::atomic<std::int64_t> base_input_disk_reads{0};
  std::map<std::string, std::shared_future<void>> in_flight;
  std::vector<graph::NodeId> releasable;
  /// Pool backing interior morsel fan-out and its lane cap (set by
  /// RunWithBudget); null keeps every node single-morsel.
  LanePool* morsel_pool = nullptr;
  int morsel_lanes = 0;
  /// Per-node cost estimates feeding opt::MorselBudget; empty when
  /// morsel_target_seconds disables interior fan-out.
  std::vector<double> node_est_seconds;
  /// Morsel tasks executed across the run (RunReport::morsel_tasks).
  std::atomic<std::int64_t> morsel_tasks{0};
  /// Transient-failure retries consumed across all nodes and
  /// materializations (RunReport::node_retries).
  std::atomic<std::int64_t> retries{0};
};

struct NodeResult {
  NodeRunStats stats;
  engine::TablePtr output;
  /// For reused nodes: the shared entry was durable (on disk) at pin
  /// time, so this run may skip its own write.
  bool reused_durable = false;
};

/// Residency representation (ControllerOptions::compress_residency),
/// applied to every node output before it enters residency accounting.
/// On: plain string columns are dictionary-encoded, keeping an encoding
/// only when it is actually smaller (an all-unique column stays plain).
/// Off: dictionary columns are decoded to plain — SCC1 warehouse reads
/// return encoded columns and operators carry them into their outputs,
/// so without this "off" would not be the plain-string baseline.
/// Downstream consumers see the same logical values — operators,
/// Table::operator==, and both disk formats are representation-agnostic
/// — while ByteSize moves, so budgets, grants, and profiled output sizes
/// follow the chosen representation.
engine::TablePtr ApplyResidency(engine::TablePtr table, bool compress) {
  std::shared_ptr<engine::Table> converted;
  for (std::size_t i = 0; i < table->num_columns(); ++i) {
    const engine::Column& col = table->column(i);
    if (col.type() != engine::DataType::kString ||
        col.dictionary_encoded() == compress) {
      continue;
    }
    engine::Column replacement =
        compress ? col.DictionaryEncode() : col.DecodeDictionary();
    if (compress && replacement.ByteSize() >= col.ByteSize()) continue;
    if (converted == nullptr) {
      converted = std::make_shared<engine::Table>(*table);
    }
    converted->mutable_column(i) = std::move(replacement);
  }
  return converted != nullptr ? std::move(converted) : std::move(table);
}

/// External-storage reads of one node attempt.
struct InputReads {
  double seconds = 0.0;
  std::int32_t base_reads = 0;
  std::int64_t base_bytes = 0;
};

/// Resolves a scan that the catalog's flagged entries did not serve. A
/// base table comes from memory when resident there: the clean tier, or
/// the shared layer, which this run then pins until the table's last
/// scan. Otherwise it is read from external storage and shared across
/// jobs (with a shared layer), or — without one, or when the shared layer
/// rejects it — offered, while another scan of it is still pending, to
/// the clean tier's free budget with that scan's plan position as its
/// next use. A read that fails — a damaged file failing its checksum —
/// throws before either, so it is never kept.
engine::TablePtr ReadInput(RunState& s, graph::NodeId v,
                           const std::string& name, InputReads* reads) {
  const auto scans = s.pending_scans.find(name);
  const bool base = scans != s.pending_scans.end();
  if (base) {
    engine::TablePtr resident = s.catalog.GetClean(name);
    if (resident == nullptr) resident = s.catalog.PinSharedBase(name);
    if (resident != nullptr) {
      s.base_input_hits.fetch_add(1, std::memory_order_relaxed);
      return resident;
    }
  }
  const double start = MonotonicSeconds();
  auto table = std::make_shared<engine::Table>(s.disk->ReadTable(name));
  reads->seconds += MonotonicSeconds() - start;
  if (!base) return table;
  ++reads->base_reads;
  reads->base_bytes += std::max<std::int64_t>(0, s.disk->FileSize(name));
  s.base_input_disk_reads.fetch_add(1, std::memory_order_relaxed);
  if (s.catalog.PublishSharedBase(name, table, table->ByteSize())) {
    return table;
  }
  std::lock_guard<std::mutex> lock(s.scans_mutex);
  // The next use is the earliest pending scan other than this one.
  const std::multiset<std::int64_t>& pending = scans->second;
  auto next = pending.begin();
  if (next != pending.end() &&
      *next == s.position[static_cast<std::size_t>(v)]) {
    ++next;
  }
  if (next != pending.end()) {
    s.catalog.AdmitClean(name, table, table->ByteSize(), *next);
  }
  return table;
}

/// Retires node `v`'s base-table scans once it finished (or was reused
/// without executing): a table whose last scan is done leaves the clean
/// tier, or has its shared pin dropped; the others move on to their next
/// reader.
void FinishScans(RunState& s, graph::NodeId v) {
  const auto slot = static_cast<std::size_t>(v);
  if (s.base_scans[slot].empty()) return;
  std::lock_guard<std::mutex> lock(s.scans_mutex);
  for (const std::string& name : s.base_scans[slot]) {
    std::multiset<std::int64_t>& pending = s.pending_scans.find(name)->second;
    pending.erase(pending.find(s.position[slot]));
    if (pending.empty()) {
      s.catalog.Release(name);
      s.catalog.UnpinShared(name);
    } else {
      s.catalog.SetCleanNextUse(name, *pending.begin());
    }
  }
}

/// Executes node `v`'s plan, resolving inputs through the Memory Catalog
/// first and external storage second, and — for unflagged nodes — writes
/// the output to external storage. Safe to call from concurrent lanes:
/// it touches only the (thread-safe) catalog and disk plus local state.
/// `inline_exec` marks coordinator-thread inline dispatch in the span.
NodeResult ExecuteNode(RunState& s, graph::NodeId v,
                       bool inline_exec = false) {
  // Cancellation checkpoint: every node attempt — lane, inline, or
  // sequential — starts by probing the token, so a cancelled job stops
  // within one node boundary no matter which path executes it.
  if (s.options.cancel != nullptr) s.options.cancel->ThrowIfCancelled();
  const graph::Graph& g = s.wl.graph;
  NodeResult result;
  NodeRunStats& stats = result.stats;
  stats.name = g.node(v).name;
  stats.stage = s.stages.stage_of[v];

  // Span bracketing the whole node — reuse, resolve, execute, and the
  // unflagged synchronous write — on whichever track (lane, worker, or
  // coordinator thread) actually ran it. Emitted on every return path.
  obs::TraceRecorder* const trace = s.options.trace;
  const bool tracing = trace != nullptr && trace->enabled();
  const double node_start = tracing ? MonotonicSeconds() : 0.0;
  auto emit_node_span = [&](const NodeRunStats& st) {
    if (!tracing) return;
    trace->Complete(
        "node", st.name, node_start, MonotonicSeconds() - node_start,
        StrFormat("\"job\":%llu,\"stage\":%d,\"flagged\":%s,"
                  "\"read_s\":%.6f,\"compute_s\":%.6f,\"write_s\":%.6f,"
                  "\"bytes\":%lld,\"reused\":%s,\"inline\":%s",
                  static_cast<unsigned long long>(s.options.trace_job_id),
                  static_cast<int>(st.stage),
                  s.plan.flags[v] ? "true" : "false", st.read_seconds,
                  st.compute_seconds, st.write_seconds,
                  static_cast<long long>(st.output_bytes),
                  st.reused_cross_job ? "true" : "false",
                  inline_exec ? "true" : "false"));
  };

  // Cross-job reuse: another job refreshing the same content already has
  // this node's output resident in the shared layer. Pin it and skip the
  // recomputation — and usually the disk write too: the producing job
  // materializes the identical bytes under the same warehouse name. The
  // write is skipped only once the shared layer marks the entry durable
  // (the producer's write landed), so this run's durability never
  // depends on another tenant's in-flight write.
  bool reused_durable = false;
  std::int64_t reused_bytes = 0;
  if (engine::TablePtr reused = s.catalog.PinSharedOutput(
          stats.name, &reused_durable, &reused_bytes)) {
    stats.output_bytes = reused_bytes;  // accounted size; no table walk
    stats.output_rows = reused->num_rows();
    stats.reused_cross_job = true;
    result.reused_durable = reused_durable;
    if (!s.plan.flags[v] && !reused_durable) {
      const double w0 = MonotonicSeconds();
      s.disk->WriteTable(stats.name, *reused);
      stats.write_seconds = MonotonicSeconds() - w0;
      // Upgrade the entry so later reusers skip this redundant write.
      s.catalog.MarkSharedDurable(stats.name);
    }
    result.output = std::move(reused);
    FinishScans(s, v);
    emit_node_span(stats);
    return result;
  }

  // Interior morsel fan-out: when the cost model marks this node large
  // enough (opt::MorselBudget over the same estimates as inline
  // dispatch), install a MorselContext so the engine's hash join and
  // aggregation split their interiors across idle lanes of the run's
  // pool. Results are bit-identical to single-morsel execution, and the
  // node still completes and publishes as one unit — the in-order
  // publish protocol never observes the fan-out.
  int morsel_budget = 1;
  if (s.morsel_pool != nullptr &&
      static_cast<std::size_t>(v) < s.node_est_seconds.size()) {
    // Morsel work is pure compute, so fan-out beyond physical cores only
    // adds dispatch cost even when the pool is (deliberately)
    // oversubscribed for I/O-bound nodes. Cap at hardware concurrency
    // unless the caller pinned an explicit lane cap.
    int lane_cap = s.options.morsel_max_lanes;
    if (lane_cap <= 0) {
      lane_cap = static_cast<int>(std::thread::hardware_concurrency());
      if (lane_cap <= 0) lane_cap = 1;
    }
    morsel_budget = opt::MorselBudget(
        s.node_est_seconds[static_cast<std::size_t>(v)],
        s.options.morsel_target_seconds,
        std::min(s.morsel_lanes, lane_cap));
  }

  // Each attempt is self-contained (fresh resolver, fresh timings), so a
  // retried node reports only its successful attempt's stats, plus the
  // retries it consumed. Only transient-classified failures (injected
  // transient faults, TransientTag I/O errors) retry; CancelledError and
  // real bugs propagate on first occurrence, as does anything once the
  // token latches.
  const int retry_limit = std::max(0, s.options.retry_limit);
  for (int attempt = 0;; ++attempt) {
    try {
      if (s.options.faults != nullptr) {
        s.options.faults->MaybeThrow(fault::Site::kNodeExecute, stats.name);
      }
      InputReads reads;
      engine::FnResolver resolver([&](const std::string& name) {
        engine::TablePtr cached = s.catalog.Get(name);
        return cached != nullptr ? cached : ReadInput(s, v, name, &reads);
      });

      const double exec_start = MonotonicSeconds();
      if (morsel_budget > 1) {
        LaneMorselRunner runner(s.morsel_pool, trace,
                                s.options.trace_job_id, stats.name,
                                &s.morsel_tasks, s.options.cancel);
        engine::MorselContext morsel_context(
            &runner, morsel_budget,
            static_cast<std::size_t>(
                std::max<std::int64_t>(1, s.options.morsel_min_rows)));
        engine::MorselScope scope(&morsel_context);
        result.output = std::make_shared<engine::Table>(
            engine::ExecutePlan(*s.wl.plans[v], resolver));
      } else {
        result.output = std::make_shared<engine::Table>(
            engine::ExecutePlan(*s.wl.plans[v], resolver));
      }
      result.output = ApplyResidency(std::move(result.output),
                                     s.options.compress_residency);
      const double exec_seconds = MonotonicSeconds() - exec_start;
      stats.read_seconds = reads.seconds;
      stats.compute_seconds = std::max(0.0, exec_seconds - reads.seconds);
      stats.base_disk_reads = reads.base_reads;
      stats.base_disk_bytes = reads.base_bytes;
      stats.output_bytes = result.output->ByteSize();
      stats.output_rows = result.output->num_rows();

      if (!s.plan.flags[v]) {
        const double w0 = MonotonicSeconds();
        s.disk->WriteTable(stats.name, *result.output);
        stats.write_seconds = MonotonicSeconds() - w0;
      }
      break;
    } catch (const std::exception& e) {
      const bool cancelled =
          s.options.cancel != nullptr && s.options.cancel->cancelled();
      if (attempt >= retry_limit || cancelled || !fault::IsTransient(e)) {
        throw;
      }
      ++stats.retries;
      s.retries.fetch_add(1, std::memory_order_relaxed);
      if (tracing) {
        trace->Instant(
            "retry", stats.name,
            StrFormat("\"job\":%llu,\"attempt\":%d,\"site\":\"execute\"",
                      static_cast<unsigned long long>(
                          s.options.trace_job_id),
                      attempt + 1));
      }
      BackoffSleep(attempt, s.options.retry_backoff_ms, s.options.cancel);
    }
  }
  FinishScans(s, v);
  emit_node_span(stats);
  return result;
}

/// Publishes node `v`'s completed result: flagged outputs enter the
/// Memory Catalog (lazy release until the Put fits, exactly the
/// sequential admission sequence) and start their background write;
/// residency bookkeeping marks nodes whose last consumer finished as
/// releasable. Must be called once per node, strictly in plan order —
/// that invariant is what keeps the catalog's budget behaviour identical
/// across lane counts. Throws on budget violation or an awaited
/// materialization failure.
void PublishNode(RunState& s, graph::NodeId v, NodeResult result,
                 RunReport* report) {
  const graph::Graph& g = s.wl.graph;
  NodeRunStats& stats = result.stats;
  const std::string& name = g.node(v).name;

  // The publish replay runs on the coordinator thread; its span measures
  // the in-order Put / lazy-release step (including any materialization
  // waits it blocks on) — time a job spends "publishing" per the trace
  // breakdown. Not emitted on the throwing paths (the run fails anyway).
  obs::TraceRecorder* const trace = s.options.trace;
  const bool tracing = trace != nullptr && trace->enabled();
  const double publish_start = tracing ? MonotonicSeconds() : 0.0;

  // Releases one releasable entry (all dependants done), waiting for its
  // in-flight materialization first — the data must exist on disk before
  // it leaves the Memory Catalog.
  auto release_one = [&]() {
    const graph::NodeId node = s.releasable.back();
    s.releasable.pop_back();
    const std::string& node_name = g.node(node).name;
    auto it = s.in_flight.find(node_name);
    if (it != s.in_flight.end()) {
      it->second.get();  // rethrows materialization failures
      s.in_flight.erase(it);
      // The write landed: reusing jobs may now skip theirs.
      s.catalog.MarkSharedDurable(node_name);
    }
    s.catalog.Release(node_name);
  };

  if (s.plan.flags[v]) {
    // Lazy release: keep finished entries resident until space is
    // actually needed, maximizing memory-served reads.
    while (!s.catalog.Put(name, result.output,
                          result.output->ByteSize())) {
      if (s.releasable.empty()) {
        throw std::runtime_error("Memory Catalog budget violated at node " +
                                 name);
      }
      release_one();
    }
    stats.output_in_memory = true;
    if (stats.reused_cross_job && result.reused_durable) {
      // The producing job's materialization already reached disk.
      // (Reused content not yet durable falls through to the normal
      // write paths: this run's durability stays self-contained.)
    } else {
      s.in_flight.emplace(name,
                          s.materializer.Enqueue(name, result.output));
    }
  } else if (!stats.reused_cross_job) {
    // Unflagged outputs are computed anyway: publish them into the
    // cross-job layer too (no-op without one), at their replay slot so
    // the shared store fills in optimized order under pressure.
    s.catalog.PublishShared(name, result.output, stats.output_bytes);
  }

  // Mark nodes whose last consumer just finished as releasable (§III-C:
  // eligible to be freed once all dependants complete). Cross-job pins
  // end at the same boundary: once a node's last consumer published,
  // nothing in this run reads its shared entry again, so the pin (and
  // the tenant's shared-residency charge) is dropped instead of riding
  // to the end of the run.
  if (s.pending_children[static_cast<std::size_t>(v)] == 0) {
    if (s.plan.flags[v]) {
      s.releasable.push_back(v);
    } else if (stats.reused_cross_job) {
      s.catalog.UnpinShared(name);
    }
  }
  for (graph::NodeId p : g.parents(v)) {
    if (--s.pending_children[static_cast<std::size_t>(p)] == 0) {
      if (s.plan.flags[p]) {
        s.releasable.push_back(p);
      } else {
        s.catalog.UnpinShared(g.node(p).name);  // no-op if unpinned
      }
    }
  }

  if (tracing) {
    trace->Complete(
        "publish", name, publish_start,
        MonotonicSeconds() - publish_start,
        StrFormat("\"job\":%llu,\"flagged\":%s",
                  static_cast<unsigned long long>(s.options.trace_job_id),
                  s.plan.flags[v] ? "true" : "false"));
  }
  report->nodes.push_back(std::move(stats));
}

/// Per-node inline-dispatch eligibility: true when the node's estimated
/// wall cost (opt::EstimateNodeSeconds over the profiled graph metadata
/// and the run's storage device) is at or below the configured
/// threshold, so executing it on the coordinator thread beats paying the
/// lane handoff. Unprofiled nodes estimate to +inf and stay on lanes.
std::vector<char> InlineEligible(const RunState& s) {
  const graph::Graph& g = s.wl.graph;
  std::vector<char> ok(static_cast<std::size_t>(g.num_nodes()), 0);
  const double threshold = s.options.inline_node_cost_seconds;
  if (threshold <= 0) return ok;
  const std::vector<double> est =
      !s.node_est_seconds.empty()
          ? s.node_est_seconds
          : EstimateNodeCosts(g, s.plan.flags, s.disk);
  for (std::size_t v = 0; v < est.size(); ++v) {
    ok[v] = est[v] <= threshold ? 1 : 0;
  }
  return ok;
}

/// Blocks until every background materialization finished, rethrowing the
/// first failure.
void AwaitMaterializations(RunState& s) {
  s.materializer.Drain();
  for (auto& [name, future] : s.in_flight) {
    future.get();
    s.catalog.MarkSharedDurable(name);
  }
}

/// The classic sequential Controller loop (pre-parallel semantics):
/// execute and publish each node at its plan-order slot.
void RunSequential(RunState& s, RunReport* report) {
  for (const graph::NodeId v : s.plan.order.sequence) {
    PublishNode(s, v, ExecuteNode(s, v), report);
  }
  AwaitMaterializations(s);
}

/// The stage-scheduled parallel runtime with the relaxed publish
/// protocol: ready nodes execute on up to `lanes` threads of `pool` (the
/// service's shared LanePool, or the Controller's own) while the
/// coordinator — the caller's thread — publishes completed results
/// strictly in plan order. Publish and dispatch are decoupled: dispatch
/// runs from lane-completion callbacks as well as after every publish, so
/// the in-order Put / lazy-release replay (which can block on disk while
/// awaiting materializations) never stalls execution of independent
/// nodes. Availability is equally decoupled: an unflagged node's children
/// are released the moment its write completes, before its publish slot.
///
/// Small nodes short-circuit the lane machinery entirely: a ready node
/// whose estimated cost falls below ControllerOptions::
/// inline_node_cost_seconds is queued to the coordinator itself, which
/// executes it between publishes — same readiness rules, same
/// reservation backpressure, same in-order publish, but no cross-thread
/// handoff (RunReport::inlined_nodes counts these).
///
/// Dispatch of flagged nodes is backpressured by catalog reservations
/// (estimated size) so that concurrently executing nodes cannot jointly
/// overshoot the budget; when a reservation cannot be funded and the node
/// is the next to publish with no lane active, it proceeds unreserved and
/// the publish-time Put enforces the budget with the sequential error
/// semantics.
void RunStageParallel(RunState& s, int lanes, LanePool* pool,
                      RunReport* report) {
  const graph::Graph& g = s.wl.graph;
  const std::vector<graph::NodeId>& seq = s.plan.order.sequence;
  StageScheduler scheduler(g, s.plan.order, s.stages);

  std::mutex mutex;
  std::condition_variable cv;
  std::map<graph::NodeId, NodeResult> completed;
  std::size_t next_publish = 0;
  int executing = 0;
  std::string error;
  // Below-threshold nodes queue here instead of going to a lane; the
  // coordinator executes them itself between publishes (inline
  // small-node dispatch). They count toward `executing` from dispatch to
  // completion, like lane nodes.
  const std::vector<char> inline_ok = InlineEligible(s);
  std::deque<graph::NodeId> inline_ready;

  // Dispatches ready nodes while this run's lanes are free, in
  // order-position priority. Requires `mutex`; called by the coordinator
  // (initially and after each publish) and by every lane completion, so
  // execution keeps flowing while the coordinator is blocked inside
  // PublishNode.
  // First dispatch into each antichain stage is marked with an instant
  // event — the trace shows where the run crossed stage boundaries.
  std::int32_t last_dispatched_stage = -1;
  std::function<void()> dispatch = [&] {
    // Stage-dispatch cancellation checkpoint: a latched token stops all
    // further dispatch (in-flight nodes notice at their own next
    // boundary), recorded via the run's single error slot.
    if (error.empty() && s.options.cancel != nullptr &&
        s.options.cancel->cancelled()) {
      error = s.options.cancel->reason() == CancelReason::kDeadline
                  ? kDeadlineMessage
                  : kCancelledMessage;
    }
    while (error.empty() && scheduler.HasReady()) {
      const graph::NodeId v = scheduler.PeekReady();
      // Cheap nodes run inline on the coordinator and consume no lane;
      // everything else waits for a free lane as before.
      const bool run_inline = inline_ok[static_cast<std::size_t>(v)] != 0;
      if (!run_inline && executing >= lanes) break;
      const std::string& name = g.node(v).name;
      if (s.plan.flags[v]) {
        const std::int64_t estimate =
            std::max<std::int64_t>(0, g.node(v).size_bytes);
        // Liveness escape: with no lane active and the head of the
        // publish order ready, dispatching it unreserved is exactly the
        // sequential regime — the publish-time Put enforces the budget
        // with sequential error semantics. Without this escape,
        // reservations held by completed-but-unpublished later nodes
        // could wedge the run. (While a publish is in flight the head is
        // that publishing node, never a ready one, so the escape cannot
        // race the replay.)
        const bool sequential_turn =
            executing == 0 && next_publish < seq.size() &&
            seq[next_publish] == v;
        if (!s.catalog.Reserve(name, estimate) && !sequential_turn) break;
      }
      scheduler.PopReady();
      if (s.options.trace != nullptr && s.options.trace->enabled()) {
        const std::int32_t stage = s.stages.stage_of[v];
        if (stage > last_dispatched_stage) {
          last_dispatched_stage = stage;
          s.options.trace->Instant(
              "stage", "dispatch-stage-" + std::to_string(stage),
              StrFormat("\"job\":%llu,\"stage\":%d",
                        static_cast<unsigned long long>(
                            s.options.trace_job_id),
                        static_cast<int>(stage)));
        }
      }
      // Pin resident cross-job inputs at dispatch so the shared layer
      // cannot evict them between the scheduling decision and the
      // lane's read.
      if (s.options.shared_catalog != nullptr) {
        for (const graph::NodeId p : g.parents(v)) {
          s.catalog.PinSharedInput(g.node(p).name);
        }
      }
      ++executing;
      if (run_inline) {
        inline_ready.push_back(v);
        continue;  // the coordinator picks it up (cv signaled by caller)
      }
      pool->Submit([&s, &g, &mutex, &cv, &executing, &error, &completed,
                    &scheduler, &dispatch, v] {
        NodeResult result;
        std::string exec_error;
        try {
          result = ExecuteNode(s, v);
        } catch (const std::exception& e) {
          exec_error = e.what();
        }
        std::lock_guard<std::mutex> inner(mutex);
        --executing;
        if (exec_error.empty()) {
          // Unflagged outputs are on disk already — children may read
          // them before the (in-order) publish happens.
          if (!s.plan.flags[v]) scheduler.MarkAvailable(v);
          completed.emplace(v, std::move(result));
          try {
            dispatch();
          } catch (const std::exception& e) {
            if (error.empty()) error = e.what();
          }
        } else {
          s.catalog.CancelReservation(g.node(v).name);
          if (error.empty()) error = exec_error;
        }
        cv.notify_all();
      });
    }
  };

  std::unique_lock<std::mutex> lock(mutex);
  try {
    dispatch();
    // The coordinator replays the publish sequence in plan order; all
    // dispatching meanwhile happens from lane completions. PublishNode
    // can block on disk (lazy release awaits in-flight
    // materializations), so it runs unlocked:
    // it touches only coordinator-owned state (releasable / in_flight /
    // pending_children / report) and thread-safe stores.
    while (error.empty() && next_publish < seq.size()) {
      const graph::NodeId v = seq[next_publish];
      auto it = completed.find(v);
      if (it == completed.end()) {
        // No publish possible yet: execute queued inline nodes here, on
        // the coordinator thread — the whole point of inline dispatch is
        // skipping the lane handoff for sub-threshold nodes.
        if (!inline_ready.empty()) {
          const graph::NodeId iv = inline_ready.front();
          inline_ready.pop_front();
          lock.unlock();
          NodeResult result;
          std::string exec_error;
          try {
            result = ExecuteNode(s, iv, /*inline_exec=*/true);
          } catch (const std::exception& e) {
            exec_error = e.what();
          }
          lock.lock();
          --executing;
          if (exec_error.empty()) {
            ++report->inlined_nodes;
            if (!s.plan.flags[iv]) scheduler.MarkAvailable(iv);
            completed.emplace(iv, std::move(result));
            try {
              dispatch();
            } catch (const std::exception& e) {
              if (error.empty()) error = e.what();
            }
          } else {
            s.catalog.CancelReservation(g.node(iv).name);
            if (error.empty()) error = exec_error;
          }
          cv.notify_all();
          continue;
        }
        cv.wait(lock, [&] {
          return !error.empty() || !inline_ready.empty() ||
                 completed.count(seq[next_publish]) > 0;
        });
        continue;
      }
      NodeResult result = std::move(it->second);
      completed.erase(it);
      const bool flagged = s.plan.flags[v];
      lock.unlock();
      if (flagged) s.catalog.CancelReservation(g.node(v).name);
      std::string publish_error;
      try {
        PublishNode(s, v, std::move(result), report);
      } catch (const std::exception& e) {
        publish_error = e.what();
      }
      lock.lock();
      ++next_publish;
      if (!publish_error.empty()) {
        if (error.empty()) error = publish_error;
      } else if (flagged) {
        scheduler.MarkAvailable(v);
      }
      dispatch();  // the publish freed budget and/or readied children
      cv.notify_all();
    }
  } catch (const std::exception& e) {
    if (!lock.owns_lock()) lock.lock();
    if (error.empty()) error = e.what();
  }
  // Inline nodes still queued (error unwind) were never handed to a
  // lane: release their execution claims here so the wait below and the
  // liveness escape's executing==0 invariant stay truthful.
  while (!inline_ready.empty()) {
    const graph::NodeId v = inline_ready.front();
    inline_ready.pop_front();
    --executing;
    if (s.plan.flags[v]) s.catalog.CancelReservation(g.node(v).name);
  }
  // Every submitted task must finish before the run state unwinds: the
  // pool outlives the run, so nothing joins on our behalf.
  cv.wait(lock, [&] { return executing == 0; });
  lock.unlock();

  if (!error.empty()) throw std::runtime_error(error);
  AwaitMaterializations(s);
}

}  // namespace

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

Controller::Controller(storage::ThrottledDisk* disk,
                       ControllerOptions options)
    : disk_(disk), options_(options) {
  if (options_.lane_pool == nullptr) {
    owned_pool_ = std::make_unique<LanePool>(
        std::max(1, options_.max_parallel_nodes) + 1);
  }
}

Controller::~Controller() = default;

void Controller::LoadBaseTables(
    const std::map<std::string, engine::TablePtr>& tables) {
  for (const auto& [name, table] : tables) {
    disk_->WriteTable(name, *table);
  }
}

RunReport Controller::Run(const workload::MvWorkload& wl,
                          const opt::Plan& plan) {
  return RunWithBudget(wl, plan, options_.budget);
}

RunReport Controller::RunWithBudget(const workload::MvWorkload& wl,
                                    const opt::Plan& plan,
                                    std::int64_t budget,
                                    const opt::StageDecomposition* stages) {
  RunReport report;
  report.budget = budget;

  std::string error;
  if (!opt::ValidatePlan(wl.graph, plan, budget, &error)) {
    report.error = "invalid plan: " + error;
    return report;
  }

  std::optional<opt::StageDecomposition> local_stages;
  if (stages == nullptr ||
      stages->stage_of.size() !=
          static_cast<std::size_t>(wl.graph.num_nodes())) {
    local_stages.emplace(opt::DecomposeStages(wl.graph, plan.order));
    stages = &*local_stages;
  }
  const int lanes = std::min<int>(
      std::max(1, options_.max_parallel_nodes),
      static_cast<int>(std::max<std::size_t>(1, stages->width())));
  report.parallel_lanes = lanes;
  report.num_stages = stages->num_stages();

  // Already cancelled before any node ran (e.g. the deadline expired in
  // the admission queue): report without constructing run state.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    report.cancelled = true;
    report.cancel_reason = options_.cancel->reason();
    report.error = report.cancel_reason == CancelReason::kDeadline
                       ? kDeadlineMessage
                       : kCancelledMessage;
    return report;
  }

  LanePool* const pool = options_.lane_pool != nullptr ? options_.lane_pool
                                                       : owned_pool_.get();
  RunState state(wl, plan, *stages, options_, disk_, budget, pool);
  // Interior morsels fan out on a caller's pool up to its capacity, and
  // on the owned pool only for parallel runs, up to the run's node lanes
  // (its extra lane is the writer's).
  if (options_.lane_pool != nullptr) {
    state.morsel_pool = options_.lane_pool;
    state.morsel_lanes = options_.lane_pool->capacity();
  } else if (lanes > 1) {
    state.morsel_pool = pool;
    state.morsel_lanes = lanes;
  }
  // Classifies a failed run as cooperatively cancelled. The stage
  // runtime collapses worker exceptions into a string, so the check is
  // token state + the exact CancelledError message constants (never a
  // substring of a real storage/engine error).
  auto classify_cancel = [&] {
    if (options_.cancel == nullptr || !options_.cancel->cancelled()) {
      return;
    }
    if (report.error == kCancelledMessage ||
        report.error == kDeadlineMessage) {
      report.cancelled = true;
      report.cancel_reason = options_.cancel->reason();
    }
  };
  // Counters a failed run reports too.
  auto collect = [&] {
    report.node_retries = state.retries.load(std::memory_order_relaxed);
    report.base_input_hits =
        state.base_input_hits.load(std::memory_order_relaxed);
    report.base_input_disk_reads =
        state.base_input_disk_reads.load(std::memory_order_relaxed);
    report.resident_peak_bytes = state.catalog.resident_peak_bytes();
  };
  const double run_start = MonotonicSeconds();
  try {
    if (lanes > 1) {
      RunStageParallel(state, lanes, pool, &report);
    } else {
      RunSequential(state, &report);
    }
  } catch (const std::exception& e) {
    report.error = e.what();
    collect();
    classify_cancel();
    return report;
  }
  report.wall_seconds = MonotonicSeconds() - run_start;
  collect();
  report.peak_memory = state.catalog.peak_bytes();
  report.catalog_hits = state.catalog.hits();
  report.catalog_misses = state.catalog.misses();
  report.reserve_denials = state.catalog.reserve_denials();
  report.morsel_tasks =
      state.morsel_tasks.load(std::memory_order_relaxed);
  report.cross_job_hits = state.catalog.cross_job_hits();
  report.cross_job_bytes_saved = state.catalog.cross_job_bytes_saved();
  report.ok = true;
  return report;
}

RunReport Controller::RunUnoptimized(const workload::MvWorkload& wl) {
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(wl.graph);
  plan.flags = opt::EmptyFlags(wl.graph.num_nodes());
  return Run(wl, plan);
}

RunReport Controller::ProfileAndAnnotate(workload::MvWorkload* wl) {
  RunReport report = RunUnoptimized(*wl);
  if (!report.ok) return report;
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeRunStats& stats = report.nodes[i];
    auto id = wl->graph.FindByName(stats.name);
    graph::NodeInfo& info = wl->graph.mutable_node(*id);
    info.size_bytes = stats.output_bytes;
    // Every node of the unoptimized run wrote its file.
    info.disk_bytes = std::max<std::int64_t>(0, disk_->FileSize(stats.name));
    info.compute_seconds = stats.compute_seconds;
    // Base input volume, counted rather than timed: the files the node
    // read from storage (reads are padded for on-disk bytes). The cost
    // model charges a node's base inputs one access latency, so every
    // further access folds in as a latency's worth of bytes — the
    // simulated unoptimized read time then reproduces the counted one.
    // Scans the clean tier served cost nothing and count nothing.
    const storage::DiskProfile& dp = disk_->profile();
    const double extra_accesses =
        static_cast<double>(std::max(0, stats.base_disk_reads - 1));
    info.base_input_bytes =
        stats.base_disk_bytes +
        static_cast<std::int64_t>(extra_accesses * dp.latency * dp.read_bw);
  }
  cost::DeviceProfile profile;
  profile.disk_read_bw = disk_->profile().read_bw;
  profile.disk_write_bw = disk_->profile().write_bw;
  profile.disk_latency = disk_->profile().latency;
  cost::SpeedupEstimator estimator{cost::CostModel(profile)};
  estimator.AnnotateGraph(&wl->graph);
  return report;
}

}  // namespace sc::runtime
