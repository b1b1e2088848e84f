#include "service/service.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/clock.h"
#include "common/fnv.h"
#include "common/str_util.h"
#include "opt/memory_usage.h"
#include "opt/optimizer.h"
#include "opt/stages.h"

namespace sc::service {

/// Grant renegotiation keeps plan peak × this slack, absorbing actual
/// output sizes overshooting the optimizer's estimates.
constexpr double kBudgetReturnSlack = 1.25;

const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kShed: return "shed";
  }
  return "failed";
}

RefreshService::RefreshService(storage::ThrottledDisk* disk,
                               ServiceOptions options)
    : disk_(disk),
      options_(std::move(options)),
      split_(ParallelismBroker::Split(options_.num_workers,
                                      options_.max_intra_job_lanes)),
      broker_([&] {
        BudgetBrokerOptions broker_options;
        broker_options.global_budget = options_.global_budget;
        broker_options.default_tenant_quota = options_.default_tenant_quota;
        broker_options.fault_injector = options_.fault_injector;
        return broker_options;
      }()),
      lanes_broker_(std::max(1, options_.num_workers),
                    options_.max_intra_job_lanes),
      lane_pool_(std::max(1, options_.num_workers)),
      shared_catalog_(
          options_.global_budget, 8,
          [&] {
            storage::SpillOptions spill;
            spill.directory = options_.spill_directory;
            spill.max_bytes = options_.spill_max_bytes;
            spill.recover = options_.spill_recover;
            return spill;
          }(),
          disk_ != nullptr ? disk_->profile() : storage::DiskProfile{}) {
  // Trace wiring happens before any worker spawns: the SharedCatalog's
  // recorder hook must be set before concurrent use.
  if (options_.trace != nullptr) {
    trace_ = options_.trace;
  } else if (!options_.trace_path.empty()) {
    owned_trace_ = std::make_unique<obs::TraceRecorder>();
    trace_ = owned_trace_.get();
  }
  shared_catalog_.SetTraceRecorder(trace_);
  // Fault wiring also precedes the workers: injection points on the
  // shared disk, the shared catalog, and the broker (via its options)
  // must be armed before any job can reach them.
  if (options_.fault_injector != nullptr) {
    shared_catalog_.SetFaultInjector(options_.fault_injector);
    if (disk_ != nullptr) disk_->SetFaultInjector(options_.fault_injector);
  }
  RegisterComponentMirrors();
  workers_.reserve(static_cast<std::size_t>(split_.workers));
  for (int i = 0; i < split_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void RefreshService::RegisterComponentMirrors() {
  // Callback series mirror monitoring counters that already live on the
  // components; the callbacks run at exposition/snapshot time only, so
  // mirroring costs nothing on the hot path. Cumulative values export as
  // counters (so rate() applies), point-in-time values as gauges. Names
  // are part of the documented surface (README "Observability") — keep
  // them stable.
  constexpr bool kCounter = true;
  constexpr bool kGauge = false;
  struct Mirror {
    const char* name;
    bool counter;
    const char* help;
    std::function<double()> fn;
  };
  const Mirror mirrors[] = {
      {"sc_lane_pool_busy_seconds", kCounter,
       "Cumulative seconds lanes spent executing tasks",
       [this] { return lane_pool_.busy_seconds(); }},
      {"sc_lane_pool_threads_started", kCounter,
       "Cumulative lane threads ever started (thread-churn witness)",
       [this] { return static_cast<double>(lane_pool_.threads_started()); }},
      {"sc_lane_pool_tasks_completed", kCounter,
       "Tasks completed by pool lanes",
       [this] { return static_cast<double>(lane_pool_.tasks_completed()); }},
      {"sc_lane_pool_live_lanes", kGauge, "Lane threads currently alive",
       [this] { return static_cast<double>(lane_pool_.live_lanes()); }},
      {"sc_lane_pool_idle_lanes", kGauge,
       "Lane threads parked waiting for work",
       [this] { return static_cast<double>(lane_pool_.idle_lanes()); }},
      {"sc_shared_catalog_used_bytes", kGauge,
       "Bytes resident in the cross-job shared catalog",
       [this] { return static_cast<double>(shared_catalog_.used_bytes()); }},
      {"sc_shared_catalog_pinned_bytes", kGauge,
       "Resident bytes currently holding at least one pin",
       [this] {
         return static_cast<double>(shared_catalog_.pinned_bytes());
       }},
      {"sc_shared_catalog_peak_bytes", kGauge,
       "High-water mark of shared-catalog residency",
       [this] { return static_cast<double>(shared_catalog_.peak_bytes()); }},
      {"sc_shared_catalog_hits", kCounter,
       "Counted Pin() lookups served resident",
       [this] { return static_cast<double>(shared_catalog_.hits()); }},
      {"sc_shared_catalog_misses", kCounter,
       "Counted Pin() lookups that missed (damping-bounded per epoch)",
       [this] { return static_cast<double>(shared_catalog_.misses()); }},
      {"sc_shared_catalog_damped_lookups", kCounter,
       "Miss-path probes short-circuited by negative-lookup damping",
       [this] {
         return static_cast<double>(shared_catalog_.damped_lookups());
       }},
      {"sc_shared_catalog_publishes", kCounter,
       "Successful shared-catalog inserts",
       [this] { return static_cast<double>(shared_catalog_.publishes()); }},
      {"sc_shared_catalog_rejects", kCounter, "Failed shared-catalog inserts",
       [this] { return static_cast<double>(shared_catalog_.rejects()); }},
      {"sc_shared_catalog_evictions", kCounter,
       "Entries dropped under shared-catalog budget pressure",
       [this] { return static_cast<double>(shared_catalog_.evictions()); }},
      {"sc_shared_spill_bytes", kGauge,
       "Compressed bytes currently parked in shared-catalog spill files",
       [this] {
         return static_cast<double>(shared_catalog_.spill_bytes());
       }},
      {"sc_shared_refills_total", kCounter,
       "Pins served by refilling a spilled entry instead of recompute",
       [this] {
         return static_cast<double>(shared_catalog_.spill_refills());
       }},
      {"sc_shared_spills_total", kCounter,
       "Evictions demoted to compressed spill files",
       [this] { return static_cast<double>(shared_catalog_.spills()); }},
      {"sc_corrupt_files_total", kCounter,
       "Damaged spill files detected and removed, never served",
       [this] {
         return static_cast<double>(shared_catalog_.corrupt_files());
       }},
      {"sc_recovered_entries_total", kCounter,
       "Spilled entries adopted from the manifest at startup recovery",
       [this] {
         return static_cast<double>(shared_catalog_.recovered_entries());
       }},
      {"sc_recovered_bytes", kGauge,
       "Compressed bytes adopted at startup recovery",
       [this] {
         return static_cast<double>(shared_catalog_.recovered_bytes());
       }},
      {"sc_spill_orphans_removed_total", kCounter,
       "Unmanifested spill-directory files removed at startup",
       [this] {
         return static_cast<double>(shared_catalog_.orphans_removed());
       }},
      {"sc_manifest_compactions_total", kCounter,
       "Atomic rotate/compact cycles of the spill manifest journal",
       [this] {
         return static_cast<double>(shared_catalog_.manifest_compactions());
       }},
      {"sc_disk_writes_skipped_total", kCounter,
       "Warehouse writes skipped because their bytes were already on disk",
       [this] {
         return disk_ == nullptr
                    ? 0.0
                    : static_cast<double>(disk_->skipped_writes());
       }},
      {"sc_dict_columns_total", kCounter,
       "Dictionary-encoded string columns materialized process-wide",
       [this] {
         return static_cast<double>(engine::Column::dict_columns_created());
       }},
      {"sc_budget_reserved_bytes", kGauge,
       "Memory-catalog bytes currently granted to running jobs",
       [this] { return static_cast<double>(broker_.reserved_bytes()); }},
      {"sc_budget_free_bytes", kGauge, "Ungranted memory-catalog bytes",
       [this] { return static_cast<double>(broker_.free_bytes()); }},
      {"sc_budget_peak_reserved_bytes", kGauge,
       "High-water mark of concurrently granted bytes",
       [this] {
         return static_cast<double>(broker_.peak_reserved_bytes());
       }},
      {"sc_budget_waiting_jobs", kGauge, "Jobs blocked in budget arbitration",
       [this] { return static_cast<double>(broker_.waiting_count()); }},
      {"sc_plan_cache_hits", kCounter, "Plan-cache lookups served",
       [this] { return static_cast<double>(plan_cache_.stats().hits); }},
      {"sc_plan_cache_misses", kCounter, "Plan-cache lookups that missed",
       [this] { return static_cast<double>(plan_cache_.stats().misses); }},
      {"sc_plan_cache_insertions", kCounter, "Plans inserted into the cache",
       [this] {
         return static_cast<double>(plan_cache_.stats().insertions);
       }},
      {"sc_plan_cache_evictions", kCounter, "Plans evicted LRU under capacity",
       [this] {
         return static_cast<double>(plan_cache_.stats().evictions);
       }},
      {"sc_plan_cache_size", kGauge, "Plans currently cached",
       [this] { return static_cast<double>(plan_cache_.size()); }},
      {"sc_queue_depth", kGauge, "Jobs waiting in the admission queue",
       [this] { return static_cast<double>(queue_depth()); }},
      {"sc_starvation_seconds", kGauge,
       "Longest wait among jobs queued right now",
       [this] { return StarvationSeconds(); }},
  };
  for (const Mirror& m : mirrors) {
    if (m.counter) {
      registry_.RegisterCallbackCounter(m.name, m.help, {}, m.fn);
    } else {
      registry_.RegisterCallbackGauge(m.name, m.help, {}, m.fn);
    }
  }
}

RefreshService::~RefreshService() { Shutdown(/*drain=*/true); }

std::future<JobResult> RefreshService::Submit(RefreshJobSpec spec) {
  return SubmitJob(std::move(spec)).future;
}

RefreshService::JobHandle RefreshService::SubmitJob(RefreshJobSpec spec) {
  if (spec.workload == nullptr) {
    throw std::invalid_argument("RefreshService::Submit: null workload");
  }
  // Fingerprint outside the lock: it walks the whole graph.
  const std::uint64_t fingerprint = FingerprintGraph(spec.workload->graph);
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->submit_seconds = MonotonicSeconds();
  job->fingerprint = fingerprint;
  if (job->spec.deadline_seconds > 0.0) {
    // The deadline clock starts at submit: queue time counts against it.
    job->cancel.SetDeadline(job->submit_seconds +
                            job->spec.deadline_seconds);
  }
  JobHandle handle;
  handle.future = job->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error(
          "RefreshService::Submit: service is shut down");
    }
    job->id = next_job_id_++;
    handle.job_id = job->id;
    active_jobs_[job->id] = job;
    queue_.push(std::move(job));
  }
  cv_.notify_one();
  return handle;
}

bool RefreshService::Cancel(std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = active_jobs_.find(job_id);
    if (it == active_jobs_.end()) return false;  // already finished
    job = it->second;
  }
  job->cancel.RequestCancel(runtime::CancelReason::kCancelled);
  // Wake the job wherever it blocks: budget arbitration re-probes its
  // token on notify; a queued job is checked at pickup; an executing job
  // polls the token at every boundary.
  broker_.Poke();
  cv_.notify_all();
  return true;
}

void RefreshService::ForgetJob(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_jobs_.erase(job_id);
}

void RefreshService::Shutdown(bool drain) {
  std::vector<std::shared_ptr<Job>> rejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    if (!drain) {
      while (!queue_.empty()) {
        rejected.push_back(queue_.top());
        queue_.pop();
      }
    }
    // Workers exit once the queue is empty, so queued jobs drain first.
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& job : rejected) {
    FailJob(*job, "service shutting down");
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // All spans are recorded by now (workers joined); flush the owned
  // recorder's trace exactly once. A caller-supplied recorder is the
  // caller's to export.
  if (owned_trace_ != nullptr && !trace_written_ &&
      !options_.trace_path.empty()) {
    trace_written_ = true;
    obs::WriteChromeTraceFile(*owned_trace_, options_.trace_path);
  }
}

void RefreshService::SetTenantQuota(const std::string& tenant,
                                    std::int64_t quota_bytes) {
  broker_.SetTenantQuota(tenant, quota_bytes);
}

std::size_t RefreshService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

double RefreshService::StarvationSeconds() const {
  const double now = MonotonicSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  double worst = 0.0;
  for (const auto& [id, job] : active_jobs_) {
    if (job->admit_seconds == 0.0) {
      worst = std::max(worst, now - job->submit_seconds);
    }
  }
  return worst;
}

void RefreshService::FailJob(Job& job, const std::string& error,
                             JobStatus status) {
  JobResult result;
  result.job_id = job.id;
  result.tenant = job.spec.tenant;
  result.status = status;
  result.report.ok = false;
  result.report.error = error;
  if (status == JobStatus::kCancelled || status == JobStatus::kTimeout) {
    result.report.cancelled = true;
    result.report.cancel_reason = status == JobStatus::kTimeout
                                      ? runtime::CancelReason::kDeadline
                                      : runtime::CancelReason::kCancelled;
  }
  const double now = MonotonicSeconds();
  if (job.admit_seconds > 0.0) {
    // The job died mid-execution: time past admission is execution, not
    // queue wait.
    result.queue_wait_seconds = job.admit_seconds - job.submit_seconds;
    result.exec_seconds = now - job.admit_seconds;
  } else {
    result.queue_wait_seconds = now - job.submit_seconds;
  }
  RecordJob(job, result);
  ForgetJob(job.id);
  job.promise.set_value(std::move(result));
}

void RefreshService::WorkerLoop(int worker_index) {
  // Worker threads are the jobs' coordinator threads: job lifecycle
  // spans, inline node executions, and the publish replay all land on
  // this track.
  obs::SetThreadTrack("worker-" + std::to_string(worker_index));
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = queue_.top();
      queue_.pop();
    }
    // Graceful degradation at pickup: a job whose shedding bound expired
    // while queued is dropped before it can consume budget or lanes, and
    // a job cancelled (or deadline-expired) while queued never runs.
    const double waited = MonotonicSeconds() - job->submit_seconds;
    if (job->spec.max_queue_wait_seconds > 0.0 &&
        waited > job->spec.max_queue_wait_seconds) {
      FailJob(*job, "job shed: queue wait exceeded max_queue_wait_seconds",
              JobStatus::kShed);
      continue;
    }
    if (job->cancel.cancelled()) {
      const bool deadline =
          job->cancel.reason() == runtime::CancelReason::kDeadline;
      FailJob(*job,
              deadline ? runtime::kDeadlineMessage
                       : runtime::kCancelledMessage,
              deadline ? JobStatus::kTimeout : JobStatus::kCancelled);
      continue;
    }
    try {
      job->promise.set_value(Execute(*job));
      ForgetJob(job->id);
    } catch (const std::exception& e) {
      FailJob(*job, std::string("internal service error: ") + e.what());
    }
  }
}

JobResult RefreshService::Execute(Job& job) {
  const workload::MvWorkload& wl = *job.spec.workload;
  JobResult result;
  result.job_id = job.id;
  result.tenant = job.spec.tenant;
  result.requested_budget = job.spec.requested_budget > 0
                                ? job.spec.requested_budget
                                : options_.global_budget;

  // Trace the job's waiting states on this worker's track: time in the
  // admission queue (submit -> this worker picking it up), then time
  // blocked in budget arbitration. The args carry job id and tenant so
  // AnalyzeTrace can slice the breakdown per job.
  const bool tracing = trace_ != nullptr && trace_->enabled();
  const double picked_up_seconds = MonotonicSeconds();
  std::string job_args;
  if (tracing) {
    job_args = StrFormat("\"job\":%llu,\"tenant\":\"%s\"",
                         static_cast<unsigned long long>(job.id),
                         job.spec.tenant.c_str());
    trace_->Complete("job", "queued", job.submit_seconds,
                     picked_up_seconds - job.submit_seconds, job_args);
  }

  // Graceful degradation: under a deep backlog, ask the broker for less
  // than the job wanted. Smaller grants admit sooner and leave memory
  // for the queue behind this job; the plan is simply optimized at the
  // granted budget, the same path partial funding already exercises.
  std::int64_t budget_to_request = result.requested_budget;
  if (options_.overload_queue_depth > 0 &&
      queue_depth() > options_.overload_queue_depth) {
    double fraction = options_.overload_budget_fraction;
    if (!(fraction > 0.0 && fraction <= 1.0)) fraction = 1.0;
    budget_to_request = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(budget_to_request) * fraction));
    if (budget_to_request < result.requested_budget) {
      registry_
          .GetCounter("sc_jobs_degraded_total",
                      "Jobs admitted at a reduced budget under overload",
                      {{"tenant", result.tenant}})
          ->Increment();
    }
  }

  BudgetGrant grant = broker_.Acquire(job.spec.tenant, budget_to_request,
                                      job.spec.priority, &job.cancel);
  // Queue wait covers both the admission queue and budget arbitration:
  // the job is "waiting" until it holds everything it needs to run.
  // Written under mutex_: the starvation gauge reads it from the
  // scraping thread.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.admit_seconds = MonotonicSeconds();
  }
  if (tracing) {
    trace_->Complete("job", "wait-budget", picked_up_seconds,
                     job.admit_seconds - picked_up_seconds, job_args);
    trace_->Instant(
        "budget", "grant",
        job_args + StrFormat(",\"bytes\":%lld",
                             static_cast<long long>(grant.bytes)));
  }
  result.queue_wait_seconds = job.admit_seconds - job.submit_seconds;
  result.granted_budget = grant.bytes;
  const double exec_start = job.admit_seconds;
  int lanes = 0;

  if (!grant.valid() && job.cancel.cancelled()) {
    // Cancelled (or deadline-expired) while blocked in budget
    // arbitration: the broker reserved nothing and no lanes are held,
    // so reporting is the only cleanup.
    const bool deadline =
        job.cancel.reason() == runtime::CancelReason::kDeadline;
    result.report.ok = false;
    result.report.cancelled = true;
    result.report.cancel_reason = deadline
                                      ? runtime::CancelReason::kDeadline
                                      : runtime::CancelReason::kCancelled;
    result.report.error =
        deadline ? runtime::kDeadlineMessage : runtime::kCancelledMessage;
    return FinishJob(job, std::move(result), exec_start, job_args,
                     /*held_grant=*/false);
  }

  try {
    // The run executes at the granted budget, so that is the cache key
    // that matters. On a miss, a cached requested-budget plan (from
    // fully-funded jobs) is reused outright when it already fits the
    // grant; otherwise the optimizer runs at the granted budget. With
    // intra-job lanes enabled the optimizer applies the stage-aware
    // ordering post-pass, so cached plans are widened exactly once.
    opt::AlternatingOptions optimizer_options = options_.optimizer;
    optimizer_options.widen_stages |= options_.max_intra_job_lanes > 1;

    // Sharing-aware pre-pass: snapshot which of this graph's outputs are
    // already resident in the cross-job shared layer. Residency-adjusted
    // plans are cached under a residency-salted key so steady-state
    // traffic with a stable resident set still skips optimization; the
    // base (residency-agnostic) plan stays cached under the plain
    // fingerprint and seeds the adjustment.
    std::vector<bool> resident;
    bool any_resident = false;
    std::uint64_t plan_key = job.fingerprint;
    runtime::ContentKeys keys;  // outlives the controller runs
    if (options_.share_catalog) {
      keys = runtime::ContentKeysFor(wl, *disk_);
      const std::vector<std::uint64_t>& fps = keys.nodes;
      resident = shared_catalog_.ContainsAll(fps);
      // Only positive-score resident nodes change the optimization
      // problem (ReOptimizeWithResidency's own no-op test), so only
      // they salt the cache key — resident zero-score nodes (routine:
      // unflagged outputs are published too) must not mint duplicate
      // plan-cache entries for identical plans.
      std::uint64_t residency_salt = kFnvOffset;
      for (std::size_t v = 0; v < resident.size(); ++v) {
        if (resident[v] &&
            wl.graph.node(static_cast<graph::NodeId>(v)).speedup_score >
                0.0) {
          any_resident = true;
          FnvMixUint(&residency_salt, fps[v]);
        }
      }
      if (any_resident) plan_key = job.fingerprint ^ residency_salt;
    }

    opt::Plan plan;
    opt::StageDecomposition stages;
    // Plan resolution span: cache lookup plus any optimization it falls
    // back to — the non-execution cost a cache hit is supposed to erase.
    const double plan_start = tracing ? MonotonicSeconds() : 0.0;
    if (auto cached = plan_cache_.Lookup(plan_key, grant.bytes)) {
      plan = std::move(cached->plan);
      stages = std::move(cached->stages);
      result.plan_cache_hit = true;
    } else {
      // Base plan first: a direct hit under the plain fingerprint, a
      // requested-budget seed re-fit to the grant, or a fresh
      // optimization at the granted budget.
      bool base_hit = false;
      if (any_resident) {
        if (auto base = plan_cache_.Lookup(job.fingerprint, grant.bytes)) {
          plan = std::move(base->plan);
          base_hit = true;
        }
      }
      if (!base_hit) {
        std::optional<CachedPlan> seed;
        if (grant.bytes != result.requested_budget) {
          seed = plan_cache_.Lookup(job.fingerprint,
                                    result.requested_budget);
        }
        if (seed.has_value()) {
          const opt::AlternatingResult reopt = opt::ReOptimizeAtBudget(
              wl.graph, seed->plan, grant.bytes, optimizer_options);
          plan = reopt.plan;
          // iterations == 0 means the seed plan already fits the grant —
          // the optimizer did not run again.
          result.reoptimized = reopt.iterations > 0;
          result.plan_cache_hit = !result.reoptimized;
        } else {
          plan = opt::AlternatingOptimize(wl.graph, grant.bytes,
                                          optimizer_options)
                     .plan;
        }
        // Cache the base plan under the plain fingerprint so later jobs
        // (any residency state) can seed from it.
        if (any_resident) {
          plan_cache_.Insert(job.fingerprint, grant.bytes, plan,
                             opt::DecomposeStages(wl.graph, plan.order));
        }
      }
      if (any_resident) {
        const opt::AlternatingResult reopt =
            opt::ReOptimizeWithResidency(wl.graph, plan, grant.bytes,
                                         resident, optimizer_options);
        result.reoptimized = result.reoptimized || reopt.iterations > 0;
        // The hit flag keeps meaning "the optimizer did not run": a
        // base-plan hit that still re-optimized for residency is not a
        // cache hit. (The adjusted plan is cached below; steady traffic
        // with a stable resident set hits the salted key directly.)
        result.plan_cache_hit = base_hit && reopt.iterations == 0;
        plan = reopt.plan;
      }
      // Stage metadata is cached next to the plan: cache hits skip this
      // recomputation on every subsequent run.
      stages = opt::DecomposeStages(wl.graph, plan.order);
      plan_cache_.Insert(plan_key, grant.bytes, plan, stages);
    }
    if (tracing) {
      trace_->Complete(
          "plan", result.plan_cache_hit ? "cache-hit" : "optimize",
          plan_start, MonotonicSeconds() - plan_start, job_args);
    }

    // Grant renegotiation: the plan's peak memory need is now known, so
    // budget beyond need × slack goes back to the broker immediately,
    // waking head-of-line waiters instead of idling until Release. The
    // need is estimate-based, so skip it when any flagged node lacks a
    // size estimate (nothing trustworthy to keep by).
    if (grant.bytes > 0) {
      bool estimates_present = true;
      for (const graph::NodeId v : opt::FlaggedNodes(plan.flags)) {
        if (wl.graph.node(v).size_bytes <= 0) estimates_present = false;
      }
      const std::int64_t need = opt::PeakMemoryUsage(
          wl.graph, plan.order, plan.flags);
      const std::int64_t keep = static_cast<std::int64_t>(
          static_cast<double>(need) * kBudgetReturnSlack);
      if (estimates_present && keep < grant.bytes) {
        result.returned_budget = grant.bytes - keep;
        broker_.ReturnUnused(&grant, result.returned_budget);
        if (tracing) {
          trace_->Instant(
              "budget", "return",
              job_args +
                  StrFormat(",\"bytes\":%lld",
                            static_cast<long long>(result.returned_budget)));
        }
      }
    }

    // Lease execution lanes, asking for no more than the plan's widest
    // antichain — a chain-shaped job must not hold lanes it cannot use.
    // (The cached decomposition already knows the width.)
    const int width = static_cast<int>(std::min<std::size_t>(
        stages.width(), static_cast<std::size_t>(options_.num_workers)));
    lanes = lanes_broker_.AcquireLanes(width);
    result.lanes = lanes;
    runtime::ControllerOptions controller_options;
    controller_options.max_parallel_nodes = lanes;
    controller_options.compress_residency = options_.compress_residency;
    // Node lanes and background writes borrow threads from the
    // service-wide pool — zero thread construction per job in steady
    // state.
    controller_options.lane_pool = &lane_pool_;
    // Fault tolerance: the job's token is polled at every stage /
    // node / morsel / materialize boundary, injected faults fire inside
    // the run, and transient failures retry per node with backoff.
    controller_options.cancel = &job.cancel;
    controller_options.faults = options_.fault_injector;
    controller_options.retry_limit = options_.retry_limit;
    controller_options.retry_backoff_ms = options_.retry_backoff_ms;
    // The run's node/publish/materialize spans join this job's slice of
    // the service trace.
    controller_options.trace = trace_;
    controller_options.trace_job_id = job.id;
    if (options_.share_catalog) {
      // All workers publish to and read from the one shared layer;
      // pinned cross-job bytes are charged to the reading tenant's
      // quota (once per content key) through the broker hook.
      controller_options.shared_catalog = &shared_catalog_;
      // Reuse the residency snapshot's keys (empty or mismatched key
      // sets are recomputed by the controller).
      controller_options.content_keys = &keys;
      controller_options.shared_pin_listener =
          [this, tenant = job.spec.tenant](std::uint64_t key,
                                           std::int64_t bytes,
                                           bool pinned) {
            if (pinned) {
              broker_.PinShared(tenant, key, bytes);
            } else {
              broker_.UnpinShared(tenant, key);
            }
          };
    }
    runtime::Controller controller(disk_, controller_options);
    // The grant, not the controller default, is the catalog budget.
    result.report = controller.RunWithBudget(wl, plan, grant.bytes,
                                             &stages);
    if (!result.report.ok && result.returned_budget > 0 &&
        result.report.error.find("Memory Catalog budget violated") !=
            std::string::npos) {
      // Actual output sizes overshot the estimates the renegotiation
      // trusted. Hand the shrunk grant back entirely, then re-acquire
      // the original funding level while holding nothing — a blocking
      // Acquire under a held grant could deadlock against the broker's
      // head-of-line admission. The fresh grant may still land below
      // the plan's budget (partial funding); then the standard
      // partial-grant path applies: re-optimize at the funded budget.
      broker_.Release(&grant);
      grant = broker_.Acquire(job.spec.tenant, result.granted_budget,
                              job.spec.priority, &job.cancel);
      if (!grant.valid() && job.cancel.cancelled()) {
        // Cancelled while re-acquiring: leave the budget-violation
        // report but flag the cancel so status comes out right.
        result.report.cancelled = true;
        result.report.cancel_reason =
            job.cancel.reason() == runtime::CancelReason::kDeadline
                ? runtime::CancelReason::kDeadline
                : runtime::CancelReason::kCancelled;
      } else {
        const opt::AlternatingResult reopt = opt::ReOptimizeAtBudget(
            wl.graph, plan, grant.bytes, optimizer_options);
        result.reoptimized = result.reoptimized || reopt.iterations > 0;
        // The retry plan may differ from the cached one; let the
        // controller derive its stages.
        result.report =
            controller.RunWithBudget(wl, reopt.plan, grant.bytes);
        result.returned_budget = std::max<std::int64_t>(
            0, result.granted_budget - grant.bytes);
      }
    }
  } catch (...) {
    if (lanes > 0) lanes_broker_.ReleaseLanes(lanes);
    broker_.Release(&grant);
    throw;
  }
  lanes_broker_.ReleaseLanes(lanes);
  broker_.Release(&grant);
  return FinishJob(job, std::move(result), exec_start, job_args,
                   /*held_grant=*/true);
}

JobResult RefreshService::FinishJob(Job& job, JobResult result,
                                    double exec_start,
                                    const std::string& trace_args,
                                    bool held_grant) {
  result.exec_seconds = MonotonicSeconds() - exec_start;
  if (trace_ != nullptr && trace_->enabled()) {
    if (held_grant) trace_->Instant("budget", "release", trace_args);
    trace_->Complete("job", "execute", exec_start, result.exec_seconds,
                     trace_args);
  }
  // Disposition taxonomy: the Controller reports *whether* the run was
  // cancelled and why; the service maps that to the job-level status.
  result.status =
      result.report.ok ? JobStatus::kOk
      : result.report.cancelled
          ? (result.report.cancel_reason ==
                     runtime::CancelReason::kDeadline
                 ? JobStatus::kTimeout
                 : JobStatus::kCancelled)
          : JobStatus::kFailed;

  RecordJob(job, result);
  return result;
}

void RefreshService::RecordJob(const Job& job, const JobResult& result) {
  const obs::Labels tenant = {{"tenant", result.tenant}};
  auto count = [&](const char* name, const char* help, std::int64_t n) {
    registry_.GetCounter(name, help, tenant)->Increment(n);
  };
  registry_
      .GetCounter("sc_jobs_total", "Finished refresh jobs",
                  {{"tenant", result.tenant},
                   {"status", JobStatusName(result.status)}})
      ->Increment();
  if (result.report.node_retries > 0) {
    count("sc_job_retries_total", "Per-node retries of transient failures",
          result.report.node_retries);
  }
  registry_
      .GetCounter("sc_base_input_hits_total",
                  "Base-table scans served from memory (the Memory "
                  "Catalog's clean tier or the shared catalog) instead "
                  "of external storage")
      ->Increment(result.report.base_input_hits);
  registry_
      .GetHistogram("sc_job_queue_wait_seconds",
                    "Admission-queue + budget-arbitration wait per job",
                    {{"tenant", result.tenant},
                     {"priority", std::to_string(job.spec.priority)}})
      ->Observe(result.queue_wait_seconds);
  registry_
      .GetHistogram("sc_job_exec_seconds",
                    "Execution wall time per job (admission to finish)",
                    tenant)
      ->Observe(result.exec_seconds);
  registry_
      .GetHistogram("sc_job_latency_seconds",
                    "Submit-to-finish time per job (queue wait + execution)",
                    tenant)
      ->Observe(result.queue_wait_seconds + result.exec_seconds);
  count("sc_budget_requested_bytes_total",
        "Memory-catalog bytes jobs asked the broker for",
        result.requested_budget);
  count("sc_budget_granted_bytes_total",
        "Memory-catalog bytes the broker granted", result.granted_budget);
  count("sc_budget_returned_bytes_total",
        "Granted bytes handed back mid-run (grant renegotiation)",
        result.returned_budget);
  count("sc_catalog_hits_total", "Node inputs served from the Memory Catalog",
        result.report.catalog_hits);
  count("sc_catalog_misses_total", "Node inputs read from external storage",
        result.report.catalog_misses);
  count("sc_cross_job_hits_total",
        "Catalog hits served from another job's shared outputs",
        result.report.cross_job_hits);
  count("sc_cross_job_bytes_saved_total",
        "Disk or recompute bytes cross-job hits saved",
        result.report.cross_job_bytes_saved);
  count("sc_jobs_plan_cached_total",
        "Jobs whose plan came from the cache without optimizing",
        result.plan_cache_hit ? 1 : 0);
  count("sc_jobs_reoptimized_total",
        "Jobs re-optimized for a partial grant or shared residency",
        result.reoptimized ? 1 : 0);
}

}  // namespace sc::service
