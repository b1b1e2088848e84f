// S/C refresh benchmark program. Runs one workload on the real engine for
// a fixed time, checks every refreshed MV against a sequential no-opt
// reference, and prints the metrics as one JSON object on the last line
// of stdout. Workloads, metrics and their predicted interactions are
// described in perfbench/README.md.
//
//   refresh_bench --workload paper_refresh --seed 1 --seconds 25
//                 --trace 0 --dir <scratch dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and the layer table. Every run first self-tests the output
// checker and the layer ledger.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sc.h"
#include "common/clock.h"
#include "ledger.h"
#include "storage/format.h"

namespace sc::perfbench {
namespace {

namespace fs = std::filesystem;

#ifndef SC_BENCH_BUILD_TYPE
#define SC_BENCH_BUILD_TYPE "unknown"
#endif

constexpr int kSetupReps = 3;
constexpr int kMinJobs = 100;  // job_p90_s needs >= 10 samples beyond it
constexpr int kTenants = 4;
constexpr int kOutstanding = 4;  // tenant_mix closed-loop depth
constexpr int kRoundSize = 5;    // the five Table-III DAGs
constexpr double kMB = 1e6;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadConfig {
  std::string name;
  double scale = 0.3;
  storage::DiskProfile disk;
  /// Memory Catalog bytes of the Controller, or the service's global
  /// budget.
  std::int64_t budget = 0;
  int lanes = 1;         // Controller max_parallel_nodes
  bool pool = false;     // give the Controller a LanePool of nproc lanes
  bool service = false;  // jobs go through a RefreshService
};

storage::DiskProfile WarehouseDisk(int channels) {
  storage::DiskProfile disk;  // the warehouse_refresh example's NFS
  disk.read_bw = 80e6;
  disk.write_bw = 50e6;
  disk.latency = 2e-3;
  disk.channels = channels;
  return disk;
}

bool ConfigFor(const std::string& name, WorkloadConfig* cfg) {
  cfg->name = name;
  if (name == "paper_refresh") {
    cfg->scale = 0.3;
    cfg->disk = WarehouseDisk(1);
    cfg->budget = 1LL << 20;
  } else if (name == "compute_heavy") {
    cfg->scale = 3.0;
    cfg->disk.throttle = false;
    cfg->budget = 512LL << 20;
    cfg->lanes = 4;
    cfg->pool = true;
  } else if (name == "tenant_mix") {
    cfg->scale = 0.3;
    cfg->disk = WarehouseDisk(4);
    cfg->budget = 4LL << 20;
    cfg->service = true;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans the benchmark records around its own calls into the library
// ---------------------------------------------------------------------------

struct Span {
  const char* layer;
  const char* name;
  std::int64_t job;
  double start;
  double end;
};

class SpanLog {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  /// Runs `fn` and returns its result; records a span when enabled.
  template <class Fn>
  auto Time(const char* layer, const char* name, std::int64_t job, Fn&& fn) {
    const double start = MonotonicSeconds();
    auto result = fn();
    Add(layer, name, job, start, MonotonicSeconds());
    return result;
  }
  void Add(const char* layer, const char* name, std::int64_t job,
           double start, double end) {
    last_ = end - start;
    if (enabled) spans.push_back({layer, name, job, start, end});
  }
  /// Duration of the last timed call, recorded or not.
  double Last() const { return last_; }
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  double last_ = 0.0;
};

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Output check: every MV in the warehouse equals the no-opt reference
// ---------------------------------------------------------------------------

std::string TablePath(const fs::path& dir, const std::string& name) {
  return (dir / (name + ".sct")).string();
}

/// Number of `names` whose table under `dir` is missing, unreadable or
/// differs (Table ==) from the reference copy under `ref_dir`.
int CountMismatches(const fs::path& dir, const fs::path& ref_dir,
                    const std::vector<std::string>& names) {
  int mismatches = 0;
  for (const std::string& name : names) {
    try {
      const engine::Table actual = storage::ReadTableFile(TablePath(dir, name));
      const engine::Table expected =
          storage::ReadTableFile(TablePath(ref_dir, name));
      if (!(actual == expected)) {
        std::cerr << "MV mismatch: " << name << "\n";
        ++mismatches;
      }
    } catch (const std::exception& e) {
      std::cerr << "MV unreadable: " << name << ": " << e.what() << "\n";
      ++mismatches;
    }
  }
  return mismatches;
}

/// The checker must pass an identical copy and catch one flipped cell.
bool CheckerSelfTest(const fs::path& dir) {
  auto make = [](std::int64_t flipped_row) {
    std::vector<std::int64_t> keys;
    std::vector<double> amounts;
    std::vector<std::string> names;
    for (std::int64_t i = 0; i < 1000; ++i) {
      keys.push_back(i == flipped_row ? (i ^ 1) : i);
      amounts.push_back(0.25 * static_cast<double>(i));
      names.push_back("item_" + std::to_string(i % 37));
    }
    return engine::Table(
        engine::Schema({{"k", engine::DataType::kInt64},
                        {"amount", engine::DataType::kFloat64},
                        {"name", engine::DataType::kString}}),
        {engine::Column::FromInts(std::move(keys)),
         engine::Column::FromDoubles(std::move(amounts)),
         engine::Column::FromStrings(std::move(names))});
  };
  const fs::path ref = dir / "selftest_ref";
  const fs::path out = dir / "selftest_out";
  fs::create_directories(ref);
  fs::create_directories(out);
  storage::WriteTableFile(make(-1), TablePath(ref, "mv"));
  storage::WriteTableFile(make(-1), TablePath(out, "mv"));
  const bool passes_copy = CountMismatches(out, ref, {"mv"}) == 0;
  storage::WriteTableFile(make(517), TablePath(out, "mv"));
  std::cerr << "(self-test: one flipped cell is expected to mismatch)\n";
  const bool catches_flip = CountMismatches(out, ref, {"mv"}) == 1;
  fs::remove_all(ref);
  fs::remove_all(out);
  return passes_copy && catches_flip;
}

// ---------------------------------------------------------------------------
// Set-up: one warehouse with profiled DAGs, plans and a warmed-up runner
// ---------------------------------------------------------------------------

struct SetupPhases {
  double datagen = 0, load = 0, profile = 0, optimize = 0, warmup = 0;
};

struct Harness {
  fs::path warehouse;
  fs::path ref;
  std::unique_ptr<storage::ThrottledDisk> disk;
  std::vector<std::string> base_tables;
  std::vector<std::shared_ptr<const workload::MvWorkload>> dags;
  std::vector<opt::Plan> plans;   // S/C plans at the per-job budget
  std::vector<std::string> mvs;   // every MV of the five DAGs
  std::unique_ptr<runtime::LanePool> pool;
  std::unique_ptr<obs::TraceRecorder> recorder;  // --trace 1 only
  std::unique_ptr<runtime::Controller> controller;
  std::unique_ptr<service::RefreshService> service;
  std::mt19937_64 rng;            // tenant_mix job draws
  std::vector<int> draws;         // pending draws of the current block
  std::int64_t submitted = 0;
};

struct JobRecord {
  int dag;
  double start;
  double end;
  std::uint64_t service_job_id;
};

/// Counters summed over the jobs of a run (from RunReport / JobResult).
struct Tally {
  std::int64_t jobs = 0;
  std::int64_t failed = 0;
  double read_s = 0, compute_s = 0, write_s = 0, unattributed_s = 0;
  std::int64_t hits = 0, misses = 0, reserve_denials = 0, morsel_tasks = 0;
  std::int64_t executed_nodes = 0;
  std::int64_t peak_memory = 0;
  std::vector<double> queue_wait, exec;
  std::int64_t plan_hits = 0, reoptimized = 0;
  double granted = 0, requested = 0;

  void Add(const runtime::RunReport& r) {
    ++jobs;
    if (!r.ok) {
      ++failed;
      std::cerr << "job failed: " << r.error << "\n";
    }
    double parts = 0;
    for (const runtime::NodeRunStats& n : r.nodes) {
      read_s += n.read_seconds;
      compute_s += n.compute_seconds;
      write_s += n.write_seconds;
      parts += n.read_seconds + n.compute_seconds + n.write_seconds;
      if (!n.reused_cross_job) ++executed_nodes;
    }
    unattributed_s += r.wall_seconds - parts;
    hits += r.catalog_hits;
    misses += r.catalog_misses;
    reserve_denials += r.reserve_denials;
    morsel_tasks += r.morsel_tasks;
    peak_memory = std::max(peak_memory, r.peak_memory);
  }
  void Add(const service::JobResult& r) {
    Add(r.report);
    if (r.status != service::JobStatus::kOk && r.report.ok) ++failed;
    queue_wait.push_back(r.queue_wait_seconds);
    exec.push_back(r.exec_seconds);
    plan_hits += r.plan_cache_hit ? 1 : 0;
    reoptimized += r.reoptimized ? 1 : 0;
    granted += static_cast<double>(r.granted_budget);
    requested += static_cast<double>(r.requested_budget);
  }
};

int NextServiceDag(Harness& h) {
  // Blocks of the five DAGs in seeded order: every DAG runs once per
  // block, so a run that stops at a block boundary refreshed all MVs.
  if (h.draws.empty()) {
    h.draws = {0, 1, 2, 3, 4};
    std::shuffle(h.draws.begin(), h.draws.end(), h.rng);
  }
  const int dag = h.draws.back();
  h.draws.pop_back();
  return dag;
}

/// Deletes DAG `d`'s MV files, outside any job span. Each Controller job
/// then refreshes into a warehouse without its previous output, so the
/// output check proves that every job wrote every MV. It also spares the
/// host filesystem the write-back that renaming over an existing file
/// forces (ext4 auto_da_alloc), whose jitter spread unthrottled runs by 11%.
void ClearMvs(Harness& h, int d) {
  const graph::Graph& g = h.dags[d]->graph;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    h.disk->Remove(g.node(v).name);
  }
}

/// Runs whole rounds of the five DAGs on the harness's Controller until
/// `seconds` have passed and at least `min_jobs` jobs ran. Returns the
/// wall seconds of the loop.
double RunControllerJobs(Harness& h, double seconds, int min_jobs,
                         SpanLog* spans, std::vector<JobRecord>* jobs,
                         Tally* tally) {
  const double begin = MonotonicSeconds();
  for (int n = 0;; ++n) {
    if (n % kRoundSize == 0 && n >= min_jobs &&
        MonotonicSeconds() - begin >= seconds) {
      break;
    }
    const int d = n % kRoundSize;
    ClearMvs(h, d);
    const double start = MonotonicSeconds();
    const runtime::RunReport report =
        h.controller->Run(*h.dags[d], h.plans[d]);
    const double end = MonotonicSeconds();
    spans->Add("runtime", "Controller::Run", static_cast<std::int64_t>(
                   jobs->size()), start, end);
    jobs->push_back({d, start, end, 0});
    tally->Add(report);
  }
  return MonotonicSeconds() - begin;
}

/// Closed loop from this (single) generator thread: kOutstanding jobs in
/// flight across kTenants tenants; stops submitting once `seconds` have
/// passed, at least `min_jobs` were submitted and the current block of
/// five DAGs is complete, then drains. Returns the loop's wall seconds.
double RunServiceJobs(Harness& h, double seconds, int min_jobs,
                      SpanLog* spans, std::vector<JobRecord>* jobs,
                      Tally* tally) {
  struct Pending {
    std::future<service::JobResult> future;
    int dag;
    double start;
    std::uint64_t id;
  };
  std::vector<Pending> pending;
  const double begin = MonotonicSeconds();
  int submitted = 0;
  auto stop = [&] {
    return submitted >= min_jobs && h.draws.empty() &&
           MonotonicSeconds() - begin >= seconds;
  };
  while (true) {
    while (static_cast<int>(pending.size()) < kOutstanding && !stop()) {
      service::RefreshJobSpec spec;
      const int dag = NextServiceDag(h);
      spec.workload = h.dags[dag];
      spec.tenant = "tenant" + std::to_string(h.submitted % kTenants);
      spec.requested_budget = h.service->options().global_budget / kTenants;
      const double start = MonotonicSeconds();
      service::RefreshService::JobHandle handle =
          h.service->SubmitJob(std::move(spec));
      pending.push_back({std::move(handle.future), dag, start, handle.job_id});
      ++submitted;
      ++h.submitted;
    }
    if (pending.empty()) break;
    bool any = false;
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const double end = MonotonicSeconds();
      const service::JobResult result = pending[i].future.get();
      spans->Add("service", "RefreshService::SubmitJob",
                 static_cast<std::int64_t>(jobs->size()), pending[i].start,
                 end);
      jobs->push_back(
          {pending[i].dag, pending[i].start, end, pending[i].id});
      tally->Add(result);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      any = true;
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return MonotonicSeconds() - begin;
}

double RunJobs(Harness& h, double seconds, int min_jobs, SpanLog* spans,
               std::vector<JobRecord>* jobs, Tally* tally) {
  return h.service != nullptr
             ? RunServiceJobs(h, seconds, min_jobs, spans, jobs, tally)
             : RunControllerJobs(h, seconds, min_jobs, spans, jobs, tally);
}

std::unique_ptr<Harness> Setup(const WorkloadConfig& cfg, const fs::path& dir,
                               std::uint64_t seed, bool trace, int nproc,
                               SpanLog* spans, SetupPhases* phases) {
  auto h = std::make_unique<Harness>();
  h->warehouse = dir / "warehouse";
  h->ref = dir / "ref";
  fs::remove_all(dir);
  fs::create_directories(h->warehouse);
  fs::create_directories(h->ref);
  h->rng.seed(seed);

  double t = MonotonicSeconds();
  auto lap = [&t] {
    const double now = MonotonicSeconds();
    const double elapsed = now - t;
    t = now;
    return elapsed;
  };
  workload::DataGenOptions datagen;
  datagen.scale = cfg.scale;
  datagen.seed = seed;
  std::map<std::string, engine::TablePtr> base =
      workload::GenerateTpcdsData(datagen);
  phases->datagen = lap();

  h->disk = std::make_unique<storage::ThrottledDisk>(h->warehouse.string(),
                                                     cfg.disk);
  runtime::ControllerOptions profile_options;  // sequential, no pool
  profile_options.budget = cfg.budget;
  runtime::Controller profiler(h->disk.get(), profile_options);
  spans->Time("runtime", "Controller::LoadBaseTables", -1, [&] {
    profiler.LoadBaseTables(base);
    return 0;
  });
  for (const auto& [name, table] : base) h->base_tables.push_back(name);
  base.clear();
  phases->load = lap();

  // The profiling run is the sequential no-opt refresh: its MVs are the
  // reference every later run is checked against.
  for (workload::MvWorkload wl : workload::StandardWorkloads()) {
    const runtime::RunReport report = spans->Time(
        "runtime", "Controller::ProfileAndAnnotate", -1,
        [&] { return profiler.ProfileAndAnnotate(&wl); });
    if (!report.ok) {
      throw std::runtime_error("profiling run of " + wl.name +
                               " failed: " + report.error);
    }
    for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
      const std::string& name = wl.graph.node(v).name;
      fs::copy_file(TablePath(h->warehouse, name), TablePath(h->ref, name),
                    fs::copy_options::overwrite_existing);
      h->mvs.push_back(name);
    }
    h->dags.push_back(std::make_shared<const workload::MvWorkload>(
        std::move(wl)));
  }
  std::vector<std::string> unique = h->mvs;
  std::sort(unique.begin(), unique.end());
  if (std::adjacent_find(unique.begin(), unique.end()) != unique.end()) {
    throw std::runtime_error("two DAGs share an MV name");
  }
  phases->profile = lap();

  // Each tenant_mix job asks for a quarter of the global budget.
  const std::int64_t job_budget = cfg.service ? cfg.budget / kTenants
                                              : cfg.budget;
  for (const auto& wl : h->dags) {
    h->plans.push_back(spans->Time("opt", "Optimizer::Optimize", -1, [&] {
      return opt::Optimizer{}.Optimize(wl->graph, job_budget).plan;
    }));
  }
  phases->optimize = lap();

  if (trace) {
    obs::TraceRecorderOptions trace_options;
    trace_options.per_thread_capacity = 1 << 16;
    trace_options.enabled = false;
    h->recorder = std::make_unique<obs::TraceRecorder>(trace_options);
  }
  std::vector<JobRecord> warm_jobs;
  Tally warm;
  if (cfg.service) {
    service::ServiceOptions options;
    options.num_workers = nproc;
    options.global_budget = cfg.budget;
    // No spill directory: spill files would live on the checkout's
    // filesystem (the run may not write elsewhere), and spilling under
    // the catalog lock there spread jobs/s 82-175 between runs. Evicted
    // entries are recomputed instead, which is steady.
    options.trace = h->recorder.get();
    h->service = std::make_unique<service::RefreshService>(h->disk.get(),
                                                           options);
    RunServiceJobs(*h, 0.0, kTenants * kRoundSize, spans, &warm_jobs, &warm);
  } else {
    runtime::ControllerOptions options;
    options.budget = cfg.budget;
    options.max_parallel_nodes = cfg.lanes;
    if (cfg.pool) {
      h->pool = std::make_unique<runtime::LanePool>(
          runtime::LanePoolOptions{nproc, 0.0});
      options.lane_pool = h->pool.get();
    }
    options.trace = h->recorder.get();
    h->controller = std::make_unique<runtime::Controller>(h->disk.get(),
                                                          options);
    RunControllerJobs(*h, 0.0, kRoundSize, spans, &warm_jobs, &warm);
  }
  if (warm.failed > 0) throw std::runtime_error("warm-up job failed");
  phases->warmup = lap();
  return h;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, v] : values_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "\"value\": %.10g, \"unit\": \"%s\"}",
                    std::isfinite(v.first) ? v.first : 0.0,
                    v.second.c_str());
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {" + buf;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// CPU seconds the hypervisor ran other guests while this one was ready
/// (the "steal" column of /proc/stat), summed over CPUs; 0 if unknown.
/// Other tenants of the host are the main source of run-to-run noise.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // KiB
}

double DiskMb(const Harness& h) {
  double bytes = 0;
  for (const std::string& name : h.mvs) {
    bytes += static_cast<double>(std::max<std::int64_t>(
        0, h.disk->FileSize(name)));
  }
  return bytes / kMB;
}

// ---------------------------------------------------------------------------
// Traced run: interleaved segments plus single-layer probes
// ---------------------------------------------------------------------------

enum Segment { kUntraced, kBenchSpans, kRecorder, kNumSegments };

struct TracedRun {
  Tally tally;
  std::vector<JobRecord> jobs;
  std::array<double, kNumSegments> wall{};
  std::array<std::int64_t, kNumSegments> count{};
  std::vector<LayerSeconds> ledger;  // one per job of kRecorder segments
  std::vector<int> ledger_dag;
  double max_reconcile_error = 0.0;
};

/// Builds the per-job ledgers of one kRecorder segment from the library's
/// trace events. Controller jobs run one at a time, so an event belongs to
/// the job whose span contains it; service jobs overlap, so their events
/// are matched by the job id the service stamps into them.
void LedgerForSegment(const Harness& h, std::size_t first_job,
                      TracedRun* run) {
  std::map<std::uint64_t, std::vector<Leaf>> by_id;
  std::vector<Leaf> by_start;
  for (const obs::TraceEvent& e : h.recorder->Events()) {
    Leaf leaf;
    if (!LeafFromEvent(e, &leaf)) continue;
    double id = 0;
    if (h.service == nullptr) {
      by_start.push_back(leaf);
    } else if (ArgNumber(e.args_json, "job", &id)) {
      by_id[static_cast<std::uint64_t>(id)].push_back(leaf);
    }
  }
  std::sort(by_start.begin(), by_start.end(),
            [](const Leaf& a, const Leaf& b) { return a.start < b.start; });
  for (std::size_t j = first_job; j < run->jobs.size(); ++j) {
    const JobRecord& job = run->jobs[j];
    std::vector<Leaf> leaves;
    if (h.service != nullptr) {
      leaves = by_id[job.service_job_id];
    } else {
      auto it = std::lower_bound(
          by_start.begin(), by_start.end(), job.start,
          [](const Leaf& l, double t) { return l.start < t; });
      for (; it != by_start.end() && it->start <= job.end; ++it) {
        if (it->end <= job.end) leaves.push_back(*it);
      }
    }
    const LayerSeconds rows = AttributeJob(job.start, job.end, leaves);
    double total = 0;
    for (double r : rows) total += r;
    run->max_reconcile_error = std::max(
        run->max_reconcile_error, std::fabs(total - (job.end - job.start)));
    run->ledger.push_back(rows);
    run->ledger_dag.push_back(job.dag);
  }
}

/// The benchmark's own spans around its calls into the library, summed
/// per layer and call.
void PrintSpanSummary(const SpanLog& spans) {
  std::map<std::pair<std::string, std::string>, std::pair<int, double>> sums;
  for (const Span& s : spans.spans) {
    auto& [count, seconds] = sums[{s.layer, s.name}];
    ++count;
    seconds += s.end - s.start;
  }
  TablePrinter table({"layer", "call", "calls", "total s"});
  for (const auto& [key, sum] : sums) {
    table.AddRow({key.first, key.second, std::to_string(sum.first),
                  StrFormat("%.4f", sum.second)});
  }
  std::cout << "benchmark spans (set-up, traced segments and probes):\n"
            << table.ToString();
}

void PrintLayerTable(const Harness& h, const TracedRun& run) {
  const int dags = static_cast<int>(h.dags.size());
  std::vector<std::string> header = {"layer (s/job)"};
  for (const auto& wl : h.dags) header.push_back(wl->name);
  header.push_back("all");
  TablePrinter table(header);
  std::vector<std::array<double, kNumLayers + 1>> sums(dags + 1);
  std::vector<int> counts(dags + 1, 0);
  for (std::size_t j = 0; j < run.ledger.size(); ++j) {
    for (int col : {run.ledger_dag[j], dags}) {
      double total = 0;
      for (int l = 0; l < kNumLayers; ++l) {
        sums[col][l] += run.ledger[j][l];
        total += run.ledger[j][l];
      }
      sums[col][kNumLayers] += total;
      ++counts[col];
    }
  }
  for (int l = 0; l <= kNumLayers; ++l) {
    std::vector<std::string> row = {l < kNumLayers ? kLayerNames[l]
                                                   : "= job wall"};
    for (int col = 0; col <= dags; ++col) {
      row.push_back(StrFormat("%.5f", Ratio(sums[col][l], counts[col])));
    }
    table.AddRow(row);
  }
  std::cout << "layer table (self time per job, " << counts[dags]
            << " traced jobs; rows + unattributed = job wall, max error "
            << StrFormat("%.2e", run.max_reconcile_error) << " s):\n"
            << table.ToString();
}

TracedRun RunTraced(Harness& h, double seconds, SpanLog* spans) {
  // Six alternating segments share 70% of the time; the probes below use
  // the rest.
  TracedRun run;
  const int cycles = 2;
  const double segment_seconds = 0.7 * seconds / (cycles * kNumSegments);
  for (int c = 0; c < cycles; ++c) {
    for (int s = 0; s < kNumSegments; ++s) {
      spans->enabled = s != kUntraced;
      h.recorder->set_enabled(s == kRecorder);
      const std::size_t first = run.jobs.size();
      run.wall[s] += RunJobs(h, segment_seconds, 1, spans, &run.jobs,
                             &run.tally);
      run.count[s] += static_cast<std::int64_t>(run.jobs.size() - first);
      h.recorder->set_enabled(false);
      if (s == kRecorder) LedgerForSegment(h, first, &run);
    }
  }
  spans->enabled = true;
  return run;
}

/// engine probe: ExecutePlan per node with every input already in a
/// MapResolver. Returns false if an output differs from the reference.
bool ProbeEngine(const Harness& h, SpanLog* spans, Metrics* m) {
  std::unordered_map<std::string, engine::TablePtr> base;
  for (const std::string& name : h.base_tables) {
    base[name] = std::make_shared<engine::Table>(
        storage::ReadTableFile(TablePath(h.warehouse, name)));
  }
  bool ok = true;
  const int passes = 3;
  std::vector<std::vector<double>> per_dag(h.dags.size());
  double total = 0;
  std::int64_t rows = 0;
  for (std::size_t d = 0; d < h.dags.size(); ++d) {
    const workload::MvWorkload& wl = *h.dags[d];
    engine::MapResolver tables(base);
    std::vector<engine::TablePtr> refs;
    for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
      refs.push_back(std::make_shared<engine::Table>(storage::ReadTableFile(
          TablePath(h.ref, wl.graph.node(v).name))));
      tables.Put(wl.graph.node(v).name, refs.back());
    }
    engine::FnResolver counting([&](const std::string& name) {
      engine::TablePtr t = tables.Resolve(name);
      rows += static_cast<std::int64_t>(t->num_rows());
      return t;
    });
    for (int p = 0; p < passes; ++p) {
      double dag_seconds = 0;
      for (graph::NodeId v = 0; v < wl.num_nodes(); ++v) {
        const engine::Table out = spans->Time(
            "engine", "ExecutePlan", static_cast<std::int64_t>(d),
            [&] { return engine::ExecutePlan(*wl.plans[v], counting); });
        dag_seconds += spans->Last();
        if (p == 0 && !(out == *refs[v])) {
          std::cerr << "engine probe mismatch: " << wl.graph.node(v).name
                    << "\n";
          ok = false;
        }
      }
      per_dag[d].push_back(dag_seconds);
      total += dag_seconds;
    }
  }
  double exec = 0;
  for (const auto& v : per_dag) exec += Median(v);
  m->Set("engine.exec_s_per_job", exec / static_cast<double>(per_dag.size()),
         "s");
  m->Set("engine.mrows_per_s", Ratio(static_cast<double>(rows) / 1e6, total),
         "Mrows/s");
  return ok;
}

/// Format probe: SCT1 encode and checksum-verified decode of every MV,
/// in memory so the device does not enter the rate.
bool ProbeFormat(const Harness& h, SpanLog* spans, Metrics* m) {
  bool ok = true;
  double bytes = 0, write_s = 0, read_s = 0;
  const int passes = 3;
  for (const std::string& name : h.mvs) {
    const engine::Table table = spans->Time(
        "storage", "ReadTableFile", -1,
        [&] { return storage::ReadTableFile(TablePath(h.ref, name)); });
    for (int p = 0; p < passes; ++p) {
      std::ostringstream out;
      bytes += static_cast<double>(spans->Time(
          "storage", "WriteTable", -1,
          [&] { return storage::WriteTable(table, out); }));
      write_s += spans->Last();
      std::istringstream in(out.str());
      const engine::Table back = spans->Time("storage", "ReadTable", -1, [&] {
        return storage::ReadTable(in, storage::ReadOptions{true});
      });
      read_s += spans->Last();
      if (p == 0 && !(back == table)) ok = false;
    }
  }
  m->Set("storage.format_write_mbps", Ratio(bytes / kMB, write_s), "MB/s");
  m->Set("storage.format_read_mbps", Ratio(bytes / kMB, read_s), "MB/s");
  return ok;
}

/// S/C over no-opt on the real engine: alternating rounds of the five
/// DAGs, ratio of median round times.
double ProbeSpeedup(Harness& h, SpanLog* spans, Tally* tally) {
  std::vector<double> noopt, sc;
  for (int pair = 0; pair < 2; ++pair) {
    for (bool optimized : {false, true}) {
      double round = 0;
      for (std::size_t d = 0; d < h.dags.size(); ++d) {
        ClearMvs(h, static_cast<int>(d));
        tally->Add(spans->Time(
            "runtime", optimized ? "Controller::Run" : "RunUnoptimized",
            static_cast<std::int64_t>(d), [&] {
              return optimized ? h.controller->Run(*h.dags[d], h.plans[d])
                               : h.controller->RunUnoptimized(*h.dags[d]);
            }));
        round += spans->Last();
      }
      (optimized ? sc : noopt).push_back(round);
    }
  }
  return Ratio(Median(noopt), Median(sc));
}

/// |SimulateRun makespan - measured| / measured, median over the DAGs.
double ProbeSimulator(const Harness& h, const WorkloadConfig& cfg,
                      const std::vector<JobRecord>& jobs, SpanLog* spans) {
  sim::SimOptions options;
  options.device.disk_read_bw = cfg.disk.read_bw;
  options.device.disk_write_bw = cfg.disk.write_bw;
  options.device.disk_latency = cfg.disk.latency;
  // ThrottledDisk models bandwidth and latency only (as the runtime's own
  // node-cost estimates assume).
  options.device.table_read_overhead = 0.0;
  options.device.table_write_overhead = 0.0;
  options.budget = cfg.budget;
  std::vector<double> errors;
  for (std::size_t d = 0; d < h.dags.size(); ++d) {
    std::vector<double> walls;
    for (const JobRecord& j : jobs) {
      if (j.dag == static_cast<int>(d)) walls.push_back(j.end - j.start);
    }
    const double measured = Median(walls);
    const double simulated = spans->Time(
        "sim", "SimulateRun", static_cast<std::int64_t>(d), [&] {
          return sim::SimulateRun(h.dags[d]->graph, h.plans[d], options)
              .makespan;
        });
    if (measured > 0) errors.push_back(std::fabs(simulated - measured) /
                                       measured);
  }
  return Median(errors);
}

struct ServiceCounters {
  std::int64_t hits = 0, misses = 0, evictions = 0, spills = 0, refills = 0;
  static ServiceCounters Of(const storage::SharedCatalog& c) {
    return {c.hits(), c.misses(), c.evictions(), c.spills(),
            c.spill_refills()};
  }
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when a probe's output differed from the reference or the layer
  /// ledger did not reconcile with job wall time.
  bool consistent = true;
};

/// --trace 0: the end-to-end metrics of one untraced measurement window.
void MeasureEndToEnd(Harness& h, double seconds, double setup_s, Metrics* m,
                     Outcome* outcome) {
  SpanLog off;
  Tally tally;
  std::vector<JobRecord> jobs;
  const double wall = RunJobs(h, seconds, kMinJobs, &off, &jobs, &tally);
  std::vector<double> latency;
  for (const JobRecord& j : jobs) latency.push_back(j.end - j.start);
  outcome->attempted = tally.jobs;
  outcome->failed = tally.failed;
  m->Set("jobs_per_s", Ratio(static_cast<double>(jobs.size()), wall), "1/s");
  m->Set("job_p50_s", Quantile(latency, 0.5), "s");
  m->Set("job_p90_s", Quantile(latency, 0.9), "s");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
  m->Set("disk_mb", DiskMb(h), "MB");
  m->Set("setup_s", setup_s, "s");
  std::cout << StrFormat("measured %zu jobs in %.3fs (p50 and p90 over %zu "
                         "samples)\n",
                         jobs.size(), wall, latency.size());
}

/// --trace 1: the per-layer metrics, the layer table and the tracing
/// overheads.
void MeasureLayers(Harness& h, const WorkloadConfig& cfg, double seconds,
                   SpanLog* spans, Metrics* m, Outcome* outcome) {
  const storage::SharedCatalog* shared =
      h.service ? &h.service->shared_catalog() : nullptr;
  const ServiceCounters before =
      shared ? ServiceCounters::Of(*shared) : ServiceCounters{};
  const double read0 = h.disk->total_read_seconds();
  const double write0 = h.disk->total_write_seconds();
  const runtime::LanePool* pool =
      h.service ? &h.service->lane_pool() : h.pool.get();
  const double busy0 = pool ? pool->busy_seconds() : 0.0;
  const TracedRun run = RunTraced(h, seconds, spans);
  const Tally& t = run.tally;
  const double jobs = static_cast<double>(t.jobs);
  double wall = 0;
  for (double w : run.wall) wall += w;
  std::array<double, kNumSegments> jps{};
  for (int s = 0; s < kNumSegments; ++s) {
    jps[s] = Ratio(static_cast<double>(run.count[s]), run.wall[s]);
  }

  m->Set("service.queue_wait_p50_s", Quantile(t.queue_wait, 0.5), "s");
  m->Set("service.queue_wait_p90_s", Quantile(t.queue_wait, 0.9), "s");
  m->Set("service.exec_p50_s", Quantile(t.exec, 0.5), "s");
  const double service_jobs = static_cast<double>(t.queue_wait.size());
  m->Set("service.plan_cache_hit_ratio",
         Ratio(static_cast<double>(t.plan_hits), service_jobs), "ratio");
  m->Set("service.reoptimized_ratio",
         Ratio(static_cast<double>(t.reoptimized), service_jobs), "ratio");
  m->Set("service.grant_ratio", Ratio(t.granted, t.requested), "ratio");

  const ServiceCounters after =
      shared ? ServiceCounters::Of(*shared) : ServiceCounters{};
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  m->Set("storage.shared_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m->Set("storage.evictions_per_job",
         Ratio(static_cast<double>(after.evictions - before.evictions),
               service_jobs), "count/job");
  m->Set("storage.spills_per_job",
         Ratio(static_cast<double>(after.spills - before.spills),
               service_jobs), "count/job");
  m->Set("storage.refills_per_job",
         Ratio(static_cast<double>(after.refills - before.refills),
               service_jobs), "count/job");
  m->Set("storage.recomputed_nodes_per_job",
         Ratio(static_cast<double>(t.executed_nodes), service_jobs),
         "count/job");

  m->Set("storage.catalog_hit_ratio",
         Ratio(static_cast<double>(t.hits),
               static_cast<double>(t.hits + t.misses)), "ratio");
  m->Set("storage.catalog_peak_mb",
         static_cast<double>(shared ? shared->peak_bytes() : t.peak_memory) /
             kMB, "MB");
  m->Set("storage.disk_read_s_per_job",
         Ratio(h.disk->total_read_seconds() - read0, jobs), "s");
  m->Set("storage.disk_write_s_per_job",
         Ratio(h.disk->total_write_seconds() - write0, jobs), "s");

  m->Set("runtime.read_s", Ratio(t.read_s, jobs), "s");
  m->Set("runtime.compute_s", Ratio(t.compute_s, jobs), "s");
  m->Set("runtime.write_s", Ratio(t.write_s, jobs), "s");
  LayerSeconds ledger{};
  for (const LayerSeconds& rows : run.ledger) {
    for (int l = 0; l < kNumLayers; ++l) ledger[l] += rows[l];
  }
  const double traced_jobs = static_cast<double>(run.ledger.size());
  // Node stats of parallel lanes overlap in time, so subtracting them
  // from the wall means nothing there; the ledger's union-based rows
  // stand in.
  m->Set("runtime.unattributed_s",
         cfg.lanes == 1
             ? Ratio(t.unattributed_s, jobs)
             : Ratio(ledger[kRuntime] + ledger[kUnattributed], traced_jobs),
         "s");
  m->Set("runtime.lane_util",
         pool ? Ratio(pool->busy_seconds() - busy0, wall * pool->capacity())
              : 0.0,
         "ratio");
  m->Set("runtime.morsel_tasks_per_job",
         Ratio(static_cast<double>(t.morsel_tasks), jobs), "count/job");
  m->Set("runtime.reserve_denials_per_job",
         Ratio(static_cast<double>(t.reserve_denials), jobs), "count/job");
  for (int l = 0; l < kNumLayers; ++l) {
    m->Set(std::string("ledger.") + kLayerNames[l] + "_s",
           Ratio(ledger[l], traced_jobs), "s");
  }
  m->Set("bench.trace_overhead", Ratio(jps[kUntraced], jps[kBenchSpans]) - 1,
         "ratio");
  m->Set("obs.recorder_slowdown", Ratio(jps[kBenchSpans], jps[kRecorder]),
         "ratio");

  // Single-layer probes.
  Tally probe_tally;
  m->Set("opt.speedup_vs_noopt",
         h.controller ? ProbeSpeedup(h, spans, &probe_tally) : 0.0, "ratio");
  m->Set("cost.makespan_error",
         h.controller ? ProbeSimulator(h, cfg, run.jobs, spans) : 0.0,
         "ratio");
  const bool engine_ok = ProbeEngine(h, spans, m);
  const bool format_ok = ProbeFormat(h, spans, m);
  // The optimizer ran during set-up, with spans on.
  m->Set("opt.optimize_s", Median(spans->Durations("Optimizer::Optimize")),
         "s");
  double flagged = 0, nodes = 0;
  for (std::size_t d = 0; d < h.dags.size(); ++d) {
    flagged += static_cast<double>(opt::FlaggedNodes(h.plans[d].flags).size());
    nodes += h.dags[d]->num_nodes();
  }
  m->Set("opt.flagged_ratio", Ratio(flagged, nodes), "ratio");

  outcome->attempted = t.jobs + probe_tally.jobs;
  outcome->failed = t.failed + probe_tally.failed;
  outcome->consistent =
      engine_ok && format_ok && run.max_reconcile_error < 1e-6;
  PrintSpanSummary(*spans);
  PrintLayerTable(h, run);
  std::cout << StrFormat(
      "segments: untraced %.2f jobs/s, bench spans %.2f jobs/s, bench spans "
      "+ library recorder %.2f jobs/s (%lld/%lld/%lld jobs); recorder "
      "dropped %lld events\n",
      jps[kUntraced], jps[kBenchSpans], jps[kRecorder],
      static_cast<long long>(run.count[kUntraced]),
      static_cast<long long>(run.count[kBenchSpans]),
      static_cast<long long>(run.count[kRecorder]),
      static_cast<long long>(h.recorder->dropped()));
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = std::stoi(value);
    } else if (flag == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return !args->dir.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "refresh_bench: refusing to run an unoptimized build\n";
  return 3;
#endif
  Args args;
  WorkloadConfig cfg;
  if (!ParseArgs(argc, argv, &args) || !ConfigFor(args.workload, &cfg)) {
    std::cerr << "usage: refresh_bench --workload "
                 "paper_refresh|compute_heavy|tenant_mix --seed N "
                 "--seconds S --trace 0|1 --dir DIR\n";
    return 2;
  }
  const fs::path dir = args.dir;
  fs::create_directories(dir);
  const int nproc = std::max(1, static_cast<int>(
                                    std::thread::hardware_concurrency()));
  std::cout << StrFormat(
      "host: {\"nproc\": %d, \"cpu\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      nproc, CpuModel().c_str(), SC_BENCH_BUILD_TYPE, __VERSION__,
      cfg.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace);

  const bool selftests = CheckerSelfTest(dir) && LedgerSelfTest();
  std::cout << "self-tests (flipped-cell checker, ledger union): "
            << (selftests ? "ok" : "FAILED") << "\n";

  const double steal0 = StealSeconds();
  SpanLog spans;
  spans.enabled = args.trace == 1;
  std::vector<double> setup_times;
  SetupPhases phases;
  std::unique_ptr<Harness> h;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    h.reset();  // free the previous warehouse before timing the next
    spans.spans.clear();
    const double start = MonotonicSeconds();
    h = Setup(cfg, dir / ("setup" + std::to_string(rep)), args.seed,
              args.trace == 1, nproc, &spans, &phases);
    setup_times.push_back(MonotonicSeconds() - start);
    if (rep > 0) fs::remove_all(dir / ("setup" + std::to_string(rep - 1)));
  }
  std::cout << StrFormat(
      "setup (last of %d): datagen %.3fs, load %.3fs, profile %.3fs, "
      "optimize %.3fs, warm-up %.3fs; median total %.3fs\n",
      kSetupReps, phases.datagen, phases.load, phases.profile,
      phases.optimize, phases.warmup, Median(setup_times));

  Metrics m;
  Outcome outcome;
  if (args.trace == 0) {
    MeasureEndToEnd(*h, args.seconds, Median(setup_times), &m, &outcome);
  } else {
    MeasureLayers(*h, cfg, args.seconds, &spans, &m, &outcome);
  }

  const int mismatches = CountMismatches(h->warehouse, h->ref, h->mvs);
  std::cout << "MV check: " << h->mvs.size() - mismatches << "/"
            << h->mvs.size() << " MVs equal to the no-opt reference\n";
  std::cout << StrFormat("host steal during the run: %.2f CPU-s\n",
                         StealSeconds() - steal0);
  outcome.failed += mismatches;
  const bool correct = selftests && outcome.consistent && outcome.failed == 0;
  h.reset();
  fs::remove_all(dir);
  std::cout << StrFormat("{\"correct\": %s, \"attempted\": %lld, "
                         "\"failed\": %lld, \"metrics\": %s}\n",
                         correct ? "true" : "false",
                         static_cast<long long>(
                             std::max<std::int64_t>(outcome.attempted, 1)),
                         static_cast<long long>(outcome.failed),
                         m.Json().c_str())
            << std::flush;
  return 0;
}

}  // namespace
}  // namespace sc::perfbench

int main(int argc, char** argv) {
  try {
    return sc::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "refresh_bench: " << e.what() << "\n";
    return 1;
  }
}
