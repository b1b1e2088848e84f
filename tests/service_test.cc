#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "fault/fault.h"
#include "runtime/controller.h"
#include "service/service.h"
#include "test_util.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::service {
namespace {

using test::SumSeries;

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_service_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Loads tiny TPC-DS data into `disk` and returns the Io1 workload with
/// observed execution metadata (sizes, compute times, speedup scores).
std::shared_ptr<const workload::MvWorkload> AnnotatedWorkload(
    storage::ThrottledDisk* disk) {
  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  runtime::Controller profiler(disk, runtime::ControllerOptions{});
  profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  const runtime::RunReport report = profiler.ProfileAndAnnotate(wl.get());
  EXPECT_TRUE(report.ok) << report.error;
  return wl;
}

TEST(RefreshServiceTest, StressConcurrentTenantsNeverExceedGlobalBudget) {
  storage::ThrottledDisk disk(FreshDir("stress"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  const std::int64_t global_budget = 16LL * 1024 * 1024;
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = global_budget;
  RefreshService service(&disk, options);

  // 12 jobs from 3 tenants asking for half or three quarters of the
  // global budget, so concurrent grants contend and some jobs run on
  // partial funding (and re-optimize at their granted budget).
  constexpr int kJobs = 12;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % 3);
    spec.priority = i % 2;
    spec.requested_budget =
        i % 2 == 0 ? global_budget / 2 : 3 * global_budget / 4;
    futures.push_back(service.Submit(std::move(spec)));
  }

  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_TRUE(result.report.ok) << result.report.error;
    EXPECT_GT(result.granted_budget, 0);
    EXPECT_LE(result.granted_budget, result.requested_budget);
    // Each run stayed inside its granted slice of the catalog.
    EXPECT_LE(result.report.peak_memory, result.granted_budget);
  }

  // The arbitration invariant: concurrent reservations never exceeded
  // the global budget, and everything was handed back.
  EXPECT_LE(service.broker().peak_reserved_bytes(), global_budget);
  EXPECT_GT(service.broker().peak_reserved_bytes(), 0);
  service.Shutdown();
  EXPECT_EQ(service.broker().reserved_bytes(), 0);

  const auto snapshot = service.registry().Snapshot();
  EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total", "status=\"ok\""), kJobs);
  EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total"), kJobs);  // none failed
  for (int t = 0; t < 3; ++t) {
    const std::string tenant = "tenant=\"tenant" + std::to_string(t) + "\"";
    EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total", tenant), kJobs / 3)
        << tenant;
  }
  // Every job's submit-to-finish latency landed in the histogram.
  EXPECT_EQ(SumSeries(snapshot, "sc_job_latency_seconds_count"), kJobs);
  EXPECT_GT(SumSeries(snapshot, "sc_job_latency_seconds_sum"), 0.0);
}

TEST(RefreshServiceTest, RepeatRefreshHitsPlanCache) {
  storage::ThrottledDisk disk(FreshDir("plancache"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "repeat";
  const JobResult first = service.Submit(spec).get();
  EXPECT_TRUE(first.report.ok) << first.report.error;
  EXPECT_FALSE(first.plan_cache_hit);

  // With cross-job sharing on (the default), the second refresh sees the
  // first's outputs resident and re-optimizes for that residency — an
  // honest non-hit. The adjusted plan is cached under the residency-
  // salted key, so the *third* refresh (same resident set) is a pure
  // cache hit: the steady-state serving regime.
  const JobResult second = service.Submit(spec).get();
  EXPECT_TRUE(second.report.ok) << second.report.error;
  EXPECT_TRUE(second.reoptimized);
  const JobResult third = service.Submit(spec).get();
  EXPECT_TRUE(third.report.ok) << third.report.error;
  EXPECT_TRUE(third.plan_cache_hit);
  EXPECT_FALSE(third.reoptimized);
  EXPECT_GE(service.plan_cache().stats().hits, 1);

  // Sharing off restores the PR-1 behaviour: the second refresh is a
  // direct hit.
  storage::ThrottledDisk private_disk(FreshDir("plancache_priv"),
                                      FastDisk());
  auto private_wl = AnnotatedWorkload(&private_disk);
  options.share_catalog = false;
  RefreshService private_service(&private_disk, options);
  RefreshJobSpec private_spec;
  private_spec.workload = private_wl;
  private_spec.tenant = "repeat";
  EXPECT_FALSE(private_service.Submit(private_spec).get().plan_cache_hit);
  EXPECT_TRUE(private_service.Submit(private_spec).get().plan_cache_hit);
}

TEST(RefreshServiceTest, CatalogStatsFlowIntoMetrics) {
  storage::ThrottledDisk disk(FreshDir("catstats"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "stats";
  const JobResult result = service.Submit(spec).get();
  ASSERT_TRUE(result.report.ok) << result.report.error;
  // A funded run serves at least one input from the Memory Catalog.
  EXPECT_GT(result.report.catalog_hits, 0);
  EXPECT_GT(result.report.CatalogHitRate(), 0.0);

  const auto snapshot = service.registry().Snapshot();
  EXPECT_GT(SumSeries(snapshot, "sc_catalog_hits_total",
                      "tenant=\"stats\""),
            0.0);
  EXPECT_NE(service.PrometheusText().find(
                "sc_catalog_hits_total{tenant=\"stats\"}"),
            std::string::npos);
  // Base-table scans the clean tier served are exported as a counter.
  EXPECT_GT(result.report.base_input_hits, 0);
  EXPECT_NE(service.PrometheusText().find("sc_base_input_hits_total"),
            std::string::npos);
}

TEST(RefreshServiceTest, TenantQuotaCapsGrant) {
  storage::ThrottledDisk disk(FreshDir("quota"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  const std::int64_t quota = 2LL * 1024 * 1024;
  service.SetTenantQuota("capped", quota);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "capped";
  spec.requested_budget = 8LL * 1024 * 1024;
  const JobResult result = service.Submit(spec).get();
  EXPECT_TRUE(result.report.ok) << result.report.error;
  EXPECT_LE(result.granted_budget, quota);
}

TEST(RefreshServiceTest, ExecutionFailureIsReportedNotThrown) {
  storage::ThrottledDisk disk(FreshDir("fail"), FastDisk());
  // No base tables loaded: every job must fail cleanly.
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  ServiceOptions options;
  options.num_workers = 2;
  RefreshService service(&disk, options);

  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "broken";
  const JobResult result = service.Submit(spec).get();
  EXPECT_FALSE(result.report.ok);
  EXPECT_FALSE(result.report.error.empty());
  const auto snapshot = service.registry().Snapshot();
  EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total", "status=\"failed\""), 1);
  EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total"), 1);
  // The failure released its budget: the broker is clean.
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
}

TEST(RefreshServiceTest, SubmitAfterShutdownThrows) {
  storage::ThrottledDisk disk(FreshDir("shutdown"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  RefreshService service(&disk, ServiceOptions{});
  service.Shutdown();
  RefreshJobSpec spec;
  spec.workload = wl;
  EXPECT_THROW(service.Submit(std::move(spec)), std::runtime_error);
}

TEST(RefreshServiceTest, NonDrainingShutdownFailsPendingJobs) {
  storage::ThrottledDisk disk(FreshDir("nodrain"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    futures.push_back(service.Submit(std::move(spec)));
  }
  service.Shutdown(/*drain=*/false);
  int completed = 0;
  int rejected = 0;
  for (auto& future : futures) {
    const JobResult result = future.get();  // every future must resolve
    if (result.report.ok) {
      ++completed;
    } else {
      EXPECT_NE(result.report.error.find("shutting down"),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, 6);
}

TEST(RefreshServiceTest, PrometheusTextEscapesTenantNames) {
  storage::ThrottledDisk disk(FreshDir("promesc"), FastDisk());
  // Jobs fail (no base tables), which must still be counted per tenant.
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  ServiceOptions options;
  options.num_workers = 1;
  RefreshService service(&disk, options);
  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "acme\"prod\\eu\n";
  const JobResult result = service.Submit(std::move(spec)).get();
  EXPECT_FALSE(result.report.ok);
  const std::string text = service.PrometheusText();
  EXPECT_NE(text.find("sc_jobs_total{status=\"failed\","
                      "tenant=\"acme\\\"prod\\\\eu\\n\"} 1\n"),
            std::string::npos)
      << text;
  // The raw newline never splits a series: every line is a comment or
  // starts with a metric name.
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_TRUE(line.rfind("# ", 0) == 0 || line.rfind("sc_", 0) == 0)
        << line;
  }
  const auto snapshot = service.registry().Snapshot();
  EXPECT_EQ(SumSeries(snapshot, "sc_jobs_total", "status=\"failed\""), 1);
}

TEST(RefreshServiceTest, NullWorkloadRejected) {
  storage::ThrottledDisk disk(FreshDir("null"), FastDisk());
  RefreshService service(&disk, ServiceOptions{});
  EXPECT_THROW(service.Submit(RefreshJobSpec{}), std::invalid_argument);
}

TEST(ParallelismBrokerTest, SplitKeepsThreadBudgetBounded) {
  const ParallelismSplit a = ParallelismBroker::Split(8, 1);
  EXPECT_EQ(a.workers, 8);
  EXPECT_EQ(a.lanes_per_job, 1);
  const ParallelismSplit b = ParallelismBroker::Split(8, 4);
  EXPECT_EQ(b.workers, 2);
  EXPECT_EQ(b.lanes_per_job, 4);
  // Lanes above the budget are clamped; the budget is never multiplied.
  const ParallelismSplit c = ParallelismBroker::Split(2, 8);
  EXPECT_EQ(c.workers, 1);
  EXPECT_EQ(c.lanes_per_job, 2);
  EXPECT_LE(c.workers * c.lanes_per_job, 2);
}

TEST(ParallelismBrokerTest, PreferredWidthCapsTheLease) {
  ParallelismBroker broker(8, 4);
  // A chain-shaped job (antichain width 1) leases a single lane even
  // though its cap and the free budget would allow more.
  const int narrow = broker.AcquireLanes(/*preferred=*/1);
  EXPECT_EQ(narrow, 1);
  const int wide = broker.AcquireLanes(/*preferred=*/16);
  EXPECT_EQ(wide, 4);  // clamped to the per-job cap
  broker.ReleaseLanes(narrow);
  broker.ReleaseLanes(wide);
  EXPECT_EQ(broker.lanes_in_use(), 0);
}

TEST(ParallelismBrokerTest, IdleWorkersLanesAreBorrowable) {
  ParallelismBroker broker(8, 4);
  const int first = broker.AcquireLanes();
  EXPECT_EQ(first, 4);  // lone job gets its full cap
  const int second = broker.AcquireLanes();
  EXPECT_EQ(second, 4);
  // Budget exhausted: further jobs still run, at one lane.
  const int third = broker.AcquireLanes();
  EXPECT_EQ(third, 1);
  broker.ReleaseLanes(first);
  broker.ReleaseLanes(second);
  broker.ReleaseLanes(third);
  EXPECT_EQ(broker.lanes_in_use(), 0);
}

TEST(RefreshServiceTest, IntraJobLanesExecuteJobsCorrectly) {
  storage::ThrottledDisk disk(FreshDir("lanes"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 4;  // total thread budget
  options.max_intra_job_lanes = 4;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  EXPECT_EQ(service.parallelism().workers, 1);
  EXPECT_EQ(service.parallelism().lanes_per_job, 4);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "lanes";
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_TRUE(result.report.ok) << result.report.error;
    EXPECT_GE(result.lanes, 1);
    EXPECT_LE(result.lanes, 4);
    EXPECT_LE(result.report.peak_memory, result.granted_budget);
  }
  service.Shutdown();
  EXPECT_EQ(service.lanes_broker().lanes_in_use(), 0);
}

TEST(RefreshServiceTest, UnusedBudgetIsReturnedMidRun) {
  storage::ThrottledDisk disk(FreshDir("return"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 256LL * 1024 * 1024;
  RefreshService service(&disk, options);

  // The whole global budget is far more than Io1's flagged set needs at
  // tiny scale, so most of the grant goes back to the broker early.
  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "frugal";
  spec.requested_budget = options.global_budget;
  const JobResult result = service.Submit(std::move(spec)).get();
  ASSERT_TRUE(result.report.ok) << result.report.error;
  EXPECT_GT(result.returned_budget, 0);
  EXPECT_LT(result.report.budget,
            result.granted_budget);  // ran on the shrunk grant
  EXPECT_LE(result.report.peak_memory, result.report.budget);
  // Resident base tables live inside the shrunk grant too.
  EXPECT_LE(result.report.resident_peak_bytes, result.report.budget);
  EXPECT_GT(SumSeries(service.registry().Snapshot(),
                      "sc_budget_returned_bytes_total"),
            0.0);
  EXPECT_EQ(service.broker().reserved_bytes(), 0);
}

/// Sum of per-node compute seconds across a set of finished jobs — the
/// recompute work the shared catalog is supposed to eliminate.
double TotalComputeSeconds(const std::vector<JobResult>& results) {
  double total = 0.0;
  for (const JobResult& r : results) total += r.report.TotalComputeSeconds();
  return total;
}

/// Runs one seed job (tenant "seed") followed by `followers` concurrent
/// tenants refreshing the same workload, and returns all results.
std::vector<JobResult> RunSharedWorkload(RefreshService* service,
                                         std::shared_ptr<const workload::MvWorkload> wl,
                                         int followers) {
  RefreshJobSpec seed;
  seed.workload = wl;
  seed.tenant = "seed";
  std::vector<JobResult> results;
  results.push_back(service->Submit(seed).get());
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < followers; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i);
    futures.push_back(service->Submit(std::move(spec)));
  }
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

// The ISSUE-4 acceptance criterion: tenants refreshing the same workload
// concurrently read each other's resident outputs — nonzero
// cross_job_hits and strictly less total recompute than the same traffic
// against private catalogs.
TEST(RefreshServiceTest, CrossJobSharingCutsRecomputeAcrossTenants) {
  constexpr int kFollowers = 3;

  // Shared-catalog service (the default).
  storage::ThrottledDisk disk(FreshDir("xjob_shared"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 64LL * 1024 * 1024;
  ASSERT_TRUE(options.share_catalog);
  std::vector<JobResult> shared_results;
  {
    RefreshService service(&disk, options);
    shared_results = RunSharedWorkload(&service, wl, kFollowers);
    for (const JobResult& r : shared_results) {
      ASSERT_TRUE(r.report.ok) << r.report.error;
    }
    // The seed job computed everything; every follower found the seed's
    // outputs resident and reused them instead of recomputing.
    EXPECT_EQ(shared_results[0].report.cross_job_hits, 0);
    for (std::size_t i = 1; i < shared_results.size(); ++i) {
      EXPECT_GT(shared_results[i].report.cross_job_hits, 0) << i;
      EXPECT_GT(shared_results[i].report.cross_job_bytes_saved, 0) << i;
    }
    EXPECT_GT(service.shared_catalog().hits(), 0);
    EXPECT_LE(service.shared_catalog().used_bytes(),
              service.shared_catalog().budget_bytes());

    // The per-tenant counters flow into the metrics registry.
    const auto snapshot = service.registry().Snapshot();
    EXPECT_GT(SumSeries(snapshot, "sc_cross_job_hits_total"), 0.0);
    EXPECT_GT(SumSeries(snapshot, "sc_cross_job_bytes_saved_total"), 0.0);
    EXPECT_NE(service.PrometheusText().find(
                  "# TYPE sc_cross_job_hits_total counter"),
              std::string::npos);

    service.Shutdown();
    // Every run dropped its pins: nothing stays charged to any tenant.
    for (std::size_t i = 1; i < shared_results.size(); ++i) {
      EXPECT_EQ(service.broker().tenant_shared_bytes(
                    shared_results[i].tenant),
                0);
    }
    EXPECT_EQ(service.shared_catalog().pinned_bytes(), 0);
  }

  // Private-catalog baseline: same traffic, sharing off.
  storage::ThrottledDisk private_disk(FreshDir("xjob_private"),
                                      FastDisk());
  auto private_wl = AnnotatedWorkload(&private_disk);
  options.share_catalog = false;
  RefreshService private_service(&private_disk, options);
  const std::vector<JobResult> private_results =
      RunSharedWorkload(&private_service, private_wl, kFollowers);
  for (const JobResult& r : private_results) {
    ASSERT_TRUE(r.report.ok) << r.report.error;
    EXPECT_EQ(r.report.cross_job_hits, 0);
  }

  // Followers reused the seed's outputs wholesale, so the shared run's
  // total recompute is strictly below the private baseline's.
  EXPECT_LT(TotalComputeSeconds(shared_results),
            TotalComputeSeconds(private_results));
}

/// `table` with its first half of rows: a reload whose bytes differ.
engine::TablePtr FirstHalf(const engine::TablePtr& table) {
  engine::MapResolver resolver({{"t", table}});
  return std::make_shared<engine::Table>(engine::ExecutePlan(
      *engine::Limit(engine::Scan("t"),
                     static_cast<std::int64_t>(table->num_rows() / 2)),
      resolver));
}

/// Profiles `wl` on `disk`, whose base tables are already loaded.
std::shared_ptr<const workload::MvWorkload> Annotated(
    storage::ThrottledDisk* disk, workload::MvWorkload wl) {
  runtime::Controller profiler(disk, runtime::ControllerOptions{});
  auto annotated = std::make_shared<workload::MvWorkload>(std::move(wl));
  EXPECT_TRUE(profiler.ProfileAndAnnotate(annotated.get()).ok);
  return annotated;
}

TEST(RefreshServiceTest, ReloadedBaseTableNeverServesStaleMvs) {
  // A running service refreshed Io1, then "promotion" was reloaded. The
  // next refresh must recompute every MV over the new data instead of
  // reusing the resident outputs computed from the old one.
  storage::ThrottledDisk disk(FreshDir("reload_stale"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 2;
  options.global_budget = 64LL * 1024 * 1024;
  RefreshService service(&disk, options);
  RefreshJobSpec spec;
  spec.workload = wl;
  spec.tenant = "reload";
  ASSERT_TRUE(service.Submit(spec).get().report.ok);

  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  auto data = workload::GenerateTpcdsData(data_options);
  data["promotion"] = FirstHalf(data.at("promotion"));
  disk.WriteTable("promotion", *data.at("promotion"));
  const JobResult after = service.Submit(spec).get();
  ASSERT_TRUE(after.report.ok) << after.report.error;

  storage::ThrottledDisk reference_disk(FreshDir("reload_stale_ref"),
                                        FastDisk());
  runtime::Controller reference(&reference_disk,
                                runtime::ControllerOptions{});
  reference.LoadBaseTables(data);
  ASSERT_TRUE(reference.RunUnoptimized(*wl).ok);
  int stale = 0;
  for (graph::NodeId v = 0; v < wl->graph.num_nodes(); ++v) {
    const std::string& name = wl->graph.node(v).name;
    if (!(disk.ReadTable(name) == reference_disk.ReadTable(name))) {
      ADD_FAILURE() << "stale MV " << name;
      ++stale;
    }
  }
  EXPECT_EQ(stale, 0);
}

TEST(RefreshServiceTest, SharedBaseTablesAreReadOnceAndUnpinnedAfterDrain) {
  storage::ThrottledDisk disk(FreshDir("shared_base"), FastDisk());
  auto io1 = AnnotatedWorkload(&disk);
  auto io2 = Annotated(&disk, workload::BuildIo2());
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  const storage::SharedCatalog& shared = service.shared_catalog();

  std::atomic<bool> stop{false};
  std::atomic<bool> over_budget{false};
  std::thread monitor([&] {
    while (!stop.load()) {
      if (shared.used_bytes() > shared.budget_bytes()) over_budget = true;
      std::this_thread::yield();
    }
  });

  // Two jobs of different workloads scan "item": one read serves both.
  const std::int64_t reads = disk.read_count("item");
  RefreshJobSpec first;
  first.workload = io1;
  first.tenant = "a";
  RefreshJobSpec second;
  second.workload = io2;
  second.tenant = "b";
  ASSERT_TRUE(service.Submit(first).get().report.ok);
  const JobResult served = service.Submit(second).get();
  ASSERT_TRUE(served.report.ok) << served.report.error;
  EXPECT_EQ(disk.read_count("item"), reads + 1);
  EXPECT_GT(served.report.base_input_hits, 0);
  EXPECT_GT(SumSeries(service.registry().Snapshot(),
                      "sc_base_input_hits_total"),
            0.0);

  // Concurrent tenants over both workloads.
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i) {
    RefreshJobSpec spec;
    spec.workload = i % 2 == 0 ? io1 : io2;
    spec.tenant = "t" + std::to_string(i % 4);
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) {
    const JobResult result = future.get();
    EXPECT_TRUE(result.report.ok) << result.report.error;
  }

  // A reload changes the version: the next scan reads the table again.
  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  const auto data = workload::GenerateTpcdsData(data_options);
  disk.WriteTable("item", *FirstHalf(data.at("item")));
  const std::int64_t before_reload = disk.read_count("item");
  ASSERT_TRUE(service.Submit(first).get().report.ok);
  EXPECT_EQ(disk.read_count("item"), before_reload + 1);

  service.Shutdown();
  stop = true;
  monitor.join();
  EXPECT_FALSE(over_budget.load());
  EXPECT_LE(shared.peak_bytes(), shared.budget_bytes());
  EXPECT_EQ(shared.pinned_bytes(), 0);
  for (const std::string tenant : {"a", "b", "t0", "t1", "t2", "t3"}) {
    EXPECT_EQ(service.broker().tenant_shared_bytes(tenant), 0) << tenant;
  }
}

TEST(RefreshServiceTest, QueueWaitHistogramIsLabelledByPriority) {
  storage::ThrottledDisk disk(FreshDir("priority"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 5; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "prio";
    spec.priority = i < 2 ? 0 : 3;
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().report.ok);
  const auto snapshot = service.registry().Snapshot();
  EXPECT_EQ(SumSeries(snapshot, "sc_job_queue_wait_seconds_count",
                      "priority=\"0\""),
            2);
  EXPECT_EQ(SumSeries(snapshot, "sc_job_queue_wait_seconds_count",
                      "priority=\"3\""),
            3);
  EXPECT_EQ(SumSeries(snapshot, "sc_job_queue_wait_seconds_count",
                      "tenant=\"prio\""),
            5);
}

TEST(RefreshServiceTest, StarvationGaugeReadsJobQueuedBehindStall) {
  storage::ThrottledDisk disk(FreshDir("stall"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);

  // The first node execution hits a transient fault whose 10 s retry
  // backoff parks the only worker, so a second job stays queued.
  fault::FaultInjector faults(/*seed=*/7);
  faults.AddRule(
      {fault::Site::kNodeExecute, "", 0.0, /*nth_hit=*/1, 1, true});
  ServiceOptions options;
  options.num_workers = 1;
  options.fault_injector = &faults;
  options.retry_limit = 1;
  options.retry_backoff_ms = 10000.0;
  RefreshService service(&disk, options);
  auto starvation = [&service] {
    return service.registry().Snapshot().at("sc_starvation_seconds");
  };

  RefreshJobSpec stalled;
  stalled.workload = wl;
  RefreshService::JobHandle first = service.SubmitJob(std::move(stalled));
  while (faults.total_fires() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The stalled job is admitted, so only the queued one counts.
  RefreshJobSpec queued;
  queued.workload = wl;
  RefreshService::JobHandle second = service.SubmitJob(std::move(queued));
  const auto submitted = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double slept = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - submitted)
                           .count();
  EXPECT_GE(starvation(), slept);

  EXPECT_TRUE(service.Cancel(second.job_id));
  EXPECT_TRUE(service.Cancel(first.job_id));
  EXPECT_EQ(first.future.get().status, JobStatus::kCancelled);
  EXPECT_EQ(second.future.get().status, JobStatus::kCancelled);
  service.Shutdown();
  EXPECT_EQ(starvation(), 0.0);
}

TEST(RefreshServiceTest, StarvationGaugeTracksLiveQueue) {
  storage::ThrottledDisk disk(FreshDir("starve"), FastDisk());
  auto wl = AnnotatedWorkload(&disk);
  ServiceOptions options;
  options.num_workers = 1;
  options.global_budget = 16LL * 1024 * 1024;
  RefreshService service(&disk, options);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "starve";
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) future.get();
  service.Shutdown();
  // Everything ran: the gauge and the queue must be clean.
  const auto snapshot = service.registry().Snapshot();
  EXPECT_EQ(snapshot.at("sc_starvation_seconds"), 0.0);
  EXPECT_EQ(snapshot.at("sc_queue_depth"), 0.0);
  EXPECT_EQ(snapshot.at("sc_budget_waiting_jobs"), 0.0);
}

}  // namespace
}  // namespace sc::service
