#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "opt/optimizer.h"
#include "runtime/controller.h"
#include "service/service.h"
#include "test_util.h"
#include "workload/datagen.h"
#include "workload/workloads.h"

namespace sc::obs {
namespace {

using service::JobResult;
using service::RefreshJobSpec;
using service::RefreshService;
using service::ServiceOptions;

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_obs_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Recorder primitives
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder recorder;
  recorder.Complete("job", "execute", 1.0, 0.5, "\"job\":7");
  recorder.Instant("budget", "grant", "\"bytes\":64");
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(recorder.event_count(), 2u);
  // Events() sorts by start time; the span was stamped at t=1.0 while
  // the instant used the live monotonic clock (far larger).
  EXPECT_EQ(events[0].category, "job");
  EXPECT_EQ(events[0].name, "execute");
  EXPECT_DOUBLE_EQ(events[0].start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(events[0].dur_seconds, 0.5);
  EXPECT_FALSE(events[0].instant);
  EXPECT_EQ(events[0].args_json, "\"job\":7");
  EXPECT_EQ(events[1].category, "budget");
  EXPECT_TRUE(events[1].instant);
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorderOptions options;
  options.enabled = false;
  TraceRecorder recorder(options);
  EXPECT_FALSE(recorder.enabled());
  for (int i = 0; i < 100; ++i) {
    recorder.Complete("node", "n", 0.0, 1.0);
    recorder.Instant("budget", "grant");
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 0);

  // Flipping the flag live starts recording without reconstruction.
  recorder.set_enabled(true);
  recorder.Instant("budget", "grant");
  EXPECT_EQ(recorder.event_count(), 1u);
}

TEST(TraceRecorderTest, RingWrapDropsOldestAndCounts) {
  TraceRecorderOptions options;
  // Capacities are clamped to at least 16 per thread.
  options.per_thread_capacity = 16;
  TraceRecorder recorder(options);
  for (int i = 0; i < 40; ++i) {
    recorder.Complete("node", "n" + std::to_string(i),
                      static_cast<double>(i), 0.1);
  }
  EXPECT_EQ(recorder.event_count(), 16u);
  EXPECT_EQ(recorder.dropped(), 24);
  // The survivors are the newest sixteen.
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().name, "n24");
  EXPECT_EQ(events.back().name, "n39");
}

TEST(TraceRecorderTest, EventsCarryThreadTrackNames) {
  TraceRecorder recorder;
  std::thread lane([&recorder] {
    SetThreadTrack("lane-7");
    recorder.Complete("node", "on-lane", 0.0, 1.0);
  });
  lane.join();
  std::thread unnamed([&recorder] {
    recorder.Complete("node", "anonymous", 2.0, 1.0);
  });
  unnamed.join();
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].track, "lane-7");
  // Threads that never set a track still get a stable fallback row.
  EXPECT_EQ(events[1].track.rfind("thread-", 0), 0u) << events[1].track;
}

TEST(TraceRecorderTest, ConcurrentEmittersLoseNothing) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      SetThreadTrack("emitter-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Complete("node", "n", static_cast<double>(i), 0.001);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.event_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.dropped(), 0);
}

// ---------------------------------------------------------------------------
// Chrome trace round-trip
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, WriteLoadRoundTrip) {
  TraceRecorder recorder;
  recorder.Complete("job", "execute", 10.0, 2.5, "\"job\":3");
  recorder.Complete("publish", "v1", 11.0, 0.25,
                    "\"job\":3,\"flagged\":true");
  recorder.Instant("stage", "dispatch-stage-1", "", 10.5);
  std::ostringstream out;
  WriteChromeTrace(recorder, out);

  std::istringstream in(out.str());
  std::vector<TraceEvent> loaded;
  std::string error;
  ASSERT_TRUE(LoadChromeTrace(in, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 3u);
  std::sort(loaded.begin(), loaded.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_seconds < b.start_seconds;
            });
  // Timestamps are rebased to the earliest event, so compare offsets.
  EXPECT_EQ(loaded[0].category, "job");
  EXPECT_EQ(loaded[0].name, "execute");
  EXPECT_NEAR(loaded[0].start_seconds, 0.0, 1e-6);
  EXPECT_NEAR(loaded[0].dur_seconds, 2.5, 1e-6);
  EXPECT_EQ(loaded[0].args_json, "\"job\":3");
  EXPECT_EQ(loaded[1].category, "stage");
  EXPECT_TRUE(loaded[1].instant);
  EXPECT_NEAR(loaded[1].start_seconds, 0.5, 1e-6);
  EXPECT_EQ(loaded[2].category, "publish");
  EXPECT_NEAR(loaded[2].start_seconds, 1.0, 1e-6);
  EXPECT_EQ(loaded[2].args_json, "\"job\":3,\"flagged\":true");
  // All three were emitted from this (same) thread: one shared track.
  EXPECT_EQ(loaded[0].track, loaded[2].track);
}

TEST(ChromeTraceTest, RejectsMalformedInput) {
  std::istringstream in("this is not json");
  std::vector<TraceEvent> events;
  std::string error;
  EXPECT_FALSE(LoadChromeTrace(in, &events, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Controller span ordering (1 lane vs 4 lanes)
// ---------------------------------------------------------------------------

struct TracedRun {
  runtime::RunReport report;
  std::vector<TraceEvent> events;
};

/// Io1 profiled once, with its S/C plan: every traced run below executes
/// this same plan, whatever its lane count. (Profiling per run would time
/// the nodes anew, and two timings may well yield two different plans.)
struct ProfiledWorkload {
  std::map<std::string, engine::TablePtr> data;
  workload::MvWorkload wl;
  opt::Plan plan;
  std::int64_t budget = 16LL * 1024 * 1024;
};

ProfiledWorkload ProfileOnce() {
  ProfiledWorkload profiled;
  workload::DataGenOptions data_options;
  data_options.scale = 0.03;
  profiled.data = workload::GenerateTpcdsData(data_options);
  profiled.wl = workload::BuildIo1();
  storage::ThrottledDisk disk(FreshDir("profile_once"), FastDisk());
  runtime::Controller profiler(&disk, runtime::ControllerOptions{});
  profiler.LoadBaseTables(profiled.data);
  EXPECT_TRUE(profiler.ProfileAndAnnotate(&profiled.wl).ok);
  profiled.plan =
      opt::Optimizer{}.Optimize(profiled.wl.graph, profiled.budget).plan;
  return profiled;
}

TracedRun RunControllerTraced(const std::string& tag, int lanes,
                              const ProfiledWorkload& profiled) {
  storage::ThrottledDisk disk(FreshDir(tag), FastDisk());
  TraceRecorder recorder;
  runtime::ControllerOptions options;
  options.budget = profiled.budget;
  options.max_parallel_nodes = lanes;
  // Force every node onto a LanePool lane so lane tracks appear even
  // for the cheap profiled nodes the dispatcher would inline.
  options.inline_node_cost_seconds = 0.0;
  options.trace = &recorder;
  options.trace_job_id = 42;
  runtime::Controller controller(&disk, options);
  controller.LoadBaseTables(profiled.data);
  TracedRun run;
  run.report = controller.Run(profiled.wl, profiled.plan);
  run.events = recorder.Events();
  return run;
}

std::vector<std::string> NamesInCategory(
    const std::vector<TraceEvent>& events, const std::string& category) {
  std::vector<std::string> names;
  for (const auto& event : events) {
    if (event.category == category && !event.instant) {
      names.push_back(event.name);
    }
  }
  return names;
}

TraceEvent Span(const std::string& track, double start, double dur) {
  TraceEvent event;
  event.category = "node";
  event.name = "n";
  event.track = track;
  event.start_seconds = start;
  event.dur_seconds = dur;
  return event;
}

TEST(TraceAnalysisTest, NestedSpansCountOnceTowardTrackBusyTime) {
  // lane-0: a 10 s job span holding two nested node spans (2 s each),
  // one of which holds an operator span — summing durations would read
  // 15 s over a 10 s wall. lane-1: two disjoint spans plus one
  // overlapping both, with an idle gap.
  const std::vector<TraceEvent> events = {
      Span("lane-0", 0.0, 10.0), Span("lane-0", 1.0, 2.0),
      Span("lane-0", 1.5, 1.0),  Span("lane-0", 5.0, 2.0),
      Span("lane-1", 0.0, 1.0),  Span("lane-1", 2.0, 1.0),
      Span("lane-1", 0.5, 2.0),  Span("lane-1", 6.0, 1.0)};
  const TraceAnalysis analysis = AnalyzeTrace(events);
  EXPECT_DOUBLE_EQ(analysis.wall_seconds, 10.0);
  EXPECT_DOUBLE_EQ(analysis.track_busy_seconds.at("lane-0"), 10.0);
  EXPECT_DOUBLE_EQ(analysis.track_busy_seconds.at("lane-1"), 4.0);
  EXPECT_DOUBLE_EQ(analysis.TrackUtilization("lane-0"), 1.0);
  for (const auto& [track, busy] : analysis.track_busy_seconds) {
    EXPECT_LE(analysis.TrackUtilization(track), 1.0) << track;
  }
}

TEST(ControllerTraceTest, SpanOrderingMatchesPublishOrderAcrossLanes) {
  const ProfiledWorkload profiled = ProfileOnce();
  const TracedRun one = RunControllerTraced("lanes1", 1, profiled);
  const TracedRun four = RunControllerTraced("lanes4", 4, profiled);
  ASSERT_TRUE(one.report.ok) << one.report.error;
  ASSERT_TRUE(four.report.ok) << four.report.error;
  EXPECT_GT(four.report.parallel_lanes, 1);

  // Every executed node emitted exactly one node span and one publish
  // span, regardless of lane count.
  const std::size_t num_nodes = one.report.nodes.size();
  ASSERT_GT(num_nodes, 0u);
  EXPECT_EQ(NamesInCategory(one.events, "node").size(), num_nodes);
  EXPECT_EQ(NamesInCategory(four.events, "node").size(), num_nodes);

  // The publish replay is strictly in plan order on both runtimes (the
  // relaxed-publish contract): publish spans sorted by start time must
  // match the report's node order — which is itself publish order.
  auto publish_order = [](const TracedRun& run) {
    return NamesInCategory(run.events, "publish");
  };
  std::vector<std::string> expected;
  for (const auto& node : one.report.nodes) expected.push_back(node.name);
  EXPECT_EQ(publish_order(one), expected);
  std::vector<std::string> expected_four;
  for (const auto& node : four.report.nodes) {
    expected_four.push_back(node.name);
  }
  EXPECT_EQ(publish_order(four), expected_four);
  // Same plan, same publish order.
  EXPECT_EQ(expected, expected_four);

  // Node spans nest inside the run: every span carries the job id arg
  // and a track; the 4-lane run actually used lane tracks.
  std::set<std::string> four_tracks;
  for (const auto& event : four.events) {
    if (event.category == "node" && !event.instant) {
      EXPECT_NE(event.args_json.find("\"job\":42"), std::string::npos);
      four_tracks.insert(event.track);
    }
  }
  const bool any_lane_track =
      std::any_of(four_tracks.begin(), four_tracks.end(),
                  [](const std::string& track) {
                    return track.rfind("lane-", 0) == 0;
                  });
  EXPECT_TRUE(any_lane_track)
      << "expected lane-* tracks among " << four_tracks.size();

  // Parallel dispatch emits stage-advance instants.
  bool any_stage_instant = false;
  for (const auto& event : four.events) {
    if (event.category == "stage" && event.instant) {
      any_stage_instant = true;
    }
  }
  EXPECT_TRUE(any_stage_instant);
}

// ---------------------------------------------------------------------------
// End-to-end service trace (the ISSUE acceptance scenario)
// ---------------------------------------------------------------------------

TEST(ServiceTraceTest, FourTenantFourLaneRunReconstructs) {
  storage::ThrottledDisk disk(FreshDir("service"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    ASSERT_TRUE(profiler.ProfileAndAnnotate(wl.get()).ok);
  }

  TraceRecorder recorder;
  ServiceOptions options;
  options.num_workers = 8;
  options.max_intra_job_lanes = 4;
  options.global_budget = 32LL * 1024 * 1024;
  options.trace = &recorder;
  RefreshService service(&disk, options);

  constexpr int kJobs = 8;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % 4);
    futures.push_back(service.Submit(std::move(spec)));
  }
  for (auto& future : futures) {
    const JobResult result = future.get();
    ASSERT_TRUE(result.report.ok) << result.report.error;
  }
  service.Shutdown();

  const auto events = recorder.Events();
  const TraceAnalysis analysis = AnalyzeTrace(events);

  // Every phase a service run crosses left at least one span.
  for (const char* category :
       {"job", "budget", "plan", "node", "publish"}) {
    EXPECT_GT(analysis.category_counts.count(category)
                  ? analysis.category_counts.at(category)
                  : 0,
              0)
        << category;
  }

  // Per-job breakdown: all jobs reconstructed, each with execution time
  // and all four tenants represented.
  EXPECT_EQ(analysis.jobs.size(), static_cast<std::size_t>(kJobs));
  std::set<std::string> tenants;
  for (const auto& [job_id, breakdown] : analysis.jobs) {
    EXPECT_GT(job_id, 0u);
    EXPECT_GT(breakdown.executing_seconds, 0.0) << "job " << job_id;
    EXPECT_GE(breakdown.queued_seconds, 0.0);
    EXPECT_GE(breakdown.budget_wait_seconds, 0.0);
    tenants.insert(breakdown.tenant);
  }
  EXPECT_EQ(tenants.size(), 4u);

  // Lane occupancy: worker tracks (and any lane tracks) accumulated busy
  // time inside the trace wall span.
  EXPECT_GT(analysis.wall_seconds, 0.0);
  bool any_worker_track = false;
  for (const auto& [track, busy] : analysis.track_busy_seconds) {
    EXPECT_GE(busy, 0.0);
    // A worker's job/node/publish spans nest; busy time is their
    // union, so no track is ever more than fully busy.
    EXPECT_LE(analysis.TrackUtilization(track), 1.0 + 1e-9) << track;
    if (track.rfind("worker-", 0) == 0) {
      any_worker_track = true;
      EXPECT_GT(busy, 0.0) << track;
    }
  }
  EXPECT_TRUE(any_worker_track);

  // The registry mirrored the run: jobs counted per tenant, component
  // gauges live, and the whole thing renders as Prometheus text.
  const auto snapshot = service.registry().Snapshot();
  EXPECT_DOUBLE_EQ(test::SumSeries(snapshot, "sc_jobs_total",
                                   "status=\"ok\""),
                   static_cast<double>(kJobs));
  EXPECT_GT(snapshot.at("sc_lane_pool_tasks_completed"), 0.0);
  const std::string text = service.PrometheusText();
  EXPECT_NE(text.find("# TYPE sc_jobs_total counter"), std::string::npos);
  // Cumulative mirrors export as counters, point-in-time ones as gauges.
  EXPECT_NE(text.find("# TYPE sc_lane_pool_tasks_completed counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sc_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("sc_job_exec_seconds_bucket"), std::string::npos);
}

TEST(ServiceTraceTest, MaterializeSpansCarryTheirJobId) {
  // Background writes belong to the job that queued them: every
  // materialize span names its job and whether the disk skipped it, so a
  // per-job ledger can attribute the write.
  storage::ThrottledDisk disk(FreshDir("materialize_jobs"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    ASSERT_TRUE(profiler.ProfileAndAnnotate(wl.get()).ok);
  }

  TraceRecorder recorder;
  ServiceOptions options;
  options.num_workers = 4;
  options.global_budget = 32LL * 1024 * 1024;
  options.trace = &recorder;
  RefreshService service(&disk, options);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "tenant" + std::to_string(i % 2);
    futures.push_back(service.Submit(std::move(spec)));
  }
  std::set<std::uint64_t> job_ids;
  for (auto& future : futures) {
    const JobResult result = future.get();
    ASSERT_TRUE(result.report.ok) << result.report.error;
    job_ids.insert(result.job_id);
  }
  service.Shutdown();

  std::map<std::uint64_t, std::set<std::string>> written_by_job;
  std::int64_t skipped_spans = 0;
  for (const TraceEvent& event : recorder.Events()) {
    if (event.category != "materialize" || event.instant) continue;
    const std::string& args = event.args_json;
    const std::size_t at = args.find("\"job\":");
    ASSERT_NE(at, std::string::npos) << args;
    const std::uint64_t job = std::stoull(args.substr(at + 6));
    EXPECT_EQ(job_ids.count(job), 1u) << args;
    // One background write per MV and job.
    EXPECT_TRUE(written_by_job[job].insert(event.name).second) << args;
    const bool skipped = args.find("\"skipped\":true") != std::string::npos;
    EXPECT_TRUE(skipped ||
                args.find("\"skipped\":false") != std::string::npos)
        << args;
    if (skipped) ++skipped_spans;
  }
  EXPECT_FALSE(written_by_job.empty());
  // The profiling run already wrote every MV, so refreshes of unchanged
  // content skip their writes, and the service exports the count.
  EXPECT_GT(skipped_spans, 0);
  EXPECT_LE(skipped_spans, disk.skipped_writes());
  EXPECT_DOUBLE_EQ(service.registry().Snapshot().at(
                       "sc_disk_writes_skipped_total"),
                   static_cast<double>(disk.skipped_writes()));
  EXPECT_NE(service.PrometheusText().find(
                "# TYPE sc_disk_writes_skipped_total counter"),
            std::string::npos);
}

TEST(ServiceTraceTest, TracePathWritesLoadableFileAtShutdown) {
  storage::ThrottledDisk disk(FreshDir("tracepath"), FastDisk());
  auto wl = std::make_shared<workload::MvWorkload>(workload::BuildIo1());
  {
    runtime::Controller profiler(&disk, runtime::ControllerOptions{});
    workload::DataGenOptions data_options;
    data_options.scale = 0.03;
    profiler.LoadBaseTables(workload::GenerateTpcdsData(data_options));
    ASSERT_TRUE(profiler.ProfileAndAnnotate(wl.get()).ok);
  }
  const std::string trace_path =
      testing::TempDir() + "/sc_obs_service_trace.json";
  std::filesystem::remove(trace_path);
  {
    ServiceOptions options;
    options.num_workers = 2;
    options.global_budget = 16LL * 1024 * 1024;
    options.trace_path = trace_path;
    RefreshService service(&disk, options);
    RefreshJobSpec spec;
    spec.workload = wl;
    spec.tenant = "solo";
    ASSERT_TRUE(service.Submit(spec).get().report.ok);
    service.Shutdown();
  }
  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(LoadChromeTraceFile(trace_path, &events, &error)) << error;
  const TraceAnalysis analysis = AnalyzeTrace(events);
  EXPECT_EQ(analysis.jobs.size(), 1u);
  EXPECT_GT(analysis.jobs.begin()->second.executing_seconds, 0.0);
}

}  // namespace
}  // namespace sc::obs
