#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "opt/optimizer.h"
#include "opt/stages.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "runtime/stage_scheduler.h"
#include "workload/datagen.h"
#include "workload/workloads.h"
#include "test_util.h"

namespace sc::runtime {
namespace {

storage::DiskProfile FastDisk() {
  storage::DiskProfile profile;
  profile.throttle = false;
  return profile;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_stage_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::map<std::string, engine::TablePtr> TinyData() {
  workload::DataGenOptions options;
  options.scale = 0.03;
  return workload::GenerateTpcdsData(options);
}

workload::MvWorkload WideWorkload(int width) {
  return workload::BuildWideSynthetic(width);
}

// ---------------------------------------------------------------------------
// Stage decomposition
// ---------------------------------------------------------------------------

TEST(StageDecompositionTest, ChainYieldsOneNodePerStage) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  const auto stages =
      opt::DecomposeStages(g, graph::KahnTopologicalOrder(g));
  ASSERT_EQ(stages.num_stages(), 3);
  EXPECT_EQ(stages.width(), 1u);
  EXPECT_EQ(stages.stage_of[a], 0);
  EXPECT_EQ(stages.stage_of[b], 1);
  EXPECT_EQ(stages.stage_of[c], 2);
}

TEST(StageDecompositionTest, DiamondYieldsAntichains) {
  graph::Graph g;
  const auto root = g.AddNode("root");
  const auto left = g.AddNode("left");
  const auto right = g.AddNode("right");
  const auto sink = g.AddNode("sink");
  g.AddEdge(root, left);
  g.AddEdge(root, right);
  g.AddEdge(left, sink);
  g.AddEdge(right, sink);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  ASSERT_EQ(stages.num_stages(), 3);
  EXPECT_EQ(stages.width(), 2u);
  EXPECT_EQ(stages.stages[1].size(), 2u);
  // Every parent sits in a strictly earlier stage (antichain property).
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (graph::NodeId p : g.parents(v)) {
      EXPECT_LT(stages.stage_of[p], stages.stage_of[v]);
    }
  }
  // Intra-stage listing follows order position.
  EXPECT_LT(order.position[stages.stages[1][0]],
            order.position[stages.stages[1][1]]);
}

TEST(StageDecompositionTest, RejectsNonTopologicalOrder) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  g.AddEdge(a, b);
  const auto order = graph::Order::FromSequence({b, a});
  EXPECT_THROW(opt::DecomposeStages(g, order), std::invalid_argument);
  EXPECT_THROW(
      opt::DecomposeStages(g, graph::Order::FromSequence({a})),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LanePool / StageScheduler
// ---------------------------------------------------------------------------

TEST(LanePoolRuntimeTest, RunsEveryTaskAcrossLanes) {
  LanePool pool(4);
  EXPECT_EQ(pool.capacity(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(done.load(), 100);
  EXPECT_LE(pool.threads_started(), 4);
}

TEST(StageSchedulerTest, SingleLaneDispatchFollowsPlanOrder) {
  graph::Graph g;
  const auto root = g.AddNode("root");
  const auto left = g.AddNode("left");
  const auto right = g.AddNode("right");
  const auto sink = g.AddNode("sink");
  g.AddEdge(root, left);
  g.AddEdge(root, right);
  g.AddEdge(left, sink);
  g.AddEdge(right, sink);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  StageScheduler scheduler(g, order, stages);
  std::vector<graph::NodeId> dispatched;
  while (scheduler.HasReady()) {
    const graph::NodeId v = scheduler.PopReady();
    dispatched.push_back(v);
    scheduler.MarkAvailable(v);  // 1-lane: done before the next dispatch
  }
  EXPECT_EQ(dispatched, order.sequence);
  EXPECT_TRUE(scheduler.AllDispatched());
}

TEST(StageSchedulerTest, ReadyRequiresEveryParentAvailable) {
  graph::Graph g;
  const auto a = g.AddNode("a");
  const auto b = g.AddNode("b");
  const auto c = g.AddNode("c");
  g.AddEdge(a, c);
  g.AddEdge(b, c);
  const auto order = graph::KahnTopologicalOrder(g);
  const auto stages = opt::DecomposeStages(g, order);
  StageScheduler scheduler(g, order, stages);
  EXPECT_EQ(scheduler.PopReady(), a);
  EXPECT_EQ(scheduler.PopReady(), b);
  EXPECT_FALSE(scheduler.HasReady());  // c waits for both parents
  scheduler.MarkAvailable(a);
  EXPECT_FALSE(scheduler.HasReady());
  scheduler.MarkAvailable(b);
  EXPECT_EQ(scheduler.PopReady(), c);
}

// ---------------------------------------------------------------------------
// Sequential-mode guarantee (acceptance regression test)
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Parallel execution
// ---------------------------------------------------------------------------

TEST(StageRuntimeTest, FourLanesProduceIdenticalMvsWithinBudget) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("par_profile"), FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;

  storage::ThrottledDisk disk_seq(FreshDir("par_seq"), FastDisk());
  ControllerOptions seq_options;
  seq_options.budget = budget;
  Controller sequential(&disk_seq, seq_options);
  sequential.LoadBaseTables(data);
  const RunReport seq = sequential.Run(wl, plan);
  ASSERT_TRUE(seq.ok) << seq.error;

  storage::ThrottledDisk disk_par(FreshDir("par_par"), FastDisk());
  ControllerOptions par_options;
  par_options.budget = budget;
  par_options.max_parallel_nodes = 4;
  Controller parallel(&disk_par, par_options);
  parallel.LoadBaseTables(data);
  const RunReport par = parallel.Run(wl, plan);
  ASSERT_TRUE(par.ok) << par.error;

  EXPECT_GT(par.parallel_lanes, 1);
  EXPECT_GT(par.num_stages, 0);
  EXPECT_LE(par.peak_memory, budget);
  ASSERT_EQ(par.nodes.size(),
            static_cast<std::size_t>(wl.graph.num_nodes()));
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    EXPECT_TRUE(disk_seq.ReadTable(name) == disk_par.ReadTable(name))
        << name;
  }
}

TEST(StageRuntimeTest, WideDagExecutesOnAllLanes) {
  const auto data = TinyData();
  workload::MvWorkload wl = WideWorkload(8);
  std::string error;
  ASSERT_TRUE(wl.graph.Validate(&error)) << error;

  storage::ThrottledDisk disk(FreshDir("wide"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.parallel_lanes, 4);
  EXPECT_EQ(report.num_stages, 2);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }

  // The same run with one lane yields byte-identical MV contents.
  storage::ThrottledDisk disk_seq(FreshDir("wide_seq"), FastDisk());
  Controller sequential(&disk_seq, ControllerOptions{});
  sequential.LoadBaseTables(data);
  ASSERT_TRUE(sequential.RunUnoptimized(wl).ok);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    EXPECT_TRUE(disk.ReadTable(name) == disk_seq.ReadTable(name)) << name;
  }
}

// The relaxed publish protocol decouples dispatch from the in-order
// residency replay; this asserts the replay is still exactly the
// sequential Put / lazy-release sequence: node stats (deterministic
// fields), catalog hit/miss counts, and peak memory are identical to the
// sequential loop even at 4 lanes.
TEST(StageRuntimeTest, FourLaneRelaxedPublishMatchesSequentialStats) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("relax_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());

  storage::ThrottledDisk disk_seq(FreshDir("relax_seq"), FastDisk());
  ControllerOptions seq_options;
  seq_options.budget = budget;
  Controller sequential(&disk_seq, seq_options);
  sequential.LoadBaseTables(data);
  const RunReport seq = sequential.Run(wl, plan);
  ASSERT_TRUE(seq.ok) << seq.error;

  storage::ThrottledDisk disk_par(FreshDir("relax_par"), FastDisk());
  ControllerOptions par_options;
  par_options.budget = budget;
  par_options.max_parallel_nodes = 4;
  Controller parallel(&disk_par, par_options);
  parallel.LoadBaseTables(data);
  const RunReport par = parallel.Run(wl, plan);
  ASSERT_TRUE(par.ok) << par.error;

  EXPECT_GT(par.parallel_lanes, 1);
  EXPECT_EQ(seq.peak_memory, par.peak_memory);
  EXPECT_EQ(seq.catalog_hits, par.catalog_hits);
  EXPECT_EQ(seq.catalog_misses, par.catalog_misses);
  ASSERT_EQ(seq.nodes.size(), par.nodes.size());
  for (std::size_t i = 0; i < seq.nodes.size(); ++i) {
    EXPECT_EQ(seq.nodes[i].name, par.nodes[i].name);  // publish order
    EXPECT_EQ(seq.nodes[i].output_bytes, par.nodes[i].output_bytes);
    EXPECT_EQ(seq.nodes[i].output_rows, par.nodes[i].output_rows);
    EXPECT_EQ(seq.nodes[i].output_in_memory,
              par.nodes[i].output_in_memory);
    EXPECT_EQ(seq.nodes[i].stage, par.nodes[i].stage);
  }
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    EXPECT_TRUE(disk_seq.ReadTable(name) == disk_par.ReadTable(name))
        << name;
  }
}

// Inline small-node dispatch: nodes whose estimated cost falls below
// ControllerOptions::inline_node_cost_seconds execute on the coordinator
// thread instead of a LanePool lane. The sequential-equivalence contract
// must hold with the threshold active — identical node stats, catalog
// hit/miss counts, peak memory, and MV bytes at 4 lanes — and RunReport
// must expose how many nodes were inlined. (At 1 lane the run takes the
// sequential loop, which has no handoff to skip.)
TEST(StageRuntimeTest, InlineDispatchKeepsSequentialEquivalence) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  storage::ThrottledDisk profile_disk(FreshDir("inline_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ASSERT_FALSE(opt::FlaggedNodes(plan.flags).empty());

  // Baseline: the classic sequential loop (no lanes, nothing to inline).
  storage::ThrottledDisk disk_seq(FreshDir("inline_seq"), FastDisk());
  ControllerOptions seq_options;
  seq_options.budget = budget;
  Controller sequential(&disk_seq, seq_options);
  sequential.LoadBaseTables(data);
  const RunReport seq = sequential.Run(wl, plan);
  ASSERT_TRUE(seq.ok) << seq.error;
  EXPECT_EQ(seq.inlined_nodes, 0);

  // A threshold large enough that every profiled node qualifies; the
  // whole run executes inline on the coordinator.
  for (const int lanes : {4}) {
    storage::ThrottledDisk disk_par(
        FreshDir("inline_par" + std::to_string(lanes)), FastDisk());
    ControllerOptions par_options;
    par_options.budget = budget;
    par_options.max_parallel_nodes = lanes;
    par_options.inline_node_cost_seconds = 3600.0;
    Controller parallel(&disk_par, par_options);
    parallel.LoadBaseTables(data);
    const RunReport par = parallel.Run(wl, plan);
    ASSERT_TRUE(par.ok) << par.error;

    EXPECT_EQ(par.inlined_nodes,
              static_cast<std::int64_t>(wl.graph.num_nodes()))
        << lanes;
    EXPECT_EQ(seq.peak_memory, par.peak_memory) << lanes;
    EXPECT_EQ(seq.catalog_hits, par.catalog_hits) << lanes;
    EXPECT_EQ(seq.catalog_misses, par.catalog_misses) << lanes;
    ASSERT_EQ(seq.nodes.size(), par.nodes.size());
    for (std::size_t i = 0; i < seq.nodes.size(); ++i) {
      EXPECT_EQ(seq.nodes[i].name, par.nodes[i].name);  // publish order
      EXPECT_EQ(seq.nodes[i].output_bytes, par.nodes[i].output_bytes);
      EXPECT_EQ(seq.nodes[i].output_rows, par.nodes[i].output_rows);
      EXPECT_EQ(seq.nodes[i].output_in_memory,
                par.nodes[i].output_in_memory);
    }
    for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
      const std::string& name = wl.graph.node(v).name;
      EXPECT_TRUE(disk_seq.ReadTable(name) == disk_par.ReadTable(name))
          << name;
    }
  }
}

// Morsel-driven intra-operator parallelism must be invisible in every
// observable output: with interior fan-out forced on (tiny per-morsel
// cost target, no row floor), publish order, per-node stats, and the
// MV bytes written to disk are identical to a run with morsels disabled
// — at 1 lane (the sequential loop, single-morsel) and at 4 lanes (joins
// and aggregates actually split). RunReport::morsel_tasks
// must expose the fan-out at 4 lanes.
TEST(StageRuntimeTest, MorselExecutionKeepsPublishOrderAndMvBytes) {
  const auto data = TinyData();
  workload::MvWorkload wl = workload::BuildIo1();

  // Baseline: morsels disabled entirely (target 0), classic loop.
  storage::ThrottledDisk disk_seq(FreshDir("morsel_seq"), FastDisk());
  ControllerOptions seq_options;
  seq_options.morsel_target_seconds = 0.0;
  Controller sequential(&disk_seq, seq_options);
  sequential.LoadBaseTables(data);
  const RunReport seq = sequential.RunUnoptimized(wl);
  ASSERT_TRUE(seq.ok) << seq.error;
  EXPECT_EQ(seq.morsel_tasks, 0);

  for (const int lanes : {1, 4}) {
    storage::ThrottledDisk disk_par(
        FreshDir("morsel_par" + std::to_string(lanes)), FastDisk());
    ControllerOptions par_options;
    par_options.max_parallel_nodes = lanes;
    // Every node overshoots a 1ns target, so each one gets the full
    // lane-capacity morsel budget; the row floor of 1 makes even the
    // tiny-scale tables split.
    par_options.morsel_target_seconds = 1e-9;
    par_options.morsel_min_rows = 1;
    // Pin the fan-out cap so the morsel_tasks assertions below hold on
    // single-core runners too (0 would cap at hardware concurrency).
    par_options.morsel_max_lanes = 8;
    Controller parallel(&disk_par, par_options);
    parallel.LoadBaseTables(data);
    const RunReport par = parallel.RunUnoptimized(wl);
    ASSERT_TRUE(par.ok) << par.error;

    ASSERT_EQ(seq.nodes.size(), par.nodes.size());
    for (std::size_t i = 0; i < seq.nodes.size(); ++i) {
      EXPECT_EQ(seq.nodes[i].name, par.nodes[i].name);  // publish order
      EXPECT_EQ(seq.nodes[i].output_bytes, par.nodes[i].output_bytes);
      EXPECT_EQ(seq.nodes[i].output_rows, par.nodes[i].output_rows);
    }
    EXPECT_EQ(seq.peak_memory, par.peak_memory) << lanes;
    for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
      const std::string& name = wl.graph.node(v).name;
      EXPECT_TRUE(disk_seq.ReadTable(name) == disk_par.ReadTable(name))
          << name;
    }
    if (lanes > 1) {
      EXPECT_GT(par.morsel_tasks, 0) << lanes;
    } else {
      // A 1-lane standalone run has no morsel pool: no fan-out.
      EXPECT_EQ(par.morsel_tasks, 0);
    }
  }
}

// Unprofiled nodes have unknown cost and must never be inlined — the
// wide synthetic DAG carries no execution metadata, so its parallel
// speedup path (lanes) stays intact regardless of the threshold.
TEST(StageRuntimeTest, UnknownCostNodesAreNeverInlined) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(6);
  storage::ThrottledDisk disk(FreshDir("inline_unknown"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  options.inline_node_cost_seconds = 3600.0;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.inlined_nodes, 0);
  EXPECT_EQ(report.parallel_lanes, 4);
}

// Borrowed-pool mode: back-to-back parallel runs on one shared LanePool
// reuse its lane threads instead of constructing a pool per run.
TEST(StageRuntimeTest, SharedLanePoolReusedAcrossRuns) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(8);

  LanePool pool(4);
  storage::ThrottledDisk disk(FreshDir("shared_pool"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  options.lane_pool = &pool;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);

  ASSERT_TRUE(controller.RunUnoptimized(wl).ok);
  const std::int64_t started_after_first = pool.threads_started();
  EXPECT_GE(started_after_first, 1);
  EXPECT_LE(started_after_first, 4);
  for (int i = 0; i < 3; ++i) {
    const RunReport report = controller.RunUnoptimized(wl);
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.parallel_lanes, 4);
  }
  // Zero thread construction per job in steady state.
  EXPECT_EQ(pool.threads_started(), started_after_first);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }
}

TEST(StageRuntimeTest, ParallelExecutionFailureIsReported) {
  const auto data = TinyData();
  const workload::MvWorkload wl = WideWorkload(6);
  fault::FaultInjector faults(/*seed=*/1);
  storage::ThrottledDisk disk(FreshDir("wide_fail"), FastDisk());
  ControllerOptions options;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const std::optional<graph::NodeId> victim =
      wl.graph.FindByName("wide_mv_3");
  ASSERT_TRUE(victim.has_value());
  faults.AddRule(test::FailFirstWriteOf(wl.graph, *victim));
  disk.SetFaultInjector(&faults);
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected fault"),
            std::string::npos);
  // The failure is one-shot; a rerun completes.
  EXPECT_TRUE(controller.RunUnoptimized(wl).ok);
}

TEST(StageRuntimeTest, ParallelFlaggedRunStaysWithinTightBudget) {
  const auto data = TinyData();
  workload::MvWorkload wl = WideWorkload(8);
  storage::ThrottledDisk profile_disk(FreshDir("tight_profile"),
                                      FastDisk());
  Controller profiler(&profile_disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  // Budget only big enough for a few rollups at a time: concurrent
  // lanes must not jointly overshoot it.
  std::int64_t three_largest = 0;
  std::vector<std::int64_t> sizes;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    sizes.push_back(wl.graph.node(v).size_bytes);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  for (int i = 0; i < 3 && i < static_cast<int>(sizes.size()); ++i) {
    three_largest += sizes[static_cast<std::size_t>(i)];
  }
  const std::int64_t budget = three_largest;
  const auto plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;

  storage::ThrottledDisk disk(FreshDir("tight"), FastDisk());
  ControllerOptions options;
  options.budget = budget;
  options.max_parallel_nodes = 4;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  const RunReport report = controller.Run(wl, plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(report.peak_memory, budget);
  // Base tables kept between their scans share the same bound.
  EXPECT_LE(report.resident_peak_bytes, budget);
}

// ---------------------------------------------------------------------------
// Materializer under concurrent Enqueue (single-writer FIFO channel)
// ---------------------------------------------------------------------------

TEST(MaterializerTest, ConcurrentEnqueueKeepsFifoAndDrainRacesClean) {
  storage::ThrottledDisk disk(FreshDir("mat_conc"), FastDisk());
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts({1, 2, 3}));
  auto table = std::make_shared<engine::Table>(engine::Table(
      engine::Schema({engine::Field{"x", engine::DataType::kInt64}}),
      std::move(cols)));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::shared_future<void>> futures;  // global enqueue order
  std::mutex order_mutex;
  {
    // Spare lanes: FIFO order below also proves at most one drain task
    // is ever in flight.
    LanePool pool(4);
    Materializer materializer(&disk, &pool);
    std::atomic<bool> stop{false};
    // A drainer racing the producers: Drain must never crash or wedge.
    std::thread drainer([&] {
      while (!stop.load()) materializer.Drain();
    });
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string name =
              "mat_" + std::to_string(t) + "_" + std::to_string(i);
          // Enqueue under the recording mutex so the recorded order is
          // the queue order.
          std::lock_guard<std::mutex> lock(order_mutex);
          futures.push_back(materializer.Enqueue(name, table));
        }
      });
    }
    for (auto& p : producers) p.join();
    futures.back().get();
    // Single-writer FIFO: once the last-enqueued write finished, every
    // earlier write has finished too.
    for (const auto& future : futures) {
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
    }
    materializer.Drain();
    stop.store(true);
    drainer.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(disk.Exists("mat_" + std::to_string(t) + "_" +
                              std::to_string(i)));
    }
  }
}

// Destroying the Materializer right after a burst of enqueues must not
// drop or abandon writes: the destructor returns only once the drain task
// has persisted every queued table.
TEST(MaterializerTest, DestructorWaitsForQueuedWrites) {
  storage::ThrottledDisk disk(FreshDir("mat_dtor"), FastDisk());
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts({1, 2, 3}));
  auto table = std::make_shared<engine::Table>(engine::Table(
      engine::Schema({engine::Field{"x", engine::DataType::kInt64}}),
      std::move(cols)));

  constexpr int kWrites = 32;
  LanePool pool(4);
  {
    Materializer materializer(&disk, &pool);
    for (int i = 0; i < kWrites; ++i) {
      materializer.Enqueue("mat_dtor_" + std::to_string(i), table);
    }
  }
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_TRUE(disk.Exists("mat_dtor_" + std::to_string(i))) << i;
  }
}

}  // namespace
}  // namespace sc::runtime
