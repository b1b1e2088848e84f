#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/executor.h"
#include "fault/fault.h"

#include "opt/optimizer.h"
#include "runtime/controller.h"
#include "runtime/lane_pool.h"
#include "sim/refresh_sim.h"
#include "storage/format.h"
#include "storage/shared_catalog.h"
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
  const std::string dir = testing::TempDir() + "/sc_ctrl_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

workload::MvWorkload TinyWorkload() {
  return workload::BuildIo1();
}

std::map<std::string, engine::TablePtr> TinyData() {
  workload::DataGenOptions options;
  options.scale = 0.03;
  return workload::GenerateTpcdsData(options);
}

TEST(MaterializerTest, WritesInBackground) {
  storage::ThrottledDisk disk(FreshDir("mat"), FastDisk());
  LanePool pool(4);
  Materializer materializer(&disk, &pool);
  std::vector<engine::Column> cols;
  cols.push_back(engine::Column::FromInts({1, 2, 3}));
  auto table = std::make_shared<engine::Table>(engine::Table(
      engine::Schema({engine::Field{"x", engine::DataType::kInt64}}),
      std::move(cols)));
  auto f1 = materializer.Enqueue("t1", table);
  auto f2 = materializer.Enqueue("t2", table);
  f1.get();
  f2.get();
  EXPECT_TRUE(disk.Exists("t1"));
  EXPECT_TRUE(disk.Exists("t2"));
  materializer.Drain();
}

TEST(ControllerTest, UnoptimizedRunMaterializesAllMvs) {
  storage::ThrottledDisk disk(FreshDir("noopt"), FastDisk());
  ControllerOptions options;
  Controller controller(&disk, options);
  controller.LoadBaseTables(TinyData());
  const workload::MvWorkload wl = TinyWorkload();
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name))
        << wl.graph.node(v).name;
  }
  EXPECT_EQ(report.peak_memory, 0);
  EXPECT_EQ(report.nodes.size(),
            static_cast<std::size_t>(wl.graph.num_nodes()));
}

TEST(ControllerTest, OptimizedRunProducesIdenticalMvs) {
  // The headline correctness property: with S/C's plan the materialized
  // content of every MV is byte-identical to the unoptimized run.
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();

  storage::ThrottledDisk disk_a(FreshDir("ident_a"), FastDisk());
  Controller controller_a(&disk_a, ControllerOptions{});
  controller_a.LoadBaseTables(data);
  ASSERT_TRUE(controller_a.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 8LL * 1024 * 1024;
  const opt::Optimizer optimizer;
  const auto result = optimizer.Optimize(wl.graph, budget);
  EXPECT_FALSE(opt::FlaggedNodes(result.plan.flags).empty());

  storage::ThrottledDisk disk_b(FreshDir("ident_b"), FastDisk());
  ControllerOptions options_b;
  options_b.budget = budget;
  Controller controller_b(&disk_b, options_b);
  controller_b.LoadBaseTables(data);
  const RunReport report = controller_b.Run(wl, result.plan);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(report.peak_memory, budget);

  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    const engine::Table a = disk_a.ReadTable(name);
    const engine::Table b = disk_b.ReadTable(name);
    EXPECT_TRUE(a == b) << name;
  }
}

TEST(ControllerTest, FlaggedNodesServedFromMemory) {
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("mem"), FastDisk());
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);

  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto result = opt::Optimizer{}.Optimize(wl.graph, budget);
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  const RunReport report = controller.Run(wl, result.plan);
  ASSERT_TRUE(report.ok) << report.error;
  bool any_in_memory = false;
  for (const auto& node : report.nodes) {
    if (node.output_in_memory) any_in_memory = true;
  }
  EXPECT_TRUE(any_in_memory);
  EXPECT_GT(report.peak_memory, 0);
}

TEST(ControllerTest, RejectsInvalidPlan) {
  storage::ThrottledDisk disk(FreshDir("invalid"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  const workload::MvWorkload wl = TinyWorkload();
  opt::Plan bogus;
  bogus.order = graph::Order::FromSequence({0});  // wrong length
  bogus.flags = opt::EmptyFlags(wl.graph.num_nodes());
  const RunReport report = controller.Run(wl, bogus);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("invalid plan"), std::string::npos);
}

TEST(ControllerTest, RejectsPlanOverBudget) {
  storage::ThrottledDisk disk(FreshDir("overbudget"), FastDisk());
  workload::MvWorkload wl = TinyWorkload();
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    wl.graph.mutable_node(v).size_bytes = 100;
    wl.graph.mutable_node(v).speedup_score = 1.0;
  }
  ControllerOptions options;
  options.budget = 10;  // everything oversize
  Controller controller(&disk, options);
  opt::Plan plan;
  plan.order = graph::KahnTopologicalOrder(wl.graph);
  plan.flags = opt::MakeFlags(wl.graph.num_nodes(), {0});
  const RunReport report = controller.Run(wl, plan);
  EXPECT_FALSE(report.ok);
}

TEST(ControllerTest, MissingBaseTableFailsGracefully) {
  storage::ThrottledDisk disk(FreshDir("missing"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  // No LoadBaseTables: the first scan must fail and be reported.
  const RunReport report = controller.RunUnoptimized(TinyWorkload());
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.error.empty());
}

TEST(ControllerTest, ProfileAnnotatesMetadata) {
  storage::ThrottledDisk disk(FreshDir("profile"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(TinyData());
  workload::MvWorkload wl = TinyWorkload();
  ASSERT_TRUE(controller.ProfileAndAnnotate(&wl).ok);
  bool any_score = false;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const graph::NodeInfo& info = wl.graph.node(v);
    EXPECT_GT(info.size_bytes, 0);
    // Disk terms are priced from the warehouse file as stored.
    EXPECT_EQ(info.disk_bytes, disk.FileSize(info.name)) << info.name;
    if (info.speedup_score > 0) any_score = true;
  }
  EXPECT_TRUE(any_score);
}

TEST(ControllerTest, ProfiledReadsReproduceInSimulator) {
  // The profile counts each node's base-table reads and their file bytes
  // (every access after the first folded in as equivalent bytes), so
  // simulating the unoptimized run charges each node exactly the read
  // time of its counted accesses: one latency plus the file per parent
  // and per base-table read. Scans served from the clean tier cost and
  // count nothing.
  storage::DiskProfile profile;
  profile.read_bw = 50e6;
  profile.write_bw = 1e9;
  profile.latency = 10e-3;
  storage::ThrottledDisk disk(FreshDir("profile_sim"), profile);
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(TinyData());
  workload::MvWorkload wl = TinyWorkload();
  const RunReport report = controller.ProfileAndAnnotate(&wl);
  ASSERT_TRUE(report.ok);
  sim::SimOptions options;
  options.device.disk_read_bw = profile.read_bw;
  options.device.disk_write_bw = profile.write_bw;
  options.device.disk_latency = profile.latency;
  options.device.table_read_overhead = 0.0;
  options.device.table_write_overhead = 0.0;
  const sim::RunResult simulated = sim::SimulateNoOpt(wl.graph, options);
  for (const NodeRunStats& stats : report.nodes) {
    const graph::NodeId v = *wl.graph.FindByName(stats.name);
    double counted = stats.base_disk_reads * profile.latency +
                     static_cast<double>(stats.base_disk_bytes) /
                         profile.read_bw;
    for (const graph::NodeId p : wl.graph.parents(v)) {
      counted += profile.latency +
                 static_cast<double>(wl.graph.node(p).DiskBytes()) /
                     profile.read_bw;
    }
    EXPECT_NEAR(simulated.per_node[static_cast<std::size_t>(v)].read_seconds,
                counted, 0.5 * profile.latency)
        << stats.name;
  }
}

/// Scans of `table` across the workload's plans.
int ScansOf(const workload::MvWorkload& wl, const std::string& table) {
  int scans = 0;
  for (const engine::PlanPtr& plan : wl.plans) {
    for (const std::string& name : plan->ReferencedTables()) {
      scans += name == table ? 1 : 0;
    }
  }
  return scans;
}

TEST(ControllerTest, BaseTableStaysResidentAcrossItsScans) {
  // "item" is scanned by the three channel joins. With room in the
  // budget the first read keeps it in the clean tier until the last scan;
  // at budget 0 every scan goes to storage. Either way the MVs match.
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  ASSERT_EQ(ScansOf(wl, "item"), 3);

  storage::ThrottledDisk roomy_disk(FreshDir("clean_roomy"), FastDisk());
  Controller roomy(&roomy_disk, ControllerOptions{});
  roomy.LoadBaseTables(data);
  const RunReport with_room = roomy.RunUnoptimized(wl);
  ASSERT_TRUE(with_room.ok) << with_room.error;
  EXPECT_EQ(roomy_disk.read_count("item"), 1);
  EXPECT_GE(with_room.base_input_hits, 2);
  EXPECT_GT(with_room.resident_peak_bytes, 0);
  EXPECT_LE(with_room.resident_peak_bytes, with_room.budget);
  EXPECT_EQ(with_room.peak_memory, 0);  // no MV entered the catalog

  storage::ThrottledDisk tight_disk(FreshDir("clean_tight"), FastDisk());
  ControllerOptions tight_options;
  tight_options.budget = 0;
  Controller tight(&tight_disk, tight_options);
  tight.LoadBaseTables(data);
  const RunReport without_room = tight.RunUnoptimized(wl);
  ASSERT_TRUE(without_room.ok) << without_room.error;
  EXPECT_EQ(tight_disk.read_count("item"), 3);
  EXPECT_EQ(without_room.base_input_hits, 0);
  EXPECT_EQ(without_room.resident_peak_bytes, 0);

  // Every scan is counted once, served from either tier.
  EXPECT_EQ(with_room.base_input_hits + with_room.base_input_disk_reads,
            without_room.base_input_disk_reads);
  // The MV tier's figures do not see the clean tier.
  EXPECT_EQ(with_room.catalog_hits, without_room.catalog_hits);
  EXPECT_EQ(with_room.catalog_misses, without_room.catalog_misses);
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    EXPECT_TRUE(roomy_disk.ReadTable(name) == tight_disk.ReadTable(name))
        << name;
  }
}

TEST(ControllerTest, BackgroundMaterializationFailureIsReported) {
  const auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();
  fault::FaultInjector faults(/*seed=*/1);
  storage::ThrottledDisk disk(FreshDir("failbg"), FastDisk());
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  const std::int64_t budget = 16LL * 1024 * 1024;
  const auto result = opt::Optimizer{}.Optimize(wl.graph, budget);
  const auto flagged = opt::FlaggedNodes(result.plan.flags);
  ASSERT_FALSE(flagged.empty());
  // Fail the background write of the first flagged MV.
  faults.AddRule(test::FailFirstWriteOf(wl.graph, flagged.front()));
  disk.SetFaultInjector(&faults);
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  const RunReport report = controller.Run(wl, result.plan);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected fault"),
            std::string::npos);
}

TEST(ControllerTest, ForegroundWriteFailureIsReported) {
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  fault::FaultInjector faults(/*seed=*/1);
  storage::ThrottledDisk disk(FreshDir("failfg"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(data);
  // Unoptimized run writes every MV synchronously; fail one mid-run.
  faults.AddRule(test::FailFirstWriteOf(wl.graph, 5));
  disk.SetFaultInjector(&faults);
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("injected fault"),
            std::string::npos);
}

TEST(ControllerTest, RecoversOnRerunAfterFailure) {
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  fault::FaultInjector faults(/*seed=*/1);
  storage::ThrottledDisk disk(FreshDir("recover"), FastDisk());
  Controller controller(&disk, ControllerOptions{});
  controller.LoadBaseTables(data);
  faults.AddRule(test::FailFirstWriteOf(wl.graph, 0));
  disk.SetFaultInjector(&faults);
  EXPECT_FALSE(controller.RunUnoptimized(wl).ok);
  // The injected failure is one-shot: a rerun succeeds and materializes
  // everything.
  const RunReport report = controller.RunUnoptimized(wl);
  EXPECT_TRUE(report.ok) << report.error;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    EXPECT_TRUE(disk.Exists(wl.graph.node(v).name));
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ControllerTest, ReloadedBaseTableRewritesOnlyChangedMvs) {
  // A refresh after one base table changed: the warehouse skips exactly
  // the MV writes whose bytes did not change, and every MV still equals
  // a fresh unoptimized run over the new data.
  auto data = TinyData();
  workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("reload"), FastDisk());
  Controller profiler(&disk, ControllerOptions{});
  profiler.LoadBaseTables(data);
  ASSERT_TRUE(profiler.ProfileAndAnnotate(&wl).ok);
  const std::int64_t budget = 8LL * 1024 * 1024;
  const opt::Plan plan = opt::Optimizer{}.Optimize(wl.graph, budget).plan;
  ControllerOptions options;
  options.budget = budget;
  Controller controller(&disk, options);
  const RunReport first = controller.Run(wl, plan);
  ASSERT_TRUE(first.ok) << first.error;

  // Half the promotions: only the MVs downstream of the promotion join
  // change.
  const engine::TablePtr promotion = data.at("promotion");
  engine::MapResolver resolver({{"promotion", promotion}});
  data["promotion"] = std::make_shared<engine::Table>(engine::ExecutePlan(
      *engine::Limit(engine::Scan("promotion"),
                     static_cast<std::int64_t>(promotion->num_rows() / 2)),
      resolver));
  controller.LoadBaseTables({{"promotion", data.at("promotion")}});

  std::map<std::string, std::string> before;
  for (graph::NodeId v = 0; v < wl.graph.num_nodes(); ++v) {
    const std::string& name = wl.graph.node(v).name;
    before[name] = FileBytes(disk.root_dir() + "/" + name + ".sct");
  }
  const std::int64_t skipped_before = disk.skipped_writes();
  const RunReport second = controller.Run(wl, plan);
  ASSERT_TRUE(second.ok) << second.error;
  int changed = 0;
  int unchanged = 0;
  for (const auto& [name, bytes] : before) {
    if (FileBytes(disk.root_dir() + "/" + name + ".sct") == bytes) {
      ++unchanged;
    } else {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
  EXPECT_GT(unchanged, 0);
  EXPECT_EQ(disk.skipped_writes() - skipped_before, unchanged);

  storage::ThrottledDisk reference_disk(FreshDir("reload_ref"), FastDisk());
  Controller reference(&reference_disk, ControllerOptions{});
  reference.LoadBaseTables(data);
  ASSERT_TRUE(reference.RunUnoptimized(wl).ok);
  for (const auto& [name, bytes] : before) {
    EXPECT_TRUE(disk.ReadTable(name) == reference_disk.ReadTable(name))
        << name;
  }
}

/// `table` with its first half of rows: a reload whose bytes differ.
engine::TablePtr FirstHalf(const engine::TablePtr& table) {
  engine::MapResolver resolver({{"t", table}});
  return std::make_shared<engine::Table>(engine::ExecutePlan(
      *engine::Limit(engine::Scan("t"),
                     static_cast<std::int64_t>(table->num_rows() / 2)),
      resolver));
}

TEST(ControllerTest, SharedLayerReadsABaseTableOnceAcrossJobs) {
  // With a shared layer, the first job's read of "item" serves its other
  // scans and every later job's, until "item" is reloaded.
  auto data = TinyData();
  const workload::MvWorkload io1 = workload::BuildIo1();
  const workload::MvWorkload io2 = workload::BuildIo2();
  ASSERT_GT(ScansOf(io1, "item"), 1);
  ASSERT_GT(ScansOf(io2, "item"), 0);
  storage::ThrottledDisk disk(FreshDir("shared_base"), FastDisk());
  storage::SharedCatalog shared(64LL << 20, 8, {}, disk.profile());
  ControllerOptions options;
  options.shared_catalog = &shared;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);

  const RunReport first = controller.RunUnoptimized(io1);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(disk.read_count("item"), 1);
  EXPECT_GE(first.base_input_hits, ScansOf(io1, "item") - 1);
  EXPECT_EQ(shared.pinned_bytes(), 0);

  const RunReport second = controller.RunUnoptimized(io2);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(disk.read_count("item"), 1);  // served by the shared layer
  EXPECT_GE(second.base_input_hits, ScansOf(io2, "item"));
  EXPECT_EQ(shared.pinned_bytes(), 0);

  // A reload changes the file's version: the next job reads the table
  // again and recomputes the MVs over it instead of reusing them.
  data["item"] = FirstHalf(data.at("item"));
  controller.LoadBaseTables({{"item", data.at("item")}});
  const RunReport third = controller.RunUnoptimized(io1);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_EQ(disk.read_count("item"), 2);
  EXPECT_EQ(shared.pinned_bytes(), 0);
  EXPECT_LE(shared.peak_bytes(), shared.budget_bytes());

  storage::ThrottledDisk reference_disk(FreshDir("shared_base_ref"),
                                        FastDisk());
  Controller reference(&reference_disk, ControllerOptions{});
  reference.LoadBaseTables(data);
  ASSERT_TRUE(reference.RunUnoptimized(io1).ok);
  for (graph::NodeId v = 0; v < io1.graph.num_nodes(); ++v) {
    const std::string& name = io1.graph.node(v).name;
    EXPECT_TRUE(disk.ReadTable(name) == reference_disk.ReadTable(name))
        << name;
  }
}

TEST(ControllerTest, CorruptBaseTableIsNeverShared) {
  // A damaged base-table file fails its verified read before the shared
  // layer could take it, so no job is ever served it. Repaired, its next
  // read is shared again, under the new file's version.
  const auto data = TinyData();
  const workload::MvWorkload wl = TinyWorkload();
  storage::ThrottledDisk disk(FreshDir("corrupt_shared"), FastDisk());
  storage::SharedCatalog shared(64LL << 20, 8, {}, disk.profile());
  ControllerOptions options;
  options.shared_catalog = &shared;
  Controller controller(&disk, options);
  controller.LoadBaseTables(data);
  fault::CorruptFile(disk.root_dir() + "/item.sct",
                     {fault::CorruptKind::kBitFlip, 0.5, 0.25});
  const std::uint64_t damaged = ContentKeysFor(wl, disk).base.at("item").key;
  EXPECT_FALSE(controller.RunUnoptimized(wl).ok);
  EXPECT_FALSE(shared.Contains(damaged));
  EXPECT_EQ(shared.pinned_bytes(), 0);

  controller.LoadBaseTables({{"item", data.at("item")}});
  const std::uint64_t repaired = ContentKeysFor(wl, disk).base.at("item").key;
  EXPECT_NE(repaired, damaged);
  const RunReport report = controller.RunUnoptimized(wl);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(shared.Contains(repaired));
  EXPECT_EQ(disk.read_count("item"), 1);
}

}  // namespace
}  // namespace sc::runtime
