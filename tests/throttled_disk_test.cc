#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "storage/format.h"
#include "storage/throttled_disk.h"

namespace sc::storage {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;

Table SmallTable() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::vector<std::int64_t>(1000, 7)));
  return Table(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
}

Table Ints(std::vector<std::int64_t> values) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(values)));
  return Table(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
}

DiskProfile FastProfile() {
  DiskProfile profile;
  profile.throttle = false;
  return profile;
}

TEST(ThrottledDiskTest, WriteReadRoundTrip) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_rt", FastProfile());
  const Table t = SmallTable();
  const std::int64_t bytes = disk.WriteTable("t1", t);
  EXPECT_TRUE(disk.Exists("t1"));
  EXPECT_EQ(disk.FileSize("t1"), bytes);
  // The warehouse stores SCC1: smaller than the plain SCT1 encoding.
  EXPECT_LT(bytes, SerializedSize(t));
  const Table loaded = disk.ReadTable("t1");
  EXPECT_TRUE(loaded == t);
}

TEST(ThrottledDiskTest, RemoveAndMissing) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_rm", FastProfile());
  disk.WriteTable("t", SmallTable());
  disk.Remove("t");
  EXPECT_FALSE(disk.Exists("t"));
  EXPECT_EQ(disk.FileSize("t"), -1);
  EXPECT_THROW(disk.ReadTable("t"), std::runtime_error);
  disk.Remove("t");  // idempotent
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ThrottledDiskTest, ThrottlePadsDuration) {
  // A write is padded for the bytes it returns (~1 KB of SCC1 at
  // 20 KB/s -> ~50ms).
  DiskProfile slow;
  slow.write_bw = 20e3;
  slow.read_bw = 20e3;
  slow.latency = 0;
  slow.throttle = true;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_slow", slow);
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t bytes = disk.WriteTable("t", SmallTable());
  const double elapsed = SecondsSince(start);
  const double target = static_cast<double>(bytes) / slow.write_bw;
  EXPECT_GE(elapsed, target);
  EXPECT_GE(disk.total_write_seconds(), target);
}

TEST(ThrottledDiskTest, ReadPadsForOnDiskBytes) {
  // Reads are charged the file as stored, not the table's SCT1 size:
  // ~1 KB of SCC1 at 20 KB/s is ~50ms, where the ~8 KB SCT1 encoding
  // would take ~400ms.
  DiskProfile slow;
  slow.write_bw = 1e9;
  slow.read_bw = 20e3;
  slow.latency = 0;
  slow.throttle = true;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_readpad", slow);
  const Table t = SmallTable();
  disk.WriteTable("t", t);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(disk.ReadTable("t") == t);
  const double elapsed = SecondsSince(start);
  EXPECT_GE(elapsed, static_cast<double>(disk.FileSize("t")) / slow.read_bw);
  EXPECT_LT(elapsed,
            static_cast<double>(SerializedSize(t)) / slow.read_bw - 0.1);
}

TEST(ThrottledDiskTest, LegacySct1FileStillReads) {
  // A warehouse written before SCC1 holds plain SCT1 files under the
  // same names; reads sniff the magic and charge the file's size.
  DiskProfile slow;
  slow.write_bw = 1e9;
  slow.read_bw = 100e3;
  slow.latency = 0;
  slow.throttle = true;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_legacy", slow);
  const Table t = SmallTable();
  const std::int64_t bytes =
      WriteTableFile(t, disk.root_dir() + "/legacy.sct");
  EXPECT_EQ(disk.FileSize("legacy"), bytes);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(disk.ReadTable("legacy") == t);
  EXPECT_GE(SecondsSince(start), static_cast<double>(bytes) / slow.read_bw);
}

TEST(ThrottledDiskTest, AccumulatesTimers) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_timers", FastProfile());
  disk.WriteTable("a", SmallTable());
  disk.ReadTable("a");
  EXPECT_GT(disk.total_write_seconds(), 0.0);
  EXPECT_GT(disk.total_read_seconds(), 0.0);
}

TEST(ThrottledDiskTest, OverwriteReplacesContent) {
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_ow", FastProfile());
  disk.WriteTable("t", SmallTable());
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1}));
  const Table tiny(Schema({Field{"x", DataType::kInt64}}), std::move(cols));
  disk.WriteTable("t", tiny);
  EXPECT_EQ(disk.ReadTable("t").num_rows(), 1u);
}


TEST(ThrottledDiskTest, MultiChannelReadsOverlap) {
  // Two concurrent reads of one table on a 2-channel throttled disk
  // finish in ~one padded read time; a single channel would need two.
  DiskProfile slow;
  slow.read_bw = 1e9;
  slow.write_bw = 1e9;
  slow.latency = 0.25;  // 250ms floor per access dominates
  slow.channels = 2;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_channels", slow);
  disk.WriteTable("t", SmallTable());
  const auto start = std::chrono::steady_clock::now();
  std::thread other([&] { disk.ReadTable("t"); });
  disk.ReadTable("t");
  other.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Overlapped: well under the 500ms a single channel would need, with
  // 200ms slack for thread spawn and scheduling on loaded runners.
  EXPECT_LT(elapsed, 0.45);
}

TEST(ThrottledDiskTest, SingleChannelSerializesReads) {
  DiskProfile slow;
  slow.read_bw = 1e9;
  slow.write_bw = 1e9;
  slow.latency = 0.05;
  slow.channels = 1;
  ThrottledDisk disk(testing::TempDir() + "/sc_disk_onechan", slow);
  disk.WriteTable("t", SmallTable());
  const auto start = std::chrono::steady_clock::now();
  std::thread other([&] { disk.ReadTable("t"); });
  disk.ReadTable("t");
  other.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(elapsed, 0.095);
}

// ---------------------------------------------------------------------------
// Skipping writes whose bytes are already on disk
// ---------------------------------------------------------------------------

std::string FreshRoot(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/sc_disk_skip_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Writes `table` under `name` and returns whether the disk skipped it.
bool WriteSkipped(ThrottledDisk* disk, const std::string& name,
                  const Table& table) {
  bool skipped = false;
  disk->WriteTable(name, table, &skipped);
  return skipped;
}

TEST(ThrottledDiskTest, IdenticalRewriteIsSkippedAndNotPadded) {
  // 200 ms of access latency per landed write; a skipped one pays none.
  DiskProfile slow;
  slow.write_bw = 1e9;
  slow.read_bw = 1e9;
  slow.latency = 0.2;
  ThrottledDisk disk(FreshRoot("ident"), slow);
  const Table t = SmallTable();
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));
  const double landed_seconds = disk.total_write_seconds();
  EXPECT_GE(landed_seconds, slow.latency);

  const auto start = std::chrono::steady_clock::now();
  bool skipped = false;
  const std::int64_t bytes = disk.WriteTable("t", t, &skipped);
  EXPECT_LT(SecondsSince(start), slow.latency);
  EXPECT_TRUE(skipped);
  EXPECT_EQ(bytes, disk.FileSize("t"));
  EXPECT_EQ(disk.skipped_writes(), 1);
  EXPECT_EQ(disk.skipped_write_bytes(), bytes);
  // The channel time the skip held still counts as write time.
  EXPECT_GT(disk.total_write_seconds(), landed_seconds);
  EXPECT_LT(disk.total_write_seconds() - landed_seconds, slow.latency);
  EXPECT_TRUE(disk.ReadTable("t") == t);
}

TEST(ThrottledDiskTest, ChangedBytesAreWritten) {
  ThrottledDisk disk(FreshRoot("changed"), FastProfile());
  EXPECT_FALSE(WriteSkipped(&disk, "t", Ints({1, 2, 3})));
  // Same size, different bytes: the hash tells them apart.
  EXPECT_FALSE(WriteSkipped(&disk, "t", Ints({1, 2, 4})));
  EXPECT_TRUE(disk.ReadTable("t") == Ints({1, 2, 4}));
  EXPECT_FALSE(WriteSkipped(&disk, "t", Ints({1, 2, 3})));
  EXPECT_TRUE(disk.ReadTable("t") == Ints({1, 2, 3}));
  // The record is per name.
  EXPECT_FALSE(WriteSkipped(&disk, "u", Ints({1, 2, 3})));
  EXPECT_EQ(disk.skipped_writes(), 0);
  EXPECT_EQ(disk.skipped_write_bytes(), 0);
}

TEST(ThrottledDiskTest, RemoveClearsTheRecord) {
  ThrottledDisk disk(FreshRoot("remove"), FastProfile());
  const Table t = SmallTable();
  disk.WriteTable("t", t);
  disk.Remove("t");
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));
  EXPECT_TRUE(disk.Exists("t"));
  EXPECT_TRUE(disk.ReadTable("t") == t);
  EXPECT_TRUE(WriteSkipped(&disk, "t", t));
}

TEST(ThrottledDiskTest, OutOfBandChangeIsRepairedByIdenticalWrite) {
  // Damage done behind the disk's back, right after the write landed:
  // in place (same inode, same size for a bit flip or a torn tail) or by
  // truncation. The stat guard sees each, so the identical write lands.
  const fault::CorruptKind kinds[] = {fault::CorruptKind::kBitFlip,
                                      fault::CorruptKind::kTruncate,
                                      fault::CorruptKind::kTornRename};
  for (const fault::CorruptKind kind : kinds) {
    SCOPED_TRACE(fault::CorruptKindName(kind));
    ThrottledDisk disk(FreshRoot("oob"), FastProfile());
    const Table t = SmallTable();
    disk.WriteTable("t", t);
    fault::CorruptFile(disk.root_dir() + "/t.sct", {kind, 0.5, 0.25});
    EXPECT_FALSE(WriteSkipped(&disk, "t", t));
    EXPECT_TRUE(disk.ReadTable("t") == t);
    EXPECT_EQ(disk.skipped_writes(), 0);
  }
}

TEST(ThrottledDiskTest, WriteThroughSecondDiskIsNotSkippedOver) {
  const std::string root = FreshRoot("two_disks");
  ThrottledDisk first(root, FastProfile());
  ThrottledDisk second(root, FastProfile());
  const Table a = Ints({1, 2, 3});
  const Table b = Ints({4, 5, 6});
  first.WriteTable("t", a);
  second.WriteTable("t", b);
  EXPECT_FALSE(WriteSkipped(&first, "t", a));
  EXPECT_TRUE(first.ReadTable("t") == a);
  // Even identical bytes from the other disk are a new file to this one.
  second.WriteTable("t", a);
  EXPECT_FALSE(WriteSkipped(&first, "t", a));
  EXPECT_TRUE(WriteSkipped(&first, "t", a));
  EXPECT_TRUE(second.ReadTable("t") == a);
}

TEST(ThrottledDiskTest, CorruptReadClearsTheRecord) {
  // Damage the stat guard cannot see: flip a bit, then put the file's
  // mtime back. The identical write is (wrongly) skipped, but the
  // verified read that trips over the damage drops the record, so the
  // next identical write repairs the file.
  ThrottledDisk disk(FreshRoot("corrupt_read"), FastProfile());
  const Table t = SmallTable();
  disk.WriteTable("t", t);
  const std::string path = disk.root_dir() + "/t.sct";
  struct stat before;
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  fault::CorruptFile(path, {fault::CorruptKind::kBitFlip, 0.5, 0.25});
  const timespec times[2] = {before.st_atim, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

  EXPECT_TRUE(WriteSkipped(&disk, "t", t));
  EXPECT_THROW(disk.ReadTable("t"), CorruptFileError);
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));
  EXPECT_TRUE(disk.ReadTable("t") == t);
}

TEST(ThrottledDiskTest, InjectedWriteCorruptionIsNotRecorded) {
  ThrottledDisk disk(FreshRoot("injected"), FastProfile());
  fault::FaultInjector faults(/*seed=*/5);
  fault::FaultRule rule;
  rule.site = fault::Site::kDiskWrite;
  rule.probability = 1.0;
  rule.max_fires = 1;
  rule.corrupt = fault::CorruptKind::kBitFlip;
  faults.AddRule(rule);
  disk.SetFaultInjector(&faults);
  const Table t = SmallTable();
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));
  ASSERT_EQ(faults.total_corruptions(), 1);
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));  // lands again: a repair
  EXPECT_TRUE(disk.ReadTable("t") == t);
  EXPECT_TRUE(WriteSkipped(&disk, "t", t));
  disk.SetFaultInjector(nullptr);
}

TEST(ThrottledDiskTest, FaultProbeFiresOnWriteThatWouldBeSkipped) {
  ThrottledDisk disk(FreshRoot("probe"), FastProfile());
  const Table t = SmallTable();
  disk.WriteTable("t", t);
  fault::FaultInjector faults(/*seed=*/9);
  faults.AddRule({fault::Site::kDiskWrite, "", 0.0, /*nth_hit=*/1, 1, true});
  disk.SetFaultInjector(&faults);
  EXPECT_THROW(disk.WriteTable("t", t), fault::FaultError);
  EXPECT_EQ(faults.hits(fault::Site::kDiskWrite), 1);
  // A failed write drops the record, so the next one lands; after that,
  // skips resume — and each still counts as a hit of the probe.
  EXPECT_FALSE(WriteSkipped(&disk, "t", t));
  EXPECT_TRUE(WriteSkipped(&disk, "t", t));
  EXPECT_EQ(faults.hits(fault::Site::kDiskWrite), 3);
  EXPECT_EQ(disk.skipped_writes(), 1);
  disk.SetFaultInjector(nullptr);
}

TEST(ThrottledDiskTest, ConcurrentSameNameWritesEndOnLastLandedWrite) {
  // Eight threads write one name with two contents, and read it back,
  // on a four-channel disk. Every read sees a whole table, and when the
  // dust settles the record agrees with the file: the identical write
  // skips, the other one lands.
  DiskProfile profile = FastProfile();
  profile.channels = 4;
  ThrottledDisk disk(FreshRoot("stress"), profile);
  const Table a = Ints(std::vector<std::int64_t>(500, 1));
  const Table b = Ints(std::vector<std::int64_t>(500, 2));
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 40;
  std::atomic<int> bad_reads{0};
  std::atomic<int> skips{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < kWritesPerThread; ++k) {
        // Runs of identical writes, broken by changes.
        const Table& table = ((i + k / 3) % 2 == 0) ? a : b;
        bool skipped = false;
        disk.WriteTable("t", table, &skipped);
        if (skipped) skips.fetch_add(1);
        if (k % 4 == 0) {
          const Table read = disk.ReadTable("t");
          if (!(read == a) && !(read == b)) bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_EQ(disk.skipped_writes(), skips.load());
  EXPECT_GT(skips.load(), 0);

  const Table last = disk.ReadTable("t");
  ASSERT_TRUE(last == a || last == b);
  EXPECT_TRUE(WriteSkipped(&disk, "t", last));
  const Table& other = last == a ? b : a;
  EXPECT_FALSE(WriteSkipped(&disk, "t", other));
  // A disk with no records reads the same bytes.
  ThrottledDisk fresh(disk.root_dir(), FastProfile());
  EXPECT_TRUE(fresh.ReadTable("t") == other);
}

}  // namespace
}  // namespace sc::storage
