#include <gtest/gtest.h>

#include <chrono>
#include <thread>

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

}  // namespace
}  // namespace sc::storage
