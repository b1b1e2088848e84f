#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "sim/lru_cache.h"
#include "storage/shared_catalog.h"

namespace sc::storage {
namespace {

using engine::Column;
using engine::DataType;
using engine::Field;
using engine::Schema;
using engine::Table;

engine::TablePtr Tiny() {
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1}));
  return std::make_shared<Table>(
      Table(Schema({Field{"x", DataType::kInt64}}), std::move(cols)));
}

TEST(SharedCatalogTest, PublishPinServe) {
  SharedCatalog catalog(100);
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 40));
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_EQ(catalog.used_bytes(), 40);
  EXPECT_EQ(catalog.pinned_bytes(), 0);

  engine::TablePtr table = catalog.Pin(1);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(catalog.pinned_bytes(), 40);
  EXPECT_EQ(catalog.hits(), 1);
  catalog.Unpin(1);
  EXPECT_EQ(catalog.pinned_bytes(), 0);
  EXPECT_EQ(catalog.Pin(2), nullptr);
  EXPECT_EQ(catalog.misses(), 1);
}

TEST(SharedCatalogTest, PublishExistingKeyKeepsFirstTable) {
  SharedCatalog catalog(100);
  engine::TablePtr first = Tiny();
  EXPECT_TRUE(catalog.Publish(7, first, 10));
  EXPECT_TRUE(catalog.Publish(7, Tiny(), 10));  // no-op refresh
  EXPECT_EQ(catalog.used_bytes(), 10);
  EXPECT_EQ(catalog.publishes(), 1);
  EXPECT_EQ(catalog.Pin(7), first);
}

/// The tenant_mix warehouse disk: 2 ms per access, 80 MB/s reads.
DiskProfile WarehouseDisk() {
  DiskProfile disk;
  disk.read_bw = 80e6;
  disk.latency = 2e-3;
  return disk;
}

TEST(SharedCatalogTest, EvictsUnpinnedLowestPriorityUnderPressure) {
  SharedCatalog catalog(100, 8, {}, WarehouseDisk());
  // Equal sizes and prices: a use raises 1 above 2, so 2 goes first.
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 40));
  catalog.Pin(1);
  catalog.Unpin(1);
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));  // evicts 2
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(2));
  EXPECT_TRUE(catalog.Contains(3));
  EXPECT_EQ(catalog.evictions(), 1);
  EXPECT_LE(catalog.used_bytes(), catalog.budget_bytes());
  // L rose to 2's H when 2 went, so 3 (one use on top of L) ranks level
  // with 1 (two uses at L = 0). On the tie the older entry goes first.
  EXPECT_TRUE(catalog.Publish(4, Tiny(), 40));
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_TRUE(catalog.Contains(3));
  EXPECT_EQ(catalog.evictions(), 2);
}

TEST(SharedCatalogTest, LowerPricePerByteGoesFirst) {
  SharedCatalog catalog(100, 8, {}, WarehouseDisk());
  // 2 is older and untouched, so LRU would evict it. But a miss of 2
  // re-reads 4 MB (52 ms), a miss of 1 only 40 bytes (2 ms), for the
  // same 40 bytes held.
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 40, false, nullptr, 4'000'000));
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 40, false, nullptr, 40));
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40, false, nullptr, 40));
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_TRUE(catalog.Contains(2));
  EXPECT_TRUE(catalog.Contains(3));
  // Price per byte, not price: a bigger entry with the same miss price
  // saves less per byte held.
  SharedCatalog sized(100, 8, {}, WarehouseDisk());
  EXPECT_TRUE(sized.Publish(1, Tiny(), 20, false, nullptr, 1000));
  EXPECT_TRUE(sized.Publish(2, Tiny(), 60, false, nullptr, 1000));
  EXPECT_TRUE(sized.Publish(3, Tiny(), 30, false, nullptr, 1000));
  EXPECT_TRUE(sized.Contains(1));
  EXPECT_FALSE(sized.Contains(2));
}

TEST(SharedCatalogTest, FrequencyProtectsAHotEntry) {
  SharedCatalog catalog(100, 8, {}, WarehouseDisk());
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 40));
  for (int i = 0; i < 3; ++i) {  // 1 is hot
    ASSERT_NE(catalog.Pin(1), nullptr);
    catalog.Unpin(1);
  }
  // 2 is used last, so LRU would evict 1.
  ASSERT_NE(catalog.Pin(2), nullptr);
  catalog.Unpin(2);
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(2));
  // A republish counts as a use too.
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(4, Tiny(), 40));
  EXPECT_TRUE(catalog.Contains(3));
  EXPECT_FALSE(catalog.Contains(1));
}

TEST(SharedCatalogTest, AgingEvictsAnOldVersionAfterItsReuseStops) {
  SharedCatalog catalog(100, 8, {}, WarehouseDisk());
  // Key 1 is a base table's old version: read by many jobs, then the
  // table is reloaded and every job reads new keys instead.
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 40));
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(catalog.Pin(1), nullptr);
    catalog.Unpin(1);
  }
  // Each later key is used once. Without aging (plain LFU), key 1's six
  // uses would outrank all of them forever; with L rising to every
  // victim's H, the newcomers overtake it within a few evictions.
  std::uint64_t key = 100;
  for (; key < 120 && catalog.Contains(1); ++key) {
    EXPECT_TRUE(catalog.Publish(key, Tiny(), 40));
  }
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_LE(key, 110u);
  EXPECT_TRUE(catalog.Contains(key - 1));
}

TEST(SharedCatalogTest, EvictTraceCarriesMissPriceAndFrequency) {
  obs::TraceRecorder trace;
  SharedCatalog catalog(100, 8, {}, WarehouseDisk());
  catalog.SetTraceRecorder(&trace);
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 60, false, nullptr, 800'000));
  ASSERT_NE(catalog.Pin(1), nullptr);
  catalog.Unpin(1);
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 60));  // evicts 1
  bool found = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.name != "evict") continue;
    found = true;
    // 2 ms + 800 KB / 80 MB/s = 12 ms; one publish plus one pin.
    EXPECT_NE(e.args_json.find("\"miss_s\":0.012000"), std::string::npos)
        << e.args_json;
    EXPECT_NE(e.args_json.find("\"freq\":2"), std::string::npos)
        << e.args_json;
  }
  EXPECT_TRUE(found);
}

// Replays one recorded tenant_mix access sequence (tests/data) through
// the shared catalog and through the paper's LRU baseline at the same
// budget. A lookup hit saves one read of the entry's stored bytes; the
// GDSF policy must save at least as many device seconds as LRU.
TEST(SharedCatalogTest, ReplayedTenantMixTraceSavesMoreDeviceTimeThanLru) {
  std::ifstream in(std::string(SC_TEST_DATA_DIR) +
                   "/tenant_mix_shared_trace.txt");
  ASSERT_TRUE(in.good());
  struct Event {
    bool publish = false;
    std::uint64_t key = 0;
    std::int64_t bytes = 0;
    std::int64_t disk_bytes = 0;
  };
  std::vector<Event> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    char op = 0;
    Event e;
    fields >> op >> e.key;
    e.publish = op == 'P';
    if (e.publish) fields >> e.bytes >> e.disk_bytes;
    events.push_back(e);
  }
  ASSERT_EQ(events.size(), 3000u);

  const DiskProfile disk = WarehouseDisk();
  constexpr std::int64_t kBudget = 4LL << 20;
  std::map<std::uint64_t, double> miss_s;  // per key, from its publish
  double lru_saved = 0.0;
  double gdsf_saved = 0.0;
  sim::LruCache lru(kBudget);
  SharedCatalog gdsf(kBudget, 8, {}, disk);
  for (const Event& e : events) {
    if (e.publish) {
      miss_s[e.key] = disk.latency + static_cast<double>(e.disk_bytes) /
                                         disk.read_bw;
      lru.Insert(static_cast<std::int64_t>(e.key), e.bytes);
      gdsf.Publish(e.key, Tiny(), e.bytes, true, nullptr, e.disk_bytes);
      continue;
    }
    if (lru.Lookup(static_cast<std::int64_t>(e.key))) {
      lru_saved += miss_s.at(e.key);
    }
    if (gdsf.Pin(e.key) != nullptr) {
      gdsf_saved += miss_s.at(e.key);
      gdsf.Unpin(e.key);
    }
    ASSERT_LE(gdsf.used_bytes(), kBudget);
  }
  EXPECT_GT(lru_saved, 0.0);
  EXPECT_GE(gdsf_saved, lru_saved);
  std::cout << "replayed " << events.size() << " accesses: LRU saved "
            << lru_saved << " s, GDSF saved " << gdsf_saved << " s\n";
}

TEST(SharedCatalogTest, PinnedEntriesNeverEvicted) {
  SharedCatalog catalog(100);
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 60));
  ASSERT_NE(catalog.Pin(1), nullptr);
  // Fits only by evicting 1 — which is pinned, so the publish fails.
  EXPECT_FALSE(catalog.Publish(2, Tiny(), 60));
  EXPECT_EQ(catalog.rejects(), 1);
  EXPECT_TRUE(catalog.Contains(1));
  // A smaller entry fits alongside the pin and may be evicted instead.
  EXPECT_TRUE(catalog.Publish(3, Tiny(), 40));
  EXPECT_TRUE(catalog.Publish(4, Tiny(), 40));  // evicts 3, not 1
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(3));
  catalog.Unpin(1);
  // Unpinned, 1 is evictable again.
  EXPECT_TRUE(catalog.Publish(5, Tiny(), 60));
  EXPECT_FALSE(catalog.Contains(1));
}

TEST(SharedCatalogTest, DurabilityTracksPublisherWrites) {
  SharedCatalog catalog(100);
  // Published while the producer's write is still in flight.
  EXPECT_TRUE(catalog.Publish(1, Tiny(), 10, /*durable=*/false));
  bool durable = true;
  ASSERT_NE(catalog.Pin(1, nullptr, true, &durable), nullptr);
  EXPECT_FALSE(durable);
  catalog.Unpin(1);
  // The write landed.
  catalog.MarkDurable(1);
  ASSERT_NE(catalog.Pin(1, nullptr, true, &durable), nullptr);
  EXPECT_TRUE(durable);
  catalog.Unpin(1);
  // Re-publishing durable content upgrades an in-flight entry.
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 10, /*durable=*/false));
  EXPECT_TRUE(catalog.Publish(2, Tiny(), 10, /*durable=*/true));
  ASSERT_NE(catalog.Pin(2, nullptr, true, &durable), nullptr);
  EXPECT_TRUE(durable);
  catalog.Unpin(2);
  catalog.MarkDurable(42);  // unknown key: no-op
}

TEST(SharedCatalogTest, OversizeAndNegativeRejected) {
  SharedCatalog catalog(100);
  EXPECT_FALSE(catalog.Publish(1, Tiny(), 101));
  EXPECT_FALSE(catalog.Publish(2, Tiny(), -1));
  EXPECT_EQ(catalog.used_bytes(), 0);
}

TEST(SharedCatalogTest, ClearDropsUnpinnedOnly) {
  SharedCatalog catalog(100);
  catalog.Publish(1, Tiny(), 30);
  catalog.Publish(2, Tiny(), 30);
  catalog.Pin(1);
  catalog.Clear();
  EXPECT_TRUE(catalog.Contains(1));
  EXPECT_FALSE(catalog.Contains(2));
  EXPECT_EQ(catalog.used_bytes(), 30);
  EXPECT_EQ(catalog.peak_bytes(), 60);  // peak survives Clear
  catalog.Unpin(1);
}

TEST(SharedCatalogTest, UnpinUnknownOrUnpinnedIsNoOp) {
  SharedCatalog catalog(100);
  catalog.Unpin(42);
  catalog.Publish(1, Tiny(), 10);
  catalog.Unpin(1);  // never pinned
  EXPECT_EQ(catalog.pinned_bytes(), 0);
  EXPECT_TRUE(catalog.Contains(1));
}

// The TSAN stress contract (ISSUE 4): concurrent Publish / Pin / Unpin
// with eviction pressure from 8 threads — the budget is never exceeded
// and a pinned entry is never evicted.
TEST(SharedCatalogTest, ConcurrentPublishPinEvictStress) {
  constexpr std::int64_t kBudget = 1000;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  SharedCatalog catalog(kBudget);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, &failed, t] {
      // Each thread owns one key it keeps pinned through the churn.
      const std::uint64_t own = 1000 + static_cast<std::uint64_t>(t);
      catalog.Publish(own, Tiny(), 50);
      engine::TablePtr pinned = catalog.Pin(own);
      for (int i = 0; i < kIters; ++i) {
        // Churn: shared keyspace across threads, sized to force
        // eviction pressure against the 1000-byte budget.
        // Mixed miss prices spread the priorities the eviction orders.
        const std::uint64_t key = static_cast<std::uint64_t>(i % 40);
        catalog.Publish(key, Tiny(), 90, false, nullptr,
                        static_cast<std::int64_t>(key % 7) * 100'000);
        if (engine::TablePtr table = catalog.Pin(key)) {
          catalog.Unpin(key);
        }
        if (catalog.used_bytes() > kBudget) failed.store(true);
        // The own key is pinned (if the initial publish fit): it must
        // never be evicted.
        if (pinned != nullptr && !catalog.Contains(own)) {
          failed.store(true);
        }
        catalog.Contains(key);
        catalog.pinned_bytes();
      }
      if (pinned != nullptr) catalog.Unpin(own);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(catalog.used_bytes(), kBudget);
  EXPECT_LE(catalog.peak_bytes(), kBudget);
  EXPECT_EQ(catalog.pinned_bytes(), 0);
  EXPECT_GT(catalog.hits() + catalog.misses(), 0);
}

TEST(SharedCatalogTest, NegativeLookupDampingCapsPerKeyMisses) {
  SharedCatalog catalog(100, /*negative_lookup_damp_limit=*/3);
  // Repeated probes of the same absent key: the first 3 count as
  // misses, the rest as damped.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(catalog.Pin(7), nullptr);
  }
  EXPECT_EQ(catalog.misses(), 3);
  EXPECT_EQ(catalog.damped_lookups(), 7);
  // A different absent key gets its own budget.
  catalog.Pin(8);
  EXPECT_EQ(catalog.misses(), 4);
  // Uncounted (speculative) probes touch neither counter.
  catalog.Pin(7, nullptr, /*count=*/false);
  EXPECT_EQ(catalog.misses(), 4);
  EXPECT_EQ(catalog.damped_lookups(), 7);
}

TEST(SharedCatalogTest, PublishOpensNewDampingEpoch) {
  SharedCatalog catalog(100, /*negative_lookup_damp_limit=*/2);
  const std::uint64_t before = catalog.epoch();
  for (int i = 0; i < 5; ++i) catalog.Pin(7);
  EXPECT_EQ(catalog.misses(), 2);
  EXPECT_EQ(catalog.damped_lookups(), 3);

  // A successful publish bumps the epoch: fresh content can turn any
  // miss into a hit, so past miss counts are forgotten.
  EXPECT_TRUE(catalog.Publish(99, Tiny(), 10));
  EXPECT_GT(catalog.epoch(), before);
  for (int i = 0; i < 5; ++i) catalog.Pin(7);
  EXPECT_EQ(catalog.misses(), 4);
  EXPECT_EQ(catalog.damped_lookups(), 6);

  // Clear also opens a new epoch.
  catalog.Clear();
  catalog.Pin(7);
  EXPECT_EQ(catalog.misses(), 5);
}

TEST(SharedCatalogTest, DampingDisabledCountsEveryMiss) {
  SharedCatalog catalog(100, /*negative_lookup_damp_limit=*/0);
  for (int i = 0; i < 10; ++i) catalog.Pin(7);
  EXPECT_EQ(catalog.misses(), 10);
  EXPECT_EQ(catalog.damped_lookups(), 0);
}

// ---------------------------------------------------------------------
// Spill/refill tier (compressed columnar residency).
// ---------------------------------------------------------------------

/// Distinguishable content per tag, with a string column so the spill
/// round-trip exercises the SCC1 dictionary pages.
engine::TablePtr Tagged(std::int64_t tag) {
  std::vector<std::int64_t> v = {tag, tag + 1, tag + 2};
  std::vector<std::string> s = {"spill_" + std::to_string(tag), "x",
                                "spill_" + std::to_string(tag)};
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(std::move(v)));
  cols.push_back(Column::FromStrings(std::move(s)));
  return std::make_shared<Table>(
      Table(Schema({Field{"v", DataType::kInt64},
                    Field{"s", DataType::kString}}),
            std::move(cols)));
}

/// Fresh empty spill directory for one test.
std::string SpillDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("sc_spill_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(SharedCatalogSpillTest, EvictSpillsAndPinRefillsBitIdentical) {
  const std::string dir = SpillDir("roundtrip");
  SharedCatalog catalog(4096, 8, SpillOptions{dir, 0});
  engine::TablePtr original = Tagged(100);
  EXPECT_TRUE(catalog.Publish(1, original, 3000));
  EXPECT_TRUE(catalog.Publish(2, Tagged(200), 3000));  // evicts + spills 1
  EXPECT_EQ(catalog.evictions(), 1);
  EXPECT_EQ(catalog.spills(), 1);
  EXPECT_GT(catalog.spill_bytes(), 0);
  EXPECT_EQ(catalog.spilled_entries(), 1u);
  // A spilled entry still counts as resident for the optimizer's
  // residency snapshot — pinning it is a refill, not a recompute.
  EXPECT_TRUE(catalog.Contains(1));
  const auto residency = catalog.ContainsAll({1, 2, 3});
  EXPECT_TRUE(residency[0]);
  EXPECT_TRUE(residency[1]);
  EXPECT_FALSE(residency[2]);

  const std::int64_t hits_before = catalog.hits();
  std::int64_t size = 0;
  engine::TablePtr refilled = catalog.Pin(1, &size);
  ASSERT_NE(refilled, nullptr);
  EXPECT_TRUE(*refilled == *original);  // bit-identical round trip
  // Refilled strings come back dictionary-encoded, so the re-admitted
  // accounted size is the compressed ByteSize.
  EXPECT_TRUE(refilled->column(1).dictionary_encoded());
  EXPECT_EQ(size, refilled->ByteSize());
  EXPECT_EQ(catalog.spill_refills(), 1);
  EXPECT_EQ(catalog.hits(), hits_before + 1);
  EXPECT_EQ(catalog.spilled_entries(), 0u);
  EXPECT_EQ(catalog.spill_bytes(), 0);
  EXPECT_GT(catalog.pinned_bytes(), 0);  // refill is born pinned
  catalog.Unpin(1);
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, PinnedEntriesAreNeverSpilled) {
  const std::string dir = SpillDir("pinned");
  SharedCatalog catalog(100, 8, SpillOptions{dir, 0});
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 60));
  ASSERT_NE(catalog.Pin(1), nullptr);
  // Fits only by evicting the pinned entry — rejected, nothing spilled.
  EXPECT_FALSE(catalog.Publish(2, Tagged(2), 60));
  EXPECT_EQ(catalog.spills(), 0);
  EXPECT_EQ(catalog.spilled_entries(), 0u);
  EXPECT_TRUE(catalog.Contains(1));
  catalog.Unpin(1);
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, QuarantinedSpillIsNeverRefilled) {
  const std::string dir = SpillDir("quarantine");
  SharedCatalog catalog(4096, 8, SpillOptions{dir, 0});
  std::uint64_t stamp = 0;
  // Non-durable: the publisher's write never landed.
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 3000, /*durable=*/false,
                              &stamp));
  EXPECT_TRUE(catalog.Publish(2, Tagged(2), 3000));  // spills 1
  EXPECT_EQ(catalog.spilled_entries(), 1u);
  // The failure-unwind path condemns the spilled entry by stamp: it must
  // vanish rather than ever be served again.
  EXPECT_TRUE(catalog.Invalidate(1, stamp));
  EXPECT_EQ(catalog.quarantines(), 1);
  EXPECT_EQ(catalog.spilled_entries(), 0u);
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_EQ(catalog.Pin(1), nullptr);
  EXPECT_EQ(catalog.spill_refills(), 0);
  // A stale stamp never condemns a spilled republish.
  std::uint64_t stamp3 = 0;
  EXPECT_TRUE(catalog.Publish(3, Tagged(3), 3000, false, &stamp3));
  EXPECT_TRUE(catalog.Publish(4, Tagged(4), 3000));  // spills 3
  EXPECT_FALSE(catalog.Invalidate(3, stamp3 + 999));
  EXPECT_TRUE(catalog.Contains(3));
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, DurableSpillIgnoresInvalidate) {
  const std::string dir = SpillDir("durable");
  SharedCatalog catalog(4096, 8, SpillOptions{dir, 0});
  std::uint64_t stamp = 0;
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 3000, /*durable=*/true,
                              &stamp));
  EXPECT_TRUE(catalog.Publish(2, Tagged(2), 3000));  // spills 1
  // The content is already on external storage: a late failure unwind
  // must not condemn it.
  EXPECT_FALSE(catalog.Invalidate(1, stamp));
  EXPECT_EQ(catalog.quarantines(), 0);
  bool durable = false;
  engine::TablePtr refilled = catalog.Pin(1, nullptr, true, &durable);
  ASSERT_NE(refilled, nullptr);
  EXPECT_TRUE(durable);  // durability survives the spill round trip
  catalog.Unpin(1);
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, SpillCapDropsOldestFiles) {
  const std::string dir = SpillDir("cap");
  // Each Tagged table compresses to ~73 bytes: a 100-byte cap holds at
  // most one spill file.
  SharedCatalog catalog(4096, 8, SpillOptions{dir, 100});
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 3000));
  EXPECT_TRUE(catalog.Publish(2, Tagged(2), 3000));  // spills 1
  EXPECT_TRUE(catalog.Publish(3, Tagged(3), 3000));  // spills 2, drops 1
  EXPECT_EQ(catalog.spills(), 2);
  EXPECT_EQ(catalog.spilled_entries(), 1u);
  EXPECT_LE(catalog.spill_bytes(), 100);
  EXPECT_FALSE(catalog.Contains(1));  // dropped: back to recompute
  EXPECT_TRUE(catalog.Contains(2));
  EXPECT_EQ(catalog.Pin(1), nullptr);
  ASSERT_NE(catalog.Pin(2), nullptr);
  catalog.Unpin(2);
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, FreshPublishSupersedesStaleSpill) {
  const std::string dir = SpillDir("supersede");
  SharedCatalog catalog(4096, 8, SpillOptions{dir, 0});
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 3000));
  EXPECT_TRUE(catalog.Publish(2, Tagged(2), 3000));  // spills 1
  EXPECT_EQ(catalog.spilled_entries(), 1u);
  // The same content republished fresh (a concurrent job recomputed it):
  // the stale spill file is dropped, the resident entry stands.
  engine::TablePtr fresh = Tagged(1);
  EXPECT_TRUE(catalog.Publish(1, fresh, 500));
  EXPECT_EQ(catalog.spilled_entries(), 0u);
  EXPECT_EQ(catalog.spill_bytes(), 0);
  EXPECT_EQ(catalog.Pin(1), fresh);
  EXPECT_EQ(catalog.spill_refills(), 0);
  catalog.Unpin(1);
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, DestructorRemovesSpillFiles) {
  const std::string dir = SpillDir("cleanup");
  {
    SharedCatalog catalog(4096, 8, SpillOptions{dir, 0});
    EXPECT_TRUE(catalog.Publish(1, Tagged(1), 3000));
    EXPECT_TRUE(catalog.Publish(2, Tagged(2), 3000));
    EXPECT_EQ(catalog.spilled_entries(), 1u);
    ASSERT_TRUE(std::filesystem::exists(dir));
    EXPECT_FALSE(std::filesystem::is_empty(dir));
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(SharedCatalogSpillTest, DisabledSpillKeepsDropSemantics) {
  SharedCatalog catalog(100);  // no spill directory
  EXPECT_TRUE(catalog.Publish(1, Tagged(1), 60));
  EXPECT_TRUE(catalog.Publish(2, Tagged(2), 60));  // plain drop of 1
  EXPECT_EQ(catalog.spills(), 0);
  EXPECT_EQ(catalog.spilled_entries(), 0u);
  EXPECT_FALSE(catalog.Contains(1));
  EXPECT_EQ(catalog.Pin(1), nullptr);
}

/// Spill-tier variant of the TSAN stress: publish/pin churn against a
/// tight budget with spilling enabled, so evict→spill, refill, and
/// supersede races all fire concurrently. The budget invariant and the
/// pinned-never-evicted contract must hold throughout.
TEST(SharedCatalogSpillTest, ConcurrentSpillRefillStress) {
  constexpr std::int64_t kBudget = 8192;
  constexpr int kThreads = 8;
  constexpr int kIters = 150;
  const std::string dir = SpillDir("stress");
  std::atomic<bool> failed{false};
  {
    SharedCatalog catalog(kBudget, 8, SpillOptions{dir, 4096});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&catalog, &failed, t] {
        for (int i = 0; i < kIters; ++i) {
          const auto key = static_cast<std::uint64_t>((t + i) % 12);
          catalog.Publish(key, Tagged(static_cast<std::int64_t>(key)),
                          1500);
          if (engine::TablePtr table = catalog.Pin(key)) {
            // Whether served resident or refilled from spill, content
            // under one key is immutable.
            if (table->num_rows() != 3) failed.store(true);
            catalog.Unpin(key);
          }
          if (catalog.used_bytes() > kBudget) failed.store(true);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_FALSE(failed.load());
    EXPECT_LE(catalog.used_bytes(), kBudget);
    EXPECT_EQ(catalog.pinned_bytes(), 0);
  }
  EXPECT_TRUE(!std::filesystem::exists(dir) ||
              std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sc::storage
