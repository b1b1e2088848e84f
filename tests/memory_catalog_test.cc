#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "storage/memory_catalog.h"

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

TEST(MemoryCatalogTest, PutGetRelease) {
  MemoryCatalog catalog(100);
  EXPECT_TRUE(catalog.Put("a", Tiny(), 40));
  EXPECT_NE(catalog.Get("a"), nullptr);
  EXPECT_TRUE(catalog.Contains("a"));
  EXPECT_EQ(catalog.used_bytes(), 40);
  catalog.Release("a");
  EXPECT_EQ(catalog.Get("a"), nullptr);
  EXPECT_EQ(catalog.used_bytes(), 0);
}

TEST(MemoryCatalogTest, BudgetStrictlyEnforced) {
  MemoryCatalog catalog(100);
  EXPECT_TRUE(catalog.Put("a", Tiny(), 60));
  EXPECT_FALSE(catalog.Put("b", Tiny(), 50));  // would exceed
  EXPECT_TRUE(catalog.Put("c", Tiny(), 40));   // exactly fits
  EXPECT_EQ(catalog.used_bytes(), 100);
}

TEST(MemoryCatalogTest, DuplicateNameRejected) {
  MemoryCatalog catalog(100);
  EXPECT_TRUE(catalog.Put("a", Tiny(), 10));
  EXPECT_FALSE(catalog.Put("a", Tiny(), 10));
  EXPECT_EQ(catalog.used_bytes(), 10);
}

TEST(MemoryCatalogTest, NegativeSizeRejected) {
  MemoryCatalog catalog(100);
  EXPECT_FALSE(catalog.Put("a", Tiny(), -5));
}

TEST(MemoryCatalogTest, PeakTracksHighWaterMark) {
  MemoryCatalog catalog(100);
  catalog.Put("a", Tiny(), 70);
  catalog.Release("a");
  catalog.Put("b", Tiny(), 30);
  EXPECT_EQ(catalog.peak_bytes(), 70);
  EXPECT_EQ(catalog.used_bytes(), 30);
}

TEST(MemoryCatalogTest, ReleaseUnknownIsNoOp) {
  MemoryCatalog catalog(100);
  catalog.Release("ghost");
  EXPECT_EQ(catalog.used_bytes(), 0);
}

TEST(MemoryCatalogTest, ClearDropsEverything) {
  MemoryCatalog catalog(100);
  catalog.Put("a", Tiny(), 10);
  catalog.Put("b", Tiny(), 20);
  catalog.Clear();
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.used_bytes(), 0);
  EXPECT_EQ(catalog.peak_bytes(), 30);  // peak survives Clear
}

TEST(MemoryCatalogTest, CountsHitsAndMisses) {
  MemoryCatalog catalog(100);
  catalog.Put("a", Tiny(), 10);
  EXPECT_NE(catalog.Get("a"), nullptr);
  EXPECT_NE(catalog.Get("a"), nullptr);
  EXPECT_EQ(catalog.Get("ghost"), nullptr);
  EXPECT_EQ(catalog.hits(), 2);
  EXPECT_EQ(catalog.misses(), 1);
  catalog.Clear();
  EXPECT_EQ(catalog.hits(), 2);  // counters survive Clear
}

TEST(MemoryCatalogTest, ConcurrentMixedOpsKeepAccountingConsistent) {
  MemoryCatalog catalog(10000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&catalog, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string name =
            "t" + std::to_string(t) + "_" + std::to_string(i % 10);
        if (catalog.Put(name, Tiny(), 7)) {
          catalog.Get(name);
          catalog.Release(name);
        } else {
          catalog.Get(name);
        }
        catalog.used_bytes();  // lock-free monitoring read
        catalog.peak_bytes();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(catalog.used_bytes(), 0);
  EXPECT_LE(catalog.peak_bytes(), 10000);
  EXPECT_GT(catalog.hits() + catalog.misses(), 0);
}

TEST(MemoryCatalogTest, ReservationsGateConcurrentDispatch) {
  MemoryCatalog catalog(100);
  EXPECT_TRUE(catalog.Reserve("a", 60));
  EXPECT_EQ(catalog.reserved_bytes(), 60);
  EXPECT_FALSE(catalog.Reserve("b", 50));  // 60 + 50 > budget
  EXPECT_FALSE(catalog.Reserve("a", 10));  // duplicate name
  EXPECT_FALSE(catalog.Reserve("c", -1));
  catalog.CancelReservation("a");
  catalog.CancelReservation("a");  // idempotent
  EXPECT_EQ(catalog.reserved_bytes(), 0);
  EXPECT_TRUE(catalog.Reserve("b", 50));
  // Resident bytes count against future reservations too.
  EXPECT_TRUE(catalog.Put("t", Tiny(), 40));
  EXPECT_FALSE(catalog.Reserve("c", 20));  // 40 used + 50 reserved + 20
  EXPECT_TRUE(catalog.Reserve("c", 10));
}

TEST(MemoryCatalogTest, PutEnforcesResidentBudgetNotReservations) {
  // Reservations are dispatch backpressure; Put keeps the strict
  // sequential admission semantics against resident bytes alone.
  MemoryCatalog catalog(100);
  EXPECT_TRUE(catalog.Reserve("pending", 50));
  EXPECT_TRUE(catalog.Put("t", Tiny(), 100));
  EXPECT_FALSE(catalog.Put("u", Tiny(), 1));
  EXPECT_EQ(catalog.used_bytes(), 100);
  catalog.Clear();
  EXPECT_EQ(catalog.used_bytes(), 0);
  EXPECT_EQ(catalog.reserved_bytes(), 0);  // Clear drops reservations
}

TEST(MemoryCatalogTest, ConcurrentPutsStayWithinBudget) {
  MemoryCatalog catalog(1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&catalog, t] {
      for (int i = 0; i < 50; ++i) {
        catalog.Put("t" + std::to_string(t) + "_" + std::to_string(i),
                    Tiny(), 10);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(catalog.used_bytes(), 1000);
  EXPECT_LE(catalog.peak_bytes(), 1000);
}

// ---------------------------------------------------------------------------
// Clean tier: durable tables in the budget the flagged entries leave free
// ---------------------------------------------------------------------------

TEST(MemoryCatalogCleanTest, AdmitsOnlyIntoFreeBudget) {
  MemoryCatalog catalog(100);
  ASSERT_TRUE(catalog.Put("mv", Tiny(), 50));
  ASSERT_TRUE(catalog.Reserve("next", 20));
  EXPECT_FALSE(catalog.AdmitClean("big", Tiny(), 31, 5));  // 50+20+31
  EXPECT_TRUE(catalog.AdmitClean("base", Tiny(), 30, 5));  // exactly fits
  EXPECT_FALSE(catalog.AdmitClean("more", Tiny(), 1, 9));  // no room left
  EXPECT_FALSE(catalog.AdmitClean("base", Tiny(), 1, 5));  // duplicate
  EXPECT_FALSE(catalog.AdmitClean("mv", Tiny(), 1, 5));    // flagged name
  EXPECT_FALSE(catalog.AdmitClean("neg", Tiny(), -1, 5));
  EXPECT_EQ(catalog.clean_bytes(), 30);
  EXPECT_EQ(catalog.used_bytes(), 50);  // MV accounting untouched
  EXPECT_EQ(catalog.peak_bytes(), 50);
  EXPECT_EQ(catalog.resident_peak_bytes(), 80);
  // Served without touching the MV tier's lookup counters.
  EXPECT_NE(catalog.GetClean("base"), nullptr);
  EXPECT_EQ(catalog.GetClean("mv"), nullptr);
  EXPECT_EQ(catalog.Get("base"), nullptr);
  EXPECT_FALSE(catalog.Contains("base"));
  EXPECT_EQ(catalog.hits(), 0);
  EXPECT_EQ(catalog.misses(), 1);
}

TEST(MemoryCatalogCleanTest, FarthestNextUseDropsFirst) {
  MemoryCatalog catalog(100);
  ASSERT_TRUE(catalog.AdmitClean("soon", Tiny(), 40, 2));
  ASSERT_TRUE(catalog.AdmitClean("late", Tiny(), 40, 9));
  // Room for a newcomer is made only from entries read after it.
  EXPECT_FALSE(catalog.AdmitClean("later", Tiny(), 30, 10));
  EXPECT_TRUE(catalog.AdmitClean("mid", Tiny(), 30, 5));  // drops "late"
  EXPECT_EQ(catalog.GetClean("late"), nullptr);
  EXPECT_NE(catalog.GetClean("soon"), nullptr);
  // Once "soon"'s reader has passed, its next use (7) lies beyond
  // "mid"'s (5): a flagged Put that needs room drops it, and dropping
  // it alone is enough.
  catalog.SetCleanNextUse("soon", 7);
  ASSERT_TRUE(catalog.Put("mv", Tiny(), 60));
  EXPECT_EQ(catalog.GetClean("soon"), nullptr);
  EXPECT_NE(catalog.GetClean("mid"), nullptr);
  EXPECT_EQ(catalog.clean_bytes(), 30);
}

TEST(MemoryCatalogCleanTest, PutAndReserveIgnoreCleanEntries) {
  // The same Put/Reserve/Release script against a catalog with and one
  // without clean entries: every outcome and every MV-tier figure must
  // match, and the clean tier must never push residency over budget.
  constexpr std::int64_t kBudget = 1000;
  MemoryCatalog plain(kBudget);
  MemoryCatalog mixed(kBudget);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> op(0, 5);
  std::uniform_int_distribution<std::int64_t> bytes(0, 400);
  std::uniform_int_distribution<int> slot(0, 7);
  for (int step = 0; step < 2000; ++step) {
    const std::string name = "n" + std::to_string(slot(rng));
    const std::int64_t size = bytes(rng);
    switch (op(rng)) {
      case 0:
      case 1:
        ASSERT_EQ(plain.Put(name, Tiny(), size),
                  mixed.Put(name, Tiny(), size))
            << step;
        break;
      case 2: {
        const bool granted = plain.Reserve(name, size);
        ASSERT_EQ(granted, mixed.Reserve(name, size)) << step;
        // A granted reservation has its room free of clean entries.
        if (granted) {
          ASSERT_LE(mixed.used_bytes() + mixed.reserved_bytes() +
                        mixed.clean_bytes(),
                    kBudget)
              << step;
        }
        break;
      }
      case 3:
        plain.CancelReservation(name);
        mixed.CancelReservation(name);
        break;
      case 4:
        plain.Release(name);
        mixed.Release(name);
        break;
      default:
        mixed.AdmitClean("base" + std::to_string(slot(rng)), Tiny(), size,
                         step + slot(rng));
        break;
    }
    ASSERT_EQ(plain.used_bytes(), mixed.used_bytes()) << step;
    ASSERT_EQ(plain.reserved_bytes(), mixed.reserved_bytes()) << step;
    ASSERT_LE(mixed.used_bytes() + mixed.clean_bytes(), kBudget) << step;
  }
  EXPECT_GT(mixed.resident_peak_bytes(), mixed.peak_bytes());
  EXPECT_LE(mixed.resident_peak_bytes(), kBudget);
  EXPECT_EQ(plain.peak_bytes(), mixed.peak_bytes());
  EXPECT_EQ(plain.reserve_denials(), mixed.reserve_denials());
  EXPECT_EQ(plain.resident_peak_bytes(), plain.peak_bytes());
}

TEST(MemoryCatalogCleanTest, ReleaseDropsCleanEntry) {
  MemoryCatalog catalog(100);
  ASSERT_TRUE(catalog.AdmitClean("base", Tiny(), 40, 3));
  catalog.Release("base");
  EXPECT_EQ(catalog.GetClean("base"), nullptr);
  EXPECT_EQ(catalog.clean_bytes(), 0);
  EXPECT_TRUE(catalog.Put("mv", Tiny(), 100));  // all of it is free again
  ASSERT_TRUE(catalog.AdmitClean("other", Tiny(), 0, 1));
  catalog.Clear();
  EXPECT_EQ(catalog.GetClean("other"), nullptr);
  EXPECT_EQ(catalog.resident_peak_bytes(), 100);  // survives Clear
}

// ---------------------------------------------------------------------------
// Per-job view over the cross-job SharedCatalog (PR 4)
// ---------------------------------------------------------------------------

TEST(MemoryCatalogViewTest, PutPublishesUnderBoundKey) {
  SharedCatalog shared(1000);
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  EXPECT_TRUE(view.Put("mv", Tiny(), 40));
  EXPECT_TRUE(shared.Contains(7));
  // Unbound names stay private.
  EXPECT_TRUE(view.Put("private", Tiny(), 40));
  EXPECT_EQ(shared.size(), 1u);
  // Private release keeps the shared copy resident.
  view.Release("mv");
  EXPECT_TRUE(shared.Contains(7));
  EXPECT_EQ(view.used_bytes(), 40);
}

TEST(MemoryCatalogViewTest, GetFallsThroughToSharedAndPins) {
  SharedCatalog shared(1000);
  engine::TablePtr table = Tiny();
  const std::int64_t size = table->ByteSize();
  ASSERT_TRUE(shared.Publish(7, table, size));

  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  // Cross-job hit: served from the shared layer, pinned, counted.
  EXPECT_EQ(view.Get("mv"), table);
  EXPECT_EQ(view.hits(), 1);
  EXPECT_EQ(view.cross_job_hits(), 1);
  EXPECT_EQ(view.cross_job_bytes_saved(), size);
  EXPECT_EQ(view.pinned_shared_bytes(), size);
  EXPECT_EQ(shared.pinned_bytes(), size);
  // Repeat reads are served from the retained pin and keep counting.
  EXPECT_EQ(view.Get("mv"), table);
  EXPECT_EQ(view.cross_job_hits(), 2);
  EXPECT_EQ(view.cross_job_bytes_saved(), 2 * size);
  // Unbound or absent names miss as before.
  EXPECT_EQ(view.Get("ghost"), nullptr);
  EXPECT_EQ(view.misses(), 1);
  // Last-consumer release: a single name's pin drops mid-run, the rest
  // stay held.
  view.BindSharedKey("mv2", 8);
  ASSERT_TRUE(shared.Publish(8, Tiny(), size));
  ASSERT_NE(view.Get("mv2"), nullptr);
  view.UnpinShared("mv");
  view.UnpinShared("mv");  // idempotent
  EXPECT_EQ(view.pinned_shared_bytes(), size);  // mv2 still held
  // End of run: pins drop, the entry becomes evictable again.
  view.UnpinShared();
  EXPECT_EQ(shared.pinned_bytes(), 0);
}

TEST(MemoryCatalogViewTest, PinSharedOutputReusesResidentContent) {
  SharedCatalog shared(1000);
  engine::TablePtr table = Tiny();
  ASSERT_TRUE(shared.Publish(7, table, table->ByteSize()));
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  view.BindSharedKey("missing", 8);
  EXPECT_EQ(view.PinSharedOutput("mv"), table);
  EXPECT_EQ(view.cross_job_hits(), 1);
  // Absent content is not a miss — the node simply executes.
  EXPECT_EQ(view.PinSharedOutput("missing"), nullptr);
  EXPECT_EQ(view.misses(), 0);
}

TEST(MemoryCatalogViewTest, PinSharedInputCountsNothing) {
  SharedCatalog shared(1000);
  ASSERT_TRUE(shared.Publish(7, Tiny(), 10));
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  EXPECT_TRUE(view.PinSharedInput("mv"));
  EXPECT_EQ(view.hits(), 0);
  EXPECT_EQ(view.cross_job_hits(), 0);
  EXPECT_EQ(shared.pinned_bytes(), 10);
  // The later read through Get() does the counting.
  EXPECT_NE(view.Get("mv"), nullptr);
  EXPECT_EQ(view.cross_job_hits(), 1);
  EXPECT_FALSE(view.PinSharedInput("unbound"));
}

TEST(MemoryCatalogViewTest, DestructorDropsPinsAndFiresListener) {
  SharedCatalog shared(1000);
  ASSERT_TRUE(shared.Publish(7, Tiny(), 10));
  std::vector<std::tuple<std::uint64_t, std::int64_t, bool>> events;
  {
    MemoryCatalog view(100, &shared);
    view.BindSharedKey("mv", 7);
    view.SetSharedPinListener(
        [&events](std::uint64_t key, std::int64_t bytes, bool pinned) {
          events.emplace_back(key, bytes, pinned);
        });
    EXPECT_NE(view.Get("mv"), nullptr);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], std::make_tuple(std::uint64_t{7},
                                         std::int64_t{10}, true));
    // A second read reuses the retained pin: no new event.
    EXPECT_NE(view.Get("mv"), nullptr);
    EXPECT_EQ(events.size(), 1u);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1], std::make_tuple(std::uint64_t{7},
                                       std::int64_t{10}, false));
  EXPECT_EQ(shared.pinned_bytes(), 0);
}

TEST(MemoryCatalogViewTest, DurabilityFlowsThroughTheView) {
  SharedCatalog shared(1000);
  MemoryCatalog producer(100, &shared);
  producer.BindSharedKey("mv", 7);
  // Flagged-output publish (via Put): write still in flight.
  ASSERT_TRUE(producer.Put("mv", Tiny(), 10));
  MemoryCatalog reader(100, &shared);
  reader.BindSharedKey("mv", 7);
  bool durable = true;
  ASSERT_NE(reader.PinSharedOutput("mv", &durable), nullptr);
  EXPECT_FALSE(durable);  // the reusing job must write its own copy
  reader.UnpinShared();
  // The producer's materialization lands.
  producer.MarkSharedDurable("mv");
  MemoryCatalog late_reader(100, &shared);
  late_reader.BindSharedKey("mv", 7);
  ASSERT_NE(late_reader.PinSharedOutput("mv", &durable), nullptr);
  EXPECT_TRUE(durable);
  // PublishShared (unflagged outputs, written before their slot) is
  // durable from the start.
  MemoryCatalog unflagged(100, &shared);
  unflagged.BindSharedKey("u", 8);
  ASSERT_TRUE(unflagged.PublishShared("u", Tiny(), 10));
  MemoryCatalog u_reader(100, &shared);
  u_reader.BindSharedKey("u", 8);
  ASSERT_NE(u_reader.PinSharedOutput("u", &durable), nullptr);
  EXPECT_TRUE(durable);
}

TEST(MemoryCatalogViewTest, ReadingOwnPublishedOutputIsNotCrossJob) {
  SharedCatalog shared(1000);
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  int pin_events = 0;
  view.SetSharedPinListener(
      [&pin_events](std::uint64_t, std::int64_t, bool) { ++pin_events; });
  engine::TablePtr table = Tiny();
  // An unflagged output published by this very view (PublishShared).
  ASSERT_TRUE(view.PublishShared("mv", table, table->ByteSize()));
  // Reading it back is a memory-speed hit but not cross-job service:
  // no gauge movement, no tenant charge.
  EXPECT_EQ(view.Get("mv"), table);
  EXPECT_EQ(view.hits(), 1);
  EXPECT_EQ(view.cross_job_hits(), 0);
  EXPECT_EQ(view.cross_job_bytes_saved(), 0);
  EXPECT_EQ(pin_events, 0);
  // A different view of the same shared layer *does* count it.
  MemoryCatalog other(100, &shared);
  other.BindSharedKey("mv", 7);
  EXPECT_EQ(other.Get("mv"), table);
  EXPECT_EQ(other.cross_job_hits(), 1);
}

TEST(MemoryCatalogViewTest, WithoutSharedLayerBehavesAsBefore) {
  MemoryCatalog catalog(100);
  catalog.BindSharedKey("mv", 7);  // binding without a layer is inert
  EXPECT_TRUE(catalog.Put("mv", Tiny(), 40));
  EXPECT_EQ(catalog.PinSharedOutput("mv"), nullptr);
  // Nothing can be pinned without a shared layer (lock-free fast path).
  EXPECT_FALSE(catalog.PinSharedInput("ghost"));
  EXPECT_FALSE(catalog.PinSharedInput("mv"));
  EXPECT_EQ(catalog.cross_job_hits(), 0);
  EXPECT_EQ(catalog.pinned_shared_bytes(), 0);
}

TEST(MemoryCatalogViewTest, PutReleasesSelfOutputPin) {
  // A reused output that the job then Puts privately is funded by the
  // grant: the cross-job pin (and its tenant charge) must drop.
  SharedCatalog shared(1000);
  engine::TablePtr table = Tiny();
  const std::int64_t size = table->ByteSize();
  ASSERT_TRUE(shared.Publish(7, table, size));
  std::vector<std::tuple<std::uint64_t, std::int64_t, bool>> events;
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("mv", 7);
  view.SetSharedPinListener(
      [&events](std::uint64_t key, std::int64_t bytes, bool pinned) {
        events.emplace_back(key, bytes, pinned);
      });
  engine::TablePtr reused = view.PinSharedOutput("mv");
  ASSERT_EQ(reused, table);
  EXPECT_EQ(shared.pinned_bytes(), size);
  ASSERT_TRUE(view.Put("mv", reused, size));
  EXPECT_EQ(shared.pinned_bytes(), 0);
  EXPECT_EQ(view.pinned_shared_bytes(), 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(std::get<2>(events[1]));  // unpin fired
  // Reads now hit the private entry.
  EXPECT_EQ(view.Get("mv"), table);
  EXPECT_EQ(view.cross_job_hits(), 1);  // only the reuse itself
}

TEST(MemoryCatalogViewTest, BaseTablesTakeTheirOwnPath) {
  SharedCatalog shared(1000);
  MemoryCatalog view(100, &shared);
  view.BindSharedKey("t", 9, /*disk_bytes=*/20, /*base=*/true);
  std::vector<std::tuple<std::uint64_t, std::int64_t, bool>> events;
  view.SetSharedPinListener(
      [&events](std::uint64_t key, std::int64_t bytes, bool pinned) {
        events.emplace_back(key, bytes, pinned);
      });
  EXPECT_EQ(view.PinSharedBase("t"), nullptr);  // not resident yet
  engine::TablePtr read = Tiny();
  ASSERT_TRUE(view.PublishSharedBase("t", read, 10));
  EXPECT_TRUE(shared.Contains(9));
  EXPECT_EQ(shared.pinned_bytes(), 10);
  // Every base pin is charged: no private grant funds a base table.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], std::make_tuple(std::uint64_t{9},
                                       std::int64_t{10}, true));
  // Later scans reuse the held pin.
  EXPECT_EQ(view.PinSharedBase("t"), read);
  EXPECT_EQ(events.size(), 1u);
  // Get() never serves a base table: base scans count as misses.
  EXPECT_EQ(view.Get("t"), nullptr);
  EXPECT_EQ(view.hits(), 0);
  EXPECT_EQ(view.misses(), 1);
  EXPECT_EQ(view.cross_job_hits(), 0);
  // The last scan drops the pin.
  view.UnpinShared("t");
  EXPECT_EQ(shared.pinned_bytes(), 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(std::get<2>(events[1]));

  // Another job's view pins the shared table instead of reading it.
  MemoryCatalog other(100, &shared);
  other.BindSharedKey("t", 9, 20, /*base=*/true);
  EXPECT_EQ(other.PinSharedBase("t"), read);
  EXPECT_EQ(shared.pinned_bytes(), 10);
  // An MV binding never goes through the base path.
  other.BindSharedKey("mv", 7);
  EXPECT_FALSE(other.PublishSharedBase("mv", Tiny(), 10));
}

}  // namespace
}  // namespace sc::storage
