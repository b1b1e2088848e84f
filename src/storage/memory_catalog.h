#ifndef SC_STORAGE_MEMORY_CATALOG_H_
#define SC_STORAGE_MEMORY_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "engine/table.h"
#include "storage/shared_catalog.h"

namespace sc::storage {

/// The Memory Catalog (paper §III): a budget-enforced in-memory table
/// store. Flagged node outputs are created here; downstream reads are
/// served at memory speed; entries are released once every dependent node
/// has consumed them and the background materialization finished.
///
/// It is also the *per-job view* onto the cross-job SharedCatalog:
/// constructed with a SharedCatalog, the name-keyed API becomes a name →
/// content-key binding layer (BindSharedKey) over the content-keyed
/// shared store, for MV outputs and base tables alike. The private budget
/// accounting is untouched — a job's own flagged outputs charge its
/// granted budget exactly as in the sequential paper semantics — and the
/// shared layer is additive:
///
///  - Put() additionally publishes the output under its bound content
///    key, making it readable by concurrent jobs.
///  - Get() falls through, on a private miss, to pinning the bound MV
///    entry in the shared layer: a *cross-job hit*, served at memory
///    speed and held pinned (unevictable) until UnpinShared()/Clear()/
///    destruction.
///  - PinSharedOutput() checks whether the node's *own* output is
///    already resident cross-job — if so the caller reuses it outright
///    instead of recomputing.
///  - Base tables take their own path: PinSharedBase() serves a scan from
///    the shared layer and PublishSharedBase() shares a table just read
///    from storage; both hold the pin until UnpinShared(name). Get()
///    never serves a base table, so base scans keep counting as misses.
///  - With a shared layer the clean tier (below) only holds base tables
///    the shared layer rejected.
///
/// Without a SharedCatalog the behaviour is bit-identical to the
/// pre-sharing catalog (the 1-lane equivalence contract of
/// stage_runtime_test).
///
/// Thread-safe: map mutations are mutex-guarded; byte usage, high-water
/// mark, and hit/miss counters are atomics so that monitoring reads
/// (used_bytes(), peak_bytes(), hits(), misses()) never contend with
/// concurrent Put/Get/Release from refresh workers.
///
/// Put() enforces the budget strictly: the Controller (and the optimizer's
/// feasibility guarantee) must release entries before creating new ones,
/// so a failed Put is a plan bug, not a runtime condition to paper over.
///
/// Clean tier: besides the flagged (dirty until materialized) entries,
/// the catalog holds already-durable tables — base inputs the run will
/// read again — in whatever budget the flagged entries and reservations
/// leave free. A clean entry never changes a Put or Reserve outcome: it
/// is admitted only while MV + clean + reserved + size <= budget, and
/// Put/Reserve drop clean entries (farthest next use first, Belady's
/// rule) whenever that is what it takes to succeed. Nothing waits on the
/// Materializer to drop one — its bytes are on disk already. Clean
/// entries count in resident_peak_bytes(), never in used_bytes(),
/// peak_bytes(), hits() or misses().
class MemoryCatalog {
 public:
  /// Observes cross-job pin lifecycle: (content key, bytes, pinned).
  /// The RefreshService charges pinned shared bytes to the reading
  /// tenant's quota through this hook.
  using SharedPinListener =
      std::function<void(std::uint64_t, std::int64_t, bool)>;

  explicit MemoryCatalog(std::int64_t budget_bytes,
                         SharedCatalog* shared = nullptr);
  /// Releases every cross-job pin still held.
  ~MemoryCatalog();

  MemoryCatalog(const MemoryCatalog&) = delete;
  MemoryCatalog& operator=(const MemoryCatalog&) = delete;

  /// Binds `name` to its content key in the shared layer. Only bound
  /// names participate in cross-job publish/pin. `disk_bytes` is what one
  /// read of the content from storage moves; it prices the entry's misses
  /// (SharedCatalog::Publish). `base` marks a base table, served only
  /// through PinSharedBase / PublishSharedBase. Call before the run
  /// starts; not synchronized against concurrent Put/Get.
  void BindSharedKey(const std::string& name, std::uint64_t key,
                     std::int64_t disk_bytes = 0, bool base = false);

  /// Installs the pin observer. Call before the run starts.
  void SetSharedPinListener(SharedPinListener listener);

  /// Inserts `table` under `name`, accounting `size` bytes (callers pass
  /// the table's in-memory footprint). Returns false if the entry would
  /// exceed the budget or the name already exists. With a shared layer,
  /// a successful Put also publishes the table under `name`'s bound
  /// content key (unpinned, evictable — never charged to this job's
  /// private budget twice).
  bool Put(const std::string& name, engine::TablePtr table,
           std::int64_t size);

  /// Clean-tier admission of `table` (already durable on external
  /// storage) under `name`, whose next reader sits at plan position
  /// `next_use`. Succeeds only into free budget (MV + clean + reserved +
  /// `size` <= budget), making room by dropping clean entries whose next
  /// use lies farther than `next_use` — never a flagged entry or a
  /// reservation. Returns false (admitting nothing, dropping nothing)
  /// when that cannot fit it, when `size` is negative, or when `name` is
  /// already resident in either tier.
  bool AdmitClean(const std::string& name, engine::TablePtr table,
                  std::int64_t size, std::int64_t next_use);

  /// Returns the clean entry under `name`, or nullptr. Counts nothing.
  engine::TablePtr GetClean(const std::string& name) const;

  /// Moves a clean entry's next use (plan position of its next reader).
  /// No-op if `name` holds no clean entry.
  void SetCleanNextUse(const std::string& name, std::int64_t next_use);

  /// Returns the table or nullptr if not resident. Counts a hit or miss.
  /// With a shared layer, a private miss falls through to the cross-job
  /// store: a resident bound entry is pinned, retained for the rest of
  /// the run, counted as a hit *and* a cross-job hit, and its bytes
  /// added to cross_job_bytes_saved() on every read it serves.
  engine::TablePtr Get(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// Releases `name` from whichever tier holds it, freeing its bytes.
  /// No-op if absent. The shared copy (if published) stays — cross-job
  /// residency outlives the producing job's private residency.
  void Release(const std::string& name);

  /// Cross-job output reuse: if `name`'s bound content key is resident
  /// in the shared layer, pins it, retains the pin for the rest of the
  /// run, counts a (cross-job) hit, and returns the table — the caller
  /// skips recomputing the node. `durable` (optional) receives whether
  /// the content is known to be on external storage (callers that skip
  /// their own write must check it). Returns nullptr without a shared
  /// layer, binding, or resident entry (no miss counted: the node is
  /// then simply executed).
  /// `bytes` (optional) receives the entry's accounted size, saving the
  /// caller a full-table ByteSize() walk on the reuse hot path.
  engine::TablePtr PinSharedOutput(const std::string& name,
                                   bool* durable = nullptr,
                                   std::int64_t* bytes = nullptr);

  /// Publishes `table` into the cross-job layer under `name`'s bound
  /// content key without touching the private, budget-charged entries —
  /// used for unflagged outputs, which are computed anyway and may serve
  /// other jobs. The caller guarantees the content is already on
  /// external storage (unflagged outputs write synchronously before
  /// their publish slot), so the entry is marked durable. No-op
  /// (returns false) without a shared layer or binding, or when the
  /// shared layer rejects the entry.
  bool PublishShared(const std::string& name,
                     const engine::TablePtr& table, std::int64_t size);

  /// Base-table scan served by the shared layer: pins `name`'s bound
  /// base entry for this view (once; later calls reuse the pin) and
  /// returns it, or nullptr when it is not resident. The pin is charged
  /// through the listener and held until UnpinShared(name). Counts a
  /// shared-layer hit or miss, nothing in this view.
  engine::TablePtr PinSharedBase(const std::string& name);

  /// Shares base table `table`, just read from storage, under `name`'s
  /// bound key (durable: it came from storage) and pins it for this view
  /// as PinSharedBase does. Returns false, holding nothing, without a
  /// shared layer or base binding, or when the shared layer rejects it.
  bool PublishSharedBase(const std::string& name,
                         const engine::TablePtr& table, std::int64_t size);

  /// Records that `name`'s published content reached external storage
  /// (its background materialization completed). No-op without a shared
  /// layer or binding.
  void MarkSharedDurable(const std::string& name);

  /// Failure unwind for an optimistic publish: condemns the shared entry
  /// this view published for `name` (stamp-guarded, see
  /// SharedCatalog::Invalidate) because its materialization failed or
  /// was cancelled before the write landed. A later republish or an
  /// already-durable entry is untouched. Returns true when an entry was
  /// quarantined.
  bool QuarantineShared(const std::string& name);

  /// Dispatch-time pin: ensures `name`'s bound shared entry (if any) is
  /// pinned by this view so it cannot be evicted between a scheduling
  /// decision and the read. Counts nothing; reads through Get() do the
  /// counting. Returns true if the entry is pinned after the call or
  /// privately resident; always false (without locking) when the view
  /// has no shared layer.
  bool PinSharedInput(const std::string& name);

  /// Drops every cross-job pin held by this view (end of run).
  void UnpinShared();

  /// Drops the single cross-job pin held for `name` — the run's last
  /// consumer of that input finished, so the entry becomes evictable
  /// again (and the tenant's charge is released) before the run ends.
  /// No-op if `name` holds no pin.
  void UnpinShared(const std::string& name);

  /// Reservation API for the parallel runtime: earmarks `bytes` for a
  /// future Put of `name` so concurrently *executing* nodes cannot
  /// jointly overshoot the budget while their outputs are still being
  /// produced. Returns false if resident + reserved + `bytes` would
  /// exceed the budget, if `bytes` is negative, or if `name` already
  /// holds a reservation. Reservations gate dispatch only: Put itself
  /// keeps enforcing the budget against resident bytes alone, so the
  /// sequential admission semantics (lazy release until Put fits) are
  /// unchanged. Callers cancel the reservation before the final Put —
  /// the actual output size replaces the estimate — or on failure.
  bool Reserve(const std::string& name, std::int64_t bytes);

  /// Drops `name`'s reservation. No-op if absent.
  void CancelReservation(const std::string& name);

  /// Sum of outstanding reservations (not counted in used_bytes()).
  std::int64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }

  /// Denied Reserve() calls — how often the parallel runtime's dispatch
  /// was backpressured to keep in-flight flagged outputs within the
  /// budget. Monitoring only; survives Clear().
  std::int64_t reserve_denials() const {
    return reserve_denials_.load(std::memory_order_relaxed);
  }

  std::int64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  std::int64_t budget_bytes() const { return budget_; }
  /// High-water mark of used_bytes over the catalog's lifetime.
  std::int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  /// Bytes of clean-tier entries (not counted in used_bytes()).
  std::int64_t clean_bytes() const {
    return clean_.load(std::memory_order_relaxed);
  }
  /// High-water mark of used_bytes + clean_bytes: everything resident,
  /// never above the budget.
  std::int64_t resident_peak_bytes() const {
    return resident_peak_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

  /// Lookup counters: a hit is a Get() served from memory, a miss a Get()
  /// that fell through to external storage. Survive Clear().
  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Cross-job counters (subset of hits): resolutions and whole-output
  /// reuses served from the SharedCatalog, and the bytes those served
  /// in place of disk reads or recomputation. Survive Clear().
  std::int64_t cross_job_hits() const {
    return cross_job_hits_.load(std::memory_order_relaxed);
  }
  std::int64_t cross_job_bytes_saved() const {
    return cross_job_bytes_saved_.load(std::memory_order_relaxed);
  }
  /// Shared-layer bytes currently pinned by this view.
  std::int64_t pinned_shared_bytes() const;

  /// Drops all entries and cross-job pins (end of a refresh run).
  void Clear();

 private:
  struct Entry {
    engine::TablePtr table;
    std::int64_t size;
    /// Clean tier only: plan position of the entry's next reader.
    std::int64_t next_use = 0;
  };
  struct Binding {
    std::uint64_t key = 0;
    std::int64_t disk_bytes = 0;
    bool base = false;
  };
  struct SharedPin {
    std::uint64_t key = 0;
    engine::TablePtr table;
    std::int64_t size = 0;
    /// The pin was reported through the listener (cross-job content);
    /// pins of the job's own published outputs are never charged.
    bool charged = false;
    /// Pin-time durability snapshot (content known to be on disk).
    bool durable = false;
  };

  /// Serves MV `name` from the cross-job layer (already-pinned first,
  /// then a fresh shared pin), counting `count_hit` ? hit+cross-job
  /// stats : nothing. `durable` (optional) receives the entry's pin-time
  /// durability. Returns nullptr when unavailable. Takes mutex_; fires
  /// the pin listener outside it.
  engine::TablePtr SharedLookup(const std::string& name, bool count_hit,
                                bool* durable = nullptr,
                                std::int64_t* bytes = nullptr) const;

  /// Drops clean entries, farthest next use first, until `other` bytes
  /// plus the clean tier fit the budget. Requires mutex_.
  void DropCleanToFit(std::int64_t other);
  /// Raises the resident high-water mark to the current MV + clean
  /// bytes. Requires mutex_.
  void NoteResident();

  const std::int64_t budget_;
  SharedCatalog* const shared_;  // not owned; may be null
  SharedPinListener listener_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, Entry> clean_entries_;
  std::map<std::string, std::int64_t> reservations_;
  std::map<std::string, Binding> bindings_;
  /// Names this view itself published into the shared layer: reading
  /// them back is *not* a cross-job hit (no gauge, no tenant charge).
  std::set<std::string> self_published_;
  /// name → (content key, publish stamp) for entries this view inserted
  /// non-durably (write still in flight) — the claim tickets
  /// QuarantineShared() redeems on failure.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      publish_stamps_;
  mutable std::map<std::string, SharedPin> pinned_;
  std::atomic<std::int64_t> reserved_{0};
  mutable std::atomic<std::int64_t> reserve_denials_{0};
  std::atomic<std::int64_t> used_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::int64_t> clean_{0};
  std::atomic<std::int64_t> resident_peak_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  mutable std::atomic<std::int64_t> cross_job_hits_{0};
  mutable std::atomic<std::int64_t> cross_job_bytes_saved_{0};
};

}  // namespace sc::storage

#endif  // SC_STORAGE_MEMORY_CATALOG_H_
