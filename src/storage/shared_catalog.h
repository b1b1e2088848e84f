#ifndef SC_STORAGE_SHARED_CATALOG_H_
#define SC_STORAGE_SHARED_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/table.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "storage/spill_manifest.h"
#include "storage/throttled_disk.h"

namespace sc::storage {

/// Spill/refill configuration for SharedCatalog. An empty directory
/// disables spilling entirely (evictions drop entries, the pre-spill
/// behaviour). With a directory set, entries evicted under budget
/// pressure are demoted to compressed SCC1 files there and lazily
/// refilled — counted as spill_refills, not recomputes — on their next
/// Pin.
struct SpillOptions {
  /// Directory for spill files (created if missing); empty = disabled.
  std::string directory;
  /// Cap on total compressed spill bytes on disk; <= 0 = unbounded.
  /// When exceeded, the oldest spill files are dropped (those entries
  /// fall back to recompute, exactly as without spilling).
  std::int64_t max_bytes = 0;
  /// Crash-recovery mode. When true the spill tier is *durable*: spill
  /// files and the manifest journal survive catalog destruction, and a
  /// new catalog pointed at the same directory re-registers every
  /// manifest-live file as a warm spilled entry (content fingerprints
  /// are stable across restarts, so a recovered entry serves the same
  /// cross-job hits it would have before the crash). Recovered files
  /// are size-checked at adoption and fully checksum-verified on their
  /// first refill — a damaged file is deleted and counted, never
  /// served. Files in the directory that the manifest does not name are
  /// orphans (crash between file write and journal append) and are
  /// removed at startup. When false (default), the prior lifecycle
  /// stands: the directory is treated as scratch, wiped at destruction.
  bool recover = false;
  /// Journal size that triggers an atomic rotate/compact of the spill
  /// manifest (rewrite as the live set); <= 0 compacts on every append.
  std::int64_t manifest_compact_bytes = 64 * 1024;
};

/// Cross-job shared residency layer: a content-keyed, budget-bounded
/// table store that outlives any single refresh run, holding everything a
/// job reads — MV outputs and base tables alike. MV keys are per-node
/// content fingerprints (graph::FingerprintNodes: MV name, upstream
/// lineage and the versions of the base tables the lineage scans); base
/// table keys derive from the file's version (ThrottledDisk::Version).
/// Entries published by one job are directly readable by every
/// concurrent or later job reading the same content, no matter which
/// tenant produced them.
///
/// Lifetime model, by contrast with the per-job MemoryCatalog view:
///
///  - Publish() inserts an entry unpinned. Under budget pressure,
///    *unpinned* entries are evicted to make room — a full shared layer
///    is normal operating pressure, not a plan bug.
///  - Pin() hands out the table and takes a reference: pinned entries
///    are never evicted, so a job can rely on a cross-job input staying
///    resident from dispatch until it drops the pin (Unpin).
///
/// Eviction keeps what saves the most device time per byte held, priced
/// the way the paper's optimizer prices a node: GreedyDual-Size (Cao &
/// Irani, USITS 1997) with GDSF's frequency term (Cherkasova, HP Labs
/// 1998). Each unpinned entry carries H = L + freq * miss_s / size, where
/// miss_s is one read of the content's stored bytes at the device's
/// DiskProfile (latency + bytes / read_bw), size its accounted in-memory
/// bytes, and freq the publishes and pins since it was admitted. The
/// victim is the lowest H (oldest first on ties), and L rises to the
/// victim's H, so an entry whose reuse stops ages out behind fresh ones.
///
/// Invariants (asserted by shared_catalog_test under TSAN): used bytes
/// never exceed the budget, and a pinned entry is never evicted.
/// Thread-safe; monitoring reads are atomics and never contend.
class SharedCatalog {
 public:
  /// `negative_lookup_damp_limit` bounds repeated miss-path probes per
  /// key per epoch (an epoch = the interval between successful
  /// publishes): the first N misses of a key count as misses, every
  /// further probe of the same still-absent key counts as *damped*
  /// instead — repeated fingerprint probes for content nobody publishes
  /// (private workloads, cold tenants) stop distorting the miss-rate
  /// monitoring, and the damped counter itself exposes how much probe
  /// traffic the shared layer absorbs for nothing. A publish starts a
  /// new epoch (fresh content can turn any miss into a hit).
  /// <= 0 disables damping.
  ///
  /// `spill` (see SpillOptions) demotes evicted entries to compressed
  /// on-disk files instead of dropping them; defaults to disabled.
  ///
  /// `device` prices a miss: the storage every entry would be re-read
  /// from (its latency and read_bw; throttling plays no part).
  explicit SharedCatalog(std::int64_t budget_bytes,
                         int negative_lookup_damp_limit = 8,
                         SpillOptions spill = {}, DiskProfile device = {});

  /// Removes this catalog's spill files and manifest (best-effort) —
  /// unless SpillOptions::recover is set, in which case both are left
  /// behind for the next catalog to adopt.
  ~SharedCatalog();

  SharedCatalog(const SharedCatalog&) = delete;
  SharedCatalog& operator=(const SharedCatalog&) = delete;

  /// Mirrors publish / evict / reject lifecycle moments into `trace` as
  /// instant events (category "shared"). Not owned; call before
  /// concurrent use; nullptr detaches.
  void SetTraceRecorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attaches a seeded fault injector probed at Site::kCatalogPublish.
  /// A firing rule degrades the publish into a reject (returns false)
  /// rather than throwing — losing shared residency is the designed
  /// overload behaviour, so injected publish faults must never corrupt a
  /// run. nullptr detaches. Call before concurrent use.
  void SetFaultInjector(fault::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  /// Inserts `table` under content key `key`, accounting `size` bytes.
  /// `disk_bytes` is what one read of the content from storage moves (the
  /// SCC1 file); it prices a miss, and <= 0 prices `size` instead. Evicts
  /// unpinned entries (lowest H first, see the class comment) as needed
  /// to fit. Returns false if the entry still cannot fit (pinned bytes or
  /// the entry's own size exceed the budget) or `size` is negative.
  /// Publishing an existing key counts one more use toward its frequency
  /// and returns true — content keys are immutable, so the first
  /// publisher's table stands (`durable` still upgrades). `durable`
  /// records whether the content already sits on external storage;
  /// publishers whose write is still in flight pass false and
  /// MarkDurable() once it lands, so readers know when skipping their own
  /// write is safe.
  /// `stamp` (optional) receives a unique per-insert publish stamp; a
  /// refresh of an existing key returns the standing entry's stamp. The
  /// stamp is the publisher's claim ticket for Invalidate(): it lets a
  /// failed materialization quarantine exactly the entry it published
  /// and never a later republish of the same content.
  bool Publish(std::uint64_t key, engine::TablePtr table,
               std::int64_t size, bool durable = false,
               std::uint64_t* stamp = nullptr, std::int64_t disk_bytes = 0);

  /// Records that `key`'s content has reached external storage (the
  /// publisher's materialization completed). No-op if absent.
  void MarkDurable(std::uint64_t key);

  /// Returns the table for `key` and takes a pin reference (entry
  /// becomes unevictable until the matching Unpin, and counts one more
  /// use toward its frequency), or nullptr on a miss. `size` (optional)
  /// receives the entry's accounted bytes on a hit, `durable` (optional)
  /// whether the content is known to be on external storage. Counts a
  /// hit or miss unless `count` is false — speculative probes
  /// (dispatch-time input pinning) must not distort the layer's hit-rate
  /// monitoring.
  engine::TablePtr Pin(std::uint64_t key, std::int64_t* size = nullptr,
                       bool count = true, bool* durable = nullptr);

  /// Drops one pin reference of `key`; at zero references the entry
  /// becomes evictable again, its H recomputed against the current L.
  /// No-op if absent.
  void Unpin(std::uint64_t key);

  /// Quarantines the entry for `key` if it still carries publish stamp
  /// `stamp` and its write never landed (durable == false): the entry
  /// stops being served immediately and is erased once the last pin
  /// drops (immediately when unpinned). Called by the failure-unwind
  /// path when a materialization dies after its optimistic publish, so
  /// the shared layer only ever serves complete, persisted MVs. A
  /// durable or republished (stamp mismatch) entry is left alone.
  /// Returns true when an entry was quarantined.
  bool Invalidate(std::uint64_t key, std::uint64_t stamp);

  /// True if `key` is resident right now (no pin taken, no hit/miss
  /// counted). A sharing-aware optimizer pre-pass uses this snapshot;
  /// the entry may still be evicted before the run reads it, so runs
  /// pin at dispatch.
  bool Contains(std::uint64_t key) const;

  /// Residency snapshot for a whole key set under one lock acquisition
  /// (the per-job pre-pass probe; N Contains calls would contend with
  /// every worker's Pin/Publish path N times).
  std::vector<bool> ContainsAll(
      const std::vector<std::uint64_t>& keys) const;

  std::int64_t budget_bytes() const { return budget_; }
  std::int64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// Bytes of entries currently holding at least one pin.
  std::int64_t pinned_bytes() const {
    return pinned_.load(std::memory_order_relaxed);
  }
  std::int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

  /// Lookup/lifetime counters (survive Clear): hits/misses count Pin()
  /// calls, publishes successful inserts, rejects failed ones, and
  /// evictions entries dropped under budget pressure.
  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::int64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  std::int64_t rejects() const {
    return rejects_.load(std::memory_order_relaxed);
  }
  std::int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Entries quarantined by Invalidate() (failed materializations).
  std::int64_t quarantines() const {
    return quarantines_.load(std::memory_order_relaxed);
  }
  /// Miss-path probes short-circuited by negative-lookup damping (the
  /// key had already missed `negative_lookup_damp_limit` times this
  /// epoch). Not counted in misses().
  std::int64_t damped_lookups() const {
    return damped_.load(std::memory_order_relaxed);
  }
  /// Evictions demoted to a compressed spill file instead of dropped
  /// (subset of evictions()).
  std::int64_t spills() const {
    return spills_.load(std::memory_order_relaxed);
  }
  /// Pins served by reading a spill file back instead of recomputing
  /// (each also counts as a hit).
  std::int64_t spill_refills() const {
    return spill_refills_.load(std::memory_order_relaxed);
  }
  /// Compressed bytes currently parked in spill files.
  std::int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  /// Entries currently spilled (on disk, not resident).
  std::size_t spilled_entries() const;
  /// Damaged spill files detected and removed instead of served: size
  /// mismatches at recovery, checksum/parse failures (CorruptFileError)
  /// on refill, and manifest records whose file vanished.
  std::int64_t corrupt_files() const {
    return corrupt_files_.load(std::memory_order_relaxed);
  }
  /// Spilled entries adopted from the manifest at construction
  /// (SpillOptions::recover), and their compressed bytes.
  std::int64_t recovered_entries() const {
    return recovered_entries_.load(std::memory_order_relaxed);
  }
  std::int64_t recovered_bytes() const {
    return recovered_bytes_.load(std::memory_order_relaxed);
  }
  /// Startup hygiene: files in the spill directory the manifest did not
  /// name (crash between file write and journal append), removed.
  std::int64_t orphans_removed() const {
    return orphans_removed_.load(std::memory_order_relaxed);
  }
  /// Atomic rotate/compact cycles of the spill manifest journal.
  std::int64_t manifest_compactions() const {
    return manifest_ != nullptr ? manifest_->compactions() : 0;
  }
  /// Publish epoch: bumps on every successful publish (and Clear), the
  /// boundary at which negative-lookup damping forgets past misses.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Drops every *unpinned* entry; pinned entries stay (a job still
  /// holds them).
  void Clear();

 private:
  /// An unpinned entry's place in the eviction order: lowest H first,
  /// then the earliest ranked.
  struct Rank {
    double h = 0.0;
    std::uint64_t tick = 0;
    std::uint64_t key = 0;
    bool operator<(const Rank& other) const {
      return h != other.h ? h < other.h : tick < other.tick;
    }
  };

  struct Entry {
    engine::TablePtr table;
    std::int64_t size = 0;
    std::int64_t pins = 0;
    /// Device seconds one read of the content costs (the miss price).
    double miss_s = 0.0;
    /// Publishes and pins since admission.
    std::int64_t freq = 1;
    /// Content has reached external storage (publisher's write landed).
    bool durable = false;
    /// Condemned by Invalidate() while pinned: served to nobody new,
    /// erased when the last pin drops.
    bool quarantined = false;
    /// Unique per-insert publish stamp (Invalidate's ABA guard).
    std::uint64_t stamp = 0;
    /// Position in queue_; valid iff pins == 0.
    std::set<Rank>::iterator rank;
  };

  /// One evicted-to-disk entry. Carries the publish stamp and durable
  /// flag across the spill so Invalidate() and a refill behave exactly
  /// as if the entry had stayed resident.
  struct SpillRecord {
    std::string path;
    /// File name relative to the spill directory (the manifest key for
    /// this file).
    std::string file;
    std::int64_t file_bytes = 0;  // compressed bytes on disk
    bool durable = false;
    std::uint64_t stamp = 0;
    /// Position in spill_lru_ (front = most recently spilled).
    std::list<std::uint64_t>::iterator lru;
  };

  /// Device seconds one read of `disk_bytes` costs on device_.
  double MissSeconds(std::int64_t disk_bytes) const;
  /// Ranks unpinned `entry` (under `key`) in queue_ at H = L + freq *
  /// miss_s / size. Requires mutex_.
  void RankLocked(std::uint64_t key, Entry* entry);
  /// Evicts unpinned entries, lowest H first, until `size` more bytes
  /// fit the budget or nothing is left to evict; returns whether they
  /// fit. Requires mutex_.
  bool MakeRoomLocked(std::int64_t size);
  /// Erases the lowest-H unpinned entry and raises L to its H, spilling
  /// it to disk first when spill is enabled (a failed spill write
  /// degrades to a plain drop). Requires mutex_; queue_ must be
  /// non-empty.
  void EvictOneLocked();
  /// Counts a miss or a damped probe for absent `key`. Requires mutex_.
  void CountMissLocked(std::uint64_t key);
  /// Deletes `key`'s spill file and record, if any. Requires mutex_.
  void EraseSpillLocked(std::uint64_t key);
  /// Drops oldest spill files until within spill_.max_bytes. Requires
  /// mutex_.
  void EnforceSpillCapLocked();
  /// Refills `key` from its spill record (file reads happen under
  /// mutex_ — acceptable for the spill tier, noted as a follow-up) and
  /// returns the pinned table, or nullptr when the refill cannot fit or
  /// the file is unreadable. Requires mutex_.
  engine::TablePtr RefillLocked(std::uint64_t key, std::int64_t* size,
                                bool count, bool* durable);
  /// Construction-time crash recovery: adopts manifest-live spill files
  /// (size-checked now, checksum-verified on first refill), drops and
  /// counts damaged ones, removes orphan files, and advances the stamp
  /// and file-name counters past everything recovered. Runs before any
  /// concurrent use, so no lock is required.
  void RecoverSpillDirectory(SpillManifest::OpenResult opened);

  const std::int64_t budget_;
  const int damp_limit_;
  const SpillOptions spill_;
  const DiskProfile device_;
  bool spill_enabled_ = false;
  obs::TraceRecorder* trace_ = nullptr;  // not owned; may be null
  fault::FaultInjector* fault_injector_ = nullptr;  // not owned
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Unpinned entries in eviction order (front = next victim).
  std::set<Rank> queue_;
  /// GreedyDual's inflation value L: the H of the last victim.
  double inflation_ = 0.0;  // guarded by mutex_
  std::uint64_t next_tick_ = 0;  // guarded by mutex_
  std::atomic<std::int64_t> used_{0};
  std::atomic<std::int64_t> pinned_{0};
  std::atomic<std::int64_t> peak_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> publishes_{0};
  std::atomic<std::int64_t> rejects_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> quarantines_{0};
  mutable std::atomic<std::int64_t> damped_{0};
  std::atomic<std::int64_t> spills_{0};
  std::atomic<std::int64_t> spill_refills_{0};
  std::atomic<std::int64_t> spill_bytes_{0};
  std::atomic<std::int64_t> corrupt_files_{0};
  std::atomic<std::int64_t> recovered_entries_{0};
  std::atomic<std::int64_t> recovered_bytes_{0};
  std::atomic<std::int64_t> orphans_removed_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::uint64_t next_stamp_ = 1;  // guarded by mutex_; 0 = "no stamp"
  std::uint64_t next_spill_file_ = 0;  // guarded by mutex_
  /// Spilled (on-disk) entries; disjoint from entries_. Guarded by
  /// mutex_.
  std::unordered_map<std::uint64_t, SpillRecord> spilled_;
  std::list<std::uint64_t> spill_lru_;  // front = most recently spilled
  /// Journal of the spill directory; non-null iff spill is enabled.
  /// Mutations happen under mutex_ (ctor/dtor excepted).
  std::unique_ptr<SpillManifest> manifest_;
  /// Per-key miss bookkeeping for negative-lookup damping: stamped with
  /// the epoch the count belongs to, so a publish invalidates every
  /// stale count in O(1) (no sweep). Guarded by mutex_.
  mutable std::unordered_map<std::uint64_t,
                             std::pair<std::uint64_t, int>>
      miss_counts_;
};

}  // namespace sc::storage

#endif  // SC_STORAGE_SHARED_CATALOG_H_
