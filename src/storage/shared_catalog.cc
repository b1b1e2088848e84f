#include "storage/shared_catalog.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "storage/format.h"

namespace sc::storage {

SharedCatalog::SharedCatalog(std::int64_t budget_bytes,
                             int negative_lookup_damp_limit,
                             SpillOptions spill, DiskProfile device)
    : budget_(budget_bytes),
      damp_limit_(negative_lookup_damp_limit),
      spill_(std::move(spill)),
      device_(device) {
  if (!spill_.directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spill_.directory, ec);
    spill_enabled_ = std::filesystem::is_directory(spill_.directory, ec);
  }
  if (spill_enabled_) {
    manifest_ = std::make_unique<SpillManifest>(
        spill_.directory, spill_.manifest_compact_bytes);
    // Scratch mode treats whatever journal a prior owner left as stale.
    if (!spill_.recover) manifest_->Erase();
    SpillManifest::OpenResult opened = manifest_->Open();
    if (spill_.recover) RecoverSpillDirectory(std::move(opened));
  }
}

SharedCatalog::~SharedCatalog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spill_.recover) {
    // Durable tier: files and journal stay for the next incarnation.
    return;
  }
  while (!spill_lru_.empty()) EraseSpillLocked(spill_lru_.back());
  if (manifest_ != nullptr) manifest_->Erase();
}

void SharedCatalog::RecoverSpillDirectory(SpillManifest::OpenResult opened) {
  namespace fs = std::filesystem;
  // Oldest stamp first so push_front leaves the youngest entry at the
  // spill-LRU front, approximating the pre-crash recency order.
  std::sort(opened.live.begin(), opened.live.end(),
            [](const SpillManifest::Entry& a, const SpillManifest::Entry& b) {
              return a.stamp < b.stamp;
            });
  std::unordered_set<std::string> adopted;
  std::int64_t spill_bytes = 0;
  for (const SpillManifest::Entry& entry : opened.live) {
    const std::string path = spill_.directory + "/" + entry.file;
    std::error_code ec;
    const std::uintmax_t on_disk = fs::file_size(path, ec);
    if (ec || static_cast<std::int64_t>(on_disk) != entry.file_bytes) {
      // Missing or wrong size (crash mid-write, external damage): the
      // journal promised bytes the directory cannot deliver. Never
      // serve it.
      corrupt_files_.fetch_add(1, std::memory_order_relaxed);
      fs::remove(path, ec);
      manifest_->Remove(entry.key);
      continue;
    }
    SpillRecord rec;
    rec.path = path;
    rec.file = entry.file;
    rec.file_bytes = entry.file_bytes;
    rec.durable = entry.durable;
    rec.stamp = entry.stamp;
    spill_lru_.push_front(entry.key);
    rec.lru = spill_lru_.begin();
    spilled_.emplace(entry.key, std::move(rec));
    adopted.insert(entry.file);
    spill_bytes += entry.file_bytes;
    recovered_entries_.fetch_add(1, std::memory_order_relaxed);
    recovered_bytes_.fetch_add(entry.file_bytes, std::memory_order_relaxed);
    // Stamps must stay unique across the restart for Invalidate()'s ABA
    // guard; file names must not collide with survivors.
    next_stamp_ = std::max(next_stamp_, entry.stamp + 1);
    if (entry.file.rfind("spill_", 0) == 0) {
      const std::uint64_t n =
          std::strtoull(entry.file.c_str() + 6, nullptr, 10);
      next_spill_file_ = std::max(next_spill_file_, n + 1);
    }
  }
  spill_bytes_.store(spill_bytes, std::memory_order_relaxed);
  // Orphan hygiene: anything the journal does not name (spill files
  // whose append never landed, stray temp files) is unreachable and
  // unaccountable — delete it rather than leak disk forever.
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(spill_.directory, ec)) {
    if (!dirent.is_regular_file(ec)) continue;
    const std::string name = dirent.path().filename().string();
    if (name == SpillManifest::kFileName || adopted.count(name) != 0) {
      continue;
    }
    std::error_code remove_ec;
    fs::remove(dirent.path(), remove_ec);
    if (!remove_ec) orphans_removed_.fetch_add(1, std::memory_order_relaxed);
  }
  EnforceSpillCapLocked();  // the cap may have shrunk across the restart
}

double SharedCatalog::MissSeconds(std::int64_t disk_bytes) const {
  return device_.latency +
         static_cast<double>(std::max<std::int64_t>(0, disk_bytes)) /
             device_.read_bw;
}

void SharedCatalog::RankLocked(std::uint64_t key, Entry* entry) {
  const double bytes =
      static_cast<double>(std::max<std::int64_t>(1, entry->size));
  const double h =
      inflation_ + static_cast<double>(entry->freq) * entry->miss_s / bytes;
  entry->rank = queue_.insert(Rank{h, next_tick_++, key}).first;
}

bool SharedCatalog::MakeRoomLocked(std::int64_t size) {
  while (used_.load(std::memory_order_relaxed) + size > budget_ &&
         !queue_.empty()) {
    EvictOneLocked();
  }
  return used_.load(std::memory_order_relaxed) + size <= budget_;
}

bool SharedCatalog::Publish(std::uint64_t key, engine::TablePtr table,
                            std::int64_t size, bool durable,
                            std::uint64_t* stamp, std::int64_t disk_bytes) {
  if (stamp != nullptr) *stamp = 0;
  // Degrade on injected publish faults: the caller already treats a
  // false return as the (routine) budget-reject path, so a firing rule
  // costs shared residency, never correctness.
  if (fault_injector_ != nullptr &&
      fault_injector_->ShouldFail(fault::Site::kCatalogPublish,
                                  std::to_string(key))) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Instant("shared", "fault",
                      StrFormat("\"key\":%llu",
                                static_cast<unsigned long long>(key)));
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (size < 0) return false;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.quarantined) {
    // A condemned entry must serve nobody; a fresh publish of the same
    // content supersedes it once every stale pin is gone.
    if (it->second.pins > 0) {
      rejects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    queue_.erase(it->second.rank);
    used_.fetch_sub(it->second.size, std::memory_order_relaxed);
    entries_.erase(it);
    it = entries_.end();
  }
  if (it != entries_.end()) {
    // Content keys are immutable: count the use, keep the first table.
    Entry& entry = it->second;
    entry.durable |= durable;
    ++entry.freq;
    if (entry.pins == 0) {
      queue_.erase(entry.rank);
      RankLocked(key, &entry);
    }
    if (stamp != nullptr) *stamp = entry.stamp;
    return true;
  }
  // Feasibility first: evicting every unpinned entry leaves exactly
  // the pinned bytes resident, so an entry that cannot fit next to them
  // is rejected before flushing anyone else's residency for nothing
  // (oversize nodes are routinely published unflagged).
  if (size > budget_ - pinned_.load(std::memory_order_relaxed)) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Instant("shared", "reject",
                      StrFormat("\"key\":%llu,\"bytes\":%lld",
                                static_cast<unsigned long long>(key),
                                static_cast<long long>(size)));
    }
    return false;
  }
  if (!MakeRoomLocked(size)) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A fresh publish supersedes any spill file left from a prior
  // eviction of this key: the resident entry is now the authority.
  EraseSpillLocked(key);
  Entry entry;
  entry.table = std::move(table);
  entry.size = size;
  entry.miss_s = MissSeconds(disk_bytes > 0 ? disk_bytes : size);
  entry.durable = durable;
  entry.stamp = next_stamp_++;
  if (stamp != nullptr) *stamp = entry.stamp;
  Entry& admitted = entries_.emplace(key, std::move(entry)).first->second;
  RankLocked(key, &admitted);
  const std::int64_t used = used_.load(std::memory_order_relaxed) + size;
  used_.store(used, std::memory_order_relaxed);
  if (used > peak_.load(std::memory_order_relaxed)) {
    peak_.store(used, std::memory_order_relaxed);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  // New content starts a new damping epoch: any key that kept missing may
  // now hit, so stale per-key miss counts must stop suppressing probes.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Instant("shared", "publish",
                    StrFormat("\"key\":%llu,\"bytes\":%lld",
                              static_cast<unsigned long long>(key),
                              static_cast<long long>(size)));
  }
  return true;
}

void SharedCatalog::MarkDurable(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.durable = true;
    return;
  }
  // The entry may have been spilled between publish and the write
  // landing; the upgrade must reach the journal or a recovered catalog
  // would re-demote the flag across a restart.
  auto sit = spilled_.find(key);
  if (sit != spilled_.end() && !sit->second.durable) {
    sit->second.durable = true;
    if (manifest_ != nullptr) {
      manifest_->Append({key, sit->second.file_bytes, sit->second.stamp,
                         true, sit->second.file});
    }
  }
}

engine::TablePtr SharedCatalog::Pin(std::uint64_t key,
                                    std::int64_t* size, bool count,
                                    bool* durable) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.quarantined) {
    if (it == entries_.end() && spill_enabled_) {
      engine::TablePtr refilled = RefillLocked(key, size, count, durable);
      if (refilled != nullptr) return refilled;
    }
    if (count) CountMissLocked(key);
    return nullptr;
  }
  Entry& entry = it->second;
  if (size != nullptr) *size = entry.size;
  if (durable != nullptr) *durable = entry.durable;
  if (entry.pins == 0) {
    queue_.erase(entry.rank);
    pinned_.fetch_add(entry.size, std::memory_order_relaxed);
  }
  ++entry.pins;
  ++entry.freq;
  if (count) hits_.fetch_add(1, std::memory_order_relaxed);
  return entry.table;
}

void SharedCatalog::Unpin(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.pins == 0) return;
  Entry& entry = it->second;
  if (--entry.pins == 0) {
    pinned_.fetch_sub(entry.size, std::memory_order_relaxed);
    if (entry.quarantined) {
      // Last reader of a condemned entry: erase instead of becoming
      // evictable, so quarantined content can never be served again.
      used_.fetch_sub(entry.size, std::memory_order_relaxed);
      entries_.erase(it);
      return;
    }
    RankLocked(key, &entry);
  }
}

bool SharedCatalog::Invalidate(std::uint64_t key, std::uint64_t stamp) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // The entry may have been spilled since its publish. The same
    // guards apply: only the exact stamped publish, never a durable
    // entry. A quarantined spill file is deleted outright — spilled
    // entries hold no pins, so there is no reader to wait out.
    auto sit = spilled_.find(key);
    if (sit == spilled_.end() || sit->second.stamp != stamp ||
        sit->second.durable) {
      return false;
    }
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Instant("shared", "quarantine",
                      StrFormat("\"key\":%llu,\"bytes\":%lld",
                                static_cast<unsigned long long>(key),
                                static_cast<long long>(
                                    sit->second.file_bytes)));
    }
    EraseSpillLocked(key);
    return true;
  }
  Entry& entry = it->second;
  // Only the exact publish being unwound may be condemned: a stamp
  // mismatch means someone republished the key since, and a durable
  // entry's content is already safely on external storage.
  if (entry.stamp != stamp || entry.durable || entry.quarantined) {
    return false;
  }
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Instant("shared", "quarantine",
                    StrFormat("\"key\":%llu,\"bytes\":%lld",
                              static_cast<unsigned long long>(key),
                              static_cast<long long>(entry.size)));
  }
  if (entry.pins == 0) {
    queue_.erase(entry.rank);
    used_.fetch_sub(entry.size, std::memory_order_relaxed);
    entries_.erase(it);
  } else {
    entry.quarantined = true;  // erased when the last pin drops
  }
  return true;
}

bool SharedCatalog::Contains(std::uint64_t key) const {
  // Spilled entries count as resident: a Pin will refill them at disk
  // cost, which still beats the recompute the optimizer would otherwise
  // schedule.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) return !it->second.quarantined;
  return spilled_.count(key) != 0;
}

std::vector<bool> SharedCatalog::ContainsAll(
    const std::vector<std::uint64_t>& keys) const {
  std::vector<bool> resident(keys.size(), false);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = entries_.find(keys[i]);
    resident[i] = it != entries_.end() ? !it->second.quarantined
                                       : spilled_.count(keys[i]) != 0;
  }
  return resident;
}

std::size_t SharedCatalog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void SharedCatalog::EvictOneLocked() {
  const Rank rank = *queue_.begin();
  queue_.erase(queue_.begin());
  inflation_ = rank.h;
  const std::uint64_t victim = rank.key;
  auto it = entries_.find(victim);
  const std::int64_t size = it->second.size;
  const double miss_s = it->second.miss_s;
  const std::int64_t freq = it->second.freq;
  if (spill_enabled_) {
    // Demote to a compressed spill file instead of dropping. The
    // record carries the publish stamp and durable flag so Invalidate
    // and refill see the entry exactly as if it had stayed resident. A
    // failed write (full disk, injected fault upstream) degrades to the
    // plain drop — spilling is an optimization, never a correctness
    // dependency.
    EraseSpillLocked(victim);  // defensive: stale record for this key
    const std::string file =
        "spill_" + std::to_string(next_spill_file_++) + ".scc";
    const std::string path = spill_.directory + "/" + file;
    try {
      SpillRecord rec;
      rec.file_bytes = WriteTableFileCompressed(*it->second.table, path);
      rec.path = path;
      rec.file = file;
      rec.durable = it->second.durable;
      rec.stamp = it->second.stamp;
      // Chaos hook: a corruption rule at kSpillWrite damages the file
      // the write just produced. The record (and journal entry) stand —
      // detection is the *reader's* job, on refill or recovery.
      if (fault_injector_ != nullptr) {
        const fault::CorruptionSpec spec = fault_injector_->ShouldCorrupt(
            fault::Site::kSpillWrite, file);
        if (spec.kind != fault::CorruptKind::kNone) {
          fault::CorruptFile(path, spec);
        }
      }
      // Journal before relying on the file: recovery trusts only
      // manifest-named files, so the append must land first.
      if (manifest_ != nullptr) {
        manifest_->Append({victim, rec.file_bytes, rec.stamp, rec.durable,
                           rec.file});
      }
      spill_lru_.push_front(victim);
      rec.lru = spill_lru_.begin();
      spill_bytes_.fetch_add(rec.file_bytes, std::memory_order_relaxed);
      spilled_.emplace(victim, std::move(rec));
      spills_.fetch_add(1, std::memory_order_relaxed);
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->Instant("shared", "spill",
                        StrFormat("\"key\":%llu,\"bytes\":%lld",
                                  static_cast<unsigned long long>(victim),
                                  static_cast<long long>(size)));
      }
      EnforceSpillCapLocked();
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
  used_.fetch_sub(size, std::memory_order_relaxed);
  entries_.erase(it);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Instant(
        "shared", "evict",
        StrFormat("\"key\":%llu,\"bytes\":%lld,\"miss_s\":%.6f,"
                  "\"freq\":%lld",
                  static_cast<unsigned long long>(victim),
                  static_cast<long long>(size), miss_s,
                  static_cast<long long>(freq)));
  }
}

void SharedCatalog::EraseSpillLocked(std::uint64_t key) {
  auto it = spilled_.find(key);
  if (it == spilled_.end()) return;
  std::error_code ec;
  std::filesystem::remove(it->second.path, ec);
  if (manifest_ != nullptr) manifest_->Remove(key);
  spill_bytes_.fetch_sub(it->second.file_bytes, std::memory_order_relaxed);
  spill_lru_.erase(it->second.lru);
  spilled_.erase(it);
}

void SharedCatalog::EnforceSpillCapLocked() {
  if (spill_.max_bytes <= 0) return;
  while (spill_bytes_.load(std::memory_order_relaxed) > spill_.max_bytes &&
         !spill_lru_.empty()) {
    // Oldest spill first: its entry falls back to recompute, exactly the
    // pre-spill behaviour.
    EraseSpillLocked(spill_lru_.back());
  }
}

engine::TablePtr SharedCatalog::RefillLocked(std::uint64_t key,
                                             std::int64_t* size,
                                             bool count, bool* durable) {
  auto sit = spilled_.find(key);
  if (sit == spilled_.end()) return nullptr;
  // Copy the record fields now: the evict loop below can insert into /
  // erase from spilled_ (cascading spills), invalidating `sit`.
  const std::string path = sit->second.path;
  const bool rec_durable = sit->second.durable;
  const std::uint64_t rec_stamp = sit->second.stamp;
  const std::int64_t rec_file_bytes = sit->second.file_bytes;
  engine::TablePtr table;
  try {
    // Verifying read (the ReadOptions default): this is where lazily
    // recovered entries — and spill files damaged after their write —
    // earn the right to be served.
    table = std::make_shared<engine::Table>(ReadTableFileCompressed(path));
  } catch (const CorruptFileError&) {
    // Damaged spill file (bit rot, torn write, injected corruption):
    // count it, drop it, never serve it. The caller counts a miss and
    // the content falls back to recompute.
    corrupt_files_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Instant("shared", "corrupt-spill",
                      StrFormat("\"key\":%llu",
                                static_cast<unsigned long long>(key)));
    }
    EraseSpillLocked(key);
    return nullptr;
  } catch (...) {
    // Environmental read failure: drop the record; same recompute
    // fallback without the corruption count.
    EraseSpillLocked(key);
    return nullptr;
  }
  // String columns come back dictionary-encoded, so the refilled entry
  // re-enters the budget at its compressed size.
  const std::int64_t sz = table->ByteSize();
  if (sz > budget_ - pinned_.load(std::memory_order_relaxed)) {
    // Cannot fit next to the pinned bytes right now; keep the file for
    // a later, less contended Pin.
    return nullptr;
  }
  // Evictions may themselves spill — the compressed tier rotates.
  if (!MakeRoomLocked(sz)) return nullptr;
  Entry entry;
  entry.table = table;
  entry.size = sz;
  entry.miss_s = MissSeconds(rec_file_bytes);
  entry.pins = 1;  // born pinned: the caller is the reader
  entry.durable = rec_durable;
  entry.stamp = rec_stamp;
  entries_.emplace(key, std::move(entry));
  const std::int64_t used = used_.load(std::memory_order_relaxed) + sz;
  used_.store(used, std::memory_order_relaxed);
  if (used > peak_.load(std::memory_order_relaxed)) {
    peak_.store(used, std::memory_order_relaxed);
  }
  pinned_.fetch_add(sz, std::memory_order_relaxed);
  spill_refills_.fetch_add(1, std::memory_order_relaxed);
  if (count) hits_.fetch_add(1, std::memory_order_relaxed);
  if (size != nullptr) *size = sz;
  if (durable != nullptr) *durable = rec_durable;
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Instant("shared", "refill",
                    StrFormat("\"key\":%llu,\"bytes\":%lld",
                              static_cast<unsigned long long>(key),
                              static_cast<long long>(sz)));
  }
  EraseSpillLocked(key);
  return table;
}

std::size_t SharedCatalog::spilled_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spilled_.size();
}

void SharedCatalog::CountMissLocked(std::uint64_t key) {
  if (damp_limit_ <= 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  auto& stamped = miss_counts_[key];
  if (stamped.first != epoch) {
    // Count belongs to an older epoch — content has been published since,
    // so the key earned a fresh budget of counted misses.
    stamped = {epoch, 0};
  }
  if (++stamped.second > damp_limit_) {
    damped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SharedCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Rank& rank : queue_) {
    auto it = entries_.find(rank.key);
    used_.fetch_sub(it->second.size, std::memory_order_relaxed);
    entries_.erase(it);
  }
  queue_.clear();
  // Spilled entries are unpinned by construction — drop them too.
  while (!spill_lru_.empty()) EraseSpillLocked(spill_lru_.back());
  epoch_.fetch_add(1, std::memory_order_relaxed);
  miss_counts_.clear();
}

}  // namespace sc::storage
