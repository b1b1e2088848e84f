#include "storage/memory_catalog.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace sc::storage {

MemoryCatalog::MemoryCatalog(std::int64_t budget_bytes,
                             SharedCatalog* shared)
    : budget_(budget_bytes), shared_(shared) {}

MemoryCatalog::~MemoryCatalog() { UnpinShared(); }

void MemoryCatalog::BindSharedKey(const std::string& name,
                                  std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  bindings_[name] = key;
}

void MemoryCatalog::SetSharedPinListener(SharedPinListener listener) {
  listener_ = std::move(listener);
}

bool MemoryCatalog::Put(const std::string& name, engine::TablePtr table,
                        std::int64_t size) {
  std::uint64_t key = 0;
  bool publish = false;
  std::optional<SharedPin> released;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t used = used_.load(std::memory_order_relaxed);
    if (size < 0 || used + size > budget_ || entries_.count(name) > 0) {
      return false;
    }
    DropCleanToFit(used + size);
    entries_.emplace(name, Entry{table, size});
    const std::int64_t now = used + size;
    used_.store(now, std::memory_order_relaxed);
    // The mutex serializes writers, so a plain max-update suffices.
    if (now > peak_.load(std::memory_order_relaxed)) {
      peak_.store(now, std::memory_order_relaxed);
    }
    NoteResident();
    if (shared_ != nullptr) {
      auto b = bindings_.find(name);
      if (b != bindings_.end()) {
        key = b->second;
        publish = true;
        self_published_.insert(name);
      }
      // A reused output now held privately is funded by the job's grant:
      // drop the cross-job pin so the same bytes are not also charged to
      // the tenant's shared-residency accounting.
      auto pin = pinned_.find(name);
      if (pin != pinned_.end()) {
        released = std::move(pin->second);
        pinned_.erase(pin);
      }
    }
  }
  // Outside the view lock: the shared layer has its own mutex, and a
  // rejected publish (shared pressure) never affects private admission.
  if (publish) {
    std::uint64_t stamp = 0;
    if (shared_->Publish(key, std::move(table), size, /*durable=*/false,
                         &stamp) &&
        stamp != 0) {
      // Remember the claim ticket: if this output's materialization
      // later fails, QuarantineShared(name) condemns exactly this entry.
      std::lock_guard<std::mutex> lock(mutex_);
      publish_stamps_[name] = {key, stamp};
    }
  }
  if (released.has_value()) {
    shared_->Unpin(released->key);
    if (released->charged && listener_) {
      listener_(released->key, released->size, false);
    }
  }
  return true;
}

void MemoryCatalog::DropCleanToFit(std::int64_t other) {
  std::int64_t clean = clean_.load(std::memory_order_relaxed);
  while (other + clean > budget_ && !clean_entries_.empty()) {
    auto victim = std::max_element(
        clean_entries_.begin(), clean_entries_.end(),
        [](const auto& a, const auto& b) {
          return a.second.next_use < b.second.next_use;
        });
    clean -= victim->second.size;
    clean_entries_.erase(victim);
  }
  clean_.store(clean, std::memory_order_relaxed);
}

void MemoryCatalog::NoteResident() {
  const std::int64_t now = used_.load(std::memory_order_relaxed) +
                           clean_.load(std::memory_order_relaxed);
  if (now > resident_peak_.load(std::memory_order_relaxed)) {
    resident_peak_.store(now, std::memory_order_relaxed);
  }
}

bool MemoryCatalog::AdmitClean(const std::string& name,
                               engine::TablePtr table, std::int64_t size,
                               std::int64_t next_use) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (size < 0 || entries_.count(name) > 0 ||
      clean_entries_.count(name) > 0) {
    return false;
  }
  const std::int64_t held = used_.load(std::memory_order_relaxed) +
                            reserved_.load(std::memory_order_relaxed) + size;
  // Only entries read later than the newcomer may make room for it; if
  // dropping all of them is not enough, nothing is dropped. Farthest-
  // first dropping then never reaches an entry read sooner.
  std::int64_t kept = 0;
  for (const auto& [other, entry] : clean_entries_) {
    if (entry.next_use <= next_use) kept += entry.size;
  }
  if (held + kept > budget_) return false;
  DropCleanToFit(held);
  clean_entries_.emplace(name, Entry{std::move(table), size, next_use});
  clean_.fetch_add(size, std::memory_order_relaxed);
  NoteResident();
  return true;
}

engine::TablePtr MemoryCatalog::GetClean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = clean_entries_.find(name);
  return it == clean_entries_.end() ? nullptr : it->second.table;
}

void MemoryCatalog::SetCleanNextUse(const std::string& name,
                                    std::int64_t next_use) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = clean_entries_.find(name);
  if (it != clean_entries_.end()) it->second.next_use = next_use;
}

bool MemoryCatalog::PublishShared(const std::string& name,
                                  const engine::TablePtr& table,
                                  std::int64_t size) {
  if (shared_ == nullptr) return false;
  std::uint64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = bindings_.find(name);
    if (it == bindings_.end()) return false;
    key = it->second;
    self_published_.insert(name);
  }
  return shared_->Publish(key, table, size, /*durable=*/true);
}

void MemoryCatalog::MarkSharedDurable(const std::string& name) {
  if (shared_ == nullptr) return;
  std::uint64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = bindings_.find(name);
    if (it == bindings_.end()) return;
    key = it->second;
    publish_stamps_.erase(name);  // write landed: nothing to quarantine
  }
  shared_->MarkDurable(key);
}

bool MemoryCatalog::QuarantineShared(const std::string& name) {
  if (shared_ == nullptr) return false;
  std::uint64_t key = 0;
  std::uint64_t stamp = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = publish_stamps_.find(name);
    if (it == publish_stamps_.end()) return false;
    key = it->second.first;
    stamp = it->second.second;
    publish_stamps_.erase(it);
  }
  return shared_->Invalidate(key, stamp);
}

engine::TablePtr MemoryCatalog::SharedLookup(const std::string& name,
                                             bool count_hit,
                                             bool* durable,
                                             std::int64_t* bytes) const {
  std::uint64_t key = 0;
  std::int64_t size = 0;
  engine::TablePtr table;
  bool fresh_charged_pin = false;
  bool cross_job = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto pinned = pinned_.find(name);
    if (pinned != pinned_.end()) {
      table = pinned->second.table;
      size = pinned->second.size;
      cross_job = pinned->second.charged;
      if (durable != nullptr) *durable = pinned->second.durable;
    } else if (shared_ != nullptr) {
      auto binding = bindings_.find(name);
      if (binding != bindings_.end()) {
        // view mutex → shared mutex; the shared layer never calls back.
        // Speculative (non-counting) lookups keep the shared layer's
        // hit-rate monitoring meaningful.
        bool entry_durable = false;
        table = shared_->Pin(binding->second, &size, count_hit,
                             &entry_durable);
        if (table != nullptr) {
          key = binding->second;
          // Reading back an output this view itself published is a
          // memory-speed win but not cross-job service: no gauge, no
          // tenant charge.
          cross_job = self_published_.count(name) == 0;
          pinned_.emplace(name, SharedPin{key, table, size, cross_job,
                                          entry_durable});
          fresh_charged_pin = cross_job;
          if (durable != nullptr) *durable = entry_durable;
        }
      }
    }
    if (table != nullptr && count_hit) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (cross_job) {
        cross_job_hits_.fetch_add(1, std::memory_order_relaxed);
        cross_job_bytes_saved_.fetch_add(size,
                                         std::memory_order_relaxed);
      }
    }
  }
  if (table != nullptr && bytes != nullptr) *bytes = size;
  if (fresh_charged_pin && listener_) listener_(key, size, true);
  return table;
}

engine::TablePtr MemoryCatalog::Get(const std::string& name) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.table;
    }
    // Without a shared layer a private miss is final — the PR-3 resolve
    // hot path keeps its single lock acquisition.
    if (shared_ == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  engine::TablePtr shared = SharedLookup(name, /*count_hit=*/true);
  if (shared != nullptr) return shared;
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

engine::TablePtr MemoryCatalog::PinSharedOutput(const std::string& name,
                                                bool* durable,
                                                std::int64_t* bytes) {
  return SharedLookup(name, /*count_hit=*/true, durable, bytes);
}

bool MemoryCatalog::PinSharedInput(const std::string& name) {
  if (shared_ == nullptr) return false;  // lock-free on the PR-3 path
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(name) > 0) return true;  // privately resident
  }
  return SharedLookup(name, /*count_hit=*/false) != nullptr;
}

void MemoryCatalog::UnpinShared(const std::string& name) {
  std::optional<SharedPin> pin;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pinned_.find(name);
    if (it == pinned_.end()) return;
    pin = std::move(it->second);
    pinned_.erase(it);
  }
  shared_->Unpin(pin->key);
  if (pin->charged && listener_) listener_(pin->key, pin->size, false);
}

void MemoryCatalog::UnpinShared() {
  std::map<std::string, SharedPin> pins;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pins.swap(pinned_);
  }
  for (const auto& [name, pin] : pins) {
    shared_->Unpin(pin.key);  // non-null: pins exist only with a shared layer
    if (pin.charged && listener_) listener_(pin.key, pin.size, false);
  }
}

std::int64_t MemoryCatalog::pinned_shared_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [name, pin] : pinned_) total += pin.size;
  return total;
}

bool MemoryCatalog::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) > 0;
}

void MemoryCatalog::Release(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = entries_.find(name); it != entries_.end()) {
    used_.fetch_sub(it->second.size, std::memory_order_relaxed);
    entries_.erase(it);
  } else if (auto clean = clean_entries_.find(name);
             clean != clean_entries_.end()) {
    clean_.fetch_sub(clean->second.size, std::memory_order_relaxed);
    clean_entries_.erase(clean);
  }
}

bool MemoryCatalog::Reserve(const std::string& name, std::int64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bytes < 0) return false;
  const std::int64_t used = used_.load(std::memory_order_relaxed);
  const std::int64_t reserved = reserved_.load(std::memory_order_relaxed);
  if (used + reserved + bytes > budget_) {
    reserve_denials_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  auto [it, inserted] = reservations_.emplace(name, bytes);
  if (!inserted) return false;
  DropCleanToFit(used + reserved + bytes);
  reserved_.store(reserved + bytes, std::memory_order_relaxed);
  return true;
}

void MemoryCatalog::CancelReservation(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = reservations_.find(name);
  if (it == reservations_.end()) return;
  reserved_.fetch_sub(it->second, std::memory_order_relaxed);
  reservations_.erase(it);
}

std::size_t MemoryCatalog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MemoryCatalog::Clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    clean_entries_.clear();
    reservations_.clear();
    used_.store(0, std::memory_order_relaxed);
    clean_.store(0, std::memory_order_relaxed);
    reserved_.store(0, std::memory_order_relaxed);
  }
  UnpinShared();
}

}  // namespace sc::storage
