#include "service/plan_cache.h"

#include "common/fnv.h"

namespace sc::service {

std::uint64_t FingerprintGraph(const graph::Graph& g) {
  std::uint64_t h = kFnvOffset;
  FnvMixInt(&h, g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::NodeInfo& info = g.node(v);
    FnvMixString(&h, info.name);
    FnvMixInt(&h, info.size_bytes);
    FnvMixInt(&h, info.disk_bytes);
    FnvMixDouble(&h, info.speedup_score);
    FnvMixDouble(&h, info.compute_seconds);
    FnvMixInt(&h, info.base_input_bytes);
    FnvMixDouble(&h, info.file_count);
    for (graph::NodeId child : g.children(v)) {
      FnvMixInt(&h, child);
    }
    FnvMixInt(&h, -1);  // edge-list terminator
  }
  return h;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::optional<CachedPlan> PlanCache::Lookup(std::uint64_t fingerprint,
                                            std::int64_t budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(Key{fingerprint, budget});
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // mark most recently used
  return it->second->cached;
}

void PlanCache::Insert(std::uint64_t fingerprint, std::int64_t budget,
                       opt::Plan plan, opt::StageDecomposition stages) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{fingerprint, budget};
  CachedPlan cached{std::move(plan), std::move(stages)};
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->cached = std::move(cached);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, std::move(cached)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace sc::service
