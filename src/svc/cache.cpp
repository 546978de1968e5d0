#include "svc/cache.hpp"

#include <algorithm>
#include <utility>

namespace optalloc::svc {

ResultCache::ResultCache(std::size_t capacity, int shards) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(1, shards)));
  per_shard_capacity_ = std::max<std::size_t>(1, (capacity + n - 1) / n);
  shards_ = std::vector<Shard>(n);
}

ResultCache::~ResultCache() {
  // Retract this cache's share of the capacity gauges: tests and benches
  // build many schedulers, and their caches must not leave phantom
  // occupancy behind.
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    obs::adjust(obs::m::svc_cache_bytes, -static_cast<std::int64_t>(s.bytes));
    obs::adjust(obs::m::svc_cache_entries,
                -static_cast<std::int64_t>(s.lru.size()));
  }
}

std::size_t ResultCache::entry_bytes(const Entry& e) {
  // Estimate: canonical text + allocation payload + list/index node
  // overhead. Exactness does not matter — eviction pressure and trend
  // direction do.
  return e.text.size() +
         e.answer.allocation.task_ecu.size() * sizeof(int) +
         sizeof(Entry) + 64;
}

std::optional<CachedAnswer> ResultCache::get(const Fingerprint& key,
                                             std::string_view canonical_text) {
  Shard& s = shard_for(key);
  util::MutexLock lock(s.mu);
  const auto it = s.index.find(key.a);
  if (it == s.index.end() || it->second->key != key ||
      it->second->text != canonical_text) {
    ++s.stats.misses;
    return std::nullopt;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  ++s.stats.hits;
  return it->second->answer;
}

void ResultCache::put(const Fingerprint& key, std::string canonical_text,
                      CachedAnswer answer) {
  Shard& s = shard_for(key);
  util::MutexLock lock(s.mu);
  if (const auto it = s.index.find(key.a); it != s.index.end()) {
    // Refresh (or replace a colliding entry — last writer wins).
    const std::size_t before = entry_bytes(*it->second);
    it->second->key = key;
    it->second->text = std::move(canonical_text);
    it->second->answer = std::move(answer);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    const std::size_t after = entry_bytes(*it->second);
    s.bytes += after - before;
    obs::adjust(obs::m::svc_cache_bytes,
                static_cast<std::int64_t>(after) -
                    static_cast<std::int64_t>(before));
    return;
  }
  if (s.lru.size() >= per_shard_capacity_) {
    const std::size_t victim = entry_bytes(s.lru.back());
    s.index.erase(s.lru.back().key.a);
    s.lru.pop_back();
    ++s.stats.evictions;
    s.bytes -= victim;
    obs::adjust(obs::m::svc_cache_bytes, -static_cast<std::int64_t>(victim));
    obs::adjust(obs::m::svc_cache_entries, -1);
  }
  s.lru.push_front(Entry{key, std::move(canonical_text), std::move(answer)});
  s.index.emplace(key.a, s.lru.begin());
  ++s.stats.insertions;
  const std::size_t added = entry_bytes(s.lru.front());
  s.bytes += added;
  obs::adjust(obs::m::svc_cache_bytes, static_cast<std::int64_t>(added));
  obs::adjust(obs::m::svc_cache_entries, 1);
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    total.hits += s.stats.hits;
    total.misses += s.stats.misses;
    total.insertions += s.stats.insertions;
    total.evictions += s.stats.evictions;
  }
  return total;
}

std::size_t ResultCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    n += s.lru.size();
  }
  return n;
}

std::size_t ResultCache::bytes() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    n += s.bytes;
  }
  return n;
}

std::vector<CacheShardOccupancy> ResultCache::shard_occupancy() const {
  std::vector<CacheShardOccupancy> out;
  out.reserve(shards_.size());
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    out.push_back({s.lru.size(), s.bytes, per_shard_capacity_});
  }
  return out;
}

}  // namespace optalloc::svc
