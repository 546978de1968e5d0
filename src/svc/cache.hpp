#pragma once
// Sharded LRU cache of definitive allocation answers, keyed by canonical
// instance fingerprint (see svc/fingerprint). Only *proven* results
// (optimal / infeasible) are cached — they are valid regardless of the
// solver configuration, budgets or deadlines of the request that produced
// them. Allocations are stored in canonical indexing; the scheduler
// translates them back per request.
//
// Concurrency: the key hash picks one of N shards, each guarded by its
// own mutex, so concurrent workers rarely contend. Lookups compare the
// full canonical text, so a fingerprint collision degrades to a miss,
// never a wrong answer.

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/model.hpp"
#include "svc/fingerprint.hpp"
#include "util/mutex.hpp"

namespace optalloc::svc {

/// A definitive answer, safe to replay for any identical instance.
struct CachedAnswer {
  bool infeasible = false;      ///< proven: no valid allocation exists
  std::int64_t cost = -1;       ///< proven optimal objective value
  std::int64_t lower_bound = 0;
  bool has_allocation = false;
  rt::Allocation allocation;    ///< canonical indexing
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// Point-in-time fill level of one shard (occupancy telemetry for
/// alloc_top and the skew analysis future eviction policies need: a hot
/// shard pinning its LRU while others sit empty is invisible in the
/// aggregate counters).
struct CacheShardOccupancy {
  std::size_t entries = 0;
  std::size_t bytes = 0;  ///< estimated retained footprint
  std::size_t capacity = 0;
};

class ResultCache {
 public:
  /// `capacity` total entries spread over `shards` independent LRU lists
  /// (each shard holds ceil(capacity/shards)).
  explicit ResultCache(std::size_t capacity = 256, int shards = 8);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Lookup; refreshes recency on hit. `canonical_text` guards against
  /// fingerprint collisions.
  std::optional<CachedAnswer> get(const Fingerprint& key,
                                  std::string_view canonical_text);

  /// Insert (or refresh) an answer; evicts the shard's LRU tail when full.
  void put(const Fingerprint& key, std::string canonical_text,
           CachedAnswer answer);

  ~ResultCache();

  CacheStats stats() const;   ///< aggregated over shards
  std::size_t size() const;   ///< live entries
  std::size_t bytes() const;  ///< estimated retained footprint
  int shards() const { return static_cast<int>(shards_.size()); }
  std::vector<CacheShardOccupancy> shard_occupancy() const;

 private:
  struct Entry {
    Fingerprint key;
    std::string text;
    CachedAnswer answer;
  };
  struct Shard {
    mutable util::Mutex mu;
    std::list<Entry> lru OPTALLOC_GUARDED_BY(mu);  ///< front = MRU
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
        OPTALLOC_GUARDED_BY(mu);
    CacheStats stats OPTALLOC_GUARDED_BY(mu);
    std::size_t bytes OPTALLOC_GUARDED_BY(mu) = 0;  ///< sum of entry_bytes
  };

  static std::size_t entry_bytes(const Entry& e);

  Shard& shard_for(const Fingerprint& key) {
    return shards_[static_cast<std::size_t>(key.a % shards_.size())];
  }

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace optalloc::svc
