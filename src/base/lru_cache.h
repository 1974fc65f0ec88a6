// Bounded LRU map: the one LRU behind the prepared-program cache and the
// serving layer's result and magic-rewrite caches.  Values are shared_ptrs
// to immutable payloads, so a Get returns a handle that stays valid after
// eviction.  All operations take one mutex briefly; payloads are never
// copied under the lock.  A cache of capacity 0 keeps nothing: every Get
// is a miss and every Put is dropped.
//
// Entries are indexed by the key's 64-bit hash but store the FULL key and
// verify equality on every hit: two distinct keys that collide on the hash
// can never serve each other's payload.  A verified mismatch counts as a
// miss (and as a `key_collisions` counter tick); a Put whose hash lands on
// a different key's slot evicts that entry — the cache holds at most one
// entry per hash value.

#ifndef KGM_BASE_LRU_CACHE_H_
#define KGM_BASE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace kgm {

struct LruCounters {
  size_t hits = 0;
  size_t misses = 0;          // includes collision misses
  size_t key_collisions = 0;  // hash matched, full key did not
  size_t evictions = 0;       // capacity evictions only
};

// K must provide `uint64_t Hash() const` and `operator==`.
template <typename K, typename V>
class LruCache {
 public:
  using Counters = LruCounters;

  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  // nullptr on miss; promotes the entry on hit.  A hash match with a
  // different full key is a miss, not a hit.
  std::shared_ptr<const V> Get(const K& key) {
    const uint64_t hash = key.Hash();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) {
      ++counters_.misses;
      return nullptr;
    }
    if (!(it->second->key == key)) {
      ++counters_.key_collisions;
      ++counters_.misses;
      return nullptr;
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  // Stores `value` for `key`, replacing the value of an equal cached key.
  void Put(K key, std::shared_ptr<const V> value) {
    Insert(std::move(key), std::move(value), /*replace=*/true);
  }

  // Stores `value` unless an equal key is already cached, and returns the
  // value the cache holds for `key` afterwards — `value` itself when the
  // cache keeps nothing.  Callers that compute a missing value outside the
  // lock thus all settle on the first copy stored.
  std::shared_ptr<const V> PutIfAbsent(K key, std::shared_ptr<const V> value) {
    return Insert(std::move(key), std::move(value), /*replace=*/false);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    by_hash_.clear();
  }

  // Visits every entry, most recently used first, without promoting.
  // `fn(const K&, const std::shared_ptr<const V>&)`.  Used by the serving
  // layer to carry result entries across delta publications.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : lru_) fn(e.key, e.value);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  struct Entry {
    uint64_t hash;
    K key;
    std::shared_ptr<const V> value;
  };

  std::shared_ptr<const V> Insert(K key, std::shared_ptr<const V> value,
                                  bool replace) {
    if (capacity_ == 0) return value;
    const uint64_t hash = key.Hash();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_hash_.find(hash);
    if (it != by_hash_.end()) {
      if (!(it->second->key == key)) {
        // A different key hashes here; the newcomer displaces it.
        ++counters_.key_collisions;
        it->second->key = std::move(key);
        it->second->value = std::move(value);
      } else if (replace) {
        it->second->value = std::move(value);
      }
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->value;
    }
    lru_.push_front(Entry{hash, std::move(key), value});
    by_hash_[hash] = lru_.begin();
    while (lru_.size() > capacity_) {
      by_hash_.erase(lru_.back().hash);
      lru_.pop_back();
      ++counters_.evictions;
    }
    return value;
  }

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, typename std::list<Entry>::iterator> by_hash_;
  Counters counters_;
};

}  // namespace kgm

#endif  // KGM_BASE_LRU_CACHE_H_
