// LruCache key-collision behavior: entries store their full key material
// and verify it on every hit, so two distinct keys whose 64-bit hashes
// collide can never serve each other's values — a forced collision is a
// miss (counted in key_collisions), not wrong data.

#include "base/lru_cache.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "metalog/prepared.h"

namespace kgm::service {
namespace {

// Every key hashes to the same bucket; equality is by payload.  This is
// the adversarial case: without full-key verification, any two keys would
// alias each other's cached values.
struct CollidingKey {
  std::string payload;
  uint64_t Hash() const { return 42; }
  bool operator==(const CollidingKey& other) const {
    return payload == other.payload;
  }
};

TEST(LruCacheTest, BasicHitAndMiss) {
  LruCache<CollidingKey, std::string> cache(4);
  EXPECT_EQ(cache.Get(CollidingKey{"a"}), nullptr);
  cache.Put(CollidingKey{"a"}, std::make_shared<const std::string>("va"));
  auto hit = cache.Get(CollidingKey{"a"});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "va");
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().key_collisions, 0u);
}

TEST(LruCacheTest, ForcedCollisionIsAMissNotWrongData) {
  LruCache<CollidingKey, std::string> cache(4);
  cache.Put(CollidingKey{"a"}, std::make_shared<const std::string>("va"));

  // Same hash, different key: must NOT return "va".
  auto other = cache.Get(CollidingKey{"b"});
  EXPECT_EQ(other, nullptr);
  EXPECT_EQ(cache.counters().key_collisions, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);

  // The original entry still serves its own key.
  auto hit = cache.Get(CollidingKey{"a"});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "va");
}

TEST(LruCacheTest, CollidingPutDisplacesInsteadOfAliasing) {
  LruCache<CollidingKey, std::string> cache(4);
  cache.Put(CollidingKey{"a"}, std::make_shared<const std::string>("va"));
  cache.Put(CollidingKey{"b"}, std::make_shared<const std::string>("vb"));
  EXPECT_EQ(cache.counters().key_collisions, 1u);

  // "b" displaced "a" (one entry per hash slot); each key only ever sees
  // its own value.
  auto b = cache.Get(CollidingKey{"b"});
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*b, "vb");
  EXPECT_EQ(cache.Get(CollidingKey{"a"}), nullptr);
}

TEST(LruCacheTest, SameKeyPutReplacesValue) {
  LruCache<CollidingKey, std::string> cache(4);
  cache.Put(CollidingKey{"a"}, std::make_shared<const std::string>("v1"));
  cache.Put(CollidingKey{"a"}, std::make_shared<const std::string>("v2"));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Get(CollidingKey{"a"});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "v2");
  EXPECT_EQ(cache.counters().key_collisions, 0u);
}

TEST(LruCacheTest, PutIfAbsentKeepsTheFirstValue) {
  LruCache<CollidingKey, std::string> cache(4);
  auto first = std::make_shared<const std::string>("v1");
  EXPECT_EQ(cache.PutIfAbsent(CollidingKey{"a"}, first), first);
  auto kept = cache.PutIfAbsent(CollidingKey{"a"},
                                std::make_shared<const std::string>("v2"));
  EXPECT_EQ(kept, first);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(CollidingKey{"a"}), "v1");

  // A colliding key still displaces instead of aliasing.
  auto b = cache.PutIfAbsent(CollidingKey{"b"},
                             std::make_shared<const std::string>("vb"));
  EXPECT_EQ(*b, "vb");
  EXPECT_EQ(cache.counters().key_collisions, 1u);

  // A cache that keeps nothing hands the value back.
  LruCache<CollidingKey, std::string> none(0);
  EXPECT_EQ(none.PutIfAbsent(CollidingKey{"a"}, first), first);
  EXPECT_EQ(none.size(), 0u);
}

struct DistinctKey {
  int id = 0;
  uint64_t Hash() const { return static_cast<uint64_t>(id) * 0x9E3779B9; }
  bool operator==(const DistinctKey& other) const { return id == other.id; }
};

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<DistinctKey, int> cache(2);
  cache.Put(DistinctKey{1}, std::make_shared<const int>(1));
  cache.Put(DistinctKey{2}, std::make_shared<const int>(2));
  ASSERT_NE(cache.Get(DistinctKey{1}), nullptr);  // 1 is now MRU
  cache.Put(DistinctKey{3}, std::make_shared<const int>(3));
  EXPECT_EQ(cache.Get(DistinctKey{2}), nullptr);  // 2 was LRU, evicted
  EXPECT_NE(cache.Get(DistinctKey{1}), nullptr);
  EXPECT_NE(cache.Get(DistinctKey{3}), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(LruCacheTest, ForEachVisitsEntriesForCarryForward) {
  LruCache<DistinctKey, int> cache(4);
  cache.Put(DistinctKey{1}, std::make_shared<const int>(10));
  cache.Put(DistinctKey{2}, std::make_shared<const int>(20));
  int sum = 0;
  cache.ForEach([&](const DistinctKey& key,
                    const std::shared_ptr<const int>& value) {
    sum += key.id + *value;
  });
  EXPECT_EQ(sum, 33);
}

// PreparedCache canonical keys: the full key material covers the source
// text and the catalog's labels/properties, so two compilations that differ
// in either can never verify as equal — regardless of what their
// fingerprints hash to.
TEST(PreparedCacheTest, CanonicalKeySeparatesSourceAndCatalog) {
  metalog::GraphCatalog catalog;
  catalog.AddNodeLabel("Item", {"n"});
  catalog.AddEdgeLabel("LINK", {});
  metalog::GraphCatalog wider = catalog;
  wider.AddNodeLabel("Other", {});

  const std::string base =
      metalog::PreparedCache::CanonicalKey("src", catalog);
  EXPECT_NE(base, metalog::PreparedCache::CanonicalKey("src2", catalog));
  EXPECT_NE(base, metalog::PreparedCache::CanonicalKey("src", wider));
  EXPECT_EQ(base, metalog::PreparedCache::CanonicalKey("src", catalog));
}

TEST(PreparedCacheTest, HitsVerifyFullKeyAndCountCollisions) {
  metalog::GraphCatalog catalog;
  catalog.AddNodeLabel("Item", {"n"});
  catalog.AddEdgeLabel("LINK", {});
  metalog::PreparedCache cache(8);
  const char* program =
      "(x: Item)[: LINK](y: Item) -> exists e (x)[e: LINK2](y).";
  auto first = cache.Compile(program, catalog);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.Compile(program, catalog);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared entry
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  // No collision occurred; the counter exists and stays zero.
  EXPECT_EQ(cache.counters().key_collisions, 0u);
}

// PreparedCache is one LruCache: its capacity bounds it like any other.
metalog::GraphCatalog ItemLinkCatalog() {
  metalog::GraphCatalog catalog;
  catalog.AddNodeLabel("Item", {"n"});
  catalog.AddEdgeLabel("LINK", {});
  return catalog;
}

TEST(PreparedCacheTest, ZeroCapacityKeepsNothing) {
  const metalog::GraphCatalog catalog = ItemLinkCatalog();
  metalog::PreparedCache cache(0);
  for (int i = 0; i < 3; ++i) {
    const std::string program = "LINK(e, x, y) -> hop" + std::to_string(i) +
                                "(x, y).";
    auto compiled = cache.Compile(program, catalog,
                                  metalog::QueryLanguage::kVadalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ASSERT_TRUE(cache.Compile(program, catalog,
                              metalog::QueryLanguage::kVadalog)
                    .ok());
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 6u);
}

TEST(PreparedCacheTest, CapacityOneEvicts) {
  const metalog::GraphCatalog catalog = ItemLinkCatalog();
  metalog::PreparedCache cache(1);
  const char* first = "LINK(e, x, y) -> hop(x, y).";
  const char* second = "LINK(e, x, y) -> pair(x, y).";
  ASSERT_TRUE(cache.Compile(first, catalog,
                            metalog::QueryLanguage::kVadalog).ok());
  ASSERT_TRUE(cache.Compile(second, catalog,
                            metalog::QueryLanguage::kVadalog).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  // `first` was evicted; `second` is still resident.
  ASSERT_TRUE(cache.Compile(second, catalog,
                            metalog::QueryLanguage::kVadalog).ok());
  ASSERT_TRUE(cache.Compile(first, catalog,
                            metalog::QueryLanguage::kVadalog).ok());
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 3u);
}

// Racing cold-start compiles of one key may each compile, but all of them
// get the first entry stored, so per-entry state (the serving layer's
// rewrite cache keys on the entry) is never split across copies.
TEST(PreparedCacheTest, ConcurrentColdCompilesShareOneEntry) {
  const metalog::GraphCatalog catalog = ItemLinkCatalog();
  metalog::PreparedCache cache(8);
  constexpr size_t kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<const metalog::CompiledMeta*> entries(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      auto compiled = cache.Compile("LINK(e, x, y) -> hop(x, y).", catalog,
                                    metalog::QueryLanguage::kVadalog);
      if (compiled.ok()) entries[i] = compiled->get();
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  ASSERT_NE(entries[0], nullptr);
  for (const metalog::CompiledMeta* entry : entries) {
    EXPECT_EQ(entry, entries[0]);
  }
  EXPECT_EQ(cache.size(), 1u);
  auto again = cache.Compile("LINK(e, x, y) -> hop(x, y).", catalog,
                             metalog::QueryLanguage::kVadalog);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), entries[0]);
}

TEST(PreparedCacheTest, LanguageIsPartOfTheKey) {
  const metalog::GraphCatalog catalog = ItemLinkCatalog();
  EXPECT_NE(metalog::PreparedCache::CanonicalKey(
                "src", catalog, metalog::QueryLanguage::kMetaLog),
            metalog::PreparedCache::CanonicalKey(
                "src", catalog, metalog::QueryLanguage::kVadalog));

  // A Vadalog entry holds the parsed program and the base catalog; MTV
  // leaves nothing in it.
  metalog::PreparedCache cache(8);
  auto compiled = cache.Compile("LINK(e, x, y) -> hop(x, y).", catalog,
                                metalog::QueryLanguage::kVadalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ((*compiled)->language, metalog::QueryLanguage::kVadalog);
  ASSERT_EQ((*compiled)->program.rules.size(), 1u);
  EXPECT_EQ((*compiled)->catalog.Fingerprint(), catalog.Fingerprint());
  EXPECT_TRUE((*compiled)->rule_origin.empty());
  EXPECT_TRUE((*compiled)->lint.diagnostics.empty());

  // Vadalog text is not MetaLog: the MetaLog compile of it is its own
  // (failing, uncached) key.
  EXPECT_FALSE(cache.Compile("LINK(e, x, y) -> hop(x, y).", catalog)
                   .ok());
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace kgm::service
