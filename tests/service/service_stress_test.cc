// Concurrency torture for the serving layer: readers keep querying while a
// publisher swaps epochs underneath them.  Every result must be internally
// consistent with the epoch it reports — a torn read (rows from one epoch,
// stamp from another) is the failure mode epoch snapshots exist to prevent.
// Run under TSan via tools/check.sh.

#include "service/service.h"

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kgm::service {
namespace {

// Epoch k publishes a chain with (kBaseEdges + k) LINK edges, so the
// expected row count identifies the epoch that produced a result.
constexpr size_t kBaseEdges = 3;

pg::PropertyGraph GraphForEpoch(size_t k) {
  const size_t nodes = kBaseEdges + k + 1;
  pg::PropertyGraph g;
  std::vector<pg::NodeId> ids;
  for (size_t i = 0; i < nodes; ++i) {
    ids.push_back(g.AddNode("Item", {{"n", Value(int64_t(i))}}));
  }
  for (size_t i = 0; i + 1 < nodes; ++i) {
    g.AddEdge(ids[i], ids[i + 1], "LINK");
  }
  return g;
}

const char kCopyLinks[] =
    "(x: Item)[: LINK](y: Item) -> exists e (x)[e: LINK2](y).";

TEST(ServiceStressTest, ReadersSeeConsistentEpochsAcrossPublishes) {
  KgServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  KgService svc(options);
  const uint64_t first_epoch = svc.Publish(GraphForEpoch(1));
  ASSERT_EQ(first_epoch, 1u);

  constexpr size_t kEpochs = 8;
  constexpr size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> cache_hits{0};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.program = kCopyLinks;
        request.output = "LINK2";
        // Alternate cached and uncached evaluations per reader.
        request.use_result_cache = ((r + i++) % 2) == 0;
        auto result = svc.Query(request);
        if (!result.ok()) {
          // Admission rejections are legal under load; anything else is
          // not.
          if (result.status().code() != StatusCode::kUnavailable) {
            failures.fetch_add(1);
          }
          continue;
        }
        // rows must match the epoch the result claims, whatever epoch is
        // current by now.
        const size_t expected = kBaseEdges + (result->epoch);
        if (result->rows->size() != expected) {
          ADD_FAILURE() << "torn read: epoch " << result->epoch << " with "
                        << result->rows->size() << " rows, expected "
                        << expected;
          failures.fetch_add(1);
        }
        if (result->result_cache_hit) cache_hits.fetch_add(1);
        checked.fetch_add(1);
      }
    });
  }

  for (size_t k = 2; k <= kEpochs; ++k) {
    const uint64_t epoch = svc.Publish(GraphForEpoch(k));
    EXPECT_EQ(epoch, k);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(svc.CurrentEpoch(), kEpochs);

  // After the last publish, a cached query must reflect the final epoch.
  QueryRequest request;
  request.program = kCopyLinks;
  request.output = "LINK2";
  auto final_result = svc.Query(request);
  ASSERT_TRUE(final_result.ok()) << final_result.status().ToString();
  EXPECT_EQ(final_result->epoch, kEpochs);
  EXPECT_EQ(final_result->rows->size(), kBaseEdges + kEpochs);
}

TEST(ServiceStressTest, TinyQueueUnderLoadConservesRequests) {
  KgServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1;
  KgService svc(options);
  svc.Publish(GraphForEpoch(1));

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 40;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> rejected{0};
  std::atomic<size_t> other{0};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; ++i) {
        QueryRequest request;
        request.program = kCopyLinks;
        request.output = "LINK2";
        auto result = svc.Query(request);
        if (result.ok()) {
          ok.fetch_add(1);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every request either succeeded or was rejected at admission — nothing
  // lost, nothing failed, no deadlock.
  EXPECT_EQ(ok.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_GT(ok.load(), 0u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queue_rejected, rejected.load());
  EXPECT_EQ(stats.queries_ok, ok.load());
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Concurrent point reads with different constants share one cached magic
// rewrite: after one warm-up read compiles the program and computes the
// rewrite, no reader computes either again, and every answer has the size
// its source fixes on the chain.
TEST(ServiceStressTest, ConcurrentReadersShareOneCachedRewrite) {
  constexpr size_t kChainEdges = 10;
  KgServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  KgService svc(options);
  svc.Publish(GraphForEpoch(kChainEdges - kBaseEdges));

  // Chain position of every node with an outgoing LINK: a node with k
  // edges after it reaches k nodes.
  std::map<Value, Value> next;
  std::set<Value> targets;
  for (const vadalog::Tuple& t :
       svc.CurrentSnapshot()->facts.at("LINK")->tuples()) {
    next.emplace(t[1], t[2]);
    targets.insert(t[2]);
  }
  std::vector<Value> sources;  // sources[i] reaches kChainEdges - i nodes
  for (const auto& [from, to] : next) {
    if (targets.count(from) == 0) sources.push_back(from);
  }
  ASSERT_EQ(sources.size(), 1u);
  while (next.count(sources.back()) > 0 &&
         sources.size() < kChainEdges) {
    sources.push_back(next.at(sources.back()));
  }
  ASSERT_EQ(sources.size(), kChainEdges);

  auto request_for = [&](size_t i) {
    QueryRequest request;
    request.program =
        "LINK(_e, x, y) -> reach(x, y).\n"
        "reach(x, y), LINK(_e, y, z) -> reach(x, z).";
    request.language = QueryLanguage::kVadalog;
    request.output = "reach";
    request.bound_args = {sources[i], std::nullopt};
    request.use_result_cache = false;
    return request;
  };
  ASSERT_TRUE(svc.Query(request_for(0)).ok());

  constexpr size_t kReaders = 4;
  constexpr size_t kPerReader = 40;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0; i < kPerReader; ++i) {
        const size_t source = (r * kPerReader + i) % kChainEdges;
        auto result = svc.Query(request_for(source));
        if (!result.ok() ||
            result->point_mode != vadalog::magic::PointQueryMode::kMagic ||
            result->rows->size() != kChainEdges - source) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.point_magic, 1 + kReaders * kPerReader);
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 1u);
}

// Bound reach reads share the published relations across threads (4
// service workers, 2 engine threads per query) while a writer publishes
// delta epochs that alias them.  The writer alternates deleting the last
// `k` LINK edges of a chain and restoring them, so each epoch's answer
// size is known from its number alone.
TEST(ServiceStressTest, SharedRelationReadsStayConsistentUnderDeltaWrites) {
  constexpr size_t kChainEdges = 12;
  constexpr size_t kSources = 3;
  constexpr size_t kWriteCycles = 24;
  KgServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.engine.num_threads = 2;
  KgService svc(options);
  svc.Publish(GraphForEpoch(kChainEdges - kBaseEdges));

  // LINK rows by chain position; node i's oid is LINK row i's `from`.
  std::shared_ptr<const Snapshot> base = svc.CurrentSnapshot();
  std::vector<vadalog::Tuple> chain(kChainEdges);
  std::vector<Value> node_oids(kChainEdges + 1);
  {
    std::map<Value, vadalog::Tuple> by_from;
    std::set<Value> targets;
    for (const vadalog::Tuple& t : base->facts.at("LINK")->tuples()) {
      by_from.emplace(t[1], t);
      targets.insert(t[2]);
    }
    Value at;
    for (const auto& [from, t] : by_from) {
      if (targets.count(from) == 0) at = from;  // the chain's head
    }
    for (size_t i = 0; i < kChainEdges; ++i) {
      chain[i] = by_from.at(at);
      node_oids[i] = at;
      at = chain[i][2];
    }
    node_oids[kChainEdges] = at;
  }
  // Write cycle c deletes the last (c % 3 + 1) edges at epoch 2 + 2c and
  // restores them at epoch 3 + 2c.
  auto removed = [&](uint64_t epoch) -> size_t {
    if (epoch < 2 || epoch % 2 == 1) return 0;
    return (epoch - 2) / 2 % 3 + 1;
  };
  auto expected = [&](uint64_t epoch, size_t source) -> size_t {
    const size_t edges = kChainEdges - removed(epoch);
    return edges > source ? edges - source : 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t source = (r + i) % kSources;
        QueryRequest request;
        request.program =
            "LINK(_e, x, y) -> reach(x, y).\n"
            "reach(x, y), LINK(_e, y, z) -> reach(x, z).";
        request.language = QueryLanguage::kVadalog;
        request.output = "reach";
        request.bound_args = {node_oids[source], std::nullopt};
        request.use_result_cache = ((r + i++) % 2) == 0;
        auto result = svc.Query(request);
        if (!result.ok()) {
          if (result.status().code() != StatusCode::kUnavailable) {
            ADD_FAILURE() << result.status().ToString();
            failures.fetch_add(1);
          }
          continue;
        }
        if (result->rows->size() != expected(result->epoch, source)) {
          ADD_FAILURE() << "epoch " << result->epoch << " source " << source
                        << ": " << result->rows->size() << " rows, expected "
                        << expected(result->epoch, source);
          failures.fetch_add(1);
        }
        checked.fetch_add(1);
      }
    });
  }

  for (size_t c = 0; c < kWriteCycles; ++c) {
    const size_t k = c % 3 + 1;
    vadalog::EdbDelta forward;
    vadalog::EdbDelta inverse;
    for (size_t i = kChainEdges - k; i < kChainEdges; ++i) {
      forward.deletes["LINK"].push_back(chain[i]);
      inverse.inserts["LINK"].push_back(chain[i]);
    }
    for (const vadalog::EdbDelta* delta : {&forward, &inverse}) {
      auto epoch = svc.ApplyDelta(*delta);
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(svc.CurrentEpoch(), 1 + 2 * kWriteCycles);
  // Reads never copied a snapshot relation; the pinned base is intact.
  EXPECT_EQ(svc.Stats().relations_copied, 0u);
  EXPECT_EQ(base->facts.at("LINK")->size(), kChainEdges);
}

}  // namespace
}  // namespace kgm::service
