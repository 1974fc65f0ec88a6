// KgService behavior: publication, the prepared, rewrite and result
// caches, admission control, deadlines and the error taxonomy.

#include "service/service.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "vadalog/parser.h"

namespace kgm::service {
namespace {

// A chain of `n` Item nodes connected by LINK edges.
pg::PropertyGraph ChainGraph(int n) {
  pg::PropertyGraph g;
  std::vector<pg::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(g.AddNode("Item", {{"n", Value(int64_t{i})}}));
  }
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge(nodes[i], nodes[i + 1], "LINK");
  }
  return g;
}

// Copies every LINK edge to a derived LINK2 edge.
const char kCopyLinks[] =
    "(x: Item)[: LINK](y: Item) -> exists e (x)[e: LINK2](y).";

QueryRequest CopyLinksRequest() {
  QueryRequest request;
  request.program = kCopyLinks;
  request.language = QueryLanguage::kMetaLog;
  request.output = "LINK2";
  return request;
}

TEST(ServiceTest, QueryBeforePublishFails) {
  KgService svc;
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, PublishAndQuery) {
  KgService svc;
  EXPECT_EQ(svc.CurrentEpoch(), 0u);
  const uint64_t epoch = svc.Publish(ChainGraph(6));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(svc.CurrentEpoch(), 1u);

  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 1u);
  EXPECT_FALSE(result->result_cache_hit);
  EXPECT_EQ(result->rows->size(), 5u);  // 5 LINK edges copied
  // Edge encoding: oid, from, to (LINK2 has no properties).
  ASSERT_EQ(result->columns.size(), 3u);
  EXPECT_EQ(result->columns[0], "oid");
  EXPECT_EQ(result->columns[1], "from");
  EXPECT_EQ(result->columns[2], "to");
}

TEST(ServiceTest, ResultCacheHitOnRepeat) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  auto first = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);

  auto second = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->result_cache_hit);
  // The cached rows are shared, not recomputed.
  EXPECT_EQ(second->rows.get(), first->rows.get());

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.result_cache_misses, 1u);
  EXPECT_EQ(stats.queries_ok, 2u);
}

TEST(ServiceTest, ResultCacheCanBeBypassed) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  QueryRequest request = CopyLinksRequest();
  request.use_result_cache = false;
  auto first = svc.Query(request);
  auto second = svc.Query(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cache_hit);
  EXPECT_NE(second->rows.get(), first->rows.get());
}

TEST(ServiceTest, PreparedCacheReusedAcrossEpochs) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());
  // Same label catalog, so the compiled program is reused even though the
  // result cache was invalidated.
  svc.Publish(ChainGraph(7));
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 2u);
  EXPECT_FALSE(result->result_cache_hit);
  EXPECT_EQ(result->rows->size(), 6u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.prepared_cache_hits, 1u);
}

TEST(ServiceTest, PublishInvalidatesResultCache) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  auto before = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows->size(), 4u);

  svc.Publish(ChainGraph(9));
  auto after = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cache_hit);
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->rows->size(), 8u);
}

TEST(ServiceTest, CompileErrorIsReported) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  QueryRequest request;
  request.program = "this is not metalog";
  request.output = "X";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST(ServiceTest, VadalogQueryRunsOverEncoding) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  QueryRequest request;
  // The encoding exposes LINK edges as LINK(oid, from, to).
  request.program =
      "LINK(e, x, y) -> hop(x, y).\n"
      "hop(x, y), LINK(e, y, z) -> hop(x, z).";
  request.language = QueryLanguage::kVadalog;
  request.output = "hop";
  auto result = svc.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Closure of a 3-edge chain: 3 + 2 + 1 pairs.
  EXPECT_EQ(result->rows->size(), 6u);
}

TEST(ServiceTest, VadalogFactWithConflictingArityIsRejected) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  // LINK is 3-ary in the encoding; a 2-ary client fact must fail the query,
  // not the process.
  QueryRequest request;
  request.program = "@fact LINK(1, 2). LINK(x, y) -> hop(x, y).";
  request.language = QueryLanguage::kVadalog;
  request.output = "hop";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();
}

// The same conflict on a point read of an extensional predicate: the EDB
// lookup refuses the client fact before inserting it, the process lives,
// and the service answers the next request.
TEST(ServiceTest, PointReadOfFactWithConflictingArityIsRejected) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  // Item is 2-ary in the encoding: Item(oid, n).
  QueryRequest request;
  request.program = "@fact Item(1, 2, 3).";
  request.language = QueryLanguage::kVadalog;
  request.output = "Item";
  request.bound_args = {Value(int64_t{1}), std::nullopt, std::nullopt};
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();

  const Value source = svc.CurrentSnapshot()->facts.at("LINK")->tuple(0)[1];
  QueryRequest next;
  next.program = "LINK(e, x, y) -> hop(x, y).";
  next.language = QueryLanguage::kVadalog;
  next.output = "LINK";
  next.bound_args = {std::nullopt, source, std::nullopt};
  auto lookup = svc.Query(next);
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(lookup->point_mode, vadalog::magic::PointQueryMode::kEdbLookup);
  EXPECT_EQ(lookup->rows->size(), 1u);
}

TEST(ServiceTest, ZeroCapacityQueueRejectsDeterministically) {
  KgServiceOptions options;
  options.queue_capacity = 0;
  KgService svc(options);
  svc.Publish(ChainGraph(3));

  auto queued = svc.Query(CopyLinksRequest());
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kUnavailable);

  // Execute bypasses admission control and still works.
  auto direct = svc.Execute(CopyLinksRequest());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->rows->size(), 2u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queue_rejected, 1u);
}

TEST(ServiceTest, DeadlineExceededThroughService) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  // A big closure with a 1ms budget: the engine's cooperative checks cut
  // it off mid-fixpoint.
  std::ostringstream program;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    program << "@fact edge(" << i << ", " << (i + 1) % n << ").\n";
  }
  program << "edge(x, y) -> path(x, y).\n";
  program << "path(x, y), edge(y, z) -> path(x, z).\n";

  QueryRequest request;
  request.program = program.str();
  request.language = QueryLanguage::kVadalog;
  request.output = "path";
  request.timeout_ms = 1;
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(ServiceTest, StatsJsonIsWellFormed) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());
  std::string json = svc.Stats().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"queries_ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_p50\":"), std::string::npos) << json;
}

// Builds a one-delete + one-insert LINK delta from the snapshot's own
// encoding: the deleted tuple is the first LINK row; the inserted tuple
// recombines existing oids/endpoints into a row the relation doesn't have.
vadalog::EdbDelta OneLinkDelta(const Snapshot& snap,
                               vadalog::Tuple* removed_out = nullptr,
                               vadalog::Tuple* added_out = nullptr) {
  const vadalog::Relation& link = *snap.facts.at("LINK");
  vadalog::Tuple removed = link.tuple(0);
  // (oid of edge 1, source of edge 0, target of edge 1): a fresh row on any
  // chain of >= 3 nodes.
  vadalog::Tuple added = {link.tuple(1)[0], link.tuple(0)[1],
                          link.tuple(1)[2]};
  EXPECT_FALSE(link.Contains(added));
  vadalog::EdbDelta delta;
  delta.deletes["LINK"].push_back(removed);
  delta.inserts["LINK"].push_back(added);
  if (removed_out != nullptr) *removed_out = std::move(removed);
  if (added_out != nullptr) *added_out = std::move(added);
  return delta;
}

TEST(ServiceTest, ApplyDeltaPublishesStructurallySharedSnapshot) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  std::shared_ptr<const Snapshot> snap1 = svc.CurrentSnapshot();
  ASSERT_NE(snap1, nullptr);

  vadalog::Tuple removed, added;
  auto epoch = svc.ApplyDelta(OneLinkDelta(*snap1, &removed, &added));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);

  std::shared_ptr<const Snapshot> snap2 = svc.CurrentSnapshot();
  ASSERT_NE(snap2, nullptr);
  EXPECT_TRUE(snap2->is_delta);
  // Only the touched relation is re-materialized; everything else — the
  // Item relation, the property graph — is shared with epoch 1 by pointer.
  EXPECT_EQ(snap2->facts.at("Item").get(), snap1->facts.at("Item").get());
  EXPECT_NE(snap2->facts.at("LINK").get(), snap1->facts.at("LINK").get());
  EXPECT_EQ(snap2->graph.get(), snap1->graph.get());
  EXPECT_FALSE(snap2->facts.at("LINK")->Contains(removed));
  EXPECT_TRUE(snap2->facts.at("LINK")->Contains(added));
  // The old snapshot is untouched: a pinned reader still sees epoch 1.
  EXPECT_TRUE(snap1->facts.at("LINK")->Contains(removed));

  // Queries run against the delta-applied encoding (4 - 1 + 1 edges).
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 2u);
  EXPECT_EQ(result->rows->size(), 4u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.publishes, 2u);       // full + delta
  EXPECT_EQ(stats.delta_publishes, 1u);
  EXPECT_EQ(stats.epoch, 2u);
}

TEST(ServiceTest, ApplyDeltaCarriesForwardUntouchedResults) {
  KgService svc;
  svc.Publish(ChainGraph(5));

  // One query that reads only Item, one that reads LINK.
  QueryRequest items;
  items.program = "Item(o, n) -> item_copy(o, n).";
  items.language = QueryLanguage::kVadalog;
  items.output = "item_copy";
  auto items_before = svc.Query(items);
  ASSERT_TRUE(items_before.ok()) << items_before.status().ToString();
  EXPECT_FALSE(items_before->result_cache_hit);
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());

  auto epoch = svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot()));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  // The Item-only entry was carried to the new epoch: hit, shared rows.
  auto items_after = svc.Query(items);
  ASSERT_TRUE(items_after.ok()) << items_after.status().ToString();
  EXPECT_TRUE(items_after->result_cache_hit);
  EXPECT_EQ(items_after->epoch, 2u);
  EXPECT_EQ(items_after->rows.get(), items_before->rows.get());

  // The LINK-reading entry was not: the delta changed its input relation.
  auto links_after = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(links_after.ok()) << links_after.status().ToString();
  EXPECT_FALSE(links_after->result_cache_hit);
  EXPECT_EQ(links_after->epoch, 2u);
}

TEST(ServiceTest, DeltaSnapshotRejectsEncodingWideningQueries) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  ASSERT_TRUE(svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot())).ok());

  // Mentions an unseen Item property: on a full snapshot this falls back
  // to re-encoding the graph, but a delta snapshot's graph is stale — the
  // service must refuse rather than silently dropping the delta.
  QueryRequest request;
  request.program =
      "(x: Item; extra: v)[: LINK](y: Item) -> exists e (x)[e: LINK3](y).";
  request.output = "LINK3";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();

  // Publishing a full graph clears the condition.
  svc.Publish(ChainGraph(4));
  auto retried = svc.Query(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->fresh_encoding);
}

TEST(ServiceTest, ApplyDeltaValidatesPredicatesAndArity) {
  KgService svc;

  vadalog::EdbDelta delta;
  delta.inserts["LINK"].push_back({Value(int64_t{1})});
  auto before_publish = svc.ApplyDelta(delta);
  ASSERT_FALSE(before_publish.ok());
  EXPECT_EQ(before_publish.status().code(), StatusCode::kFailedPrecondition);

  svc.Publish(ChainGraph(3));

  vadalog::EdbDelta unknown;
  unknown.inserts["NO_SUCH_RELATION"].push_back({Value(int64_t{1})});
  auto unknown_result = svc.ApplyDelta(unknown);
  ASSERT_FALSE(unknown_result.ok());
  EXPECT_EQ(unknown_result.status().code(), StatusCode::kInvalidArgument);

  vadalog::EdbDelta bad_arity;
  bad_arity.deletes["LINK"].push_back({Value(int64_t{1})});  // LINK is arity 3
  auto arity_result = svc.ApplyDelta(bad_arity);
  ASSERT_FALSE(arity_result.ok());
  EXPECT_EQ(arity_result.status().code(), StatusCode::kInvalidArgument);

  // Rejected deltas publish nothing.
  EXPECT_EQ(svc.CurrentEpoch(), 1u);
  EXPECT_EQ(svc.Stats().delta_publishes, 0u);
}

TEST(ServiceTest, StatsCountRejectionsSeparatelyFromCompletedQueries) {
  KgServiceOptions options;
  options.queue_capacity = 0;  // every Query() is bounced at admission
  KgService svc(options);
  svc.Publish(ChainGraph(4));

  // Two completed-ok, one completed-failed (all via Execute, which bypasses
  // admission), and three admission rejections.
  ASSERT_TRUE(svc.Execute(CopyLinksRequest()).ok());
  QueryRequest uncached = CopyLinksRequest();
  uncached.use_result_cache = false;
  ASSERT_TRUE(svc.Execute(uncached).ok());
  QueryRequest bad;
  bad.program = "this is not metalog";
  bad.output = "X";
  ASSERT_FALSE(svc.Execute(bad).ok());
  for (int i = 0; i < 3; ++i) {
    auto rejected = svc.Query(CopyLinksRequest());
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  }

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.queue_rejected, 3u);
  // The contract: queries_total counts completed queries only — rejections
  // are reported separately and never inflate throughput.
  EXPECT_EQ(stats.queries_total,
            stats.queries_ok + stats.queries_failed + stats.deadline_exceeded);
  EXPECT_EQ(stats.queries_total, 3u);
  ASSERT_GT(stats.uptime_seconds, 0.0);
  EXPECT_NEAR(stats.qps * stats.uptime_seconds,
              static_cast<double>(stats.queries_total), 1e-6);

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"queries_total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_rejected\":3"), std::string::npos) << json;
}

TEST(ServiceTest, WidenedCatalogFallsBackToFreshEncoding) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  // Mentions an Item property the graph never had: the compiled catalog
  // widens Item's property list, so the snapshot encoding is incompatible
  // and the graph is re-encoded for this query.
  QueryRequest request;
  request.program =
      "(x: Item; extra: v)[: LINK](y: Item) -> exists e (x)[e: LINK3](y).";
  request.output = "LINK3";
  auto result = svc.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->fresh_encoding);
}

// ------------------------------------------------------------- Point query

// The closure-over-LINK program the point-query tests share.
QueryRequest HopClosureRequest() {
  QueryRequest request;
  request.program =
      "LINK(e, x, y) -> hop(x, y).\n"
      "hop(x, y), LINK(e, y, z) -> hop(x, z).";
  request.language = QueryLanguage::kVadalog;
  request.output = "hop";
  return request;
}

TEST(ServiceTest, PointQueryRoutesThroughMagicAndMatchesMaterialize) {
  KgService svc;
  svc.Publish(ChainGraph(8));
  const Value source = svc.CurrentSnapshot()->facts.at("LINK")->tuple(0)[1];

  QueryRequest request = HopClosureRequest();
  request.use_result_cache = false;
  request.bound_args = {source, std::nullopt};
  auto magic = svc.Query(request);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  EXPECT_EQ(magic->point_mode, vadalog::magic::PointQueryMode::kMagic)
      << magic->point_fallback;
  // Bound on the chain head: the whole 7-hop suffix.
  EXPECT_EQ(magic->rows->size(), 7u);
  for (const vadalog::Tuple& t : *magic->rows) EXPECT_EQ(t[0], source);

  request.use_point_query = false;
  auto baseline = svc.Query(request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->point_mode, vadalog::magic::PointQueryMode::kMaterialize);
  EXPECT_EQ(baseline->rows->size(), magic->rows->size());
  // The rewrite only explores the bound cone; the baseline pays the full
  // closure plus the output filter scan.
  EXPECT_LT(magic->join_probes, baseline->join_probes);

  // An extensional output with a binding is a plain indexed lookup.
  QueryRequest edb = HopClosureRequest();
  edb.output = "LINK";
  edb.use_result_cache = false;
  edb.bound_args = {std::nullopt, source, std::nullopt};
  auto lookup = svc.Query(edb);
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(lookup->point_mode, vadalog::magic::PointQueryMode::kEdbLookup);
  EXPECT_EQ(lookup->rows->size(), 1u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.point_magic, 1u);
  EXPECT_EQ(stats.point_materialize, 1u);
  EXPECT_EQ(stats.point_edb_lookup, 1u);
  EXPECT_EQ(stats.point_queries, 3u);
  EXPECT_GE(stats.magic_rewrites, 1u);
  EXPECT_GT(stats.magic_probes, 0u);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"magic\":{\"point_queries\":3"), std::string::npos)
      << json;
}

TEST(ServiceTest, PointQueryResultCacheKeysOnBindingAndRoute) {
  KgService svc;
  svc.Publish(ChainGraph(6));
  const vadalog::Relation& link = *svc.CurrentSnapshot()->facts.at("LINK");

  QueryRequest request = HopClosureRequest();
  request.bound_args = {link.tuple(0)[1], std::nullopt};
  auto first = svc.Query(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);

  // Same binding again: a hit that restores the recorded routing outcome.
  auto repeat = svc.Query(request);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat->result_cache_hit);
  EXPECT_EQ(repeat->rows.get(), first->rows.get());
  EXPECT_EQ(repeat->point_mode, first->point_mode);
  EXPECT_EQ(repeat->join_probes, first->join_probes);

  // A different binding is a different entry.
  QueryRequest other = request;
  other.bound_args = {link.tuple(1)[1], std::nullopt};
  auto different = svc.Query(other);
  ASSERT_TRUE(different.ok()) << different.status().ToString();
  EXPECT_FALSE(different->result_cache_hit);

  // Same binding, forced-materialize route: the rows agree but the
  // recorded counters don't, so it must not share the magic entry.
  QueryRequest forced = request;
  forced.use_point_query = false;
  auto baseline = svc.Query(forced);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_FALSE(baseline->result_cache_hit);
  EXPECT_EQ(baseline->rows->size(), first->rows->size());

  // Value equality is type-strict, so an int binding and a double
  // binding that render alike have different answer sets; the key
  // serializer must not collapse them (42 vs 42.0 share ToString
  // output).
  QueryRequest as_int = request;
  as_int.bound_args = {Value(int64_t{42}), std::nullopt};
  auto int_bound = svc.Query(as_int);
  ASSERT_TRUE(int_bound.ok()) << int_bound.status().ToString();
  EXPECT_FALSE(int_bound->result_cache_hit);
  QueryRequest as_double = request;
  as_double.bound_args = {Value(42.0), std::nullopt};
  auto double_bound = svc.Query(as_double);
  ASSERT_TRUE(double_bound.ok()) << double_bound.status().ToString();
  EXPECT_FALSE(double_bound->result_cache_hit);

  // A bound request and the unbound request never collide either.
  auto unbound = svc.Query(HopClosureRequest());
  ASSERT_TRUE(unbound.ok()) << unbound.status().ToString();
  EXPECT_FALSE(unbound->result_cache_hit);
  EXPECT_EQ(unbound->point_mode, vadalog::magic::PointQueryMode::kOff);
  EXPECT_GT(unbound->rows->size(), first->rows->size());
}

// Rows of `request.output` matching `request.bound_args` after a full
// evaluation of `request.program` over `snap`'s encoding, sorted.
std::vector<vadalog::Tuple> MaterializeThenFilter(const QueryRequest& request,
                                                  const Snapshot& snap) {
  auto program = vadalog::ParseProgram(request.program);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  vadalog::FactDb db = snap.CloneFacts();
  vadalog::Engine engine(*std::move(program));
  EXPECT_TRUE(engine.Run(&db).ok());
  const vadalog::magic::QueryBinding binding{request.output,
                                             request.bound_args};
  std::vector<vadalog::Tuple> rows;
  if (const vadalog::Relation* rel = db.Get(request.output)) {
    for (const vadalog::Tuple& t : rel->tuples()) {
      if (binding.Matches(t)) rows.push_back(t);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<vadalog::Tuple> SortedRows(const QueryResult& result) {
  std::vector<vadalog::Tuple> rows = *result.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ServiceTest, PointReadsShareOneRewritePerEntryAndAdornment) {
  KgService svc;
  svc.Publish(ChainGraph(8));
  QueryRequest request = HopClosureRequest();
  request.use_result_cache = false;
  // Runs one point read per LINK source with `bound_args` built by
  // `bind`, checking each answer against materialize-then-filter.
  auto read_all = [&](auto bind) {
    std::shared_ptr<const Snapshot> snap = svc.CurrentSnapshot();
    for (const vadalog::Tuple& t : snap->facts.at("LINK")->tuples()) {
      request.bound_args = bind(t);
      auto result = svc.Query(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->point_mode, vadalog::magic::PointQueryMode::kMagic)
          << result->point_fallback;
      EXPECT_FALSE(result->rows->empty());
      EXPECT_EQ(SortedRows(*result), MaterializeThenFilter(request, *snap));
    }
  };
  auto bound_source = [](const vadalog::Tuple& t) {
    return std::vector<std::optional<Value>>{t[1], std::nullopt};
  };
  auto bound_target = [](const vadalog::Tuple& t) {
    return std::vector<std::optional<Value>>{std::nullopt, t[2]};
  };

  // Seven sources, one adornment: one compile and one rewrite.
  read_all(bound_source);
  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.point_magic, 7u);
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 1u);

  // A second adornment of the same entry gets its own rewrite.
  read_all(bound_target);
  stats = svc.Stats();
  EXPECT_EQ(stats.point_magic, 14u);
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 2u);

  // A delta keeps the catalog, so the rewrite is reused; the answers show
  // the delta.
  ASSERT_TRUE(svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot())).ok());
  read_all(bound_source);
  stats = svc.Stats();
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 2u);

  // A publication with the same catalog keeps both the entry and the
  // rewrite.
  svc.Publish(ChainGraph(8));
  read_all(bound_source);
  stats = svc.Stats();
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 2u);

  // A publication that adds a label changes the catalog: the program is
  // compiled again and the rewrite recomputed.
  pg::PropertyGraph wider = ChainGraph(8);
  wider.AddNode("Other", {});
  svc.Publish(std::move(wider));
  read_all(bound_source);
  stats = svc.Stats();
  EXPECT_EQ(stats.prepared_cache_misses, 2u);
  EXPECT_EQ(stats.magic_rewrites, 3u);
}

// A ring of `n` Business nodes: OWNS edges i -> i+1 with percentage 0.6
// (so every business controls its successor) and one LINK edge per node.
pg::PropertyGraph OwnershipRing(int n) {
  pg::PropertyGraph g;
  std::vector<pg::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(g.AddNode("Business", {{"n", Value(int64_t{i})}}));
  }
  for (int i = 0; i < n; ++i) {
    g.AddEdge(nodes[i], nodes[(i + 1) % n], "OWNS",
              {{"percentage", Value(0.6)}});
    g.AddEdge(nodes[i], nodes[(i + 1) % n], "LINK");
  }
  return g;
}

// Pointer, version and fingerprint of every snapshot relation.
struct RelationIdentity {
  const vadalog::Relation* rel;
  uint64_t version;
  uint64_t content_hash;

  bool operator==(const RelationIdentity& o) const {
    return rel == o.rel && version == o.version &&
           content_hash == o.content_hash;
  }
};

std::map<std::string, RelationIdentity> Identities(const Snapshot& snap) {
  std::map<std::string, RelationIdentity> out;
  for (const auto& [pred, rel] : snap.facts) {
    out.emplace(pred, RelationIdentity{rel.get(), rel->version(),
                                       rel->content_hash()});
  }
  return out;
}

TEST(ServiceTest, QueriesReadThePinnedSnapshotWithoutCopyingIt) {
  KgService svc;
  svc.Publish(OwnershipRing(12));
  std::shared_ptr<const Snapshot> snap = svc.CurrentSnapshot();
  const std::map<std::string, RelationIdentity> before = Identities(*snap);
  auto copied = [&] { return svc.Stats().relations_copied; };

  // Reach point queries probe OWNS on its `from` column, which the
  // publication indexed: nothing is copied.
  QueryRequest reach;
  reach.program =
      "OWNS(_e, x, y, _w) -> reach(x, y).\n"
      "reach(x, y), OWNS(_e, y, z, _w) -> reach(x, z).";
  reach.language = QueryLanguage::kVadalog;
  reach.output = "reach";
  reach.use_result_cache = false;
  for (const vadalog::Tuple& t : snap->facts.at("OWNS")->tuples()) {
    reach.bound_args = {t[1], std::nullopt};
    auto result = svc.Query(reach);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->point_mode, vadalog::magic::PointQueryMode::kMagic);
    EXPECT_EQ(result->rows->size(), 12u);  // the whole ring
  }
  EXPECT_EQ(copied(), 0u);
  EXPECT_EQ(Identities(*snap), before);

  // The control query reads Business by oid and OWNS by `from`.
  QueryRequest control;
  control.program = R"(
    (x: Business) -> exists c = skCtrl(x, x) (x)[c: CONTROLS](x).
    (x: Business)[: CONTROLS](z: Business)
        [: OWNS; percentage: w](y: Business),
    v = msum(w, <z>), v > 0.5
      -> exists c = skCtrl(x, y) (x)[c: CONTROLS](y).
  )";
  control.output = "CONTROLS";
  control.use_result_cache = false;
  auto controls = svc.Query(control);
  ASSERT_TRUE(controls.ok()) << controls.status().ToString();
  EXPECT_EQ(controls->rows->size(), 12u * 12u);
  EXPECT_EQ(copied(), 0u);
  EXPECT_EQ(Identities(*snap), before);

  // A serve-shaped mix of writes and reads stays on the zero-copy path:
  // ApplyDelta copies the relation it edits, but no read copies anything.
  const vadalog::Tuple first = snap->facts.at("OWNS")->tuple(0);
  vadalog::EdbDelta forward;
  forward.deletes["OWNS"].push_back(first);
  vadalog::EdbDelta inverse;
  inverse.inserts["OWNS"].push_back(first);
  for (const vadalog::EdbDelta* delta : {&forward, &inverse}) {
    ASSERT_TRUE(svc.ApplyDelta(*delta).ok());
    reach.bound_args = {first[1], std::nullopt};
    auto result = svc.Query(reach);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows->size(), delta == &forward ? 0u : 12u);
    ASSERT_TRUE(svc.Query(control).ok());
  }
  EXPECT_EQ(copied(), 0u);
  EXPECT_EQ(Identities(*snap), before);

  // A program deriving into the base LINK predicate copies exactly that
  // relation, sees its own derivations, and leaves the snapshot intact.
  snap = svc.CurrentSnapshot();
  const std::map<std::string, RelationIdentity> current = Identities(*snap);
  QueryRequest reverse;
  reverse.program = "LINK(e, x, y) -> LINK(e, y, x).";
  reverse.language = QueryLanguage::kVadalog;
  reverse.output = "LINK";
  auto reversed = svc.Query(reverse);
  ASSERT_TRUE(reversed.ok()) << reversed.status().ToString();
  EXPECT_EQ(reversed->rows->size(), 24u);
  EXPECT_EQ(snap->facts.at("LINK")->size(), 12u);
  EXPECT_EQ(copied(), 1u);
  EXPECT_EQ(Identities(*snap), current);
}

}  // namespace
}  // namespace kgm::service
