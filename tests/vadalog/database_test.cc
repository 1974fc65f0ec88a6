#include "vadalog/database.h"

#include <memory>

#include <gtest/gtest.h>

namespace kgm::vadalog {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (int64_t v : values) t.push_back(Value(v));
  return t;
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T({1, 2})));
  EXPECT_FALSE(rel.Insert(T({1, 2})));
  EXPECT_TRUE(rel.Insert(T({2, 1})));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(T({1, 2}));
  EXPECT_TRUE(rel.Contains(T({1, 2})));
  EXPECT_FALSE(rel.Contains(T({2, 2})));
}

TEST(RelationTest, MaskedLookup) {
  Relation rel(3);
  rel.Insert(T({1, 10, 100}));
  rel.Insert(T({1, 20, 200}));
  rel.Insert(T({2, 10, 300}));
  // Lookup on first position.
  Tuple probe = T({1, 0, 0});
  rel.EnsureIndex(0b001);
  const auto& rows = rel.LookupBuilt(0b001, probe);
  size_t matches = 0;
  for (uint32_t r : rows) {
    if (rel.MatchesMasked(r, 0b001, probe)) ++matches;
  }
  EXPECT_EQ(matches, 2u);
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation rel(2);
  rel.Insert(T({1, 10}));
  Tuple probe = T({1, 0});
  rel.EnsureIndex(0b01);
  EXPECT_EQ(rel.LookupBuilt(0b01, probe).size(), 1u);
  // Insert after the index is built: index must pick it up.
  rel.Insert(T({1, 20}));
  EXPECT_EQ(rel.LookupBuilt(0b01, probe).size(), 2u);
}

TEST(RelationTest, MultiPositionMask) {
  Relation rel(3);
  rel.Insert(T({1, 10, 100}));
  rel.Insert(T({1, 10, 200}));
  rel.Insert(T({1, 20, 300}));
  Tuple probe = T({1, 10, 0});
  rel.EnsureIndex(0b011);
  const auto& rows = rel.LookupBuilt(0b011, probe);
  size_t matches = 0;
  for (uint32_t r : rows) {
    if (rel.MatchesMasked(r, 0b011, probe)) ++matches;
  }
  EXPECT_EQ(matches, 2u);
}

TEST(FactDbTest, GetOrCreateAndAdd) {
  FactDb db;
  EXPECT_EQ(db.Get("p"), nullptr);
  EXPECT_TRUE(db.Add("p", T({1, 2})));
  EXPECT_FALSE(db.Add("p", T({1, 2})));
  ASSERT_NE(db.Get("p"), nullptr);
  EXPECT_EQ(db.Get("p")->size(), 1u);
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_EQ(db.Predicates(), (std::vector<std::string>{"p"}));
}

TEST(FactDbTest, DebugStringListsFacts) {
  FactDb db;
  db.Add("edge", {Value("a"), Value("b")});
  std::string s = db.DebugString();
  EXPECT_EQ(s, "edge(\"a\",\"b\")\n");
}

TEST(TupleHashTest, MaskedHashIgnoresUnmaskedPositions) {
  Tuple a = T({1, 999});
  Tuple b = T({1, 123});
  EXPECT_EQ(HashTupleMasked(a, 0b01), HashTupleMasked(b, 0b01));
  EXPECT_NE(HashTuple(a), HashTuple(b));
}

TEST(TupleHashTest, TupleHasherMatchesFreeFunctions) {
  Tuple t;
  t.push_back(Value("alpha"));
  t.push_back(Value(int64_t{42}));
  t.push_back(Value(3.25));
  TupleHasher hasher(t);
  EXPECT_EQ(hasher.full(), HashTuple(t));
  for (uint64_t mask = 0; mask < 8; ++mask) {
    EXPECT_EQ(hasher.Masked(mask), HashTupleMasked(t, mask)) << mask;
  }
  // Arities past the inline buffer take the heap path.
  Tuple wide;
  for (int64_t i = 0; i < 20; ++i) wide.push_back(Value(i));
  TupleHasher wide_hasher(wide);
  EXPECT_EQ(wide_hasher.full(), HashTuple(wide));
  EXPECT_EQ(wide_hasher.Masked(0xFFFFF), HashTupleMasked(wide, 0xFFFFF));
}

TEST(RelationTest, CloneIsDeepAndIndependent) {
  Relation rel(2);
  for (int64_t i = 0; i < 50; ++i) rel.Insert(T({i, i * 2}));
  Tuple probe = T({7, 0});
  rel.EnsureIndex(0b01);  // build an index first
  EXPECT_EQ(rel.LookupBuilt(0b01, probe).size(), 1u);

  Relation copy = rel.Clone();
  EXPECT_EQ(copy.size(), 50u);
  EXPECT_EQ(copy.LookupBuilt(0b01, probe).size(), 1u);  // index copied
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(copy.Insert(T({i, i * 2}))) << i;  // dedup state copied
  }
  // Mutating the clone leaves the original untouched.
  EXPECT_TRUE(copy.Insert(T({100, 200})));
  EXPECT_FALSE(rel.Contains(T({100, 200})));
  EXPECT_EQ(rel.size(), 50u);
}

TEST(FactDbTest, CloneCopiesEveryRelation) {
  FactDb db;
  db.Add("p", T({1}));
  db.Add("p", T({2}));
  db.Add("q", T({3}));
  FactDb copy = db.Clone();
  EXPECT_EQ(copy.TotalFacts(), 3u);
  EXPECT_TRUE(copy.Get("p")->Contains(T({1})));
  copy.Add("p", T({9}));
  EXPECT_EQ(db.Get("p")->size(), 2u);
  EXPECT_EQ(copy.Get("p")->size(), 3u);
}

// A relation published for sharing: `rows` two-column tuples (i, i * 2)
// with an index on column 0.
std::shared_ptr<const Relation> SharedRelation(int64_t rows) {
  auto rel = std::make_shared<Relation>(2);
  for (int64_t i = 0; i < rows; ++i) rel->Insert(T({i, i * 2}));
  rel->EnsureIndex(0b01);
  return rel;
}

TEST(FactDbShareTest, GetReadsSharedRelationInPlace) {
  std::shared_ptr<const Relation> p = SharedRelation(10);
  FactDb db(SharedRelations{{"p", p}});
  EXPECT_EQ(db.Get("p"), p.get());
  // A built index is probed in place too.
  EXPECT_EQ(db.GetIndexed("p", 0b01), p.get());
  EXPECT_EQ(db.TotalFacts(), 10u);
  EXPECT_EQ(db.relations_copied(), 0u);
}

TEST(FactDbShareTest, FirstWriteCopiesOnlyThatRelation) {
  std::shared_ptr<const Relation> p = SharedRelation(10);
  std::shared_ptr<const Relation> q = SharedRelation(5);
  const uint64_t version = p->version();
  const uint64_t hash = p->content_hash();
  FactDb db(SharedRelations{{"p", p}, {"q", q}});

  Relation* own = db.GetMutable("p");
  ASSERT_NE(own, nullptr);
  EXPECT_NE(own, p.get());
  EXPECT_EQ(db.relations_copied(), 1u);
  EXPECT_EQ(db.Get("p"), own);
  EXPECT_EQ(db.Get("q"), q.get());  // untouched relations stay shared

  EXPECT_TRUE(own->Insert(T({100, 200})));
  EXPECT_EQ(own->EraseTuples({T({0, 0})}), 1u);
  // The shared original keeps its tuples, version and fingerprint.
  EXPECT_EQ(p->size(), 10u);
  EXPECT_TRUE(p->Contains(T({0, 0})));
  EXPECT_FALSE(p->Contains(T({100, 200})));
  EXPECT_EQ(p->version(), version);
  EXPECT_EQ(p->content_hash(), hash);

  // The copy is the database's own now: no second copy.
  EXPECT_EQ(db.GetMutable("p"), own);
  EXPECT_EQ(&db.GetOrCreate("p", 2), own);
  EXPECT_EQ(db.relations_copied(), 1u);
}

TEST(FactDbShareTest, UnbuiltIndexCopiesAndBuiltIndexDoesNot) {
  std::shared_ptr<const Relation> p = SharedRelation(10);
  FactDb db(SharedRelations{{"p", p}});
  const Relation* indexed = db.GetIndexed("p", 0b10);
  EXPECT_NE(indexed, p.get());
  EXPECT_TRUE(indexed->HasIndex(0b10));
  EXPECT_FALSE(p->HasIndex(0b10));
  EXPECT_EQ(db.relations_copied(), 1u);
  EXPECT_EQ(db.GetIndexed("p", 0b01), indexed);
  EXPECT_EQ(db.relations_copied(), 1u);
}

TEST(FactDbShareTest, CloneSharesRatherThanCopies) {
  std::shared_ptr<const Relation> p = SharedRelation(10);
  FactDb db(SharedRelations{{"p", p}});
  db.Add("own", T({1, 2}));
  FactDb copy = db.Clone();
  EXPECT_EQ(copy.Get("p"), p.get());
  EXPECT_NE(copy.Get("own"), db.Get("own"));
  EXPECT_EQ(copy.relations_copied(), 0u);
  EXPECT_EQ(p.use_count(), 3);  // the test, `db` and `copy`
}

TEST(FactDbShareTest, ShareMovesOwnedAndPassesSharedThrough) {
  std::shared_ptr<const Relation> p = SharedRelation(10);
  FactDb db(SharedRelations{{"p", p}});
  Relation& own = db.GetOrCreate("own", 2);
  own.Insert(T({1, 2}));
  SharedRelations shared = std::move(db).Share();
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared.at("p").get(), p.get());
  EXPECT_EQ(shared.at("own").get(), &own);  // moved, not copied
}

}  // namespace
}  // namespace kgm::vadalog
