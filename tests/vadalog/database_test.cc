#include "vadalog/database.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"

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

// Hashes whose slot is the last one of the table at every table size:
// RowIndex places a hash by the top bits of hash * 0x9E3779B97F4A7C15, and
// these make that product 2^64 - 1 - j.  Each of them starts its probe run
// at the table's end, so every run they share wraps around to slot 0.
std::vector<size_t> EndHomedHashes(size_t n) {
  const uint64_t mix = 0x9E3779B97F4A7C15ULL;
  uint64_t inverse = mix;  // Newton's iteration for mix^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inverse *= 2 - mix * inverse;
  std::vector<size_t> out;
  for (uint64_t j = 0; j < n; ++j) out.push_back((~uint64_t{0} - j) * inverse);
  return out;
}

// RowIndex against a map from hash to ascending linked rows.  Most hashes
// are small integers — the near-identity shape of Value::Hash on ints —
// drawn from a few thousand values, so the table doubles many times; the
// rest are end-homed, so probe runs wrap around the table's end at every
// size.  Each round appends (some rows unlinked), unlinks a share of the
// linked rows — emptying some chains, which later appends restart — and
// compacts every other round.
TEST(RowIndexTest, MatchesModelUnderAppendUnlinkAndCompact) {
  Rng rng(25);
  const std::vector<size_t> wrapping = EndHomedHashes(48);
  std::vector<size_t> probes = wrapping;
  for (size_t h = 0; h < 3100; ++h) probes.push_back(h);
  RowIndex index;
  std::vector<size_t> hashes;  // per row, as the model sees it
  std::vector<char> linked;    // per row
  auto check = [&] {
    std::map<size_t, std::vector<uint32_t>> model;
    for (size_t row = 0; row < hashes.size(); ++row) {
      if (linked[row]) model[hashes[row]].push_back(static_cast<uint32_t>(row));
    }
    ASSERT_EQ(index.rows(), hashes.size());
    for (size_t h : probes) {
      std::vector<uint32_t> got;
      for (uint32_t row : index.Lookup(h)) got.push_back(row);
      auto it = model.find(h);
      ASSERT_EQ(got, it == model.end() ? std::vector<uint32_t>{} : it->second)
          << "hash " << h;
    }
  };
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 2500; ++i) {
      size_t h = rng.NextBool(0.05) ? wrapping[rng.NextBelow(wrapping.size())]
                                    : rng.NextBelow(3000);
      if (rng.NextBool(0.05)) {
        index.AppendUnlinked();
        linked.push_back(0);
      } else {
        index.Append(h);
        linked.push_back(1);
      }
      hashes.push_back(h);
    }
    check();
    for (size_t row = 0; row < hashes.size(); ++row) {
      if (linked[row] && rng.NextBool(0.4)) {
        index.Unlink(hashes[row], static_cast<uint32_t>(row));
        linked[row] = 0;
      }
    }
    check();
    if (round % 2 == 1) {
      std::vector<uint32_t> remap(hashes.size(), RowIndex::kEnd);
      std::vector<size_t> kept;
      for (size_t row = 0; row < hashes.size(); ++row) {
        if (!linked[row]) continue;
        remap[row] = static_cast<uint32_t>(kept.size());
        kept.push_back(hashes[row]);
      }
      index.Compact(remap, kept.size());
      hashes = std::move(kept);
      linked.assign(hashes.size(), 1);
      check();
    }
  }
}

// A relation under interleaved Insert / EraseTuples / EnsureIndex / Clone,
// against a plain compacting model: the tuple list in row order.  Erase
// rounds remove 30–60% of the rows, so dead rows cross half of the row ids
// — and the relation compacts — several times.  The live rows must
// enumerate in model order; Contains, RowOf and LookupBuilt must agree
// with the model and never yield a dead row.
TEST(RowIndexTest, TombstonedRelationMatchesCompactingModel) {
  Rng rng(7);
  Relation rel(3);
  std::vector<Tuple> rows;  // the model relation, in row order
  std::vector<uint64_t> masks;
  size_t compactions = 0;
  size_t tombstoned_checks = 0;
  auto random_tuple = [&] {
    return T({static_cast<int64_t>(rng.NextBelow(4000)),
              static_cast<int64_t>(rng.NextBelow(3)),
              static_cast<int64_t>(rng.NextBelow(5))});
  };
  auto check = [&] {
    ASSERT_EQ(rel.size(), rows.size());
    // Dead rows stay under half of the row ids (or the relation compacts).
    const size_t dead = rel.row_bound() - rel.size();
    ASSERT_TRUE(dead == 0 || 2 * dead < rel.row_bound());
    if (dead > 0) ++tombstoned_checks;
    std::vector<Tuple> live(rel.tuples().begin(), rel.tuples().end());
    ASSERT_EQ(live, rows);
    size_t live_rows = 0;
    size_t last = 0;
    for (size_t row = 0; row < rel.row_bound(); ++row) {
      if (!rel.live(row)) {
        ASSERT_TRUE(rel.tuple(row).empty());
        continue;
      }
      ASSERT_EQ(rel.tuple(row), rows[live_rows]);
      const size_t found = rel.RowOf(rows[live_rows]);
      ASSERT_EQ(found, row);
      ASSERT_TRUE(live_rows == 0 || found > last);
      last = found;
      ++live_rows;
    }
    ASSERT_EQ(live_rows, rows.size());
    for (int i = 0; i < 200; ++i) {
      Tuple t = random_tuple();
      const bool present = std::find(rows.begin(), rows.end(), t) != rows.end();
      ASSERT_EQ(rel.Contains(t), present);
      const size_t row = rel.RowOf(t);
      ASSERT_EQ(row != Relation::kNoRow, present);
      if (present) {
        ASSERT_TRUE(rel.live(row));
      }
    }
    for (uint64_t mask : masks) {
      std::map<size_t, std::vector<Tuple>> model;
      for (const Tuple& t : rows) model[HashTupleMasked(t, mask)].push_back(t);
      for (const auto& [hash, want] : model) {
        const Tuple& probe = want.front();
        std::vector<Tuple> got;
        for (uint32_t row : rel.LookupBuilt(mask, probe)) {
          ASSERT_TRUE(rel.live(row)) << "mask " << mask << " row " << row;
          got.push_back(rel.tuple(row));
        }
        ASSERT_EQ(got, want) << "mask " << mask;
      }
      ASSERT_TRUE(rel.LookupBuilt(mask, T({-1, -1, -1})).empty());
    }
  };
  const uint64_t kMasks[] = {0b001, 0b110, 0b011};
  for (int step = 0; step < 32; ++step) {
    switch (step % 4) {
      case 0:
        for (int i = 0; i < 1200; ++i) {
          Tuple t = random_tuple();
          bool fresh = std::find(rows.begin(), rows.end(), t) == rows.end();
          ASSERT_EQ(rel.Insert(t), fresh);
          if (fresh) rows.push_back(std::move(t));
        }
        break;
      case 1:
      case 2: {
        // Erase a share of the rows, and re-insert a few of them: a
        // re-inserted tuple appends at the end.
        const double share = step % 4 == 1 ? 0.3 : 0.6 * rng.NextDouble();
        std::vector<Tuple> doomed;
        std::set<Tuple> doomed_set;
        for (const Tuple& t : rows) {
          if (rng.NextBool(share)) {
            doomed.push_back(t);
            doomed_set.insert(t);
          }
        }
        doomed.push_back(T({-5, 0, 0}));  // absent: ignored
        if (!doomed.empty()) doomed.push_back(doomed.front());  // duplicate
        const size_t bound = rel.row_bound();
        ASSERT_EQ(rel.EraseTuples(doomed), doomed_set.size());
        if (rel.row_bound() < bound) ++compactions;
        std::vector<Tuple> kept;
        for (Tuple& t : rows) {
          if (doomed_set.count(t) == 0) kept.push_back(std::move(t));
        }
        rows = std::move(kept);
        for (size_t i = 0; i < doomed.size(); i += 7) {
          if (doomed_set.count(doomed[i]) == 0) continue;
          ASSERT_TRUE(rel.Insert(doomed[i]));
          rows.push_back(doomed[i]);
          doomed_set.erase(doomed[i]);
        }
        break;
      }
      case 3:
        rel = rel.Clone();
        break;
    }
    if (step % 8 == 2 && step / 8 < 3) {
      rel.EnsureIndex(kMasks[step / 8]);
      masks.push_back(kMasks[step / 8]);
    }
    check();
  }
  EXPECT_GE(compactions, 3u);
  EXPECT_GE(tombstoned_checks, 3u);
}

TEST(RelationTest, EraseBelowHalfKeepsRowIdsAndReinsertAppends) {
  Relation rel(2);
  rel.EnsureIndex(0b01);
  for (int64_t i = 0; i < 5; ++i) rel.Insert(T({i % 2, i}));
  const uint64_t version = rel.version();
  EXPECT_EQ(rel.EraseTuples({T({0, 2}), T({1, 3})}), 2u);  // rows 2 and 3
  EXPECT_EQ(rel.version(), version + 1);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.row_bound(), 5u);
  EXPECT_FALSE(rel.live(2));
  EXPECT_FALSE(rel.Contains(T({0, 2})));
  EXPECT_EQ(rel.RowOf(T({0, 4})), 4u);
  auto rows_of = [&rel](int64_t key) {
    std::vector<uint32_t> out;
    for (uint32_t row : rel.LookupBuilt(0b01, T({key, 0}))) out.push_back(row);
    return out;
  };
  EXPECT_EQ(rows_of(0), (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(rows_of(1), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(rel.Insert(T({0, 2})));  // row 5
  EXPECT_EQ(rel.RowOf(T({0, 2})), 5u);
  EXPECT_EQ(rows_of(0), (std::vector<uint32_t>{0, 4, 5}));
  rel.EnsureIndex(0b10);
  EXPECT_TRUE(rel.LookupBuilt(0b10, T({0, 3})).empty());
  EXPECT_EQ(rel.LookupBuilt(0b10, T({0, 2})).size(), 1u);
  std::vector<Tuple> live(rel.tuples().begin(), rel.tuples().end());
  EXPECT_EQ(live, (std::vector<Tuple>{T({0, 0}), T({1, 1}), T({0, 4}),
                                      T({0, 2})}));
  // The content fingerprint follows the live rows only.
  Relation fresh(2);
  for (const Tuple& t : live) fresh.Insert(t);
  EXPECT_EQ(rel.content_hash(), fresh.content_hash());
  // Dead rows reaching half of the row ids compact the relation in order.
  EXPECT_EQ(rel.EraseTuples({T({0, 4})}), 1u);  // 3 of 6 rows dead
  EXPECT_EQ(rel.row_bound(), 3u);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.RowOf(T({0, 2})), 2u);
  EXPECT_EQ(rows_of(0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(rows_of(1), (std::vector<uint32_t>{1}));
}

TEST(RowIndexTest, KeyEmptiedByEraseReturnsAtTheChainEnd) {
  Relation rel(2);
  rel.EnsureIndex(0b01);
  rel.Insert(T({1, 10}));  // row 0
  rel.Insert(T({2, 20}));  // row 1
  rel.Insert(T({1, 11}));  // row 2
  rel.Insert(T({2, 21}));  // row 3
  EXPECT_EQ(rel.EraseTuples({T({1, 10}), T({1, 11})}), 2u);
  auto rows_of = [&rel](int64_t key) {
    std::vector<uint32_t> out;
    for (uint32_t row : rel.LookupBuilt(0b01, T({key, 0}))) out.push_back(row);
    return out;
  };
  EXPECT_TRUE(rows_of(1).empty());
  EXPECT_EQ(rows_of(2), (std::vector<uint32_t>{0, 1}));
  EXPECT_FALSE(rel.Contains(T({1, 10})));
  EXPECT_TRUE(rel.Insert(T({1, 10})));  // row 2
  EXPECT_TRUE(rel.Insert(T({2, 22})));  // row 3
  EXPECT_TRUE(rel.Insert(T({1, 12})));  // row 4
  EXPECT_EQ(rows_of(1), (std::vector<uint32_t>{2, 4}));
  EXPECT_EQ(rows_of(2), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(rel.RowOf(T({1, 10})), 2u);
  EXPECT_EQ(rel.RowOf(T({2, 21})), 1u);
}

TEST(RowIndexTest, CloneKeepsAnsweringAfterTheOriginalChanges) {
  Relation rel(2);
  for (int64_t i = 0; i < 300; ++i) rel.Insert(T({i % 17, i}));
  rel.EnsureIndex(0b01);
  Relation copy = rel.Clone();
  auto rows_of = [](const Relation& r, int64_t key) {
    std::vector<uint32_t> out;
    for (uint32_t row : r.LookupBuilt(0b01, T({key, 0}))) out.push_back(row);
    return out;
  };
  std::vector<std::vector<uint32_t>> before;
  for (int64_t key = 0; key < 17; ++key) before.push_back(rows_of(copy, key));
  std::vector<Tuple> doomed;
  for (int64_t i = 0; i < 300; i += 3) doomed.push_back(T({i % 17, i}));
  EXPECT_EQ(rel.EraseTuples(doomed), 100u);
  for (int64_t i = 300; i < 600; ++i) rel.Insert(T({i % 17, i}));
  rel.EnsureIndex(0b10);
  for (int64_t key = 0; key < 17; ++key) {
    EXPECT_EQ(rows_of(copy, key), before[key]) << key;
  }
  EXPECT_EQ(copy.size(), 300u);
  EXPECT_FALSE(copy.HasIndex(0b10));
  EXPECT_EQ(copy.RowOf(T({3, 3})), 3u);
  EXPECT_FALSE(copy.Contains(T({0, 300})));
}

}  // namespace
}  // namespace kgm::vadalog
