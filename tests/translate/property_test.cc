// Property-based tests of SSST over randomized super-schemas: the
// declarative MetaLog pipeline must agree with the native oracle, and the
// relational translation must satisfy its structural invariants.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "base/rng.h"
#include "base/strings.h"
#include "translate/ssst.h"

namespace kgm::translate {
namespace {

// A random valid super-schema: a generalization forest with random
// attributes and random edges of random cardinalities.
core::SuperSchema RandomSchema(uint64_t seed) {
  Rng rng(seed);
  core::SuperSchema s("random_" + std::to_string(seed));
  size_t n = 3 + rng.NextBelow(8);
  std::vector<std::string> names;
  const core::AttrType kTypes[] = {
      core::AttrType::kString, core::AttrType::kInt,
      core::AttrType::kDouble, core::AttrType::kBool, core::AttrType::kDate};
  for (size_t i = 0; i < n; ++i) {
    std::string name = "T" + std::to_string(i);
    std::vector<core::AttributeDef> attrs;
    // Roots need an identifier.
    bool is_root = i == 0 || rng.NextBool(0.4);
    if (is_root) {
      attrs.push_back(core::IdAttr("id" + std::to_string(i)));
    }
    size_t extra = rng.NextBelow(4);
    for (size_t a = 0; a < extra; ++a) {
      core::AttributeDef attr =
          rng.NextBool(0.5)
              ? core::Attr("a" + std::to_string(i) + "_" + std::to_string(a),
                           kTypes[rng.NextBelow(5)])
              : core::OptAttr(
                    "a" + std::to_string(i) + "_" + std::to_string(a),
                    kTypes[rng.NextBelow(5)]);
      if (rng.NextBool(0.2)) {
        attr.modifiers.push_back(core::AttributeModifier::Unique());
      }
      attrs.push_back(std::move(attr));
    }
    s.AddNode(name, std::move(attrs));
    if (!is_root && !names.empty()) {
      // Attach under a random earlier node.
      s.AddGeneralization(names[rng.NextBelow(names.size())], {name},
                          rng.NextBool(0.5), rng.NextBool(0.5));
    }
    names.push_back(name);
  }
  size_t edges = rng.NextBelow(n);
  for (size_t e = 0; e < edges; ++e) {
    auto card = [&rng]() {
      switch (rng.NextBelow(4)) {
        case 0:
          return core::Cardinality::ZeroOrOne();
        case 1:
          return core::Cardinality::ExactlyOne();
        case 2:
          return core::Cardinality::OneOrMore();
        default:
          return core::Cardinality::ZeroOrMore();
      }
    };
    core::EdgeDef& edge =
        s.AddEdge("E" + std::to_string(e), names[rng.NextBelow(n)],
                  names[rng.NextBelow(n)], card(), card());
    if (rng.NextBool(0.5)) {
      edge.attributes.push_back(
          core::Attr("w" + std::to_string(e), core::AttrType::kDouble));
    }
    if (rng.NextBool(0.2)) edge.intensional = true;
  }
  return s;
}

class SsstProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsstProperty, DeclarativeEqualsNative) {
  core::SuperSchema schema = RandomSchema(GetParam());
  ASSERT_TRUE(schema.Validate().ok()) << schema.Summary();
  auto native = TranslateToPgNative(schema);
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  auto declarative = TranslateToPgDeclarative(schema);
  ASSERT_TRUE(declarative.ok()) << declarative.status().ToString();
  EXPECT_EQ(declarative->ToString(), native->ToString())
      << "schema: " << schema.Summary();
}

TEST_P(SsstProperty, RelationalInvariants) {
  core::SuperSchema schema = RandomSchema(GetParam());
  ASSERT_TRUE(schema.Validate().ok());
  auto tables_result = TranslateToRelational(schema);
  ASSERT_TRUE(tables_result.ok()) << tables_result.status().ToString();
  const auto& tables = *tables_result;

  std::map<std::string, const rel::TableSchema*> by_name;
  for (const auto& t : tables) by_name[t.name] = &t;

  // One relation per node type plus one per many-to-many edge.
  size_t expected = schema.nodes().size();
  for (const auto& e : schema.edges()) {
    if (e.many_to_many()) ++expected;
  }
  EXPECT_EQ(tables.size(), expected);

  for (const auto& t : tables) {
    // Every primary-key column exists and is NOT NULL.
    for (const auto& pk : t.primary_key) {
      int idx = t.ColumnIndex(pk);
      ASSERT_GE(idx, 0) << t.name << "." << pk;
      EXPECT_FALSE(t.columns[idx].nullable) << t.name << "." << pk;
    }
    // Every foreign key references an existing table and existing columns
    // on both sides, with matching arity.
    for (const auto& fk : t.foreign_keys) {
      ASSERT_EQ(fk.columns.size(), fk.ref_columns.size()) << t.name;
      auto target = by_name.find(fk.ref_table);
      ASSERT_NE(target, by_name.end()) << t.name << " -> " << fk.ref_table;
      for (const auto& col : fk.columns) {
        EXPECT_GE(t.ColumnIndex(col), 0) << t.name << "." << col;
      }
      for (const auto& col : fk.ref_columns) {
        EXPECT_GE(target->second->ColumnIndex(col), 0)
            << fk.ref_table << "." << col;
      }
      // The referenced columns are the target's primary key.
      EXPECT_EQ(fk.ref_columns, target->second->primary_key) << t.name;
    }
  }

  // The whole schema loads into the engine (no duplicate names etc.).
  rel::Database db;
  for (const auto& t : tables) {
    ASSERT_TRUE(db.CreateTable(t).ok()) << t.name;
  }
  // DDL renders without crashing and mentions every table.
  std::string ddl = rel::RenderSqlDdl(tables);
  for (const auto& t : tables) {
    EXPECT_NE(ddl.find("CREATE TABLE " + t.name), std::string::npos);
  }
}

TEST_P(SsstProperty, PgSchemaInvariants) {
  core::SuperSchema schema = RandomSchema(GetParam());
  ASSERT_TRUE(schema.Validate().ok());
  auto pg = TranslateToPgNative(schema);
  ASSERT_TRUE(pg.ok());
  // Every node type's labels are its name plus its ancestors, and its
  // properties are exactly its effective attributes.
  for (const auto& nt : pg->node_types) {
    const std::string& name = nt.primary_label();
    std::set<std::string> expected_labels{name};
    for (const auto& a : schema.AncestorsOf(name)) {
      expected_labels.insert(a);
    }
    EXPECT_EQ(std::set<std::string>(nt.labels.begin(), nt.labels.end()),
              expected_labels);
    EXPECT_EQ(nt.properties.size(),
              schema.EffectiveAttributes(name).size());
  }
  // Relationship replication count: |desc+self(from)| * |desc+self(to)|.
  for (const auto& e : schema.edges()) {
    size_t froms = 1 + schema.DescendantsOf(e.from).size();
    size_t tos = 1 + schema.DescendantsOf(e.to).size();
    EXPECT_EQ(pg->FindRelationships(e.name).size(), froms * tos) << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsstProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace kgm::translate
