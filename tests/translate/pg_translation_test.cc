// Tests for the super-schema -> PG translation (Section 5.2, Figure 6),
// covering both the native oracle and the declarative MetaLog pipeline,
// and their equivalence on the Company KG.

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "translate/pg_mapping.h"
#include "translate/ssst.h"

namespace kgm::translate {
namespace {

using core::PgNodeType;
using core::PgSchema;
using core::SuperSchema;

TEST(PgNativeTest, TypeAccumulation) {
  SuperSchema s = finkg::CompanyKgSchema();
  auto result = TranslateToPgNative(s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PgSchema& pg = *result;
  // Every SM_Node survives as a node type.
  EXPECT_EQ(pg.node_types.size(), s.nodes().size());
  // PublicListedCompany accumulates all ancestor labels.
  const PgNodeType* plc = pg.FindNodeType("PublicListedCompany");
  ASSERT_NE(plc, nullptr);
  EXPECT_EQ(plc->labels,
            (std::vector<std::string>{"PublicListedCompany", "Business",
                                      "LegalPerson", "Person"}));
  // ... and inherits attributes from all levels.
  auto has_prop = [plc](const std::string& name) {
    for (const auto& p : plc->properties) {
      if (p.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prop("stockExchange"));        // own
  EXPECT_TRUE(has_prop("shareholdingCapital"));  // Business
  EXPECT_TRUE(has_prop("businessName"));         // LegalPerson
  EXPECT_TRUE(has_prop("fiscalCode"));           // Person
}

TEST(PgNativeTest, EdgeReplicationOverDescendants) {
  SuperSchema s = finkg::CompanyKgSchema();
  PgSchema pg = TranslateToPgNative(s).value();
  // HOLDS: Person -> Share.  Person has 5 descendants-or-self
  // (Person, PhysicalPerson, LegalPerson, Business, NonBusiness,
  // PublicListedCompany) = 6; Share has 2 (Share, StockShare).
  auto holds = pg.FindRelationships("HOLDS");
  EXPECT_EQ(holds.size(), 6u * 2u);
  // RESIDES: Person x Place -> 6 x 1.
  EXPECT_EQ(pg.FindRelationships("RESIDES").size(), 6u);
  // Edge attributes survive on every replica.
  for (const auto* r : holds) {
    ASSERT_EQ(r->properties.size(), 2u);
  }
}

TEST(PgNativeTest, UniqueAndRequiredFlags) {
  SuperSchema s = finkg::CompanyKgSchema();
  PgSchema pg = TranslateToPgNative(s).value();
  const PgNodeType* person = pg.FindNodeType("Person");
  ASSERT_NE(person, nullptr);
  ASSERT_EQ(person->properties.size(), 1u);
  EXPECT_EQ(person->properties[0].name, "fiscalCode");
  EXPECT_TRUE(person->properties[0].unique);    // id + unique modifier
  EXPECT_TRUE(person->properties[0].required);  // ids are mandatory
  // Optional attribute -> not required.
  const PgNodeType* pp = pg.FindNodeType("PhysicalPerson");
  ASSERT_NE(pp, nullptr);
  for (const auto& p : pp->properties) {
    if (p.name == "birthDate") {
      EXPECT_FALSE(p.required);
    }
    if (p.name == "name") {
      EXPECT_TRUE(p.required);
    }
  }
}

TEST(PgNativeTest, IntensionalFlagsPreserved) {
  SuperSchema s = finkg::CompanyKgSchema();
  PgSchema pg = TranslateToPgNative(s).value();
  EXPECT_TRUE(pg.FindNodeType("Family")->intensional);
  for (const auto* r : pg.FindRelationships("CONTROLS")) {
    EXPECT_TRUE(r->intensional);
  }
  for (const auto* r : pg.FindRelationships("HOLDS")) {
    EXPECT_FALSE(r->intensional);
  }
}

TEST(PgDeclarativeTest, MatchesNativeOnCompanyKg) {
  // The headline equivalence: the MetaLog Eliminate/Copy pipeline of
  // Section 5.2 and the native oracle produce the same Figure 6 schema.
  SuperSchema s = finkg::CompanyKgSchema();
  PgSchema native = TranslateToPgNative(s).value();

  DeclarativeStats stats;
  auto declarative = TranslateToPgDeclarative(s, &stats);
  ASSERT_TRUE(declarative.ok()) << declarative.status().ToString();
  EXPECT_GT(stats.eliminate_rules, 0u);
  EXPECT_GT(stats.copy_rules, 0u);

  ASSERT_EQ(declarative->node_types.size(), native.node_types.size());
  for (size_t i = 0; i < native.node_types.size(); ++i) {
    const PgNodeType& n = native.node_types[i];
    const PgNodeType& d = declarative->node_types[i];
    EXPECT_EQ(d.labels, n.labels) << n.primary_label();
    EXPECT_EQ(d.intensional, n.intensional) << n.primary_label();
    ASSERT_EQ(d.properties.size(), n.properties.size())
        << n.primary_label();
    for (size_t j = 0; j < n.properties.size(); ++j) {
      EXPECT_EQ(d.properties[j].name, n.properties[j].name)
          << n.primary_label();
      EXPECT_EQ(d.properties[j].type, n.properties[j].type)
          << n.primary_label() << "." << n.properties[j].name;
      EXPECT_EQ(d.properties[j].required, n.properties[j].required)
          << n.primary_label() << "." << n.properties[j].name;
      EXPECT_EQ(d.properties[j].unique, n.properties[j].unique)
          << n.primary_label() << "." << n.properties[j].name;
      EXPECT_EQ(d.properties[j].intensional, n.properties[j].intensional)
          << n.primary_label() << "." << n.properties[j].name;
    }
  }
  ASSERT_EQ(declarative->relationship_types.size(),
            native.relationship_types.size());
  for (size_t i = 0; i < native.relationship_types.size(); ++i) {
    const auto& n = native.relationship_types[i];
    const auto& d = declarative->relationship_types[i];
    EXPECT_EQ(d.name, n.name);
    EXPECT_EQ(d.from, n.from) << n.name;
    EXPECT_EQ(d.to, n.to) << n.name;
    EXPECT_EQ(d.intensional, n.intensional) << n.name;
    EXPECT_EQ(d.properties.size(), n.properties.size()) << n.name;
  }
}

TEST(PgDeclarativeTest, MatchesNativeOnSyntheticSchemas) {
  // Deeper hierarchy + self-edges + modifiers.
  SuperSchema s("Synthetic");
  core::AttributeDef code = core::IdAttr("code");
  code.modifiers.push_back(core::AttributeModifier::Unique());
  s.AddNode("A", {code, core::Attr("a1")});
  s.AddNode("B", {core::Attr("b1", core::AttrType::kInt)});
  s.AddNode("C", {core::OptAttr("c1", core::AttrType::kDouble)});
  s.AddNode("D", {core::Attr("d1", core::AttrType::kBool)});
  s.AddNode("E", {core::IdAttr("eid")});
  s.AddGeneralization("A", {"B"}, true, false);
  s.AddGeneralization("B", {"C", "D"}, false, true);
  s.AddEdge("SELF", "A", "A");
  s.AddEdge("CROSS", "C", "E", core::Cardinality::ZeroOrMore(),
            core::Cardinality::ZeroOrMore(),
            {core::Attr("weight", core::AttrType::kDouble)});
  ASSERT_TRUE(s.Validate().ok());

  PgSchema native = TranslateToPgNative(s).value();
  auto declarative = TranslateToPgDeclarative(s);
  ASSERT_TRUE(declarative.ok()) << declarative.status().ToString();
  EXPECT_EQ(declarative->ToString(), native.ToString());
}

TEST(SsstFacadeTest, PathsAgree) {
  SuperSchema s = finkg::CompanyKgSchema();
  auto a = TranslateToPropertyGraph(s);
  auto b = TranslateToPgNative(s);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->ToString(), b->ToString());
}

TEST(MappingRepositoryTest, LookupWorks) {
  EXPECT_NE(FindMapping("property_graph", "type_accumulation"), nullptr);
  EXPECT_EQ(FindMapping("property_graph", "bogus"), nullptr);
  EXPECT_EQ(FindMapping("bogus", "type_accumulation"), nullptr);
  EXPECT_FALSE(MappingRepository().empty());
}

}  // namespace
}  // namespace kgm::translate
