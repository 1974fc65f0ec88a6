#include "core/superschema.h"

#include <gtest/gtest.h>

#include "finkg/company_kg.h"

namespace kgm::core {
namespace {

SuperSchema SmallSchema() {
  SuperSchema s("Small");
  s.AddNode("Person", {IdAttr("code"), Attr("name")});
  s.AddNode("PhysicalPerson", {Attr("gender")});
  s.AddNode("LegalPerson", {Attr("legalNature")});
  s.AddNode("Business", {Attr("capital", AttrType::kDouble)});
  s.AddGeneralization("Person", {"PhysicalPerson", "LegalPerson"}, true,
                      true);
  s.AddGeneralization("LegalPerson", {"Business"}, false, true);
  s.AddEdge("OWNS", "Person", "Business");
  return s;
}

TEST(SuperSchemaTest, BuilderAndLookups) {
  SuperSchema s = SmallSchema();
  EXPECT_NE(s.FindNode("Person"), nullptr);
  EXPECT_EQ(s.FindNode("Nope"), nullptr);
  EXPECT_NE(s.FindEdge("OWNS"), nullptr);
  EXPECT_EQ(s.FindEdge("NOPE"), nullptr);
  ASSERT_NE(s.FindNode("Person")->FindAttribute("code"), nullptr);
  EXPECT_TRUE(s.FindNode("Person")->FindAttribute("code")->is_id);
}

TEST(SuperSchemaTest, HierarchyNavigation) {
  SuperSchema s = SmallSchema();
  EXPECT_EQ(s.AncestorsOf("Business"),
            (std::vector<std::string>{"LegalPerson", "Person"}));
  EXPECT_TRUE(s.AncestorsOf("Person").empty());
  EXPECT_EQ(s.DescendantsOf("Person"),
            (std::vector<std::string>{"Business", "LegalPerson",
                                      "PhysicalPerson"}));
  EXPECT_EQ(s.RootOf("Business"), "Person");
  EXPECT_EQ(s.RootOf("Person"), "Person");
  EXPECT_TRUE(s.IsLeaf("Business"));
  EXPECT_FALSE(s.IsLeaf("Person"));
  EXPECT_EQ(s.LeavesUnder("Person"),
            (std::vector<std::string>{"Business", "PhysicalPerson"}));
}

TEST(SuperSchemaTest, EffectiveAttributesInherit) {
  SuperSchema s = SmallSchema();
  auto attrs = s.EffectiveAttributes("Business");
  // capital + legalNature + code + name.
  EXPECT_EQ(attrs.size(), 4u);
  auto ids = s.EffectiveIdAttributes("Business");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0].name, "code");
}

TEST(SuperSchemaTest, AccumulatedLabelsAreTypeThenAncestors) {
  SuperSchema s = SmallSchema();
  EXPECT_EQ(s.AccumulatedLabels("Business"),
            (std::vector<std::string>{"Business", "LegalPerson", "Person"}));
  EXPECT_EQ(s.AccumulatedLabels("Person"),
            (std::vector<std::string>{"Person"}));
}

TEST(NodeTypeIndexTest, PrimaryTypeIsTheDeepestLabelEarlierOnATie) {
  SuperSchema s = SmallSchema();
  NodeTypeIndex types(s);
  ASSERT_EQ(types.types().size(), s.nodes().size());
  const NodeTypeIndex::Type* business = types.Find("Business");
  ASSERT_NE(business, nullptr);
  EXPECT_EQ(business->position, 3u);
  EXPECT_EQ(business->depth(), 2u);
  EXPECT_EQ(business->root(), "Person");
  EXPECT_EQ(types.Find("Nobody"), nullptr);

  auto primary = [&types](std::vector<std::string> labels) -> std::string {
    const NodeTypeIndex::Type* t = types.PrimaryOf(labels);
    return t == nullptr ? "" : t->def->name;
  };
  EXPECT_EQ(primary({"Person", "PhysicalPerson"}), "PhysicalPerson");
  EXPECT_EQ(primary({"Person", "LegalPerson", "Business"}), "Business");
  EXPECT_EQ(primary({"LegalPerson", "PhysicalPerson"}), "LegalPerson");
  EXPECT_EQ(primary({"PhysicalPerson", "LegalPerson"}), "PhysicalPerson");
  EXPECT_EQ(primary({"Extra", "Person"}), "Person");
  EXPECT_EQ(primary({"Extra"}), "");
  EXPECT_EQ(primary({}), "");
}

TEST(SuperSchemaTest, ValidationAcceptsGoodSchema) {
  EXPECT_TRUE(SmallSchema().Validate().ok());
}

TEST(SuperSchemaTest, DuplicateNodeRejected) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddNode("A", {IdAttr("id")});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, DuplicateEdgeTypeRejected) {
  // Super-schemas are simple graphs by construction (one SM_Type per edge).
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddEdge("E", "A", "A");
  s.AddEdge("E", "A", "A");
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, UnknownEndpointsRejected) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddEdge("E", "A", "Missing");
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, MultipleParentsRejected) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddNode("B", {IdAttr("id")});
  s.AddNode("C");
  s.AddGeneralization("A", {"C"}, false, false);
  s.AddGeneralization("B", {"C"}, false, false);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, GeneralizationCycleRejected) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddNode("B");
  s.AddGeneralization("A", {"B"}, false, false);
  s.AddGeneralization("B", {"A"}, false, false);
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, MissingIdentifierRejected) {
  SuperSchema s("S");
  s.AddNode("A", {Attr("x")});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, InheritedIdentifierAccepted) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddNode("B");  // id inherited from A
  s.AddGeneralization("A", {"B"}, false, false);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(SuperSchemaTest, OptionalIdRejected) {
  SuperSchema s("S");
  AttributeDef bad = IdAttr("id");
  bad.optional = true;
  s.AddNode("A", {bad});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, EdgeIdAttributeRejected) {
  SuperSchema s("S");
  s.AddNode("A", {IdAttr("id")});
  s.AddEdge("E", "A", "A", Cardinality::ZeroOrMore(),
            Cardinality::ZeroOrMore(), {IdAttr("bad")});
  EXPECT_FALSE(s.Validate().ok());
}

TEST(SuperSchemaTest, CardinalityRendering) {
  EXPECT_EQ(Cardinality::ZeroOrOne().ToString(), "(0,1)");
  EXPECT_EQ(Cardinality::ExactlyOne().ToString(), "(1,1)");
  EXPECT_EQ(Cardinality::ZeroOrMore().ToString(), "(0,N)");
  EXPECT_EQ(Cardinality::OneOrMore().ToString(), "(1,N)");
}

TEST(CompanyKgTest, Figure4SchemaValidates) {
  core::SuperSchema s = finkg::CompanyKgSchema();
  EXPECT_TRUE(s.Validate().ok()) << s.Validate().ToString();
  EXPECT_EQ(s.schema_oid(), 123);  // Example 5.1 uses schemaOID 123
  // The narrative's key design decisions.
  EXPECT_EQ(s.AncestorsOf("PublicListedCompany"),
            (std::vector<std::string>{"Business", "LegalPerson", "Person"}));
  ASSERT_NE(s.FindEdge("HOLDS"), nullptr);
  EXPECT_TRUE(s.FindEdge("HOLDS")->many_to_many());
  ASSERT_NE(s.FindEdge("BELONGS_TO"), nullptr);
  EXPECT_TRUE(s.FindEdge("BELONGS_TO")->source.functional);
  ASSERT_NE(s.FindEdge("CONTROLS"), nullptr);
  EXPECT_TRUE(s.FindEdge("CONTROLS")->intensional);
  ASSERT_NE(s.FindNode("Family"), nullptr);
  EXPECT_TRUE(s.FindNode("Family")->intensional);
  // numberOfStakeholders is an intensional property of Business.
  const core::NodeDef* business = s.FindNode("Business");
  ASSERT_NE(business, nullptr);
  const core::AttributeDef* n = business->FindAttribute(
      "numberOfStakeholders");
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->intensional);
}

TEST(CompanyKgTest, SummaryCountsConstructs) {
  core::SuperSchema s = finkg::CompanyKgSchema();
  std::string summary = s.Summary();
  EXPECT_NE(summary.find("CompanyKG"), std::string::npos);
  EXPECT_NE(summary.find("generalizations"), std::string::npos);
}

}  // namespace
}  // namespace kgm::core
