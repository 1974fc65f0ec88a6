// Tests for the super-schema -> relational translation (Section 5.3,
// Figure 8): one relation per generalization member with parent foreign
// keys, foreign keys for functional edges, junction relations for
// many-to-many edges — and actual enforceability in the relational engine.

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "translate/enforce.h"
#include "translate/ssst.h"

namespace kgm::translate {
namespace {

using core::SuperSchema;

const rel::TableSchema* Find(const std::vector<rel::TableSchema>& tables,
                             std::string_view name) {
  for (const rel::TableSchema& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::vector<rel::TableSchema> CompanyTables() {
  auto result = TranslateToRelational(finkg::CompanyKgSchema());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(RelTranslationTest, OneRelationPerMember) {
  auto tables = CompanyTables();
  for (const char* name :
       {"person", "physical_person", "legal_person", "business",
        "non_business", "public_listed_company", "share", "stock_share",
        "place", "family", "business_event"}) {
    EXPECT_NE(Find(tables, name), nullptr) << name;
  }
}

TEST(RelTranslationTest, ChildInheritsKeyAndReferencesParent) {
  auto tables = CompanyTables();
  const rel::TableSchema* business = Find(tables, "business");
  ASSERT_NE(business, nullptr);
  // Key inherited from the hierarchy root (Person.fiscalCode).
  EXPECT_EQ(business->primary_key,
            (std::vector<std::string>{"fiscal_code"}));
  // FK to the direct parent relation.
  ASSERT_EQ(business->foreign_keys.size(), 1u);
  EXPECT_EQ(business->foreign_keys[0].ref_table, "legal_person");
  EXPECT_EQ(business->foreign_keys[0].columns,
            (std::vector<std::string>{"fiscal_code"}));
}

TEST(RelTranslationTest, FunctionalEdgeBecomesForeignKey) {
  auto tables = CompanyTables();
  // BELONGS_TO: Share (1,1) -> Business: FK on share.
  const rel::TableSchema* share = Find(tables, "share");
  ASSERT_NE(share, nullptr);
  bool has_fk = false;
  for (const auto& fk : share->foreign_keys) {
    if (fk.ref_table == "business") {
      has_fk = true;
      EXPECT_EQ(fk.columns,
                (std::vector<std::string>{"belongs_to_fiscal_code"}));
    }
  }
  EXPECT_TRUE(has_fk);
  // The FK column is NOT NULL because the edge is mandatory (1,1).
  int idx = share->ColumnIndex("belongs_to_fiscal_code");
  ASSERT_GE(idx, 0);
  EXPECT_FALSE(share->columns[idx].nullable);
  // RESIDES (0,1): nullable FK on person.
  const rel::TableSchema* person = Find(tables, "person");
  int ridx = person->ColumnIndex("resides_street");
  ASSERT_GE(ridx, 0);
  EXPECT_TRUE(person->columns[ridx].nullable);
}

TEST(RelTranslationTest, ManyToManyBecomesJunction) {
  auto tables = CompanyTables();
  const rel::TableSchema* holds = Find(tables, "holds");
  ASSERT_NE(holds, nullptr);
  // Key columns from both sides plus edge attributes.
  EXPECT_EQ(holds->primary_key,
            (std::vector<std::string>{"person_fiscal_code",
                                      "share_share_id"}));
  ASSERT_EQ(holds->foreign_keys.size(), 2u);
  EXPECT_EQ(holds->foreign_keys[0].ref_table, "person");
  EXPECT_EQ(holds->foreign_keys[1].ref_table, "share");
  EXPECT_GE(holds->ColumnIndex("right"), 0);
  EXPECT_GE(holds->ColumnIndex("percentage"), 0);
}

TEST(RelTranslationTest, CompositeKeysPropagate) {
  auto tables = CompanyTables();
  // Place has a 4-part identifier; RESIDES FK must use all parts.
  const rel::TableSchema* person = Find(tables, "person");
  ASSERT_NE(person, nullptr);
  bool found = false;
  for (const auto& fk : person->foreign_keys) {
    if (fk.ref_table == "place") {
      found = true;
      EXPECT_EQ(fk.columns.size(), 4u);
      EXPECT_EQ(fk.ref_columns.size(), 4u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RelTranslationTest, GeneratedSchemaIsEnforceable) {
  // The generated DDL must load into the relational engine and accept a
  // consistent instance while rejecting violations.
  auto tables = CompanyTables();
  rel::Database db;
  for (const auto& t : tables) {
    ASSERT_TRUE(db.CreateTable(t).ok()) << t.name;
  }
  rel::Table* person = db.GetTable("person");
  ASSERT_NE(person, nullptr);
  // person(fiscal_code, resides_* x4(nullable)).
  ASSERT_EQ(person->schema().arity(), 5u);
  ASSERT_TRUE(person
                  ->Insert({Value("FC1"), Value(), Value(), Value(),
                            Value()})
                  .ok());
  // Duplicate PK rejected.
  EXPECT_FALSE(person
                   ->Insert({Value("FC1"), Value(), Value(), Value(),
                             Value()})
                   .ok());
  EXPECT_TRUE(db.ValidateForeignKeys().ok());
}

TEST(RelTranslationTest, DdlRendersCompleteSchema) {
  auto tables = CompanyTables();
  std::string ddl = rel::RenderSqlDdl(tables);
  EXPECT_NE(ddl.find("CREATE TABLE person"), std::string::npos);
  EXPECT_NE(ddl.find("CREATE TABLE holds"), std::string::npos);
  EXPECT_NE(ddl.find("PRIMARY KEY (fiscal_code)"), std::string::npos);
  EXPECT_NE(ddl.find("REFERENCES business"), std::string::npos);
}

TEST(RelTranslationTest, UniqueModifierOnNonKeyAttribute) {
  SuperSchema s("Uni");
  core::AttributeDef vat = core::Attr("vatNumber");
  vat.modifiers.push_back(core::AttributeModifier::Unique());
  s.AddNode("Company", {core::IdAttr("code"), vat});
  auto tables = TranslateToRelational(s).value();
  const rel::TableSchema* company = Find(tables, "company");
  ASSERT_NE(company, nullptr);
  ASSERT_EQ(company->unique_keys.size(), 1u);
  EXPECT_EQ(company->unique_keys[0],
            (std::vector<std::string>{"vat_number"}));
  // The UNIQUE clause appears in the DDL (the PK needs no extra UNIQUE).
  std::string ddl = rel::RenderSqlDdl(tables);
  EXPECT_NE(ddl.find("UNIQUE (vat_number)"), std::string::npos);
}

TEST(RelTranslationTest, OneToOneEdgeGetsUniqueForeignKey) {
  SuperSchema s("OneToOne");
  s.AddNode("A", {core::IdAttr("aid")});
  s.AddNode("B", {core::IdAttr("bid")});
  s.AddEdge("TWIN", "A", "B", core::Cardinality::ZeroOrOne(),
            core::Cardinality::ZeroOrOne());
  auto tables = TranslateToRelational(s).value();
  const rel::TableSchema* a = Find(tables, "a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->unique_keys.size(), 1u);
  EXPECT_EQ(a->unique_keys[0], (std::vector<std::string>{"twin_bid"}));
}

TEST(CsvTranslationTest, FilesAndColumns) {
  auto files = TranslateToCsv(finkg::CompanyKgSchema());
  bool found_person = false;
  bool found_holds = false;
  for (const auto& f : files) {
    if (f.file_name == "physical_person.csv") {
      found_person = true;
      // Effective attributes include the inherited fiscalCode.
      bool has_fc = false;
      for (const auto& c : f.columns) {
        if (c == "fiscal_code") has_fc = true;
      }
      EXPECT_TRUE(has_fc);
    }
    if (f.file_name == "holds.csv") {
      found_holds = true;
      EXPECT_EQ(f.columns.size(), 4u);  // from key, to key, right, pct
    }
  }
  EXPECT_TRUE(found_person);
  EXPECT_TRUE(found_holds);
}

TEST(EnforceTest, CypherConstraints) {
  auto pg = TranslateToPgNative(finkg::CompanyKgSchema()).value();
  std::string cypher = RenderCypherConstraints(pg);
  EXPECT_NE(cypher.find("REQUIRE n.fiscalCode IS UNIQUE"),
            std::string::npos);
  EXPECT_NE(cypher.find("IS NOT NULL"), std::string::npos);
}

TEST(EnforceTest, RdfsDocument) {
  std::string rdfs = RenderRdfs(finkg::CompanyKgSchema());
  EXPECT_NE(rdfs.find(":Business rdf:type rdfs:Class"), std::string::npos);
  EXPECT_NE(rdfs.find(":Business rdfs:subClassOf :LegalPerson"),
            std::string::npos);
  EXPECT_NE(rdfs.find("rdfs:domain :Person"), std::string::npos);
  EXPECT_NE(rdfs.find("xsd:double"), std::string::npos);
}

TEST(EnforceTest, CsvHeaders) {
  auto files = TranslateToCsv(finkg::CompanyKgSchema());
  std::string headers = RenderCsvHeaders(files);
  EXPECT_NE(headers.find("place.csv: street,street_number,city,postal_code"),
            std::string::npos);
}

}  // namespace
}  // namespace kgm::translate
