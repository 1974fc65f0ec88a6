// Every instance path classifies a data node by one rule, its primary type
// (core::NodeTypeIndex: the deepest schema type among its labels), and the
// relational bridge reads only tables laid out as SSST translates them.

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "instance/loader.h"
#include "instance/rel_bridge.h"
#include "translate/csv_io.h"
#include "translate/native.h"
#include "translate/validate.h"

namespace kgm::instance {
namespace {

TEST(PrimaryTypeTest, DeepestLabelWinsOnEveryPath) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  // The general label first: the node is still a PhysicalPerson.
  data.AddNode(std::vector<std::string>{"Person", "PhysicalPerson"},
               {{"fiscalCode", Value("P1")},
                {"name", Value("ada")},
                {"surname", Value("rossi")},
                {"gender", Value("female")}});

  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded_attributes, 4u);
  bool surname = false;
  for (pg::NodeId id : loaded->dict.NodesWithLabel(kISmAttribute)) {
    const Value* v = loaded->dict.NodeProperty(id, "value");
    surname |= v != nullptr && *v == Value("rossi");
  }
  EXPECT_TRUE(surname);

  auto files = translate::ExportCsv(schema, data);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_EQ(files->at("physical_person.csv"),
            "fiscal_code,name,surname,gender,birth_date\n"
            "P1,ada,rossi,female,\n");
  EXPECT_EQ(files->at("person.csv"), "fiscal_code\n");

  auto db = GraphToRelational(schema, data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const rel::Table* physical = db->GetTable("physical_person");
  ASSERT_EQ(physical->size(), 1u);
  int col = physical->schema().ColumnIndex("surname");
  ASSERT_GE(col, 0);
  EXPECT_EQ(physical->rows()[0][col], Value("rossi"));
  EXPECT_EQ(db->GetTable("person")->size(), 1u);

  auto pg_schema = translate::TranslateToPgNative(schema);
  ASSERT_TRUE(pg_schema.ok());
  translate::ValidationReport report =
      translate::ValidateInstance(schema, *pg_schema, data);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(RelLayoutTest, JunctionWithoutAnEndpointColumnIsFailedPrecondition) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  rel::Database db;
  rel::TableSchema person;
  person.name = "person";
  person.columns = {{"fiscal_code", rel::ColumnType::kString, false}};
  person.primary_key = {"fiscal_code"};
  ASSERT_TRUE(db.CreateTable(person).ok());
  ASSERT_TRUE(db.GetTable("person")->Insert({Value("P1")}).ok());
  // HOLDS is many-to-many: its junction lacks share_share_id.
  rel::TableSchema holds;
  holds.name = "holds";
  holds.columns = {{"person_fiscal_code", rel::ColumnType::kString, false},
                   {"right", rel::ColumnType::kString, true},
                   {"percentage", rel::ColumnType::kDouble, true}};
  ASSERT_TRUE(db.CreateTable(holds).ok());
  ASSERT_TRUE(
      db.GetTable("holds")->Insert({Value("P1"), Value(), Value()}).ok());

  Status s = RelationalToGraph(schema, db).status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.ToString().find("share_share_id"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace kgm::instance
