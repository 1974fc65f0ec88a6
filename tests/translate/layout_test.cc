// The CSV target layout (translate/native.h): the files TranslateToCsv
// describes are the ones ExportCsv writes, and ImportCsv rejects files
// that do not lead with their key columns.

#include <gtest/gtest.h>

#include "base/strings.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "translate/csv_io.h"
#include "translate/native.h"

namespace kgm::translate {
namespace {

TEST(CsvLayoutTest, TranslatedColumnsAreTheHeadersExportWrites) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 30;
  config.num_persons = 50;
  pg::PropertyGraph data =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  // A family, keyed by its surrogate: it has no id attribute.
  pg::NodeId person = data.NodesWithLabel("PhysicalPerson").front();
  pg::NodeId business = data.NodesWithLabel("Business").front();
  pg::NodeId family =
      data.AddNode("Family", {{"familyName", Value("rossi")}});
  data.AddEdge(person, family, "BELONGS_TO_FAMILY");
  data.AddEdge(family, business, "FAMILY_OWNS");

  auto files = ExportCsv(schema, data);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  std::vector<CsvFileSchema> layout = TranslateToCsv(schema);
  ASSERT_EQ(layout.size(), 24u);
  ASSERT_EQ(files->size(), 24u);
  for (const CsvFileSchema& file : layout) {
    SCOPED_TRACE(file.file_name);
    ASSERT_EQ(files->count(file.file_name), 1u);
    auto lines = CsvSplitRecords(files->at(file.file_name));
    ASSERT_TRUE(lines.ok());
    ASSERT_FALSE(lines->empty());
    EXPECT_EQ(lines->front(), Join(file.columns, ","));
    for (size_t i = 1; i < lines->size(); ++i) {
      EXPECT_EQ(CsvSplitLine((*lines)[i])->size(), file.columns.size());
    }
  }
  const std::string oid = "n" + std::to_string(family);
  EXPECT_EQ(files->at("family.csv"),
            "family_oid,family_name\n" + oid + ",rossi\n");
  EXPECT_EQ(files->at("family_owns.csv").substr(0, 31),
            "from_family_oid,to_fiscal_code\n");

  auto back = ImportCsv(schema, *files);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_nodes(), data.num_nodes());
  EXPECT_EQ(back->num_edges(), data.num_edges());
  EXPECT_NE(back->FindNode("Family", "__oid", Value(oid)), pg::kInvalidNode);
}

TEST(CsvLayoutTest, HeaderWithoutTheKeyColumnsIsInvalidArgument) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  const std::map<std::string, std::string> cases[] = {
      // Narrower than the four-column key of Place.
      {{"place.csv", "street\nx\n"}},
      // The key is there, but not first.
      {{"share.csv", "percentage,share_id\n0.5,S1\n"}},
      // An edge file without its endpoint keys.
      {{"holds.csv", "right,percentage\nownership,0.5\n"}},
  };
  for (const auto& files : cases) {
    SCOPED_TRACE(files.begin()->first);
    Status s = ImportCsv(schema, files).status();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.ToString().find("key columns"), std::string::npos)
        << s.ToString();
  }
}

}  // namespace
}  // namespace kgm::translate
