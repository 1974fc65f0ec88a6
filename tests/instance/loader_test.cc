#include "instance/loader.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "vadalog/database.h"

namespace kgm::instance {
namespace {

pg::PropertyGraph SmallData() {
  pg::PropertyGraph g;
  pg::NodeId ada = g.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"fiscalCode", Value("P1")},
       {"name", Value("ada")},
       {"surname", Value("rossi")},
       {"gender", Value("female")}});
  pg::NodeId acme = g.AddNode(
      std::vector<std::string>{"Business", "LegalPerson", "Person"},
      {{"fiscalCode", Value("C1")},
       {"businessName", Value("acme")},
       {"legalNature", Value("spa")},
       {"shareholdingCapital", Value(5000.0)}});
  pg::NodeId share = g.AddNode(std::vector<std::string>{"Share"},
                               {{"shareId", Value("S1")},
                                {"percentage", Value(0.6)}});
  g.AddEdge(ada, share, "HOLDS",
            {{"right", Value("ownership")}, {"percentage", Value(0.6)}});
  g.AddEdge(share, acme, "BELONGS_TO");
  return g;
}

TEST(LoaderTest, LoadsNodesEdgesAndAttributes) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = SmallData();
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->loaded_nodes, 3u);
  EXPECT_EQ(loaded->loaded_edges, 2u);
  // ada: 4 props, acme: 4 props, share: 2 props, HOLDS: 2 props.
  EXPECT_EQ(loaded->loaded_attributes, 12u);
  EXPECT_EQ(loaded->dict.NodesWithLabel(kISmNode).size(), 3u);
  EXPECT_EQ(loaded->dict.NodesWithLabel(kISmEdge).size(), 2u);
  EXPECT_EQ(loaded->dict.NodesWithLabel(kISmAttribute).size(), 12u);
}

TEST(LoaderTest, InstanceConstructsReferenceSchemaConstructs) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = SmallData();
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok());
  const pg::PropertyGraph& dict = loaded->dict;
  // Every I_SM_Node has exactly one SM_REFERENCES to an SM_Node.
  for (pg::NodeId i : dict.NodesWithLabel(kISmNode)) {
    int refs = 0;
    for (pg::EdgeId e : dict.OutEdges(i)) {
      if (dict.edge(e).label == kSmReferences) {
        EXPECT_TRUE(dict.node(dict.edge(e).to).HasLabel("SM_Node"));
        ++refs;
      }
    }
    EXPECT_EQ(refs, 1);
    const Value* oid = dict.NodeProperty(i, "instanceOID");
    ASSERT_NE(oid, nullptr);
    EXPECT_EQ(*oid, Value(int64_t{234}));
  }
  // Every I_SM_Edge has I_SM_FROM and I_SM_TO.
  for (pg::NodeId i : dict.NodesWithLabel(kISmEdge)) {
    int from = 0;
    int to = 0;
    for (pg::EdgeId e : dict.OutEdges(i)) {
      if (dict.edge(e).label == kISmFrom) ++from;
      if (dict.edge(e).label == kISmTo) ++to;
    }
    EXPECT_EQ(from, 1);
    EXPECT_EQ(to, 1);
  }
}

TEST(LoaderTest, InheritedAttributeResolvesToAncestorConstruct) {
  // fiscalCode is declared on Person; a Business instance's fiscalCode
  // must reference Person's SM_Attribute.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = SmallData();
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok());
  const pg::PropertyGraph& dict = loaded->dict;
  bool checked = false;
  for (pg::NodeId ia : dict.NodesWithLabel(kISmAttribute)) {
    const Value* v = dict.NodeProperty(ia, "value");
    if (v == nullptr || !(*v == Value("C1"))) continue;
    for (pg::EdgeId e : dict.OutEdges(ia)) {
      if (dict.edge(e).label != kSmReferences) continue;
      const Value* name = dict.NodeProperty(dict.edge(e).to, "name");
      ASSERT_NE(name, nullptr);
      EXPECT_EQ(*name, Value("fiscalCode"));
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(LoaderTest, UnknownLabelsAndPropsSkipped) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  data.AddNode("Alien", {{"x", Value(int64_t{1})}});
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P9")},
                {"undeclaredProp", Value("zap")}});
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->loaded_nodes, 1u);       // Alien skipped
  EXPECT_EQ(loaded->loaded_attributes, 1u);  // undeclaredProp skipped
}

TEST(LoaderTest, EdgeWithUnloadedEndpointSkipped) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  pg::NodeId alien = data.AddNode("Alien");
  pg::NodeId person = data.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"fiscalCode", Value("P1")}});
  data.AddEdge(person, alien, "HOLDS");
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->loaded_edges, 0u);
}

// The rows of every relation of `db`, by predicate, in row order.
std::map<std::string, std::vector<vadalog::Tuple>> Rows(
    const vadalog::FactDb& db) {
  std::map<std::string, std::vector<vadalog::Tuple>> out;
  for (const std::string& pred : db.Predicates()) {
    const vadalog::Relation* rel = db.Get(pred);
    std::vector<vadalog::Tuple>& rows = out[pred];
    for (size_t row = 0; row < rel->row_bound(); ++row) {
      rows.push_back(rel->tuple(row));
    }
  }
  return out;
}

// LoadInstanceFacts(`data`) against encoding LoadInstance's dictionary:
// the same predicates, rows in the same order, the same catalog, and the
// same correspondence and counts.  `extra` widens the encoding's layout
// when it is not empty.
void ExpectFactsEncodeTheDictionary(const core::SuperSchema& schema,
                                    const pg::PropertyGraph& data,
                                    const metalog::GraphCatalog& extra = {}) {
  auto loaded = LoadInstance(schema, data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const metalog::GraphCatalog dict_catalog =
      metalog::GraphCatalog::FromGraph(loaded->dict);
  // The layout Materialize compiles with: the dictionary's labels plus the
  // schema's (and here `extra`).
  metalog::GraphCatalog layout = dict_catalog;
  layout.Merge(SchemaCatalog(schema));
  layout.Merge(extra);
  const bool widened = !extra.NodeLabels().empty() ||
                       !extra.EdgeLabels().empty();
  auto facts = LoadInstanceFacts(schema, data, 234,
                                 widened ? &layout : nullptr);
  ASSERT_TRUE(facts.ok()) << facts.status().ToString();
  EXPECT_EQ(facts->catalog.Fingerprint(), dict_catalog.Fingerprint());
  EXPECT_EQ(facts->catalog.NodeLabels(), dict_catalog.NodeLabels());
  EXPECT_EQ(facts->catalog.EdgeLabels(), dict_catalog.EdgeLabels());

  const vadalog::FactDb want = metalog::EncodeGraph(loaded->dict, layout);
  EXPECT_EQ(facts->db.Predicates(), want.Predicates());
  const auto got_rows = Rows(facts->db);
  const auto want_rows = Rows(want);
  for (const auto& [pred, rows] : want_rows) {
    auto got = got_rows.find(pred);
    ASSERT_NE(got, got_rows.end()) << pred;
    EXPECT_EQ(facts->db.Get(pred)->arity(), want.Get(pred)->arity()) << pred;
    EXPECT_EQ(got->second.size(), rows.size()) << pred;
    EXPECT_TRUE(got->second == rows) << pred << " rows differ";
  }
  EXPECT_EQ(facts->inode_of_data, loaded->inode_of_data);
  EXPECT_EQ(facts->data_of_inode, loaded->data_of_inode);
  EXPECT_EQ(facts->loaded_nodes, loaded->loaded_nodes);
  EXPECT_EQ(facts->loaded_edges, loaded->loaded_edges);
  EXPECT_EQ(facts->loaded_attributes, loaded->loaded_attributes);
}

TEST(LoaderFactsTest, SmallInstanceEncodesTheDictionary) {
  // Inherited attributes: fiscalCode of the Business comes from Person.
  ExpectFactsEncodeTheDictionary(finkg::CompanyKgSchema(), SmallData());
}

TEST(LoaderFactsTest, SkippedNodesPropertiesAndEdges) {
  pg::PropertyGraph data = SmallData();
  pg::NodeId alien = data.AddNode("Alien", {{"x", Value(int64_t{1})}});
  pg::NodeId bare = data.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"undeclaredProp", Value("zap")}, {"surname", Value()}});
  pg::NodeId gone = data.AddNode(std::vector<std::string>{"Share"},
                                 {{"shareId", Value("S9")}});
  data.AddEdge(bare, alien, "HOLDS", {{"percentage", Value(0.5)}});
  data.AddEdge(alien, bare, "HOLDS");
  data.AddEdge(bare, bare, "NOT_AN_EDGE_TYPE");
  data.AddEdge(bare, gone, "HOLDS", {{"percentage", Value(0.1)}});
  data.DeleteNode(gone);
  auto facts = LoadInstanceFacts(finkg::CompanyKgSchema(), data);
  ASSERT_TRUE(facts.ok()) << facts.status().ToString();
  EXPECT_EQ(facts->loaded_nodes, 4u);  // Alien and the deleted Share skipped
  EXPECT_EQ(facts->loaded_edges, 2u);  // only SmallData's edges
  // SmallData's 12, plus bare's null surname; undeclaredProp skipped.
  EXPECT_EQ(facts->loaded_attributes, 13u);
  ExpectFactsEncodeTheDictionary(finkg::CompanyKgSchema(), data);
}

TEST(LoaderFactsTest, GraphWithoutEdges) {
  pg::PropertyGraph data;
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P1")}});
  data.AddNode(std::vector<std::string>{"Family"});
  auto facts = LoadInstanceFacts(finkg::CompanyKgSchema(), data);
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(facts->db.Get(kISmEdge), nullptr);
  EXPECT_EQ(facts->db.Get(kISmFrom), nullptr);
  EXPECT_FALSE(facts->catalog.HasNodeLabel(kISmEdge));
  ExpectFactsEncodeTheDictionary(finkg::CompanyKgSchema(), data);
}

TEST(LoaderFactsTest, EmptyGraph) {
  pg::PropertyGraph data;
  auto facts = LoadInstanceFacts(finkg::CompanyKgSchema(), data);
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(facts->db.Get(kISmNode), nullptr);
  EXPECT_EQ(facts->db.Get(kSmReferences), nullptr);
  EXPECT_FALSE(facts->catalog.HasNodeLabel(kISmNode));
  EXPECT_TRUE(facts->catalog.HasNodeLabel("SM_Node"));
  ExpectFactsEncodeTheDictionary(finkg::CompanyKgSchema(), data);
}

TEST(LoaderFactsTest, WidenedLayoutAddsNullColumns) {
  // A compilation that adds properties to dictionary labels lays their
  // rows out with more columns; the loader follows the layout it is given.
  metalog::GraphCatalog extra;
  extra.AddNodeLabel(kISmAttribute, {"aaa", "zzz"});
  extra.AddNodeLabel(kISmNode, {"label"});
  extra.AddNodeLabel("SM_Type", {"alias"});
  extra.AddEdgeLabel(kISmFrom, {"weight"});
  ExpectFactsEncodeTheDictionary(finkg::CompanyKgSchema(), SmallData(),
                                 extra);
}

TEST(LoaderFactsTest, ComponentInputsEncodeTheDictionary) {
  // The input of each Company-KG component in `kgmctl materialize all`
  // order, each over the graph its predecessors enriched.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  pg::PropertyGraph data =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  for (const char* program :
       {finkg::kOwnsProgram, finkg::kControlProgram,
        finkg::kStakeholdersProgram, finkg::kFamilyProgram,
        finkg::kCloseLinksProgram}) {
    SCOPED_TRACE(program);
    ExpectFactsEncodeTheDictionary(schema, data);
    ASSERT_TRUE(Materialize(schema, program, &data).ok());
  }
  ExpectFactsEncodeTheDictionary(schema, data);
}

}  // namespace
}  // namespace kgm::instance
