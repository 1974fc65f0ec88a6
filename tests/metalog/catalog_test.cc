#include "metalog/catalog.h"

#include <gtest/gtest.h>

#include "metalog/parser.h"

namespace kgm::metalog {
namespace {

pg::PropertyGraph SampleGraph() {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("Person", {{"name", Value("ada")},
                                      {"age", Value(int64_t{36})}});
  pg::NodeId b = g.AddNode("Person", {{"name", Value("bob")}});
  pg::NodeId c = g.AddNode("Company", {{"name", Value("acme")}});
  g.AddEdge(a, c, "OWNS", {{"pct", Value(0.6)}});
  g.AddEdge(b, c, "OWNS", {{"pct", Value(0.4)}});
  g.AddEdge(a, b, "KNOWS");
  return g;
}

TEST(CatalogTest, FromGraphCollectsLabelsAndProps) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  EXPECT_TRUE(catalog.HasNodeLabel("Person"));
  EXPECT_TRUE(catalog.HasNodeLabel("Company"));
  EXPECT_TRUE(catalog.HasEdgeLabel("OWNS"));
  EXPECT_TRUE(catalog.HasEdgeLabel("KNOWS"));
  EXPECT_EQ(catalog.NodeProps("Person"),
            (std::vector<std::string>{"age", "name"}));
  EXPECT_EQ(catalog.EdgeProps("OWNS"), (std::vector<std::string>{"pct"}));
  EXPECT_EQ(catalog.NodeArity("Person"), 3u);
  EXPECT_EQ(catalog.EdgeArity("OWNS"), 4u);
  EXPECT_EQ(catalog.NodePropColumn("Person", "age"), 1);
  EXPECT_EQ(catalog.NodePropColumn("Person", "name"), 2);
  EXPECT_EQ(catalog.EdgePropColumn("OWNS", "pct"), 3);
  EXPECT_EQ(catalog.NodePropColumn("Person", "missing"), -1);
}

TEST(CatalogTest, AbsorbProgramAddsIntensionalLabels) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("Business", {"name"});
  auto program = ParseMetaProgram(
      "(x: Business) -> exists c (x)[c: CONTROLS](x).");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(catalog.AbsorbProgram(*program).ok());
  EXPECT_TRUE(catalog.HasEdgeLabel("CONTROLS"));
  EXPECT_TRUE(catalog.EdgeProps("CONTROLS").empty());
}

TEST(CatalogTest, NodeEdgeLabelClashRejected) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("OWNS");
  auto program =
      ParseMetaProgram("(x: Business)[: OWNS](y: Business) -> (x: Owner).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(catalog.AbsorbProgram(*program).ok());
}

TEST(EncodeTest, NodesAndEdgesBecomeFacts) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  const vadalog::Relation* person = db.Get("Person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->size(), 2u);
  EXPECT_EQ(person->arity(), 3u);  // oid, age, name
  // bob has no age: null in the age column.
  bool found_bob = false;
  for (const auto& t : person->tuples()) {
    if (t[2] == Value("bob")) {
      found_bob = true;
      EXPECT_TRUE(t[1].is_null());
    }
  }
  EXPECT_TRUE(found_bob);
  const vadalog::Relation* owns = db.Get("OWNS");
  ASSERT_NE(owns, nullptr);
  EXPECT_EQ(owns->size(), 2u);
  EXPECT_EQ(owns->arity(), 4u);  // oid, from, to, pct
}

TEST(EncodeTest, MultiLabelNodeEncodedUnderEachLabel) {
  pg::PropertyGraph g;
  g.AddNode(std::vector<std::string>{"LegalPerson", "Business"},
            {{"name", Value("acme")}});
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  EXPECT_EQ(db.Get("LegalPerson")->size(), 1u);
  EXPECT_EQ(db.Get("Business")->size(), 1u);
}

TEST(DecodeTest, NewEdgeMaterialized) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddEdgeLabel("CONTROLS");
  vadalog::FactDb db = EncodeGraph(g, catalog);
  // Derive a CONTROLS edge 0 -> 2 with a fresh Skolem OID.
  Value oid = SkolemTable::Global().Intern("skCtrl", {Value(int64_t{0})});
  db.Add("CONTROLS",
         {oid, Value(int64_t{0}), Value(int64_t{2})});
  size_t edges_before = g.num_edges();
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_edges, 1u);
  EXPECT_EQ(g.num_edges(), edges_before + 1);
  EXPECT_EQ(g.EdgesWithLabel("CONTROLS").size(), 1u);
}

TEST(DecodeTest, ExistingEdgeNotDuplicated) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  size_t edges_before = g.num_edges();
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->new_edges, 0u);
  EXPECT_EQ(stats->new_nodes, 0u);
  EXPECT_EQ(g.num_edges(), edges_before);
}

TEST(DecodeTest, NewNodeAndPropertyMerge) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddNodeLabel("Family", {"familyName"});
  catalog.AddNodeLabel("Company", {"name", "numberOfStakeholders"});
  vadalog::FactDb db = EncodeGraph(g, catalog);
  // New node with Skolem OID.
  Value fam = SkolemTable::Global().Intern("skFam", {Value("rossi")});
  db.Add("Family", {fam, Value("rossi")});
  // New derived property on the existing company node (id 2).
  db.Add("Company",
         {Value(int64_t{2}), Value(), Value(int64_t{2})});
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_nodes, 1u);
  auto families = g.NodesWithLabel("Family");
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(*g.NodeProperty(families[0], "familyName"), Value("rossi"));
  EXPECT_EQ(*g.NodeProperty(2, "numberOfStakeholders"), Value(int64_t{2}));
  // The original name survives the merge.
  EXPECT_EQ(*g.NodeProperty(2, "name"), Value("acme"));
}

// Decoding a fresh encoding from its own row counts decodes no row, even
// where decoding every row would not be a no-op: node 3 carries __oid 1,
// node 1's id, so from row 0 its row would merge into node 1.
TEST(DecodeTest, OwnRowCountsDecodeNothing) {
  pg::PropertyGraph g = SampleGraph();
  g.AddNode("Person",
            {{"name", Value("cy")}, {kOidProperty, Value(int64_t{1})}});
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db = EncodeGraph(g, catalog);
  const std::string before = g.DebugString();
  auto stats = DecodeGraph(db, catalog, &g, CountRows(db));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_nodes, 0u);
  EXPECT_EQ(stats->new_edges, 0u);
  EXPECT_EQ(stats->updated_nodes, 0u);
  EXPECT_EQ(g.DebugString(), before);
}

// An OID names the lowest live id whose encoded OID equals it, and an
// integer __oid counts: OID 3 is node 1's __oid before it is node 3's id,
// and OID 1 names no node, since node 1 encodes as 3.  Edges likewise.
TEST(DecodeTest, IntegerOidResolvesToLowestIdEncodingIt) {
  pg::PropertyGraph g;
  g.AddNode("Person", {{"name", Value("ada")}});
  g.AddNode("Person", {{"name", Value("bob")},
                       {kOidProperty, Value(int64_t{3})}});
  g.AddNode("Person", {{"name", Value("cy")}});
  g.AddNode("Person", {{"name", Value("dan")}});
  g.AddEdge(0, 2, "KNOWS", {{kOidProperty, Value(int64_t{1})}});
  g.AddEdge(0, 2, "KNOWS");
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddNodeLabel("Person", {"age"});
  catalog.AddEdgeLabel("KNOWS", {"since"});
  vadalog::FactDb db = EncodeGraph(g, catalog);
  const RowCounts encoded = CountRows(db);
  // Person columns: OID, age, name.
  db.Add("Person", {Value(int64_t{3}), Value(int64_t{40}), Value()});
  db.Add("Person", {Value(int64_t{2}), Value(int64_t{60}), Value()});
  db.Add("Person", {Value(int64_t{1}), Value(int64_t{50}), Value()});
  db.Add("KNOWS", {Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{2}),
                   Value(int64_t{7})});
  auto stats = DecodeGraph(db, catalog, &g, encoded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // A property's value, null when absent.
  auto node_prop = [&g](pg::NodeId id, const char* key) {
    const Value* v = g.NodeProperty(id, key);
    return v == nullptr ? Value() : *v;
  };
  EXPECT_EQ(node_prop(1, "age"), Value(int64_t{40}));
  EXPECT_TRUE(node_prop(3, "age").is_null());
  EXPECT_EQ(node_prop(2, "age"), Value(int64_t{60}));
  ASSERT_EQ(stats->new_nodes, 1u);
  EXPECT_EQ(node_prop(4, "age"), Value(int64_t{50}));
  // Node 4 keeps the OID it was derived under.
  EXPECT_EQ(node_prop(4, kOidProperty), Value(int64_t{1}));
  EXPECT_EQ(stats->new_edges, 0u);
  const Value* since = g.EdgeProperty(0, "since");
  ASSERT_NE(since, nullptr);
  EXPECT_EQ(*since, Value(int64_t{7}));
  EXPECT_EQ(g.EdgeProperty(1, "since"), nullptr);
}

TEST(DecodeTest, UnresolvedEndpointRejected) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  catalog.AddEdgeLabel("CONTROLS");
  vadalog::FactDb db = EncodeGraph(g, catalog);
  db.Add("CONTROLS", {Value(int64_t{999}), Value(int64_t{777}),
                      Value(int64_t{0})});
  auto stats = DecodeGraph(db, catalog, &g);
  EXPECT_FALSE(stats.ok());
}

// A label relation one column short of the catalog's width (Person carries
// OID, age, name) is rejected with a status naming the label and both
// widths, and the graph is left as it was.
TEST(DecodeTest, WidthMismatchRejected) {
  pg::PropertyGraph g = SampleGraph();
  GraphCatalog catalog = GraphCatalog::FromGraph(g);
  vadalog::FactDb db;
  db.Add("Person", {Value(int64_t{42}), Value("eve")});
  size_t nodes_before = g.num_nodes();
  auto stats = DecodeGraph(db, catalog, &g);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  const std::string message = stats.status().ToString();
  EXPECT_NE(message.find("Person"), std::string::npos) << message;
  EXPECT_NE(message.find("width 2"), std::string::npos) << message;
  EXPECT_NE(message.find("decodes 3"), std::string::npos) << message;
  EXPECT_EQ(g.num_nodes(), nodes_before);

  vadalog::FactDb edges;
  edges.Add("OWNS", {Value(int64_t{7}), Value(int64_t{0}), Value(int64_t{2})});
  auto edge_stats = DecodeGraph(edges, catalog, &g);
  ASSERT_FALSE(edge_stats.ok());
  EXPECT_NE(edge_stats.status().ToString().find("OWNS"), std::string::npos);
}

TEST(CatalogTest, MergeCombinesCatalogs) {
  GraphCatalog a;
  a.AddNodeLabel("Person", {"name"});
  GraphCatalog b;
  b.AddNodeLabel("Person", {"age"});
  b.AddEdgeLabel("KNOWS");
  a.Merge(b);
  EXPECT_EQ(a.NodeProps("Person"), (std::vector<std::string>{"age", "name"}));
  EXPECT_TRUE(a.HasEdgeLabel("KNOWS"));
}

}  // namespace
}  // namespace kgm::metalog
