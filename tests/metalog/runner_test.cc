#include "metalog/runner.h"

#include <gtest/gtest.h>

namespace kgm::metalog {
namespace {

// Builds the small shareholding graph used throughout: a -> b (60%),
// a -> c (60%), b -> d (30%), c -> d (30%).
pg::PropertyGraph JointControlGraph() {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("Business", {{"name", Value("a")}});
  pg::NodeId b = g.AddNode("Business", {{"name", Value("b")}});
  pg::NodeId c = g.AddNode("Business", {{"name", Value("c")}});
  pg::NodeId d = g.AddNode("Business", {{"name", Value("d")}});
  g.AddEdge(a, b, "OWNS", {{"percentage", Value(0.6)}});
  g.AddEdge(a, c, "OWNS", {{"percentage", Value(0.6)}});
  g.AddEdge(b, d, "OWNS", {{"percentage", Value(0.3)}});
  g.AddEdge(c, d, "OWNS", {{"percentage", Value(0.3)}});
  return g;
}

// The paper's Example 4.1 company-control program, verbatim modulo ASCII.
const char kControl[] = R"(
  (x: Business) -> exists c (x)[c: CONTROLS](x).
  (x: Business)[: CONTROLS](z: Business)
      [: OWNS; percentage: w](y: Business),
  v = msum(w, <z>), v > 0.5 -> exists c (x)[c: CONTROLS](y).
)";

bool HasEdge(const pg::PropertyGraph& g, const std::string& label,
             const std::string& from_name, const std::string& to_name) {
  for (pg::EdgeId e : g.EdgesWithLabel(label)) {
    const pg::Edge& edge = g.edge(e);
    const Value* f = g.NodeProperty(edge.from, "name");
    const Value* t = g.NodeProperty(edge.to, "name");
    if (f != nullptr && t != nullptr && *f == Value(from_name) &&
        *t == Value(to_name)) {
      return true;
    }
  }
  return false;
}

TEST(RunnerTest, Example41CompanyControl) {
  pg::PropertyGraph g = JointControlGraph();
  auto result = RunMetaLogSource(kControl, &g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Self-control for all 4 + a->b, a->c, a->d (joint).
  EXPECT_EQ(g.EdgesWithLabel("CONTROLS").size(), 7u);
  EXPECT_TRUE(HasEdge(g, "CONTROLS", "a", "b"));
  EXPECT_TRUE(HasEdge(g, "CONTROLS", "a", "c"));
  EXPECT_TRUE(HasEdge(g, "CONTROLS", "a", "d"));
  EXPECT_FALSE(HasEdge(g, "CONTROLS", "b", "d"));
  EXPECT_GT(result->vadalog_rule_count, 0u);
  EXPECT_EQ(result->decode.new_edges, 7u);
}

TEST(RunnerTest, RunIsIdempotent) {
  pg::PropertyGraph g = JointControlGraph();
  ASSERT_TRUE(RunMetaLogSource(kControl, &g).ok());
  size_t edges = g.num_edges();
  // Second run derives the same Skolem OIDs; nothing new materializes.
  auto again = RunMetaLogSource(kControl, &g);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->decode.new_edges, 0u);
  EXPECT_EQ(g.num_edges(), edges);
}

// Relabeling an edge keeps its integer OID: the new HOLDS edge must be
// found again on a rerun instead of matching the OWNS edge with that id.
TEST(RunnerTest, RelabeledEdgeUnderIntegerOidIsIdempotent) {
  const char kRelabel[] =
      "(x: Business)[e: OWNS](y: Business) -> (x)[e: HOLDS](y).";
  pg::PropertyGraph g = JointControlGraph();
  auto first = RunMetaLogSource(kRelabel, &g);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->decode.new_edges, 4u);
  size_t edges = g.num_edges();
  auto again = RunMetaLogSource(kRelabel, &g);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->decode.new_edges, 0u);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_EQ(g.EdgesWithLabel("HOLDS").size(), 4u);
}

TEST(RunnerTest, Example43DescendantsViaStar) {
  // A little generalization hierarchy in the super-model dictionary style:
  // Person <- LegalPerson <- Business, stored via SM_CHILD / SM_PARENT
  // through generalization nodes.
  pg::PropertyGraph g;
  pg::NodeId person = g.AddNode("SM_Node", {{"name", Value("Person")}});
  pg::NodeId legal = g.AddNode("SM_Node", {{"name", Value("LegalPerson")}});
  pg::NodeId business = g.AddNode("SM_Node", {{"name", Value("Business")}});
  pg::NodeId g1 = g.AddNode("SM_Generalization");
  pg::NodeId g2 = g.AddNode("SM_Generalization");
  g.AddEdge(g1, person, "SM_PARENT");
  g.AddEdge(g1, legal, "SM_CHILD");
  g.AddEdge(g2, legal, "SM_PARENT");
  g.AddEdge(g2, business, "SM_CHILD");

  auto result = RunMetaLogSource(R"(
    (x: SM_Node) ([: SM_CHILD]- / [: SM_PARENT])* (y: SM_Node)
      -> exists w (x)[w: DESCFROM](y).
  )", &g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Reflexive pairs (3) + business->legal, legal->person, business->person.
  EXPECT_EQ(g.EdgesWithLabel("DESCFROM").size(), 6u);
  auto has = [&](pg::NodeId a, pg::NodeId b) {
    for (pg::EdgeId e : g.EdgesWithLabel("DESCFROM")) {
      if (g.edge(e).from == a && g.edge(e).to == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(business, person));
  EXPECT_TRUE(has(business, legal));
  EXPECT_TRUE(has(legal, person));
  EXPECT_TRUE(has(person, person));   // reflexive
  EXPECT_FALSE(has(person, business));
}

TEST(RunnerTest, DerivedNodeProperties) {
  pg::PropertyGraph g;
  pg::NodeId p1 = g.AddNode("Person", {{"name", Value("ada")}});
  pg::NodeId p2 = g.AddNode("Person", {{"name", Value("bob")}});
  pg::NodeId c = g.AddNode("Business", {{"name", Value("acme")}});
  g.AddEdge(p1, c, "HOLDS", {{"percentage", Value(0.7)}});
  g.AddEdge(p2, c, "HOLDS", {{"percentage", Value(0.3)}});

  MetaRunOptions options;
  options.extra_catalog.AddNodeLabel("Business", {"numberOfStakeholders"});
  auto result = RunMetaLogSource(R"(
    (p: Person)[: HOLDS](b: Business), n = count(<p>)
      -> (b: Business; numberOfStakeholders: n).
  )", &g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Value* n = g.NodeProperty(c, "numberOfStakeholders");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(*n, Value(int64_t{2}));
}

// A property derived through one label of a multi-label node survives the
// node's other label relations, whichever label sorts first.
TEST(RunnerTest, DerivedPropertyOnMultiLabelNodeIsNotReverted) {
  for (const std::string label : {"Business", "Company"}) {
    SCOPED_TRACE(label);
    pg::PropertyGraph g;
    pg::NodeId p1 = g.AddNode("Person", {{"name", Value("ada")}});
    pg::NodeId p2 = g.AddNode("Person", {{"name", Value("bob")}});
    pg::NodeId c = g.AddNode(std::vector<std::string>{"Business", "Company"},
                             {{"numberOfStakeholders", Value(int64_t{5})}});
    g.AddEdge(p1, c, "HOLDS");
    g.AddEdge(p2, c, "HOLDS");
    auto result = RunMetaLogSource(
        "(p: Person)[: HOLDS](b: " + label + "), n = count(<p>) -> (b: " +
            label + "; numberOfStakeholders: n).",
        &g);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Value* n = g.NodeProperty(c, "numberOfStakeholders");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(*n, Value(int64_t{2})) << n->ToString();
    EXPECT_EQ(result->decode.new_nodes, 0u);
  }
}

TEST(RunnerTest, DerivedNodesViaExistential) {
  // Every person belongs to a family named after their surname; persons who
  // share a surname share the family node (linker Skolem semantics comes
  // from the deterministic frontier Skolemization over the surname).
  pg::PropertyGraph g;
  g.AddNode("Person", {{"surname", Value("rossi")}});
  g.AddNode("Person", {{"surname", Value("rossi")}});
  g.AddNode("Person", {{"surname", Value("verdi")}});

  MetaRunOptions options;
  options.extra_catalog.AddNodeLabel("Family", {"familyName"});
  options.extra_catalog.AddEdgeLabel("BELONGS_TO_FAMILY");
  auto result = RunMetaLogSource(R"(
    (p: Person; surname: s)
      -> exists f = skFam(s) (p)[: BELONGS_TO_FAMILY](f: Family; familyName: s).
  )", &g, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(g.NodesWithLabel("Family").size(), 2u);
  EXPECT_EQ(g.EdgesWithLabel("BELONGS_TO_FAMILY").size(), 3u);
}

TEST(RunnerTest, AlternationOverTwoEdgeLabels) {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("Person", {{"name", Value("a")}});
  pg::NodeId b = g.AddNode("Person", {{"name", Value("b")}});
  pg::NodeId c = g.AddNode("Person", {{"name", Value("c")}});
  g.AddEdge(a, b, "OWNS");
  g.AddEdge(b, c, "HOLDS");
  auto result = RunMetaLogSource(R"(
    (x: Person) ([: OWNS] | [: HOLDS]) (y: Person)
      -> (x)[: LINKED](y).
  )", &g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(g.EdgesWithLabel("LINKED").size(), 2u);
}

}  // namespace
}  // namespace kgm::metalog
