// End-to-end tests of Algorithm 2: load -> (V_I + Sigma + V_O) -> flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/loader.h"
#include "instance/pipeline.h"
#include "instance/views.h"
#include "metalog/parser.h"
#include "metalog/prepared.h"
#include "metalog/runner.h"
#include "translate/csv_io.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"

namespace kgm::instance {
namespace {

using vadalog::Tuple;

pg::NodeId AddBusiness(pg::PropertyGraph* g, const std::string& code) {
  return g->AddNode(
      std::vector<std::string>{"Business", "LegalPerson", "Person"},
      {{"fiscalCode", Value(code)}, {"businessName", Value(code)}});
}

void AddOwns(pg::PropertyGraph* g, pg::NodeId from, pg::NodeId to,
             double pct) {
  g->AddEdge(from, to, "OWNS", {{"percentage", Value(pct)}});
}

bool HasEdgeBetween(const pg::PropertyGraph& g, const std::string& label,
                    pg::NodeId from, pg::NodeId to) {
  for (pg::EdgeId e : g.EdgesWithLabel(label)) {
    if (g.edge(e).from == from && g.edge(e).to == to) return true;
  }
  return false;
}

TEST(ViewGenerationTest, InputViewsCoverSigmaBodyLabels) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto sigma = metalog::ParseMetaProgram(finkg::kControlProgram);
  ASSERT_TRUE(sigma.ok());
  SigmaAnalysis analysis = AnalyzeSigma(*sigma);
  EXPECT_TRUE(analysis.body_node_labels.count("Business") > 0);
  EXPECT_TRUE(analysis.body_edge_labels.count("OWNS") > 0);
  EXPECT_TRUE(analysis.body_edge_labels.count("CONTROLS") > 0);
  EXPECT_TRUE(analysis.head_edge_labels.count("CONTROLS") > 0);
  auto views = GenerateInputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  // Control reads OWNS's percentage and no Business property.
  EXPECT_NE(views->find("[k: OWNS; *p]"), std::string::npos);
  EXPECT_EQ(views->find("(c: Business; *p)"), std::string::npos);
  EXPECT_NE(views->find("(c: Business)"), std::string::npos);
  // The generated views must themselves parse.
  EXPECT_TRUE(metalog::ParseMetaProgram(*views).ok());
  auto out_views = GenerateOutputViews(schema, *sigma, 234);
  ASSERT_TRUE(out_views.ok()) << out_views.status().ToString();
  EXPECT_TRUE(metalog::ParseMetaProgram(*out_views).ok());
  EXPECT_NE(out_views->find("O_SM_Edge"), std::string::npos);
}

// The number of times `needle` occurs in `text`.
size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ViewGenerationTest, InputViewsPackOnlyLabelsSigmaReads) {
  // Sigma reads one PhysicalPerson property: that view keeps its pack rule
  // and twin; the Business view and the unread OWNS view get one bare rule
  // per member type.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto sigma = metalog::ParseMetaProgram(
      "(p: PhysicalPerson; surname: s)[: OWNS](b: Business)\n"
      "  -> (p)[: CONTROLS](b).");
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  const SigmaAnalysis analysis = AnalyzeSigma(*sigma);
  EXPECT_EQ(analysis.read_node_labels,
            (std::set<std::string>{"PhysicalPerson"}));
  EXPECT_TRUE(analysis.read_edge_labels.empty());
  auto views = GenerateInputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(Occurrences(*views, "pack(m, v)"), 1u);
  EXPECT_EQ(Occurrences(*views, "(c: PhysicalPerson; *p)"), 1u);
  EXPECT_EQ(Occurrences(*views, "not (i)[: I_SM_HAS_NODE_ATTR]()"), 1u);
  EXPECT_EQ(Occurrences(*views, "(c: Business)"),
            1 + schema.DescendantsOf("Business").size());
  EXPECT_EQ(Occurrences(*views, "I_SM_HAS_EDGE_ATTR"), 0u);
  EXPECT_EQ(Occurrences(*views, "(cx)[k: OWNS](cy)."), 1u);
  EXPECT_TRUE(metalog::ParseMetaProgram(*views).ok());
}

TEST(ViewGenerationTest, OutputViewsUpdateOnlyPropertiesSigmaSets) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto updates = [&schema](const char* source) {
    auto sigma = metalog::ParseMetaProgram(source);
    EXPECT_TRUE(sigma.ok()) << source;
    auto views = GenerateOutputViews(schema, *sigma, 234);
    EXPECT_TRUE(views.ok()) << views.status().ToString();
    EXPECT_TRUE(metalog::ParseMetaProgram(*views).ok()) << *views;
    return Occurrences(*views, "O_SM_PropUpdate");
  };
  auto sigma = metalog::ParseMetaProgram(finkg::kStakeholdersProgram);
  ASSERT_TRUE(sigma.ok());
  auto views = GenerateOutputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(Occurrences(*views, "O_SM_PropUpdate"), 1u);
  EXPECT_NE(views->find("name: \"numberOfStakeholders\""), std::string::npos);
  // Two properties set by two rules.
  EXPECT_EQ(updates("(b: Business) -> (b: Business; businessName: \"x\").\n"
                    "(b: Business) -> (b: Business; fiscalCode: \"y\")."),
            2u);
  // A head `*` spread sets every attribute of the label.
  EXPECT_EQ(updates("(b: Business), p = pack(\"fiscalCode\", \"z\")\n"
                    "  -> (b: Business; *p)."),
            schema.EffectiveAttributes("Business").size());
  // A head label without properties updates nothing.
  EXPECT_EQ(updates("(b: Business) -> (b: Person)."), 0u);
}

TEST(ViewGenerationTest, OutputViewsWithoutMintedNodesStageNoNewNodes) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto mints = [](const char* source) {
    auto sigma = metalog::ParseMetaProgram(source);
    EXPECT_TRUE(sigma.ok()) << source;
    return AnalyzeSigma(*sigma).mints_nodes;
  };
  EXPECT_FALSE(mints("(x: Business)[: OWNS](y) -> (x)[: CONTROLS](y)."));
  EXPECT_TRUE(mints("(x: Business) -> exists f (x)[: CONTROLS](f)."));
  EXPECT_TRUE(mints("(x: Business) -> (x)[: CONTROLS](y)."));
  EXPECT_TRUE(mints("(x: Business) -> (x)[: CONTROLS](: Business)."));
  EXPECT_TRUE(mints(finkg::kFamilyProgram));
  for (const char* program :
       {finkg::kOwnsProgram, finkg::kControlProgram,
        finkg::kStakeholdersProgram, finkg::kCloseLinksProgram}) {
    EXPECT_FALSE(mints(program)) << program;
  }
  // Control mints no node: no creation rule and one endpoint variant.
  auto control = metalog::ParseMetaProgram(finkg::kControlProgram);
  ASSERT_TRUE(control.ok());
  auto views = GenerateOutputViews(schema, *control, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(Occurrences(*views, "skONew"), 0u);
  EXPECT_EQ(Occurrences(*views, "O_SM_Node"), 0u);
  EXPECT_EQ(Occurrences(*views, "edgeType: \"CONTROLS\""), 1u);
  EXPECT_EQ(Occurrences(*views, "not (c"), 0u);
}

TEST(ViewGenerationTest, FamiliesKeepsEveryEndpointVariant) {
  // The family component mints Family nodes: each head edge label keeps
  // its four endpoint variants and each head node label its creation rule.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto sigma = metalog::ParseMetaProgram(finkg::kFamilyProgram);
  ASSERT_TRUE(sigma.ok());
  const SigmaAnalysis analysis = AnalyzeSigma(*sigma);
  auto views = GenerateOutputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  ASSERT_EQ(analysis.head_edge_labels.size(), 3u);
  for (const std::string& label : analysis.head_edge_labels) {
    EXPECT_EQ(Occurrences(*views, "edgeType: \"" + label + "\""), 4u)
        << label;
  }
  EXPECT_EQ(Occurrences(*views, "nodeType: \"Family\""), 1u);
  EXPECT_EQ(Occurrences(*views, "skONewA_Family_familyName"), 1u);
  EXPECT_EQ(Occurrences(*views, "skOUpd_Family_familyName"), 1u);
}

TEST(ViewGenerationTest, UnknownLabelRejected) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto sigma = metalog::ParseMetaProgram(
      "(x: Nonsense) -> (x)[: CONTROLS](x).");
  ASSERT_TRUE(sigma.ok());
  EXPECT_FALSE(GenerateInputViews(schema, *sigma, 1).ok());
}

TEST(PipelineTest, ControlMaterializationEndToEnd) {
  // The joint-control scenario, driven through the *full* Algorithm 2:
  // the data graph holds OWNS edges; CONTROLS materializes back into it.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  pg::NodeId a = AddBusiness(&data, "A");
  pg::NodeId b = AddBusiness(&data, "B");
  pg::NodeId c = AddBusiness(&data, "C");
  pg::NodeId d = AddBusiness(&data, "D");
  AddOwns(&data, a, b, 0.6);
  AddOwns(&data, a, c, 0.6);
  AddOwns(&data, b, d, 0.3);
  AddOwns(&data, c, d, 0.3);

  auto stats = Materialize(schema, finkg::kControlProgram, &data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->loaded_nodes, 4u);
  EXPECT_EQ(stats->loaded_edges, 4u);
  EXPECT_EQ(stats->new_edges, 7u);  // 4 self + a->b, a->c, a->d
  EXPECT_TRUE(HasEdgeBetween(data, "CONTROLS", a, b));
  EXPECT_TRUE(HasEdgeBetween(data, "CONTROLS", a, d));
  EXPECT_FALSE(HasEdgeBetween(data, "CONTROLS", b, d));
  EXPECT_GT(stats->reason_seconds, 0.0);
  EXPECT_GT(stats->vadalog_rules, 0u);
  EXPECT_FALSE(stats->input_views.empty());
  EXPECT_FALSE(stats->output_views.empty());
}

TEST(PipelineTest, RematerializationIsIdempotent) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  pg::NodeId a = AddBusiness(&data, "A");
  pg::NodeId b = AddBusiness(&data, "B");
  AddOwns(&data, a, b, 0.8);
  ASSERT_TRUE(Materialize(schema, finkg::kControlProgram, &data).ok());
  size_t edges = data.num_edges();
  auto again = Materialize(schema, finkg::kControlProgram, &data);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->new_edges, 0u);
  EXPECT_EQ(data.num_edges(), edges);
}

TEST(PipelineTest, DerivedPropertyOnExistingEntity) {
  // numberOfStakeholders: a property update flowing through
  // O_SM_PropUpdate back onto the existing Business node.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  pg::NodeId ada = data.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"fiscalCode", Value("P1")}, {"surname", Value("rossi")}});
  pg::NodeId bob = data.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"fiscalCode", Value("P2")}, {"surname", Value("verdi")}});
  pg::NodeId acme = AddBusiness(&data, "C1");
  pg::NodeId s1 = data.AddNode(std::vector<std::string>{"Share"},
                               {{"shareId", Value("S1")},
                                {"percentage", Value(0.6)}});
  pg::NodeId s2 = data.AddNode(std::vector<std::string>{"Share"},
                               {{"shareId", Value("S2")},
                                {"percentage", Value(0.4)}});
  data.AddEdge(ada, s1, "HOLDS",
               {{"right", Value("ownership")}, {"percentage", Value(0.6)}});
  data.AddEdge(bob, s2, "HOLDS",
               {{"right", Value("ownership")}, {"percentage", Value(0.4)}});
  data.AddEdge(s1, acme, "BELONGS_TO");
  data.AddEdge(s2, acme, "BELONGS_TO");

  auto stats = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->updated_properties, 1u);
  const Value* n = data.NodeProperty(acme, "numberOfStakeholders");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(*n, Value(int64_t{2}));
}

TEST(PipelineTest, DerivedNodesWithAttributesAndEdges) {
  // Families: new Family nodes (with familyName) plus BELONGS_TO_FAMILY
  // edges from existing persons to the new nodes.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P1")}, {"surname", Value("rossi")}});
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P2")}, {"surname", Value("rossi")}});
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P3")}, {"surname", Value("verdi")}});

  auto stats = Materialize(schema, finkg::kFamilyProgram, &data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->new_nodes, 2u);  // rossi, verdi families
  auto families = data.NodesWithLabel("Family");
  ASSERT_EQ(families.size(), 2u);
  std::set<std::string> names;
  for (pg::NodeId f : families) {
    const Value* name = data.NodeProperty(f, "familyName");
    ASSERT_NE(name, nullptr);
    names.insert(name->AsString());
  }
  EXPECT_EQ(names, (std::set<std::string>{"rossi", "verdi"}));
  EXPECT_EQ(data.EdgesWithLabel("BELONGS_TO_FAMILY").size(), 3u);
  // IS_RELATED_TO between the two rossi persons, both directions.
  EXPECT_EQ(data.EdgesWithLabel("IS_RELATED_TO").size(), 2u);
}

TEST(PipelineTest, EdgePropertiesFlowThroughOutputViews) {
  // OWNS derived from HOLDS/BELONGS_TO carries its percentage through
  // O_SM_Attribute back into the data graph.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  pg::NodeId ada = data.AddNode(
      std::vector<std::string>{"PhysicalPerson", "Person"},
      {{"fiscalCode", Value("P1")}, {"surname", Value("rossi")}});
  pg::NodeId acme = AddBusiness(&data, "C1");
  pg::NodeId s1 = data.AddNode(std::vector<std::string>{"Share"},
                               {{"shareId", Value("S1")},
                                {"percentage", Value(0.3)}});
  pg::NodeId s2 = data.AddNode(std::vector<std::string>{"Share"},
                               {{"shareId", Value("S2")},
                                {"percentage", Value(0.25)}});
  data.AddEdge(ada, s1, "HOLDS",
               {{"right", Value("ownership")}, {"percentage", Value(0.3)}});
  data.AddEdge(ada, s2, "HOLDS",
               {{"right", Value("ownership")},
                {"percentage", Value(0.25)}});
  data.AddEdge(s1, acme, "BELONGS_TO");
  data.AddEdge(s2, acme, "BELONGS_TO");

  auto stats = Materialize(schema, finkg::kOwnsProgram, &data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto owns = data.EdgesWithLabel("OWNS");
  ASSERT_EQ(owns.size(), 1u);
  EXPECT_EQ(data.edge(owns[0]).from, ada);
  EXPECT_EQ(data.edge(owns[0]).to, acme);
  const Value* pct = data.EdgeProperty(owns[0], "percentage");
  ASSERT_NE(pct, nullptr);
  EXPECT_NEAR(pct->AsDouble(), 0.55, 1e-9);
}

TEST(PipelineTest, GeneratedNetworkRoundTrip) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 11;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  pg::PropertyGraph data = net.ToOwnershipGraph();
  auto stats = Materialize(schema, finkg::kControlProgram, &data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // At least the self-control edges.
  EXPECT_GE(data.EdgesWithLabel("CONTROLS").size(), 60u);
  EXPECT_GE(stats->new_edges, 60u);
}

// Label counts of a graph plus the count fields of every component's
// MaterializeStats, keyed by name so a mismatch names its source.
std::map<std::string, size_t> RunSignature(
    const pg::PropertyGraph& data, const std::vector<MaterializeStats>& runs) {
  std::map<std::string, size_t> sig;
  for (const std::string& l : data.NodeLabels()) {
    sig["node:" + l] = data.NodesWithLabel(l).size();
  }
  for (const std::string& l : data.EdgeLabels()) {
    sig["edge:" + l] = data.EdgesWithLabel(l).size();
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    const MaterializeStats& s = runs[i];
    const std::string c = std::to_string(i) + ":";
    sig[c + "loaded_nodes"] = s.loaded_nodes;
    sig[c + "loaded_edges"] = s.loaded_edges;
    sig[c + "loaded_attributes"] = s.loaded_attributes;
    sig[c + "new_nodes"] = s.new_nodes;
    sig[c + "new_edges"] = s.new_edges;
    sig[c + "updated_properties"] = s.updated_properties;
    sig[c + "vadalog_rules"] = s.vadalog_rules;
    sig[c + "facts_derived"] = s.facts_derived;
    sig[c + "rule_firings"] = s.engine_stats.rule_firings;
    sig[c + "join_probes"] = s.engine_stats.join_probes;
    sig[c + "changed_labels"] = s.changed_labels.size();
  }
  return sig;
}

TEST(PipelineTest, PreparedAndUnpreparedRunsAgree) {
  // The five Company-KG components in `kgmctl materialize all` order, run
  // once through a PreparedCache and once without one: both must leave
  // the same graph and report the same counts.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  const char* components[] = {
      finkg::kOwnsProgram, finkg::kControlProgram,
      finkg::kStakeholdersProgram, finkg::kFamilyProgram,
      finkg::kCloseLinksProgram};
  auto run = [&](metalog::PreparedCache* prepared) {
    pg::PropertyGraph data = net.ToInstanceGraph();
    MaterializeOptions options;
    options.prepared = prepared;
    std::vector<MaterializeStats> runs;
    for (const char* program : components) {
      auto stats = Materialize(schema, program, &data, options);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) break;
      runs.push_back(*std::move(stats));
    }
    EXPECT_EQ(runs.size(), std::size(components));
    return RunSignature(data, runs);
  };
  metalog::PreparedCache cache;
  std::map<std::string, size_t> prepared = run(&cache);
  std::map<std::string, size_t> unprepared = run(nullptr);
  EXPECT_EQ(cache.counters().misses, std::size(components));
  EXPECT_GT(prepared.at("edge:CONTROLS"), 0u);
  EXPECT_EQ(prepared, unprepared);
}

// Materialize as it ran before it loaded and flushed facts, kept as the
// reference for the facts path: load into a dictionary graph, reason over
// its encoding with every derived fact decoded back into it, then flush
// what the dictionary holds.  The flush counts every staged update,
// changed or not, so only its graph and its new-node and new-edge counts
// are comparable.
Status DictionaryFlush(const core::SuperSchema& schema,
                       const LoadedInstance& loaded, pg::PropertyGraph* data,
                       MaterializeStats* stats) {
  const pg::PropertyGraph& dict = loaded.dict;
  auto data_of_inode = [&loaded](pg::NodeId inode) {
    return inode < loaded.data_of_inode.size() ? loaded.data_of_inode[inode]
                                               : pg::kInvalidNode;
  };
  auto staged_attributes = [&dict](pg::NodeId id) {
    pg::PropertyMap out;
    for (pg::EdgeId e : dict.OutEdges(id)) {
      if (!dict.HasEdge(e) || dict.edge(e).label != kOSmHasAttr) continue;
      pg::NodeId attr = dict.edge(e).to;
      const Value* name = dict.NodeProperty(attr, "name");
      const Value* value = dict.NodeProperty(attr, "value");
      if (name != nullptr && name->is_string() && value != nullptr &&
          !value->is_null()) {
        out[name->AsString()] = *value;
      }
    }
    return out;
  };
  std::set<std::string> changed_labels;
  for (pg::NodeId u : dict.NodesWithLabel(kOSmPropUpdate)) {
    const Value* name = dict.NodeProperty(u, "name");
    const Value* value = dict.NodeProperty(u, "value");
    if (name == nullptr || value == nullptr || value->is_null()) continue;
    for (pg::EdgeId e : dict.OutEdges(u)) {
      if (!dict.HasEdge(e) || dict.edge(e).label != kOOn) continue;
      const pg::NodeId node = data_of_inode(dict.edge(e).to);
      if (node == pg::kInvalidNode) continue;
      data->SetNodeProperty(node, name->AsString(), *value);
      ++stats->updated_properties;
      for (const std::string& l : data->node(node).labels) {
        changed_labels.insert(l);
      }
    }
  }
  std::map<pg::NodeId, pg::NodeId> data_of_onode;
  for (pg::NodeId o : dict.NodesWithLabel(kOSmNode)) {
    const Value* type = dict.NodeProperty(o, "nodeType");
    if (type == nullptr || !type->is_string()) continue;
    std::vector<std::string> labels{type->AsString()};
    for (const std::string& ancestor : schema.AncestorsOf(type->AsString())) {
      labels.push_back(ancestor);
    }
    for (const std::string& l : labels) changed_labels.insert(l);
    data_of_onode[o] = data->AddNode(labels, staged_attributes(o));
    ++stats->new_nodes;
  }
  auto resolve_endpoint = [&](pg::NodeId target) -> pg::NodeId {
    const pg::NodeId inode = data_of_inode(target);
    if (inode != pg::kInvalidNode) return inode;
    auto onode = data_of_onode.find(target);
    return onode == data_of_onode.end() ? pg::kInvalidNode : onode->second;
  };
  for (pg::NodeId o : dict.NodesWithLabel(kOSmEdge)) {
    const Value* type = dict.NodeProperty(o, "edgeType");
    if (type == nullptr || !type->is_string()) continue;
    pg::NodeId from = pg::kInvalidNode;
    pg::NodeId to = pg::kInvalidNode;
    for (pg::EdgeId e : dict.OutEdges(o)) {
      if (!dict.HasEdge(e)) continue;
      if (dict.edge(e).label == kOFrom) {
        from = resolve_endpoint(dict.edge(e).to);
      } else if (dict.edge(e).label == kOTo) {
        to = resolve_endpoint(dict.edge(e).to);
      }
    }
    if (from == pg::kInvalidNode || to == pg::kInvalidNode) {
      return Internal("staged edge " + type->AsString() +
                      " has unresolved endpoints");
    }
    bool exists = false;
    for (pg::EdgeId e : data->OutEdges(from)) {
      if (data->HasEdge(e) && data->edge(e).to == to &&
          data->edge(e).label == type->AsString()) {
        exists = true;
        break;
      }
    }
    if (exists) continue;
    data->AddEdge(from, to, type->AsString(), staged_attributes(o));
    ++stats->new_edges;
    changed_labels.insert(type->AsString());
  }
  stats->changed_labels.assign(changed_labels.begin(), changed_labels.end());
  return OkStatus();
}

Result<MaterializeStats> DictionaryMaterialize(
    const core::SuperSchema& schema, const std::string& sigma_source,
    pg::PropertyGraph* data, size_t threads) {
  KGM_ASSIGN_OR_RETURN(metalog::MetaProgram sigma,
                       metalog::ParseMetaProgram(sigma_source));
  KGM_ASSIGN_OR_RETURN(LoadedInstance loaded, LoadInstance(schema, *data));
  KGM_ASSIGN_OR_RETURN(std::string input_views,
                       GenerateInputViews(schema, sigma, 234));
  KGM_ASSIGN_OR_RETURN(std::string output_views,
                       GenerateOutputViews(schema, sigma, 234));
  metalog::MetaRunOptions options;
  options.engine.num_threads = threads;
  options.extra_catalog = SchemaCatalog(schema);
  KGM_RETURN_IF_ERROR(
      metalog::RunMetaLogSource(
          input_views + "\n" + sigma_source + "\n" + output_views,
          &loaded.dict, options)
          .status());
  MaterializeStats stats;
  KGM_RETURN_IF_ERROR(DictionaryFlush(schema, loaded, data, &stats));
  return stats;
}

TEST(PipelineTest, FlushFromFactsMatchesDictionaryFlush) {
  // Each Company-KG component, in `kgmctl materialize all` order and then
  // all of them again over the enriched graph (re-materialization, where
  // new edges deduplicate against the flushed ones), through Materialize
  // and through the dictionary reference: the same graph after every step
  // and the same new nodes and edges, at every thread count.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    pg::PropertyGraph data = net.ToInstanceGraph();
    pg::PropertyGraph reference = net.ToInstanceGraph();
    MaterializeOptions options;
    options.engine.num_threads = threads;
    // New edges of the rerun, by component.
    std::map<std::string, size_t> rerun_new_edges;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& [name, program] :
           std::vector<std::pair<std::string, const char*>>{
               {"owns", finkg::kOwnsProgram},
               {"control", finkg::kControlProgram},
               {"stakeholders", finkg::kStakeholdersProgram},
               {"family", finkg::kFamilyProgram},
               {"close links", finkg::kCloseLinksProgram}}) {
        SCOPED_TRACE(name);
        auto want = DictionaryMaterialize(schema, program, &reference,
                                          threads);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = Materialize(schema, program, &data, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->new_nodes, want->new_nodes);
        EXPECT_EQ(got->new_edges, want->new_edges);
        EXPECT_LE(got->updated_properties, want->updated_properties);
        EXPECT_TRUE(std::includes(
            want->changed_labels.begin(), want->changed_labels.end(),
            got->changed_labels.begin(), got->changed_labels.end()));
        EXPECT_EQ(data.DebugString(), reference.DebugString());
        if (pass == 1) rerun_new_edges[name] = got->new_edges;
      }
    }
    EXPECT_GT(data.EdgesWithLabel("CONTROLS").size(), 0u);
    // Every OWNS and CONTROLS edge the rerun stages exists already.
    EXPECT_EQ(rerun_new_edges["owns"], 0u);
    EXPECT_EQ(rerun_new_edges["control"], 0u);
  }
}

TEST(PipelineTest, RestatedPropertiesAreNotUpdates) {
  // V_O stages each property Sigma's heads set, for every entity of the
  // head label, its stored value included.  Only the staged values that
  // change a stored one are updates: numberOfStakeholders sets one property
  // per Business, and a second family run restates every stored
  // familyName.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  pg::PropertyGraph data =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  ASSERT_TRUE(Materialize(schema, finkg::kOwnsProgram, &data).ok());
  auto stakeholders = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(stakeholders.ok()) << stakeholders.status().ToString();
  size_t counted = 0;
  for (pg::NodeId b : data.NodesWithLabel("Business")) {
    if (data.NodeProperty(b, "numberOfStakeholders") != nullptr) ++counted;
  }
  EXPECT_EQ(counted, 60u);
  EXPECT_EQ(stakeholders->updated_properties, counted);
  EXPECT_EQ(stakeholders->changed_labels,
            (std::vector<std::string>{"Business", "LegalPerson", "Person"}));
  auto family = Materialize(schema, finkg::kFamilyProgram, &data);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  EXPECT_GT(family->new_nodes, 0u);
  auto again = Materialize(schema, finkg::kFamilyProgram, &data);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->updated_properties, 0u);
}

TEST(PipelineTest, RematerializingStakeholdersChangesNothing) {
  // Each Business has one stakeholder, so a second run re-derives every
  // stored count and stages nothing but restated values: it updates
  // nothing and changes no label.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    pg::NodeId person = data.AddNode(
        std::vector<std::string>{"PhysicalPerson", "Person"},
        {{"fiscalCode", Value("P" + n)}, {"surname", Value("s" + n)}});
    pg::NodeId business = AddBusiness(&data, "C" + n);
    pg::NodeId share = data.AddNode(std::vector<std::string>{"Share"},
                                    {{"shareId", Value("S" + n)},
                                     {"percentage", Value(1.0)}});
    data.AddEdge(person, share, "HOLDS",
                 {{"right", Value("ownership")}, {"percentage", Value(1.0)}});
    data.AddEdge(share, business, "BELONGS_TO");
  }
  auto first = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->updated_properties, 4u);
  EXPECT_FALSE(first->changed_labels.empty());
  const std::string before = data.DebugString();
  auto again = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->updated_properties, 0u);
  EXPECT_EQ(again->new_nodes, 0u);
  EXPECT_EQ(again->new_edges, 0u);
  EXPECT_TRUE(again->changed_labels.empty());
  EXPECT_EQ(data.DebugString(), before);
}

TEST(PipelineTest, RematerializingStakeholdersKeepsEveryCount) {
  // On the generated network, a second run re-derives every count through
  // intermediate mcount values.  The input views carry no Business
  // property, so no stored count is staged back and the final counts stay.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  pg::PropertyGraph data =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  ASSERT_TRUE(Materialize(schema, finkg::kOwnsProgram, &data).ok());
  auto counts = [&data] {
    std::map<pg::NodeId, std::string> out;
    for (pg::NodeId b : data.NodesWithLabel("Business")) {
      if (const Value* v = data.NodeProperty(b, "numberOfStakeholders")) {
        out[b] = v->ToString();
      }
    }
    return out;
  };
  auto first = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::map<pg::NodeId, std::string> before = counts();
  EXPECT_EQ(before.size(), 60u);
  auto again = Materialize(schema, finkg::kStakeholdersProgram, &data);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->updated_properties, 0u);
  EXPECT_EQ(counts(), before);
}

// A catalog of the staged labels as the output views lay them out.
metalog::GraphCatalog StagingCatalog() {
  metalog::GraphCatalog catalog;
  catalog.AddNodeLabel(kOSmNode, {"nodeType"});
  catalog.AddNodeLabel(kOSmEdge, {"edgeType"});
  catalog.AddNodeLabel(kOSmAttribute, {"name", "value"});
  catalog.AddNodeLabel(kOSmPropUpdate, {"name", "value"});
  for (const char* link : {kOFrom, kOTo, kOOn, kOSmHasAttr}) {
    catalog.AddEdgeLabel(link);
  }
  return catalog;
}

TEST(PipelineTest, UnresolvedStagedEndpointIsAnError) {
  // Hand-built staged facts: one CONTROLS edge from the I_SM_Node with OID
  // 7 (data node `a`) to an OID that names neither an I_SM_Node nor a
  // staged node.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  const pg::NodeId a = AddBusiness(&data, "A");
  InstanceMap loaded;
  loaded.data_of_inode.assign(8, pg::kInvalidNode);
  loaded.data_of_inode[7] = a;
  auto staged_edge = [](const Value& to) {
    vadalog::FactDb staged;
    staged.Add(kOSmEdge, {Value("e"), Value("CONTROLS")});
    staged.Add(kOFrom, {Value("f"), Value("e"), Value(int64_t{7})});
    if (!to.is_null()) staged.Add(kOTo, {Value("t"), Value("e"), to});
    return staged;
  };
  for (const Value& to : {Value(int64_t{999}), Value(int64_t{3}),
                          Value("nowhere"), Value()}) {
    SCOPED_TRACE(to.ToString());
    MaterializeStats stats;
    Status status = FlushStaging(schema, StagingCatalog(), staged_edge(to),
                                 loaded, &data, &stats);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(data.num_edges(), 0u);
  }
  // The same edge to a staged node resolves.
  vadalog::FactDb staged = staged_edge(Value("o"));
  staged.Add(kOSmNode, {Value("o"), Value("Business")});
  MaterializeStats stats;
  ASSERT_TRUE(
      FlushStaging(schema, StagingCatalog(), staged, loaded, &data, &stats)
          .ok());
  EXPECT_EQ(stats.new_nodes, 1u);
  EXPECT_EQ(stats.new_edges, 1u);
  ASSERT_EQ(data.EdgesWithLabel("CONTROLS").size(), 1u);
  EXPECT_EQ(data.edge(data.EdgesWithLabel("CONTROLS")[0]).from, a);
}

TEST(PipelineTest, StagedEdgeEndpointIsItsLastLinkRow) {
  // Two O_FROM rows for one staged edge: the later one names its source,
  // as the later edge out of a decoded staging node did.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  const pg::NodeId a = AddBusiness(&data, "A");
  const pg::NodeId b = AddBusiness(&data, "B");
  InstanceMap loaded;
  loaded.data_of_inode = {a, b};
  vadalog::FactDb staged;
  staged.Add(kOSmEdge, {Value("e"), Value("CONTROLS")});
  staged.Add(kOFrom, {Value("f1"), Value("e"), Value(int64_t{999})});
  staged.Add(kOFrom, {Value("f2"), Value("e"), Value(int64_t{1})});
  staged.Add(kOTo, {Value("t"), Value("e"), Value(int64_t{0})});
  MaterializeStats stats;
  ASSERT_TRUE(
      FlushStaging(schema, StagingCatalog(), staged, loaded, &data, &stats)
          .ok());
  ASSERT_EQ(stats.new_edges, 1u);
  const pg::Edge& edge = data.edge(data.EdgesWithLabel("CONTROLS")[0]);
  EXPECT_EQ(edge.from, b);
  EXPECT_EQ(edge.to, a);
}

TEST(PipelineTest, StagedRelationOfWrongWidthIsAnError) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  vadalog::FactDb staged;
  staged.Add(kOSmNode, {Value("o"), Value("Business"), Value("extra")});
  MaterializeStats stats;
  EXPECT_FALSE(FlushStaging(schema, StagingCatalog(), staged, InstanceMap(),
                            &data, &stats)
                   .ok());
  EXPECT_EQ(data.num_nodes(), 0u);
}

TEST(PipelineTest, StagedEntitiesMergeTheirRowsInFirstRowOrder) {
  // Two staged nodes whose rows interleave: each is flushed once, in the
  // order of its first row, with the last non-null value of each column;
  // its attributes come in O_SM_HAS_ATTR row order, the last one winning.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  vadalog::FactDb staged;
  staged.Add(kOSmNode, {Value("o2"), Value()});
  staged.Add(kOSmNode, {Value("o1"), Value("Family")});
  staged.Add(kOSmNode, {Value("o2"), Value("Place")});
  staged.Add(kOSmNode, {Value("o1"), Value()});
  staged.Add(kOSmAttribute, {Value("a1"), Value("familyName"), Value("x")});
  staged.Add(kOSmAttribute, {Value("a2"), Value("familyName"), Value()});
  staged.Add(kOSmAttribute, {Value("a3"), Value("familyName"), Value("y")});
  staged.Add(kOSmAttribute, {Value("a2"), Value(), Value("z")});
  staged.Add(kOSmHasAttr, {Value("h1"), Value("o1"), Value("a1")});
  staged.Add(kOSmHasAttr, {Value("h2"), Value("o1"), Value("a2")});
  staged.Add(kOSmHasAttr, {Value("h3"), Value("o2"), Value("a3")});
  MaterializeStats stats;
  ASSERT_TRUE(FlushStaging(schema, StagingCatalog(), staged, InstanceMap(),
                           &data, &stats)
                  .ok());
  EXPECT_EQ(stats.new_nodes, 2u);
  EXPECT_EQ(data.DebugString(),
            "(0:Place {familyName: \"y\"})\n"
            "(1:Family {familyName: \"z\"})\n");
}

// Runs V_I and Sigma through Materialize (staged) and Sigma alone over the
// data graph (direct); both must add the same `label` edges.
void ExpectStagedEqualsDirect(const std::string& sigma_source,
                              const std::string& label, size_t* added) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  auto pairs = [&label](const pg::PropertyGraph& g) {
    std::set<std::pair<pg::NodeId, pg::NodeId>> out;
    for (pg::EdgeId e : g.EdgesWithLabel(label)) {
      out.insert({g.edge(e).from, g.edge(e).to});
    }
    return out;
  };
  pg::PropertyGraph staged = net.ToInstanceGraph();
  const size_t before = pairs(staged).size();
  auto stats = Materialize(schema, sigma_source, &staged);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  pg::PropertyGraph direct = net.ToInstanceGraph();
  metalog::MetaRunOptions options;
  options.extra_catalog = SchemaCatalog(schema);
  ASSERT_TRUE(
      metalog::RunMetaLogSource(sigma_source, &direct, options).ok());
  EXPECT_EQ(pairs(staged), pairs(direct));
  EXPECT_EQ(stats->new_edges, pairs(direct).size() - before);
  *added = stats->new_edges;
}

TEST(PipelineTest, UnlabeledEdgeEndpointsStagedEqualsDirect) {
  // The HOLDS edge view joins VIEW_OF on both endpoints, so without a
  // label on x and s the Person and Share views must still be generated.
  size_t unlabeled = 0;
  ExpectStagedEqualsDirect("(x)[: HOLDS](s) -> (x)[: RESIDES](s).",
                           "RESIDES", &unlabeled);
  size_t labeled = 0;
  ExpectStagedEqualsDirect(
      "(x: Person)[: HOLDS](s: Share) -> (x)[: RESIDES](s).", "RESIDES",
      &labeled);
  EXPECT_GT(unlabeled, 0u);
  EXPECT_EQ(unlabeled, labeled);
}

TEST(ViewGenerationTest, EndpointViewsOnlyWhereNoLabelCoversThem) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto labels = [&schema](const char* source) {
    auto sigma = metalog::ParseMetaProgram(source);
    EXPECT_TRUE(sigma.ok()) << source;
    return InputViewNodeLabels(schema, *sigma);
  };
  using Labels = std::set<std::string>;
  EXPECT_EQ(labels("(x)[: HOLDS](s) -> (x)[: RESIDES](s)."),
            (Labels{"Person", "Share"}));
  // Inverted step: s is HOLDS's target.
  EXPECT_EQ(labels("(s: Share)[: HOLDS]-(x) -> (x)[: RESIDES](s)."),
            (Labels{"Person", "Share"}));
  // x carries a label elsewhere in its rule.
  EXPECT_EQ(
      labels("(x)[: HOLDS](s: Share), (x: Business) -> (x)[: RESIDES](s)."),
      (Labels{"Business", "Share"}));
  // A body label that is an ancestor of the endpoint type covers it.
  EXPECT_EQ(labels("(b: LegalPerson), (s)[: BELONGS_TO](b2) -> "
                   "(b)[: RESIDES](s)."),
            (Labels{"LegalPerson", "Share"}));
  // Steps inside a longer path: every endpoint type.
  EXPECT_EQ(labels("(x: Business)([: CONTROLS])*(y: Business) -> "
                   "(x)[: OWNS](y)."),
            (Labels{"Business", "Person"}));
  for (const char* program :
       {finkg::kOwnsProgram, finkg::kControlProgram,
        finkg::kStakeholdersProgram, finkg::kCloseLinksProgram}) {
    auto sigma = metalog::ParseMetaProgram(program);
    ASSERT_TRUE(sigma.ok());
    EXPECT_EQ(InputViewNodeLabels(schema, *sigma),
              AnalyzeSigma(*sigma).body_node_labels);
  }
  EXPECT_EQ(labels(finkg::kFamilyProgram),
            (Labels{"Business", "Family", "PhysicalPerson"}));
}

// The input views as generated before they were specialized to the
// schema: every rule walks the generalization closure of the instance's
// SM_Node in the dictionary, checks I_SM_Node labels the dictionary
// implies, and mints a VIEW_OF per rule.
std::string ClosureWalkInputViews(const core::SuperSchema& schema,
                                  const std::set<std::string>& node_labels,
                                  const std::set<std::string>& edge_labels) {
  std::ostringstream os;
  for (const std::string& label : node_labels) {
    const std::string members =
        "(i: I_SM_Node; instanceOID: 234)[: SM_REFERENCES](n: SM_Node)\n"
        "    ([: SM_CHILD]- / [: SM_PARENT])* (al: SM_Node)\n"
        "    [: SM_HAS_NODE_TYPE](: SM_Type; name: \"" + label + "\"),\n";
    os << members
       << "(i)[: I_SM_HAS_NODE_ATTR](ia: I_SM_Attribute; value: v)\n"
       << "    [: SM_REFERENCES](na: SM_Attribute; name: m),\n"
       << "p = pack(m, v)\n"
       << "  -> exists c = skView(i) (c: " << label
       << "; *p), (c)[: VIEW_OF](i).\n"
       << members << "not (i)[: I_SM_HAS_NODE_ATTR]()\n"
       << "  -> exists c = skView(i) (c: " << label
       << "), (c)[: VIEW_OF](i).\n";
  }
  for (const std::string& label : edge_labels) {
    EXPECT_NE(schema.FindEdge(label), nullptr) << label;
    const std::string members =
        "(ie: I_SM_Edge; instanceOID: 234)[: SM_REFERENCES](se: SM_Edge)\n"
        "    [: SM_HAS_EDGE_TYPE](: SM_Type; name: \"" + label + "\"),\n"
        "(ie)[: I_SM_FROM](ix: I_SM_Node),\n"
        "(ie)[: I_SM_TO](iy: I_SM_Node),\n"
        "(cx)[: VIEW_OF](ix),\n"
        "(cy)[: VIEW_OF](iy),\n";
    os << members
       << "(ie)[: I_SM_HAS_EDGE_ATTR](ia: I_SM_Attribute; value: v)\n"
       << "    [: SM_REFERENCES](ea: SM_Attribute; name: m),\n"
       << "p = pack(m, v)\n"
       << "  -> exists k = skViewE(ie) (cx)[k: " << label << "; *p](cy).\n"
       << members << "not (ie)[: I_SM_HAS_EDGE_ATTR]()\n"
       << "  -> exists k = skViewE(ie) (cx)[k: " << label << "](cy).\n";
  }
  return os.str();
}

// Runs the V_I program `views` over the loaded `data`.
Result<vadalog::FactDb> RunViews(const core::SuperSchema& schema,
                                 const pg::PropertyGraph& data,
                                 const std::string& views) {
  KGM_ASSIGN_OR_RETURN(LoadedInstance loaded, LoadInstance(schema, data));
  KGM_ASSIGN_OR_RETURN(metalog::MetaProgram meta,
                       metalog::ParseMetaProgram(views));
  metalog::GraphCatalog catalog =
      metalog::GraphCatalog::FromGraph(loaded.dict);
  catalog.Merge(SchemaCatalog(schema));
  KGM_ASSIGN_OR_RETURN(metalog::CompiledMeta compiled,
                       metalog::CompileMeta(std::move(meta), catalog));
  vadalog::FactDb db = metalog::EncodeGraph(loaded.dict, compiled.catalog);
  vadalog::Engine engine(compiled.program);
  KGM_RETURN_IF_ERROR(engine.Run(&db));
  return db;
}

// What one V_I program derives over the loaded `data`: the label
// relations it names, as sets of tuples, and its VIEW_OF (view, instance)
// pairs.
std::map<std::string, std::set<Tuple>> RunInputViews(
    const core::SuperSchema& schema, const pg::PropertyGraph& data,
    const std::string& views, const std::set<std::string>& labels) {
  std::map<std::string, std::set<Tuple>> out;
  auto db = RunViews(schema, data, views);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return out;
  for (const std::string& label : labels) {
    std::set<Tuple>& rows = out[label];
    if (const vadalog::Relation* r = db->Get(label)) {
      rows.insert(r->tuples().begin(), r->tuples().end());
    }
  }
  std::set<Tuple>& view_of = out["VIEW_OF"];
  if (const vadalog::Relation* r = db->Get("VIEW_OF")) {
    for (const Tuple& t : r->tuples()) view_of.insert({t[1], t[2]});
  }
  return out;
}

// Checks that the schema-specialized V_I of `sigma_source` derives over
// `data` what the closure-walking reference derives for the same labels:
// the same rows for a label Sigma reads a property of, the same rows with
// null properties for any other label, and the same VIEW_OF.
void ExpectSpecializedViewsMatchClosureWalk(
    const core::SuperSchema& schema, const pg::PropertyGraph& data,
    const std::string& sigma_source) {
  auto sigma = metalog::ParseMetaProgram(sigma_source);
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  auto views = GenerateInputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(views->find("SM_CHILD"), std::string::npos);
  EXPECT_EQ(views->find("SM_PARENT"), std::string::npos);
  const SigmaAnalysis analysis = AnalyzeSigma(*sigma);
  const std::set<std::string> node_labels = InputViewNodeLabels(schema, *sigma);
  const std::set<std::string>& edge_labels = analysis.body_edge_labels;
  std::set<std::string> labels = node_labels;
  labels.insert(edge_labels.begin(), edge_labels.end());
  auto got = RunInputViews(schema, data, *views, labels);
  auto want = RunInputViews(
      schema, data, ClosureWalkInputViews(schema, node_labels, edge_labels),
      labels);
  // The first property column of a label's rows, or 0 when Sigma reads its
  // properties.
  auto unread_from = [&](const std::string& label) -> size_t {
    if (node_labels.count(label) > 0) {
      return analysis.read_node_labels.count(label) > 0 ? 0 : 1;
    }
    if (edge_labels.count(label) > 0) {
      return analysis.read_edge_labels.count(label) > 0 ? 0 : 3;
    }
    return 0;  // VIEW_OF
  };
  size_t facts = 0;
  for (auto& [label, rows] : want) {
    if (const size_t from = unread_from(label); from > 0) {
      std::set<Tuple> nulled;
      for (Tuple row : rows) {
        std::fill(row.begin() + from, row.end(), Value());
        nulled.insert(std::move(row));
      }
      EXPECT_EQ(nulled.size(), rows.size()) << label;
      rows = std::move(nulled);
    }
    EXPECT_EQ(got[label], rows) << label;
    facts += rows.size();
  }
  EXPECT_EQ(got.size(), want.size());
  EXPECT_GT(facts, 0u);
}

TEST(ViewGenerationTest, SpecializedViewsDeriveWhatTheClosureWalkDerives) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  // The five components in `kgmctl materialize all` order, each over the
  // graph its predecessors enriched.
  pg::PropertyGraph data = net.ToInstanceGraph();
  for (const char* program :
       {finkg::kOwnsProgram, finkg::kControlProgram,
        finkg::kStakeholdersProgram, finkg::kFamilyProgram,
        finkg::kCloseLinksProgram}) {
    SCOPED_TRACE(program);
    ExpectSpecializedViewsMatchClosureWalk(schema, data, program);
    ASSERT_TRUE(Materialize(schema, program, &data).ok());
  }
}

TEST(ViewGenerationTest, SpecializedViewsCoverEveryConcreteType) {
  // One node of every concrete Company-KG type, some without attributes,
  // linked by every extensional edge label; the generator makes no
  // PublicListedCompany, StockShare or NonBusiness.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  auto node = [&data](std::vector<std::string> labels, pg::PropertyMap props) {
    return data.AddNode(std::move(labels), std::move(props));
  };
  pg::NodeId pp = node({"PhysicalPerson", "Person"},
                       {{"fiscalCode", Value("P1")},
                        {"surname", Value("rossi")}});
  pg::NodeId bare = node({"PhysicalPerson", "Person"}, {});
  pg::NodeId biz = AddBusiness(&data, "B1");
  pg::NodeId plc = node({"PublicListedCompany", "Business", "LegalPerson",
                         "Person"},
                        {{"fiscalCode", Value("L1")},
                         {"stockExchange", Value("MTA")}});
  pg::NodeId nb = node({"NonBusiness", "LegalPerson", "Person"},
                       {{"fiscalCode", Value("N1")},
                        {"isGovernmental", Value(true)}});
  pg::NodeId share = node({"Share"}, {{"shareId", Value("S1")},
                                      {"percentage", Value(0.4)}});
  pg::NodeId stock = node({"StockShare", "Share"},
                          {{"shareId", Value("S2")},
                           {"numberOfStocks", Value(int64_t{100})}});
  pg::NodeId place = node({"Place"}, {{"city", Value("Roma")}});
  pg::NodeId family = node({"Family"}, {{"familyName", Value("rossi")}});
  pg::NodeId event = node({"BusinessEvent"}, {{"eventId", Value("E1")}});
  data.AddEdge(pp, share, "HOLDS",
               {{"right", Value("ownership")}, {"percentage", Value(0.4)}});
  data.AddEdge(plc, stock, "HOLDS");
  data.AddEdge(share, biz, "BELONGS_TO");
  data.AddEdge(stock, plc, "BELONGS_TO");
  data.AddEdge(bare, place, "RESIDES");
  data.AddEdge(pp, nb, "HAS_ROLE", {{"role", Value("director")}});
  data.AddEdge(pp, plc, "REPRESENTS");
  data.AddEdge(plc, event, "PARTICIPATES");
  data.AddEdge(pp, family, "BELONGS_TO_FAMILY");
  data.AddEdge(nb, plc, "OWNS", {{"percentage", Value(0.7)}});
  data.AddEdge(biz, biz, "CONTROLS");
  // A Sigma whose body names every node and edge label of the schema, and
  // one that also reads a property of each label with attributes.
  std::string names;
  std::string reads;
  for (const core::NodeDef& n : schema.nodes()) {
    names += "(x: " + n.name + ") -> (x)[: CONTROLS](x).\n";
    const auto attributes = schema.EffectiveAttributes(n.name);
    const std::string read =
        attributes.empty() ? "" : "; " + attributes[0].name + ": _";
    reads += "(x: " + n.name + read + ") -> (x)[: CONTROLS](x).\n";
  }
  for (const core::EdgeDef& e : schema.edges()) {
    names += "(x)[: " + e.name + "](y) -> (x)[: CONTROLS](y).\n";
    const std::string read =
        e.attributes.empty() ? "" : "; " + e.attributes[0].name + ": _";
    reads += "(x)[: " + e.name + read + "](y) -> (x)[: CONTROLS](y).\n";
  }
  auto read_sigma = metalog::ParseMetaProgram(reads);
  ASSERT_TRUE(read_sigma.ok()) << read_sigma.status().ToString();
  EXPECT_EQ(AnalyzeSigma(*read_sigma).read_node_labels.size(),
            schema.nodes().size());
  EXPECT_TRUE(AnalyzeSigma(*read_sigma).read_edge_labels.count("OWNS") > 0);
  ExpectSpecializedViewsMatchClosureWalk(schema, data, names);
  ExpectSpecializedViewsMatchClosureWalk(schema, data, reads);
}

TEST(ViewGenerationTest, EveryInstanceHasOneViewOf) {
  // Business instances are in both the Business and the Person view; the
  // two views share one VIEW_OF edge per instance.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data;
  for (const char* code : {"A", "B", "C"}) AddBusiness(&data, code);
  data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
               {{"fiscalCode", Value("P1")}});
  auto sigma = metalog::ParseMetaProgram(
      "(x: Person), (y: Business) -> (x)[: CONTROLS](y).");
  ASSERT_TRUE(sigma.ok());
  auto views = GenerateInputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok());
  auto db = RunViews(schema, data, *views);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE(db->Get("VIEW_OF"), nullptr);
  EXPECT_EQ(db->Get("VIEW_OF")->size(), 4u);
  EXPECT_EQ(db->Get("Person")->size(), 4u);
  EXPECT_EQ(db->Get("Business")->size(), 3u);
}

// A network of `k` Business nodes with an OWNS chain, plus `persons`
// PhysicalPerson nodes that no component of control reads.
pg::PropertyGraph ControlNetwork(size_t k, size_t persons) {
  pg::PropertyGraph data;
  std::vector<pg::NodeId> biz;
  for (size_t i = 0; i < k; ++i) {
    biz.push_back(AddBusiness(&data, "B" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < k; ++i) AddOwns(&data, biz[i], biz[i + 1], 0.6);
  for (size_t i = 0; i < persons; ++i) {
    data.AddNode(std::vector<std::string>{"PhysicalPerson", "Person"},
                 {{"fiscalCode", Value("P" + std::to_string(i))},
                  {"surname", Value("s" + std::to_string(i))}});
  }
  return data;
}

TEST(PipelineTest, ControlJoinProbesDoNotGrowWithUnreadInstances) {
  // The views start every join from the schema side, so instances of a
  // type no view reads are never probed.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  MaterializeOptions options;
  options.engine.num_threads = 1;
  auto probes = [&](size_t persons) {
    pg::PropertyGraph data = ControlNetwork(12, persons);
    auto stats = Materialize(schema, finkg::kControlProgram, &data, options);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->new_edges, 12u + 11u * 12u / 2u);
    return stats->engine_stats.join_probes;
  };
  const size_t few = probes(10);
  EXPECT_GT(few, 0u);
  EXPECT_EQ(probes(1000), few);
}

TEST(PipelineTest, SchemaTypeNamedLikeADictionaryLabel) {
  // A schema type named SM_Type adds its attribute to the dictionary's
  // SM_Type label in the compiled catalog, so the facts are laid out again
  // with that column; the result is the dictionary path's.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  schema.AddNode("SM_Type", {core::IdAttr("alias")});
  pg::PropertyGraph data = ControlNetwork(6, 3);
  pg::PropertyGraph reference = ControlNetwork(6, 3);
  auto want = DictionaryMaterialize(schema, finkg::kControlProgram,
                                    &reference, 1);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto got = Materialize(schema, finkg::kControlProgram, &data);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->new_edges, 6u + 5u * 6u / 2u);
  EXPECT_EQ(got->new_edges, want->new_edges);
  EXPECT_EQ(data.DebugString(), reference.DebugString());
}

}  // namespace
}  // namespace kgm::instance
