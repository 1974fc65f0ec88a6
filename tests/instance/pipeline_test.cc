// End-to-end tests of Algorithm 2: load -> (V_I + Sigma + V_O) -> flush.

#include <gtest/gtest.h>

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
  EXPECT_NE(views->find("pack(m, v)"), std::string::npos);
  EXPECT_NE(views->find("(c: Business; *p)"), std::string::npos);
  // The generated views must themselves parse.
  EXPECT_TRUE(metalog::ParseMetaProgram(*views).ok());
  auto out_views = GenerateOutputViews(schema, *sigma, 234);
  ASSERT_TRUE(out_views.ok()) << out_views.status().ToString();
  EXPECT_TRUE(metalog::ParseMetaProgram(*out_views).ok());
  EXPECT_NE(out_views->find("O_SM_Edge"), std::string::npos);
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

// Materialize's load and reasoning steps over `data`, decoding the labels
// `decode_labels` names into the dictionary (every catalog label when it
// is empty).
Result<LoadedInstance> LoadAndReason(
    const core::SuperSchema& schema, const std::string& sigma_source,
    const pg::PropertyGraph& data,
    const std::vector<std::string>& decode_labels) {
  KGM_ASSIGN_OR_RETURN(metalog::MetaProgram sigma,
                       metalog::ParseMetaProgram(sigma_source));
  KGM_ASSIGN_OR_RETURN(LoadedInstance loaded, LoadInstance(schema, data));
  KGM_ASSIGN_OR_RETURN(std::string input_views,
                       GenerateInputViews(schema, sigma, 234));
  KGM_ASSIGN_OR_RETURN(std::string output_views,
                       GenerateOutputViews(schema, sigma, 234));
  metalog::MetaRunOptions options;
  options.extra_catalog = SchemaCatalog(schema);
  KGM_RETURN_IF_ERROR(
      metalog::RunMetaLogSource(
          input_views + "\n" + sigma_source + "\n" + output_views,
          &loaded.dict, options, decode_labels)
          .status());
  return loaded;
}

// Dictionary entities that carry a data label: decoded input-view facts
// (Business, Person, OWNS, ...) or Sigma's own derived labels.
size_t DataLabelEntities(const core::SuperSchema& schema,
                         const pg::PropertyGraph& dict) {
  size_t n = 0;
  for (const core::NodeDef& node : schema.nodes()) {
    n += dict.NodesWithLabel(node.name).size();
  }
  for (const core::EdgeDef& edge : schema.edges()) {
    n += dict.EdgesWithLabel(edge.name).size();
  }
  return n;
}

TEST(PipelineTest, DecodesOnlyWhatFlushReads) {
  // Each Company-KG component, in `kgmctl materialize all` order, through
  // Materialize and through a reference that decodes every label before
  // the same flush: both must write the same graph and report the same
  // flush counts, while Materialize's decode leaves the dictionary free of
  // input-view entities.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  pg::PropertyGraph data = net.ToInstanceGraph();
  pg::PropertyGraph reference = net.ToInstanceGraph();
  for (const char* program :
       {finkg::kOwnsProgram, finkg::kControlProgram,
        finkg::kStakeholdersProgram, finkg::kFamilyProgram,
        finkg::kCloseLinksProgram}) {
    auto flushed = LoadAndReason(schema, program, reference, kFlushLabels);
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    EXPECT_EQ(DataLabelEntities(schema, flushed->dict), 0u);
    auto full = LoadAndReason(schema, program, reference, {});
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_GT(DataLabelEntities(schema, full->dict), 0u);
    for (const std::string& label : kFlushLabels) {
      EXPECT_EQ(flushed->dict.NodesWithLabel(label).size(),
                full->dict.NodesWithLabel(label).size()) << label;
      EXPECT_EQ(flushed->dict.EdgesWithLabel(label).size(),
                full->dict.EdgesWithLabel(label).size()) << label;
    }

    MaterializeStats want;
    ASSERT_TRUE(FlushStaging(schema, *full, &reference, &want).ok());
    auto got = Materialize(schema, program, &data);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->new_nodes, want.new_nodes);
    EXPECT_EQ(got->new_edges, want.new_edges);
    EXPECT_EQ(got->updated_properties, want.updated_properties);
    EXPECT_EQ(got->changed_labels, want.changed_labels);
    auto got_csv = translate::ExportCsv(schema, data);
    auto want_csv = translate::ExportCsv(schema, reference);
    ASSERT_TRUE(got_csv.ok() && want_csv.ok());
    EXPECT_EQ(*got_csv, *want_csv);
  }
  EXPECT_GT(data.EdgesWithLabel("CONTROLS").size(), 0u);
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
// `data` what the closure-walking reference derives for the same labels.
void ExpectSpecializedViewsMatchClosureWalk(
    const core::SuperSchema& schema, const pg::PropertyGraph& data,
    const std::string& sigma_source) {
  auto sigma = metalog::ParseMetaProgram(sigma_source);
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  auto views = GenerateInputViews(schema, *sigma, 234);
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  EXPECT_EQ(views->find("SM_CHILD"), std::string::npos);
  EXPECT_EQ(views->find("SM_PARENT"), std::string::npos);
  const std::set<std::string> node_labels = InputViewNodeLabels(schema, *sigma);
  const std::set<std::string> edge_labels =
      AnalyzeSigma(*sigma).body_edge_labels;
  std::set<std::string> labels = node_labels;
  labels.insert(edge_labels.begin(), edge_labels.end());
  auto got = RunInputViews(schema, data, *views, labels);
  auto want = RunInputViews(
      schema, data, ClosureWalkInputViews(schema, node_labels, edge_labels),
      labels);
  size_t facts = 0;
  for (const auto& [label, rows] : want) {
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
  // A Sigma whose body names every node and edge label of the schema.
  std::string sigma;
  for (const core::NodeDef& n : schema.nodes()) {
    sigma += "(x: " + n.name + ") -> (x)[: CONTROLS](x).\n";
  }
  for (const core::EdgeDef& e : schema.edges()) {
    sigma += "(x)[: " + e.name + "](y) -> (x)[: CONTROLS](y).\n";
  }
  ExpectSpecializedViewsMatchClosureWalk(schema, data, sigma);
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

}  // namespace
}  // namespace kgm::instance
