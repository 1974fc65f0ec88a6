// Differential test of DecodeGraph's row counts against the row-0 decode.
//
// The five Company-KG components run in `kgmctl materialize all` order
// over the `kgmctl explain` demo network, each straight on the instance
// graph (no staging area), so every decode writes into the graph that
// translate::ExportCsv serializes.  At every step the engine's output is
// decoded twice: from the row counts taken right after EncodeGraph, and
// from row 0 into a clone of the graph.  Both must export byte-identical
// CSV.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "metalog/parser.h"
#include "metalog/prepared.h"
#include "translate/csv_io.h"
#include "vadalog/engine.h"

namespace kgm::metalog {
namespace {

TEST(DecodeDifferentialTest, RowCountsDecodeLikeRowZeroAtEveryStep) {
  const core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 100;
  config.num_persons = 150;
  config.seed = 2022;
  pg::PropertyGraph graph =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  const GraphCatalog schema_catalog = instance::SchemaCatalog(schema);
  const std::pair<const char*, const char*> components[] = {
      {"OWNS", finkg::kOwnsProgram},
      {"CONTROLS", finkg::kControlProgram},
      {"numberOfStakeholders", finkg::kStakeholdersProgram},
      {"families", finkg::kFamilyProgram},
      {"close links", finkg::kCloseLinksProgram},
  };
  auto csv_before = translate::ExportCsv(schema, graph);
  ASSERT_TRUE(csv_before.ok()) << csv_before.status().ToString();
  for (const auto& [name, source] : components) {
    SCOPED_TRACE(name);
    auto program = ParseMetaProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    GraphCatalog base = GraphCatalog::FromGraph(graph);
    base.Merge(schema_catalog);
    auto compiled = CompileMeta(*std::move(program), base);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    vadalog::FactDb db = EncodeGraph(graph, compiled->catalog);
    const RowCounts encoded = CountRows(db);
    vadalog::Engine engine(compiled->program);
    ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
    ASSERT_TRUE(engine.Run(&db).ok());

    pg::PropertyGraph reference = graph.Clone();
    auto from_zero = DecodeGraph(db, compiled->catalog, &reference);
    ASSERT_TRUE(from_zero.ok()) << from_zero.status().ToString();
    auto from_counts = DecodeGraph(db, compiled->catalog, &graph, encoded);
    ASSERT_TRUE(from_counts.ok()) << from_counts.status().ToString();
    EXPECT_EQ(from_counts->new_nodes, from_zero->new_nodes);
    EXPECT_EQ(from_counts->new_edges, from_zero->new_edges);
    EXPECT_EQ(graph.num_nodes(), reference.num_nodes());
    EXPECT_EQ(graph.num_edges(), reference.num_edges());

    auto want = translate::ExportCsv(schema, reference);
    auto got = translate::ExportCsv(schema, graph);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), want->size());
    for (const auto& [file, doc] : *want) {
      EXPECT_TRUE((*got)[file] == doc) << file;
    }
    // Every component derives something, so the step compares real work.
    EXPECT_TRUE(*got != *csv_before);
    csv_before = std::move(got);
  }
}

}  // namespace
}  // namespace kgm::metalog
