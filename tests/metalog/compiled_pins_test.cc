// Pins the compiled form of every shipped MetaLog program: the Vadalog
// program MTV emits (Program::ToString), its rule provenance and its helper
// predicates, as a 64-bit FNV-1a fingerprint.  A refactoring of MTV, the
// catalog or the view generators must keep every fingerprint; a change
// meant to alter a compilation re-pins it here.  On a mismatch the test
// prints the compiled text.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/loader.h"
#include "instance/pipeline.h"
#include "instance/views.h"
#include "metalog/parser.h"
#include "metalog/runner.h"
#include "translate/pg_mapping.h"

namespace kgm::metalog {
namespace {

// The compiled form of one program, as the fingerprint covers it.
std::string CompiledText(const CompiledMeta& compiled) {
  std::string out = compiled.program.ToString();
  out += "% rule_origin:";
  for (int origin : compiled.rule_origin) out += " " + std::to_string(origin);
  out += "\n% helper_predicates:";
  for (const std::string& helper : compiled.helper_predicates) {
    out += " " + helper;
  }
  out += "\n";
  return out;
}

std::string Fingerprint(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

// Program name -> compiled text.
using Compilations = std::map<std::string, std::string>;

void Compile(const std::string& name, const std::string& source,
             const GraphCatalog& catalog, Compilations* out) {
  auto compiled = CompileMetaLogSource(source, catalog);
  ASSERT_TRUE(compiled.ok()) << name << ": " << compiled.status().ToString();
  (*out)[name] = CompiledText(**compiled);
}

// Every examples/programs/*.mlog against the Company KG schema catalog.
void CompileExamples(Compilations* out) {
  const GraphCatalog catalog =
      instance::SchemaCatalog(finkg::CompanyKgSchema());
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(KGM_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mlog") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    std::stringstream source;
    source << in.rdbuf();
    Compile("examples/" + file.filename().string(), source.str(), catalog,
            out);
  }
}

// The five Company-KG components in `kgmctl materialize all` order, each
// compiled as Materialize compiles it (V_I + Sigma + V_O against the
// loaded instance's catalog merged with the schema catalog) and then
// materialized, so the next one loads the enriched graph.
void CompileComponents(Compilations* out) {
  const core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 90;
  config.seed = 2022;
  pg::PropertyGraph data =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  const instance::MaterializeOptions options;
  for (const auto& [name, source] :
       std::vector<std::pair<std::string, const char*>>{
           {"owns", finkg::kOwnsProgram},
           {"control", finkg::kControlProgram},
           {"stakeholders", finkg::kStakeholdersProgram},
           {"family", finkg::kFamilyProgram},
           {"close_links", finkg::kCloseLinksProgram}}) {
    auto sigma = ParseMetaProgram(source);
    ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
    auto input_views = instance::GenerateInputViews(schema, *sigma, 234);
    ASSERT_TRUE(input_views.ok()) << input_views.status().ToString();
    auto output_views = instance::GenerateOutputViews(schema, *sigma, 234);
    ASSERT_TRUE(output_views.ok()) << output_views.status().ToString();
    auto facts = instance::LoadInstanceFacts(schema, data);
    ASSERT_TRUE(facts.ok()) << facts.status().ToString();
    GraphCatalog catalog = facts->catalog;
    catalog.Merge(instance::SchemaCatalog(schema));
    Compile("finkg/" + name,
            *input_views + "\n" + source + "\n" + *output_views, catalog,
            out);
    auto stats = instance::Materialize(schema, source, &data, options);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
  }
}

// The SSST mapping programs of the repository, each compiled as
// RunMetaLogSource compiles it on the translation dictionary of the
// Company KG schema: Eliminate on the stored super-schema, Copy on what
// Eliminate left.
void CompileMappings(Compilations* out) {
  for (const translate::Mapping& mapping : translate::MappingRepository()) {
    core::SuperSchema source = finkg::CompanyKgSchema();
    source.set_schema_oid(translate::kSrcOid);
    pg::PropertyGraph dict;
    ASSERT_TRUE(core::StoreSuperSchema(source, &dict).ok());
    const std::string prefix =
        "ssst/" + mapping.model + "/" + mapping.strategy + "/";
    Compile(prefix + "eliminate", mapping.eliminate,
            GraphCatalog::FromGraph(dict), out);
    if (mapping.copy.empty()) continue;
    auto eliminated = RunMetaLogSource(mapping.eliminate, &dict);
    ASSERT_TRUE(eliminated.ok()) << eliminated.status().ToString();
    Compile(prefix + "copy", mapping.copy, GraphCatalog::FromGraph(dict),
            out);
  }
}

// Fingerprints of the compiled forms.
const std::map<std::string, std::string>& Pinned() {
  static const auto* pinned = new std::map<std::string, std::string>{
      {"examples/closelinks.mlog", "0a917085d4879ef1"},
      {"examples/control.mlog", "eaa4d0237bd4c401"},
      {"examples/family.mlog", "7a51e4256ea58175"},
      {"examples/owns.mlog", "e032a1b2dfaa1f41"},
      {"examples/stakeholders.mlog", "cdd6d2913c6ae3b9"},
      {"finkg/close_links", "ffafaabe6df53cc6"},
      {"finkg/control", "d9fb299cb81924a3"},
      {"finkg/family", "2f7ea3bce6e162f7"},
      {"finkg/owns", "c5f56f5e81c6ff81"},
      {"finkg/stakeholders", "af7302518088858a"},
      {"ssst/property_graph/type_accumulation/copy", "fe4f1140461c0171"},
      {"ssst/property_graph/type_accumulation/eliminate", "f2778dfc80d3a750"},
      {"ssst/relational/relation_per_member/eliminate", "66daae3707f605a0"},
  };
  return *pinned;
}

TEST(CompiledPinsTest, EveryShippedProgramCompilesAsPinned) {
  Compilations compiled;
  CompileExamples(&compiled);
  CompileComponents(&compiled);
  CompileMappings(&compiled);
  for (const auto& [name, text] : compiled) {
    auto pin = Pinned().find(name);
    const std::string got = Fingerprint(text);
    if (pin == Pinned().end()) {
      ADD_FAILURE() << "no pin for " << name << " (" << got << "):\n"
                    << text;
    } else {
      EXPECT_EQ(got, pin->second) << name << " compiles to:\n" << text;
    }
  }
  for (const auto& [name, fingerprint] : Pinned()) {
    EXPECT_EQ(compiled.count(name), 1u) << "pinned but not compiled: "
                                        << name;
  }
}

}  // namespace
}  // namespace kgm::metalog
