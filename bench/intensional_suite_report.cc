// E11 — the intensional components of the Company KG beyond control:
// derived OWNS, numberOfStakeholders, families, and close links
// (integrated ownership per Romei et al. + the ECB close-links criteria),
// each materialized through Algorithm 2 with per-phase timing.

#include <cstdio>
#include <cstdlib>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"

int main(int argc, char** argv) {
  using namespace kgm;
  core::SuperSchema schema = finkg::CompanyKgSchema();

  // Optional worker count: `intensional_suite_report [num_threads]`
  // (0 = hardware concurrency, 1 = every work item runs on the driver).
  instance::MaterializeOptions options;
  options.engine.num_threads = 1;
  if (argc > 1) {
    options.engine.num_threads =
        static_cast<size_t>(std::strtoul(argv[1], nullptr, 10));
  }

  finkg::GeneratorConfig config;
  config.num_companies = 400;
  config.num_persons = 600;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  pg::PropertyGraph data = net.ToInstanceGraph();

  std::printf(
      "E11: intensional component suite on %zu entities / %zu holdings\n\n",
      net.num_entities(), net.holdings().size());
  std::printf("%-24s %7s %9s %9s %9s %10s %9s %9s\n", "component", "threads",
              "load(s)", "reason(s)", "flush(s)", "vlog-rules", "new-edges",
              "new-nodes");

  struct Step {
    const char* name;
    const char* program;
  };
  const Step steps[] = {
      {"OWNS", finkg::kOwnsProgram},
      {"CONTROLS", finkg::kControlProgram},
      {"numberOfStakeholders", finkg::kStakeholdersProgram},
      {"families", finkg::kFamilyProgram},
      {"close links", finkg::kCloseLinksProgram},
  };
  for (const Step& step : steps) {
    auto stats = instance::Materialize(schema, step.program, &data, options);
    if (!stats.ok()) {
      std::printf("%s FAILED: %s\n", step.name,
                  stats.status().ToString().c_str());
      return 1;
    }
    std::printf("%-24s %7zu %9.3f %9.3f %9.3f %10zu %9zu %9zu\n", step.name,
                stats->engine_stats.threads_used, stats->load_seconds,
                stats->reason_seconds, stats->flush_seconds,
                stats->vadalog_rules, stats->new_edges, stats->new_nodes);
    std::printf("%-24s strata:", "");
    for (double s : stats->engine_stats.stratum_seconds) {
      std::printf(" %.3fs", s);
    }
    std::printf("  probes: %zu  firings: %zu\n",
                stats->engine_stats.join_probes,
                stats->engine_stats.rule_firings);
    const auto& es = stats->engine_stats;
    std::printf("%-24s staged: %zu (+%zu dup)  merge: %.3fs  aggfin: %.3fs\n",
                "", es.staged_inserts, es.staged_duplicates, es.merge_seconds,
                es.agg_finalize_seconds);
  }

  std::printf("\nderived totals:\n");
  for (const char* label : {"OWNS", "CONTROLS", "IS_RELATED_TO",
                            "BELONGS_TO_FAMILY", "FAMILY_OWNS", "IO",
                            "CLOSE_LINK"}) {
    std::printf("  %-18s %zu edges\n", label,
                data.EdgesWithLabel(label).size());
  }
  std::printf("  %-18s %zu nodes\n", "Family",
              data.NodesWithLabel("Family").size());
  return 0;
}
