#include "metalog/runner.h"

#include "metalog/parser.h"

namespace kgm::metalog {

namespace {

// The graph's own labels plus the caller's extra ones, before the
// program's labels are absorbed.
GraphCatalog BaseCatalog(const pg::PropertyGraph& graph,
                         const MetaRunOptions& options) {
  GraphCatalog catalog = GraphCatalog::FromGraph(graph);
  catalog.Merge(options.extra_catalog);
  return catalog;
}

}  // namespace

Result<MetaRunResult> RunMetaLog(const MetaProgram& program,
                                 pg::PropertyGraph* graph,
                                 const MetaRunOptions& options) {
  KGM_ASSIGN_OR_RETURN(CompiledMeta compiled,
                       CompileMeta(program, BaseCatalog(*graph, options)));
  return RunCompiledMeta(compiled, graph, options);
}

Result<std::shared_ptr<const CompiledMeta>> CompileMetaLogSource(
    std::string_view source, const GraphCatalog& catalog,
    const MetaRunOptions& options) {
  if (options.prepared != nullptr) {
    return options.prepared->Compile(source, catalog);
  }
  KGM_ASSIGN_OR_RETURN(MetaProgram program, ParseMetaProgram(source));
  KGM_ASSIGN_OR_RETURN(CompiledMeta compiled,
                       CompileMeta(std::move(program), catalog));
  return std::make_shared<const CompiledMeta>(std::move(compiled));
}

Result<MetaRunResult> RunMetaLogSource(std::string_view source,
                                       pg::PropertyGraph* graph,
                                       const MetaRunOptions& options) {
  KGM_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledMeta> compiled,
      CompileMetaLogSource(source, BaseCatalog(*graph, options), options));
  return RunCompiledMeta(*compiled, graph, options);
}

Result<MetaRunResult> RunCompiledMeta(const CompiledMeta& compiled,
                                      pg::PropertyGraph* graph,
                                      const MetaRunOptions& options) {
  MetaRunResult result;
  vadalog::FactDb db = EncodeGraph(*graph, compiled.catalog);
  const RowCounts encoded_rows = CountRows(db);
  KGM_RETURN_IF_ERROR(
      compiled.engine->Run(&db, options.engine, &result.engine_stats));
  result.vadalog_rule_count = compiled.program.rules.size();
  KGM_ASSIGN_OR_RETURN(
      result.decode,
      DecodeGraph(db, compiled.catalog, graph, encoded_rows));
  return result;
}

}  // namespace kgm::metalog
