#include "metalog/runner.h"

#include <chrono>

#include "metalog/parser.h"

namespace kgm::metalog {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

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
  KGM_ASSIGN_OR_RETURN(
      CompiledMeta compiled,
      CompileMeta(program, BaseCatalog(*graph, options), options.mtv));
  return RunCompiledMeta(compiled, graph, options);
}

Result<MetaRunResult> RunMetaLogSource(
    std::string_view source, pg::PropertyGraph* graph,
    const MetaRunOptions& options,
    const std::vector<std::string>& decode_labels) {
  if (options.prepared == nullptr) {
    KGM_ASSIGN_OR_RETURN(MetaProgram program, ParseMetaProgram(source));
    KGM_ASSIGN_OR_RETURN(
        CompiledMeta compiled,
        CompileMeta(std::move(program), BaseCatalog(*graph, options),
                    options.mtv));
    return RunCompiledMeta(compiled, graph, options, decode_labels);
  }
  KGM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledMeta> compiled,
                       options.prepared->Compile(
                           source, BaseCatalog(*graph, options), options.mtv));
  return RunCompiledMeta(*compiled, graph, options, decode_labels);
}

Result<MetaRunResult> RunCompiledMeta(
    const CompiledMeta& compiled, pg::PropertyGraph* graph,
    const MetaRunOptions& options,
    const std::vector<std::string>& decode_labels) {
  MetaRunResult result;
  const Clock::time_point t0 = Clock::now();
  vadalog::FactDb db = EncodeGraph(*graph, compiled.catalog);
  const RowCounts encoded_rows = CountRows(db);
  result.encode_seconds = Seconds(t0, Clock::now());

  KGM_RETURN_IF_ERROR(
      compiled.engine->Run(&db, options.engine, &result.engine_stats));
  result.vadalog_rule_count = compiled.program.rules.size();
  const Clock::time_point t1 = Clock::now();
  // DecodeGraph decodes the labels of the catalog it is given.
  GraphCatalog decoded;
  for (const std::string& label : decode_labels) {
    if (compiled.catalog.HasNodeLabel(label)) {
      decoded.AddNodeLabel(label, compiled.catalog.NodeProps(label));
    } else if (compiled.catalog.HasEdgeLabel(label)) {
      decoded.AddEdgeLabel(label, compiled.catalog.EdgeProps(label));
    }
  }
  KGM_ASSIGN_OR_RETURN(
      result.decode,
      DecodeGraph(db, decode_labels.empty() ? compiled.catalog : decoded,
                  graph, encoded_rows));
  result.decode_seconds = Seconds(t1, Clock::now());
  return result;
}

}  // namespace kgm::metalog
