// End-to-end MetaLog execution against a property graph:
//
//   1. build a catalog from the graph, absorb the program's labels, and
//      compile the MetaLog program to Vadalog (CompileMeta, MTV steps
//      (2)-(3)) — or take that compilation from a PreparedCache
//      (CompileMetaLogSource),
//   2. encode the graph relationally (MTV step (1)), noting each label
//      relation's row count (CountRows),
//   3. run the compilation's engine (CompiledMeta::engine) to fixpoint
//      (it only appends rows),
//   4. decode the rows past those counts — the derived node/edge facts of
//      every catalog label — back into the graph.
//
// Steps 2-4 live in RunCompiledMeta alone; every graph entry point ends
// there.  instance::Materialize compiles through CompileMetaLogSource too,
// but runs the engine on facts it loads itself and reads the staged
// relations without decoding them.
//
// This mirrors how KGModel executes intensional components and schema
// mappings via the Vadalog System (Sections 4-6 of the paper).

#ifndef KGM_METALOG_RUNNER_H_
#define KGM_METALOG_RUNNER_H_

#include <memory>
#include <string>
#include <string_view>

#include "base/status.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "metalog/prepared.h"
#include "pg/property_graph.h"
#include "vadalog/engine.h"

namespace kgm::metalog {

struct MetaRunOptions {
  vadalog::EngineOptions engine;
  // Extra labels to register before translation (for intensional labels
  // whose properties are not mentioned in the program).
  GraphCatalog extra_catalog;
  // Optional prepared-program cache.  When set, RunMetaLogSource reuses
  // cached parse+MTV compilations instead of recompiling per run (valid as
  // long as the graph's label catalog is unchanged; a changed catalog
  // misses and recompiles).
  PreparedCache* prepared = nullptr;
};

struct MetaRunResult {
  DecodeStats decode;
  vadalog::EngineStats engine_stats;
  size_t vadalog_rule_count = 0;
};

// Runs a parsed MetaLog program against `graph`, materializing derived
// nodes, edges and properties in place: CompileMeta, then
// RunCompiledMeta.  Never consults options.prepared.
Result<MetaRunResult> RunMetaLog(const MetaProgram& program,
                                 pg::PropertyGraph* graph,
                                 const MetaRunOptions& options = {});

// The compilation of MetaLog source text against `catalog` (which must NOT
// yet have the program absorbed): from options.prepared when set, parsed
// and compiled afresh otherwise.
Result<std::shared_ptr<const CompiledMeta>> CompileMetaLogSource(
    std::string_view source, const GraphCatalog& catalog,
    const MetaRunOptions& options = {});

// Parses and runs MetaLog source text.  With options.prepared set, the
// parse+MTV compilation is served from the cache when possible.
Result<MetaRunResult> RunMetaLogSource(std::string_view source,
                                       pg::PropertyGraph* graph,
                                       const MetaRunOptions& options = {});

// Runs an already-compiled MetaLog program (from PreparedCache::Compile)
// against `graph`.  The compilation's catalog must cover the graph's
// labels; labels absent from it are skipped during encoding.  The derived
// facts of every catalog label are decoded into `graph`.
Result<MetaRunResult> RunCompiledMeta(const CompiledMeta& compiled,
                                      pg::PropertyGraph* graph,
                                      const MetaRunOptions& options = {});

}  // namespace kgm::metalog

#endif  // KGM_METALOG_RUNNER_H_
