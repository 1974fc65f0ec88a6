// End-to-end MetaLog execution against a property graph:
//
//   1. build a catalog from the graph, absorb the program's labels, and
//      compile the MetaLog program to Vadalog (CompileMeta, MTV steps
//      (2)-(3)) — or take that compilation from a PreparedCache,
//   2. encode the graph relationally (MTV step (1)), noting each label
//      relation's row count (CountRows),
//   3. run the compilation's engine (CompiledMeta::engine) to fixpoint
//      (it only appends rows),
//   4. decode the rows past those counts — the derived node/edge facts —
//      back into the graph, of every catalog label or only of the labels
//      the caller reads.
//
// Steps 2-4 live in RunCompiledMeta alone; every entry point ends there.
//
// This mirrors how KGModel executes intensional components and schema
// mappings via the Vadalog System (Sections 4-6 of the paper).

#ifndef KGM_METALOG_RUNNER_H_
#define KGM_METALOG_RUNNER_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/prepared.h"
#include "pg/property_graph.h"
#include "vadalog/engine.h"

namespace kgm::metalog {

struct MetaRunOptions {
  vadalog::EngineOptions engine;
  MtvOptions mtv;
  // Extra labels to register before translation (for intensional labels
  // whose properties are not mentioned in the program).
  GraphCatalog extra_catalog;
  // Optional prepared-program cache.  When set, RunMetaLogSource reuses
  // cached parse+MTV compilations instead of recompiling per run (valid as
  // long as the graph's label catalog is unchanged; a changed catalog
  // fingerprint misses and recompiles).
  PreparedCache* prepared = nullptr;
};

struct MetaRunResult {
  DecodeStats decode;
  vadalog::EngineStats engine_stats;
  size_t vadalog_rule_count = 0;
  // Wall time of step 2 (encode) and of step 4 (decode).
  double encode_seconds = 0;
  double decode_seconds = 0;
};

// Runs a parsed MetaLog program against `graph`, materializing derived
// nodes, edges and properties in place: CompileMeta, then
// RunCompiledMeta.  Never consults options.prepared.
Result<MetaRunResult> RunMetaLog(const MetaProgram& program,
                                 pg::PropertyGraph* graph,
                                 const MetaRunOptions& options = {});

// Parses and runs MetaLog source text.  With options.prepared set, the
// parse+MTV compilation is served from the cache when possible.
// `decode_labels` as in RunCompiledMeta.
Result<MetaRunResult> RunMetaLogSource(
    std::string_view source, pg::PropertyGraph* graph,
    const MetaRunOptions& options = {},
    const std::vector<std::string>& decode_labels = {});

// Runs an already-compiled MetaLog program (from PreparedCache::Compile)
// against `graph`.  The compilation's catalog must cover the graph's
// labels; labels absent from it are skipped during encoding.  The derived
// facts of every catalog label are decoded into `graph`, or only those of
// the labels `decode_labels` names when it is not empty; a caller that
// reads only some labels back (instance::Materialize) skips the rest.
Result<MetaRunResult> RunCompiledMeta(
    const CompiledMeta& compiled, pg::PropertyGraph* graph,
    const MetaRunOptions& options = {},
    const std::vector<std::string>& decode_labels = {});

}  // namespace kgm::metalog

#endif  // KGM_METALOG_RUNNER_H_
