// The intensional-component materialization pipeline (Algorithm 2).
//
// Materialize() performs the full staged process of Section 6 against a
// property-graph component D:
//
//   load:   D -> instance super-constructs (quasi-inverse of the copy
//           mapping), in a dictionary that also holds the super-schema;
//   reason: V_I (input views) + Sigma + V_O (output views) compiled by MTV
//           and evaluated by the Vadalog engine over the dictionary;
//   flush:  staging constructs (O_SM_*) written back into D in a batch.
//
// The three phases are timed separately: the paper reports ~160 minutes of
// reasoning against ~15 minutes of loading+flushing for the Bank of Italy
// control component (experiment E2 in DESIGN.md).

#ifndef KGM_INSTANCE_PIPELINE_H_
#define KGM_INSTANCE_PIPELINE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "core/superschema.h"
#include "instance/loader.h"
#include "instance/views.h"
#include "metalog/runner.h"
#include "pg/property_graph.h"

namespace kgm::instance {

struct MaterializeOptions {
  vadalog::EngineOptions engine;
  int64_t instance_oid = 234;
  // Optional prepared-program cache: repeated materializations of the same
  // component skip the MetaLog parse and MTV translation of V_I + Sigma +
  // V_O when the dictionary's catalog is unchanged.
  metalog::PreparedCache* prepared = nullptr;
};

struct MaterializeStats {
  double load_seconds = 0;
  double reason_seconds = 0;
  // The parts of reason_seconds spent encoding the dictionary into facts
  // and decoding the derived facts back (MetaRunResult's timings).
  double encode_seconds = 0;
  double decode_seconds = 0;
  double flush_seconds = 0;
  size_t loaded_nodes = 0;
  size_t loaded_edges = 0;
  size_t loaded_attributes = 0;
  size_t new_nodes = 0;
  size_t new_edges = 0;
  size_t updated_properties = 0;
  size_t vadalog_rules = 0;
  size_t facts_derived = 0;
  // Full engine counters of the reasoning phase (threads used, per-rule
  // firings and probes, per-stratum wall times).
  vadalog::EngineStats engine_stats;
  // Sorted labels whose relational encoding the flush actually changed:
  // every label of a node that gained a property, the labels of new nodes,
  // and the labels of new edges.  A serving layer can feed exactly these
  // relations to KgService::ApplyDelta (or re-encode only them) instead of
  // re-publishing the whole graph after a re-materialization.
  std::vector<std::string> changed_labels;
  // The generated views, for inspection.
  std::string input_views;
  std::string output_views;
};

// Builds the catalog the MTV translation needs for Sigma's labels: node
// labels with their effective attributes, edge labels with their
// attributes, per the super-schema.
metalog::GraphCatalog SchemaCatalog(const core::SuperSchema& schema);

// Runs Algorithm 2: materializes the intensional component `sigma_source`
// (MetaLog) into `data` in place.  The reasoning step decodes only
// kFlushLabels back into the dictionary: flush reads nothing else.
Result<MaterializeStats> Materialize(const core::SuperSchema& schema,
                                     const std::string& sigma_source,
                                     pg::PropertyGraph* data,
                                     const MaterializeOptions& options = {});

// The labels flush reads: the staging constructs and the edges that tie
// them to their attributes and endpoints.  The set is closed — every
// endpoint is an I_SM_Node of the dictionary or a staged node — so the
// derived facts of the input views and of Sigma's own labels need no
// decoding.
inline const std::vector<std::string> kFlushLabels = {
    kOSmNode, kOSmEdge, kOSmAttribute, kOSmPropUpdate,
    kOSmHasAttr, kOFrom, kOTo, kOOn};

// Algorithm 2's flush: writes the staging constructs of `loaded.dict` —
// property updates, new nodes, new edges deduplicated against `data` —
// into `data`, and sets the counts and changed_labels of `stats`.
Status FlushStaging(const core::SuperSchema& schema,
                    const LoadedInstance& loaded, pg::PropertyGraph* data,
                    MaterializeStats* stats);

}  // namespace kgm::instance

#endif  // KGM_INSTANCE_PIPELINE_H_
