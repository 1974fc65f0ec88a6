// The intensional-component materialization pipeline (Algorithm 2).
//
// Materialize() performs the full staged process of Section 6 against a
// property-graph component D:
//
//   load:   D -> instance super-constructs (quasi-inverse of the copy
//           mapping), written straight into facts next to the
//           super-schema's (LoadInstanceFacts);
//   reason: V_I (input views) + Sigma + V_O (output views) compiled by MTV
//           and evaluated by the Vadalog engine over those facts;
//   flush:  the staged relations (O_SM_*, O_*) written back into D in a
//           batch.
//
// No dictionary graph is built and no fact is decoded into one.  The three
// phases are timed separately: the paper reports ~160 minutes of reasoning
// against ~15 minutes of loading+flushing for the Bank of Italy control
// component (experiment E2 in EXPERIMENTS.md).

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
  // Optional prepared-program cache: repeated materializations of the same
  // component skip the MetaLog parse and MTV translation of V_I + Sigma +
  // V_O when the loaded instance's catalog is unchanged.
  metalog::PreparedCache* prepared = nullptr;
};

struct MaterializeStats {
  // Building the instance facts (LoadInstanceFacts).
  double load_seconds = 0;
  // Views, MTV compile (or prepared-cache lookup) and the engine run.
  double reason_seconds = 0;
  // Reading the staged relations into D (FlushStaging).
  double flush_seconds = 0;
  size_t loaded_nodes = 0;
  size_t loaded_edges = 0;
  size_t loaded_attributes = 0;
  size_t new_nodes = 0;
  size_t new_edges = 0;
  // Staged property updates that changed a stored value; one that restates
  // the stored value is not counted.
  size_t updated_properties = 0;
  size_t vadalog_rules = 0;
  size_t facts_derived = 0;
  // Full engine counters of the reasoning phase (threads used, per-rule
  // firings and probes, per-stratum wall times).
  vadalog::EngineStats engine_stats;
  // Sorted labels whose relational encoding the flush actually changed:
  // every label of a node whose property changed, the labels of new nodes,
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
// (MetaLog) into `data` in place.
Result<MaterializeStats> Materialize(const core::SuperSchema& schema,
                                     const std::string& sigma_source,
                                     pg::PropertyGraph* data,
                                     const MaterializeOptions& options = {});

// Algorithm 2's flush: writes the staging constructs of `staged` — the
// facts the reasoning left, laid out by `catalog` — into `data`: property
// updates, new nodes, and new edges deduplicated against `data`'s
// (label, from, to) triples.  Sets the counts and changed_labels of
// `stats`.
//
// The staged relations are read as metalog::DecodeGraph would decode them
// into a dictionary for the flush to read there:
//  * a staged entity (O_SM_Node, O_SM_Edge, O_SM_Attribute,
//    O_SM_PropUpdate) is identified by its OID within its label, and the
//    entities of a label are visited in the row order of their first row;
//  * each property of an entity takes the last non-null value in row
//    order;
//  * staged links (O_ON, O_SM_HAS_ATTR) are taken in row order, and an
//    entity's endpoint is its last O_FROM / O_TO row;
//  * an endpoint resolves to the data node of an I_SM_Node of `loaded` or
//    to the node flushed for a staged O_SM_Node.
// A staged edge whose endpoint resolves to neither, or a staged relation
// whose width is not its catalog width (GraphCatalog::LabelRelation),
// returns an error Status; `data` may then hold part of the flush.
Status FlushStaging(const core::SuperSchema& schema,
                    const metalog::GraphCatalog& catalog,
                    const vadalog::FactDb& staged, const InstanceMap& loaded,
                    pg::PropertyGraph* data, MaterializeStats* stats);

}  // namespace kgm::instance

#endif  // KGM_INSTANCE_PIPELINE_H_
