// Relational target support for the instance pipeline: model independence
// of the intensional component (Section 6).
//
// The extensional component may live in a relational database whose schema
// was produced by SSST (Figure 8): one relation per generalization member
// sharing the root key, foreign-key columns for functional edges, junction
// relations for many-to-many edges.  This module maps such a database to
// and from the property-graph form of the same instance, so the identical
// MetaLog program Sigma materializes against either target:
//
//   MaterializeRelational(schema, sigma, &db)
//     == RelationalToGraph -> Materialize (Algorithm 2) -> GraphToRelational

#ifndef KGM_INSTANCE_REL_BRIDGE_H_
#define KGM_INSTANCE_REL_BRIDGE_H_

#include <string>

#include "base/status.h"
#include "core/superschema.h"
#include "instance/pipeline.h"
#include "pg/property_graph.h"
#include "rel/relational.h"

namespace kgm::instance {

// Reconstructs the property-graph instance from a relational database laid
// out per TranslateToRelational (the layout of translate/native.h):
// entities are identified by their root key across member relations (the
// deepest member is the primary type and gives the node its accumulated
// labels), functional-edge FK columns and junction relations become edges.
// A table missing a layout column or a row naming an absent entity is a
// FailedPrecondition.
Result<pg::PropertyGraph> RelationalToGraph(const core::SuperSchema& schema,
                                            const rel::Database& db);

// Exports a property-graph instance (including derived components) into a
// fresh relational database with the Figure 8 schema.  Intensional nodes
// without identifying attributes are keyed by their surrogate `_oid`
// column.
Result<rel::Database> GraphToRelational(const core::SuperSchema& schema,
                                        const pg::PropertyGraph& data);

// Algorithm 2 against a relational component: import, materialize, export.
// On success `db` is replaced by the database including the derived
// components.
Result<MaterializeStats> MaterializeRelational(
    const core::SuperSchema& schema, const std::string& sigma_source,
    rel::Database* db, const MaterializeOptions& options = {});

}  // namespace kgm::instance

#endif  // KGM_INSTANCE_REL_BRIDGE_H_
