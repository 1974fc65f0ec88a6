// Instance loading (Algorithm 2, lines 1-4, and Figure 9).
//
// The extensional component D (a property graph conforming to the
// translated schema) is loaded into *instance super-constructs*: every data
// node becomes an I_SM_Node linked by SM_REFERENCES to its SM_Node in the
// super-schema dictionary; properties become I_SM_Attributes holding the
// value and referencing their SM_Attribute; edges become I_SM_Edges with
// I_SM_FROM / I_SM_TO.  The result is the quasi-inverse image
// (V(M).copy)^-1(D) of Section 6: the copy phase is invertible by
// construction, so loading resolves each datum against the schema
// dictionary and re-expresses it at super-model level.
//
// One walk over D produces the constructs, and two loaders hand them to
// different sinks: LoadInstance adds them to a dictionary graph, and
// LoadInstanceFacts writes them straight into the relational encoding the
// reasoner runs on (what metalog::EncodeGraph would make of that
// dictionary), which is the form instance::Materialize loads.

#ifndef KGM_INSTANCE_LOADER_H_
#define KGM_INSTANCE_LOADER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/superschema.h"
#include "metalog/catalog.h"
#include "pg/property_graph.h"
#include "vadalog/database.h"

namespace kgm::instance {

// Instance-construct labels (Figure 9).
inline constexpr char kISmNode[] = "I_SM_Node";
inline constexpr char kISmEdge[] = "I_SM_Edge";
inline constexpr char kISmAttribute[] = "I_SM_Attribute";
inline constexpr char kISmHasNodeAttr[] = "I_SM_HAS_NODE_ATTR";
inline constexpr char kISmHasEdgeAttr[] = "I_SM_HAS_EDGE_ATTR";
inline constexpr char kISmFrom[] = "I_SM_FROM";
inline constexpr char kISmTo[] = "I_SM_TO";
inline constexpr char kSmReferences[] = "SM_REFERENCES";

// Staging ("output view") labels used before the flush.
inline constexpr char kOSmNode[] = "O_SM_Node";
inline constexpr char kOSmEdge[] = "O_SM_Edge";
inline constexpr char kOSmAttribute[] = "O_SM_Attribute";
inline constexpr char kOSmPropUpdate[] = "O_SM_PropUpdate";
inline constexpr char kOSmHasAttr[] = "O_SM_HAS_ATTR";
inline constexpr char kOFrom[] = "O_FROM";
inline constexpr char kOTo[] = "O_TO";
inline constexpr char kOOn[] = "O_ON";

// What a load makes of D apart from the constructs themselves: the
// correspondence between data nodes and I_SM_Nodes, and counts.  The ids
// are dictionary ids: the super-schema's constructs come first, then the
// instance constructs in walk order, so an I_SM_Node's OID in the
// relational encoding is its id here.
struct InstanceMap {
  int64_t instance_oid = 234;  // as in Examples 6.1/6.2
  // data node id -> I_SM_Node id (kInvalidNode when skipped).
  std::vector<pg::NodeId> inode_of_data;
  // I_SM_Node id -> data node id (kInvalidNode for every other id).
  std::vector<pg::NodeId> data_of_inode;
  // Counts for reporting.
  size_t loaded_nodes = 0;
  size_t loaded_edges = 0;
  size_t loaded_attributes = 0;

  // The data node of the I_SM_Node whose OID is `oid`, or kInvalidNode.
  pg::NodeId DataNodeOf(const Value& oid) const;
};

// The loaded instance as a dictionary graph holding the super-schema plus
// the instance super-constructs.
struct LoadedInstance : InstanceMap {
  pg::PropertyGraph dict;
};

// The loaded instance as facts: `db` holds, row for row, what
// metalog::EncodeGraph(LoadInstance(...).dict, catalog) holds, and
// `catalog` equals GraphCatalog::FromGraph of that dictionary.
struct InstanceFacts : InstanceMap {
  vadalog::FactDb db;
  metalog::GraphCatalog catalog;
};

// Loads `data` into instance super-constructs.  Data nodes are classified
// by their *primary* type, the deepest schema node type among their labels
// (core::NodeTypeIndex); nodes without one are skipped.  Properties not
// declared (directly or by inheritance) on the node's type are skipped, and
// so are edges whose label is not a schema edge type or whose endpoint was
// skipped.
Result<LoadedInstance> LoadInstance(const core::SuperSchema& schema,
                                    const pg::PropertyGraph& data,
                                    int64_t instance_oid = 234);

// The same load, written as facts: the same constructs, OIDs and row order
// as encoding LoadInstance's dictionary with the catalog `layout`, without
// building that dictionary (the small super-schema part still goes
// through one; the instance never does).  `layout` must cover the
// dictionary's labels; null means `catalog`, i.e. the dictionary's own
// property lists.  A caller that compiles against `catalog` and finds its
// compilation adding properties to a dictionary label (a schema type named
// like one) loads again with the compilation's catalog as `layout`.
Result<InstanceFacts> LoadInstanceFacts(
    const core::SuperSchema& schema, const pg::PropertyGraph& data,
    int64_t instance_oid = 234, const metalog::GraphCatalog* layout = nullptr);

}  // namespace kgm::instance

#endif  // KGM_INSTANCE_LOADER_H_
