// Label catalog and the PG-to-relational mapping (step (1) of the MetaLog
// to Vadalog translation, Section 4 of the paper).
//
// L-labeled nodes with properties f1..fn become facts L(oid, f1, ..., fn);
// Le-labeled edges become facts Le(oid, from, to, f1, ..., fm).  Property
// columns follow the catalog's canonical (sorted) order; properties missing
// on a node/edge encode as null.

#ifndef KGM_METALOG_CATALOG_H_
#define KGM_METALOG_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "metalog/ast.h"
#include "pg/property_graph.h"
#include "vadalog/database.h"

namespace kgm::metalog {

// Reserved property that preserves the OID of derived nodes/edges across
// encode/decode round trips, keeping repeated materialization runs
// idempotent: a chase OID (a Skolem term), or an integer OID other than the
// entity's own id (an edge relabeled under the OID of the edge it came
// from, a surrogate key written by instance::rel_bridge).
inline constexpr char kOidProperty[] = "__oid";

// Canonical property lists per node label and edge label.
class GraphCatalog {
 public:
  GraphCatalog() = default;

  // Scans a graph: every label gets the union of properties observed on its
  // nodes/edges.
  static GraphCatalog FromGraph(const pg::PropertyGraph& graph);

  // Registers `props` for a node/edge label (merged with existing entries).
  void AddNodeLabel(const std::string& label,
                    const std::vector<std::string>& props = {});
  void AddEdgeLabel(const std::string& label,
                    const std::vector<std::string>& props = {});

  // Adds every label/property mentioned by a MetaLog program, so that
  // intensional labels (e.g. CONTROLS) are known before translation.
  // Labels used as both node and edge labels are rejected.
  Status AbsorbProgram(const MetaProgram& program);

  // Merges another catalog into this one.
  void Merge(const GraphCatalog& other);

  bool HasNodeLabel(const std::string& label) const;
  bool HasEdgeLabel(const std::string& label) const;

  // Sorted property names of a label (empty vector if unknown).
  const std::vector<std::string>& NodeProps(const std::string& label) const;
  const std::vector<std::string>& EdgeProps(const std::string& label) const;

  // Index of `prop` in the relational encoding of the label's facts, i.e.
  // 1 + prop position for nodes, 3 + prop position for edges; -1 if unknown.
  int NodePropColumn(const std::string& label, const std::string& prop) const;
  int EdgePropColumn(const std::string& label, const std::string& prop) const;

  // Fact arities: nodes = 1 + #props, edges = 3 + #props.
  size_t NodeArity(const std::string& label) const;
  size_t EdgeArity(const std::string& label) const;

  // True when every label of this catalog has the same property list in
  // `other`, so facts laid out by this catalog have the columns a program
  // compiled against `other` reads.  AbsorbProgram only widens a catalog;
  // a program naming an unseen property of a label changes its width.
  bool SameColumnsIn(const GraphCatalog& other) const;

  // The relation of `label` in `db` when this catalog has `label` as a
  // node label (an edge label when `is_edge`) and the relation has rows,
  // null otherwise.  A relation whose width is not the label's arity
  // returns FailedPrecondition.
  Result<const vadalog::Relation*> LabelRelation(const vadalog::FactDb& db,
                                                 const std::string& label,
                                                 bool is_edge) const;

  std::vector<std::string> NodeLabels() const;
  std::vector<std::string> EdgeLabels() const;

  // Order-independent digest of the catalog contents (labels and their
  // canonical property lists).  Two catalogs with equal fingerprints
  // produce identical relational encodings.  The service reads it
  // (Snapshot::catalog_fingerprint), to tell whether a publication changed
  // the catalog; the prepared-query cache keys by the full catalog
  // contents (PreparedCache::CanonicalKey), not by this digest.
  uint64_t Fingerprint() const;

 private:
  std::map<std::string, std::vector<std::string>> node_labels_;
  std::map<std::string, std::vector<std::string>> edge_labels_;
};

// Encodes `graph` into relational facts per the catalog.  Node OIDs are the
// node ids as integers, or the node's __oid when it carries one; edge OIDs
// likewise.  Each label relation holds its nodes/edges in id order.  Labels
// absent from the catalog are skipped.
vadalog::FactDb EncodeGraph(const pg::PropertyGraph& graph,
                            const GraphCatalog& catalog);

// Row-id bound of each relation of a database, by predicate.
using RowCounts = std::map<std::string, size_t>;

// The row-id bound (Relation::row_bound) of every relation of `db`.  Taken
// right after EncodeGraph, it marks where the graph's own encoding ends:
// Engine::Run only appends, so the rows past each bound are the ones the
// engine derived.
RowCounts CountRows(const vadalog::FactDb& db);

// Statistics of a decode pass.
struct DecodeStats {
  size_t new_nodes = 0;
  size_t new_edges = 0;
  size_t updated_nodes = 0;
};

// Merges derived facts of `db` back into `graph` (the inverse mapping):
//  * node facts with an unknown OID create new nodes;
//  * node facts with a known OID merge their non-null properties;
//  * edge facts create an edge unless one with the same (OID, endpoints,
//    label) exists, and merge their non-null properties into it otherwise.
// Each label relation is decoded from row `encoded_rows[label]` on (row 0
// for a label it lacks).  Passing CountRows of the freshly encoded graph
// skips the rows that merely re-encode `graph` — which also keeps a label's
// old row from reverting a property another label of the node derived.
//
// An OID names the lowest live id whose encoded OID (see EncodeGraph)
// equals it: an integer names the node/edge with that id unless that one
// carries __oid, and __oid may itself hold an integer.  A new node/edge
// keeps its OID in __oid unless the OID is its own integer id, so a rerun
// re-encodes and finds it under the same OID.
//
// Facts whose predicates are not catalog labels are ignored.  A label
// relation of the wrong width (GraphCatalog::LabelRelation) returns
// FailedPrecondition before the graph changes.
Result<DecodeStats> DecodeGraph(const vadalog::FactDb& db,
                                const GraphCatalog& catalog,
                                pg::PropertyGraph* graph,
                                const RowCounts& encoded_rows = {});

}  // namespace kgm::metalog

#endif  // KGM_METALOG_CATALOG_H_
