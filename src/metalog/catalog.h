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

// Reserved property that preserves the chase OID (a Skolem term) of
// derived nodes/edges across encode/decode round trips, keeping
// repeated materialization runs idempotent.
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

  std::vector<std::string> NodeLabels() const;
  std::vector<std::string> EdgeLabels() const;

  // Order-independent digest of the catalog contents (labels and their
  // canonical property lists).  Two catalogs with equal fingerprints
  // produce identical relational encodings, so a MetaLog program compiled
  // against one is valid against the other — the prepared-query cache
  // keys compiled programs by (source, fingerprint).
  uint64_t Fingerprint() const;

 private:
  std::map<std::string, std::vector<std::string>> node_labels_;
  std::map<std::string, std::vector<std::string>> edge_labels_;
};

// Encodes `graph` into relational facts per the catalog.  Node OIDs are the
// node ids as integers; edge OIDs the edge ids.  Labels absent from the
// catalog are skipped.
vadalog::FactDb EncodeGraph(const pg::PropertyGraph& graph,
                            const GraphCatalog& catalog);

// Statistics of a decode pass.
struct DecodeStats {
  size_t new_nodes = 0;
  size_t new_edges = 0;
  size_t updated_nodes = 0;
};

// Merges derived facts of `db` back into `graph` (the inverse mapping):
//  * node facts with a fresh OID (Skolem/null) create new nodes;
//  * node facts with a known OID merge their non-null properties;
//  * edge facts with fresh OIDs create edges between resolved endpoints.
// Facts whose predicates are not catalog labels are ignored.
Result<DecodeStats> DecodeGraph(const vadalog::FactDb& db,
                                const GraphCatalog& catalog,
                                pg::PropertyGraph* graph);

}  // namespace kgm::metalog

#endif  // KGM_METALOG_CATALOG_H_
