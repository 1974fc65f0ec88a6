// Native (procedural) super-schema -> schema translators.
//
// These implement exactly the Eliminate/Copy semantics of Section 5 of the
// paper, but as direct C++ over the typed SuperSchema instead of MetaLog
// programs over the dictionary graph.  For the PG model the declarative
// path (pg_mapping.h) is the faithful mechanism and TranslateToPgNative
// serves as an independent oracle for equivalence testing and as the
// performance ablation baseline (DESIGN.md, E10).  The relational and CSV
// translators exist only here.
//
// This header also holds the layout of each non-PG target: the table,
// file and column names, the key columns and key values, and where an
// edge's endpoint keys go.  The translators build their schemas from it
// and the instance bridges (csv_io.h, instance/rel_bridge.h) move data
// under it, so an instance lands in the layout SSST translates.

#ifndef KGM_TRANSLATE_NATIVE_H_
#define KGM_TRANSLATE_NATIVE_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"
#include "core/models.h"
#include "core/superschema.h"
#include "pg/property_graph.h"
#include "rel/relational.h"

namespace kgm::translate {

// Section 5.2: the PG model mapping.  Children accumulate the labels of
// all ancestors; edges and attributes are inherited downwards.
Result<core::PgSchema> TranslateToPgNative(const core::SuperSchema& schema);

// --- Target layouts ---------------------------------------------------------

// The table (and CSV file stem) of a node or edge type, and the column of
// an attribute: their snake_case names.
std::string TableName(std::string_view type);
std::string ColumnName(std::string_view attribute);

// The AttrType -> ColumnType mapping the relational translation uses.
rel::ColumnType ToRelColumnType(core::AttrType t);

// The key of a node type.  KG-ER names an entity by its type's key, which
// a generalization hierarchy shares: the type's effective id attributes,
// or, for a type without any, the one surrogate column `<type>_oid`.
struct NodeKey {
  std::vector<core::AttributeDef> ids;  // empty for the surrogate key
  std::vector<std::string> columns;     // one per id, or `<type>_oid`

  rel::ColumnType ColumnType(size_t i) const;
};
NodeKey KeyOf(const core::SuperSchema& schema, std::string_view node);

// The key values of data node `id`: its id attribute values (null where
// absent), or its surrogate key, the `__oid` property as a string, else
// "n<id>".
std::vector<Value> KeyValues(const NodeKey& key,
                             const pg::PropertyGraph& data, pg::NodeId id);

// The inverse: stores the non-null `values` of `key` on node `id`.
void SetKeyProperties(const NodeKey& key, const std::vector<Value>& values,
                      pg::NodeId id, pg::PropertyGraph* data);

// Data nodes by entity: the root of their type's hierarchy and their key
// values.
using EntityMap =
    std::map<std::pair<std::string, std::vector<Value>>, pg::NodeId>;

// Where the relational target keeps an edge type (Figure 8): on the table
// of its owner, the functional side (the source when both are), or, when
// many-to-many, in a junction table of its own.
struct RelEdgeLayout {
  std::string table;
  std::string owner;             // empty for a junction table
  bool owner_is_source = false;  // the owner is the edge's `from`
  // The key columns of the two endpoints as `table` names them: the
  // owner's own key; the other side's with the prefix `<edge>_`; in a
  // junction `<from>_` and `<to>_` (`from_<from>_` and `to_<to>_` for a
  // self edge).
  std::vector<std::string> from_columns;
  std::vector<std::string> to_columns;
  // One per edge attribute: `<edge>_<attribute>` on an owner's table,
  // `<attribute>` in a junction.
  std::vector<std::string> attribute_columns;

  bool junction() const { return owner.empty(); }
};
RelEdgeLayout RelationalEdgeLayout(const core::SuperSchema& schema,
                                   const core::EdgeDef& edge);

// --- Relational and CSV translators -----------------------------------------

// Section 5.3: the relational model mapping.  Generalizations become one
// relation per member, keyed by the shared key, with a foreign key to the
// parent; one-to-many edges become foreign keys; many-to-many edges become
// junction relations.
Result<std::vector<rel::TableSchema>> TranslateToRelational(
    const core::SuperSchema& schema);

// A CSV "schema": one file per node type and one per edge type, in
// schema order.  A node file holds the type's key columns, then its
// non-id effective attributes; an edge file its endpoints' key columns,
// prefixed `from_` and `to_`, then the edge's attributes.
struct CsvFileSchema {
  std::string file_name;  // e.g. "physical_person.csv"
  std::vector<std::string> columns;
  // The attributes of the columns after the key columns, in order.
  std::vector<core::AttributeDef> attributes;
};

std::vector<CsvFileSchema> TranslateToCsv(const core::SuperSchema& schema);

}  // namespace kgm::translate

#endif  // KGM_TRANSLATE_NATIVE_H_
