#include "translate/native.h"

#include <map>
#include <set>

#include "base/strings.h"
#include "metalog/catalog.h"  // kOidProperty

namespace kgm::translate {

using core::AttrType;
using core::AttributeDef;
using core::AttributeModifier;
using core::EdgeDef;
using core::NodeDef;
using core::PgNodeType;
using core::PgPropertyDef;
using core::PgRelationshipType;
using core::PgSchema;
using core::SuperSchema;

namespace {

bool HasUniqueModifier(const AttributeDef& a) {
  for (const AttributeModifier& m : a.modifiers) {
    if (m.kind == AttributeModifier::Kind::kUnique) return true;
  }
  return false;
}

PgPropertyDef ToPgProperty(const AttributeDef& a) {
  PgPropertyDef p;
  p.name = a.name;
  p.type = a.type;
  p.required = !a.optional && !a.intensional;
  p.unique = a.is_id || HasUniqueModifier(a);
  p.intensional = a.intensional;
  return p;
}

// Self plus all descendants.
std::vector<std::string> SelfAndDescendants(const SuperSchema& schema,
                                            const std::string& node) {
  std::vector<std::string> out{node};
  for (const std::string& d : schema.DescendantsOf(node)) out.push_back(d);
  return out;
}

// Adds `columns`, typed as `key`'s, to `table` as a foreign key named
// `name` to the table of `ref_type`, and to the primary key when
// `primary`.
void AddForeignKey(std::string name, const std::vector<std::string>& columns,
                   const NodeKey& key, const std::string& ref_type,
                   bool nullable, bool primary, rel::TableSchema* table) {
  rel::ForeignKeyDef fk;
  fk.name = std::move(name);
  fk.ref_table = TableName(ref_type);
  for (size_t i = 0; i < columns.size(); ++i) {
    table->columns.push_back({columns[i], key.ColumnType(i), nullable});
    if (primary) table->primary_key.push_back(columns[i]);
    fk.columns.push_back(columns[i]);
    fk.ref_columns.push_back(key.columns[i]);
  }
  table->foreign_keys.push_back(std::move(fk));
}

}  // namespace

std::string TableName(std::string_view type) { return ToSnakeCase(type); }

std::string ColumnName(std::string_view attribute) {
  return ToSnakeCase(attribute);
}

rel::ColumnType ToRelColumnType(AttrType t) {
  switch (t) {
    case AttrType::kString:
      return rel::ColumnType::kString;
    case AttrType::kInt:
      return rel::ColumnType::kInt;
    case AttrType::kDouble:
      return rel::ColumnType::kDouble;
    case AttrType::kBool:
      return rel::ColumnType::kBool;
    case AttrType::kDate:
      return rel::ColumnType::kString;  // ISO-8601 strings
  }
  return rel::ColumnType::kAny;
}

rel::ColumnType NodeKey::ColumnType(size_t i) const {
  return ids.empty() ? rel::ColumnType::kString : ToRelColumnType(ids[i].type);
}

NodeKey KeyOf(const SuperSchema& schema, std::string_view node) {
  NodeKey key;
  key.ids = schema.EffectiveIdAttributes(node);
  for (const AttributeDef& a : key.ids) {
    key.columns.push_back(ColumnName(a.name));
  }
  if (key.ids.empty()) key.columns.push_back(TableName(node) + "_oid");
  return key;
}

std::vector<Value> KeyValues(const NodeKey& key, const pg::PropertyGraph& data,
                             pg::NodeId id) {
  std::vector<Value> out;
  if (key.ids.empty()) {
    const Value* oid = data.NodeProperty(id, metalog::kOidProperty);
    if (oid == nullptr) {
      out.emplace_back("n" + std::to_string(id));
    } else {
      out.push_back(oid->is_string() ? *oid : Value(oid->ToString()));
    }
    return out;
  }
  for (const AttributeDef& a : key.ids) {
    const Value* v = data.NodeProperty(id, a.name);
    out.push_back(v == nullptr ? Value() : *v);
  }
  return out;
}

void SetKeyProperties(const NodeKey& key, const std::vector<Value>& values,
                      pg::NodeId id, pg::PropertyGraph* data) {
  if (key.ids.empty()) {
    data->SetNodeProperty(id, metalog::kOidProperty, values[0]);
    return;
  }
  for (size_t i = 0; i < key.ids.size(); ++i) {
    if (!values[i].is_null()) {
      data->SetNodeProperty(id, key.ids[i].name, values[i]);
    }
  }
}

RelEdgeLayout RelationalEdgeLayout(const SuperSchema& schema,
                                   const EdgeDef& edge) {
  RelEdgeLayout layout;
  std::string from_prefix;
  std::string to_prefix;
  std::string attribute_prefix;
  if (edge.many_to_many()) {
    // Self-referencing edges would collide on column names, so they get
    // from_/to_ prefixes.
    const bool self_edge = edge.from == edge.to;
    layout.table = TableName(edge.name);
    from_prefix = (self_edge ? "from_" : "") + TableName(edge.from) + "_";
    to_prefix = (self_edge ? "to_" : "") + TableName(edge.to) + "_";
  } else {
    layout.owner_is_source = edge.source.functional;
    layout.owner = layout.owner_is_source ? edge.from : edge.to;
    layout.table = TableName(layout.owner);
    attribute_prefix = TableName(edge.name) + "_";
    (layout.owner_is_source ? to_prefix : from_prefix) = attribute_prefix;
  }
  for (const std::string& col : KeyOf(schema, edge.from).columns) {
    layout.from_columns.push_back(from_prefix + col);
  }
  for (const std::string& col : KeyOf(schema, edge.to).columns) {
    layout.to_columns.push_back(to_prefix + col);
  }
  for (const AttributeDef& a : edge.attributes) {
    layout.attribute_columns.push_back(attribute_prefix + ColumnName(a.name));
  }
  return layout;
}

Result<PgSchema> TranslateToPgNative(const SuperSchema& schema) {
  KGM_RETURN_IF_ERROR(schema.Validate());
  PgSchema out;
  out.name = schema.name() + "_pg";

  for (const NodeDef& node : schema.nodes()) {
    PgNodeType nt;
    nt.intensional = node.intensional;
    // Eliminate.DeleteGeneralizations(1): types of all ancestors
    // accumulate on the node.
    nt.labels = schema.AccumulatedLabels(node.name);
    // Eliminate.DeleteGeneralizations(2): ancestor attributes are copied
    // down.
    for (const AttributeDef& a : schema.EffectiveAttributes(node.name)) {
      nt.properties.push_back(ToPgProperty(a));
    }
    out.node_types.push_back(std::move(nt));
  }

  for (const EdgeDef& edge : schema.edges()) {
    // Eliminate.DeleteGeneralizations(3)+(4): the edge is inherited by
    // every descendant of each endpoint.
    for (const std::string& f : SelfAndDescendants(schema, edge.from)) {
      for (const std::string& t : SelfAndDescendants(schema, edge.to)) {
        PgRelationshipType rt;
        rt.name = edge.name;
        rt.from = f;
        rt.to = t;
        rt.intensional = edge.intensional;
        for (const AttributeDef& a : edge.attributes) {
          rt.properties.push_back(ToPgProperty(a));
        }
        out.relationship_types.push_back(std::move(rt));
      }
    }
  }

  out.Canonicalize();
  return out;
}

Result<std::vector<rel::TableSchema>> TranslateToRelational(
    const SuperSchema& schema) {
  KGM_RETURN_IF_ERROR(schema.Validate());
  std::vector<rel::TableSchema> tables;
  std::map<std::string, size_t> table_index;  // node name -> tables index

  // Pass 1: one relation per SM_Node ("a relation for each generalization
  // member", Section 5.3).
  for (const NodeDef& node : schema.nodes()) {
    rel::TableSchema table;
    table.name = TableName(node.name);
    std::set<std::string> present;
    // Keys first (inherited from the hierarchy root when not own).
    const NodeKey key = KeyOf(schema, node.name);
    for (size_t i = 0; i < key.columns.size(); ++i) {
      table.columns.push_back(
          {key.columns[i], key.ColumnType(i), /*nullable=*/false});
      table.primary_key.push_back(key.columns[i]);
      present.insert(key.columns[i]);
    }
    // Own non-id attributes.
    for (const AttributeDef& a : node.attributes) {
      std::string col = ColumnName(a.name);
      if (present.count(col) > 0) continue;
      table.columns.push_back(
          {col, ToRelColumnType(a.type), a.optional || a.intensional});
      present.insert(col);
      if (HasUniqueModifier(a)) table.unique_keys.push_back({col});
    }
    // Child relations reference their parent through the shared key.
    std::vector<std::string> ancestors = schema.AncestorsOf(node.name);
    if (!ancestors.empty()) {
      rel::ForeignKeyDef fk;
      fk.name = "fk_" + table.name + "_is_a";
      fk.columns = key.columns;
      fk.ref_columns = key.columns;
      fk.ref_table = TableName(ancestors.front());
      table.foreign_keys.push_back(std::move(fk));
    }
    table_index[node.name] = tables.size();
    tables.push_back(std::move(table));
  }

  // Pass 2: edges.
  for (const EdgeDef& edge : schema.edges()) {
    const RelEdgeLayout layout = RelationalEdgeLayout(schema, edge);
    if (!layout.junction()) {
      // The owner holds the foreign key (Eliminate.CopyOneToManyEdges;
      // one-to-one edges are handled the same way, with the source side
      // chosen as the owner).
      const bool source = layout.owner_is_source;
      const std::string& target = source ? edge.to : edge.from;
      const bool owner_optional =
          source ? edge.source.optional : edge.target.optional;
      rel::TableSchema& table = tables[table_index[layout.owner]];
      AddForeignKey("fk_" + table.name + "_" + TableName(edge.name),
                    source ? layout.to_columns : layout.from_columns,
                    KeyOf(schema, target), target, owner_optional,
                    /*primary=*/false, &table);
      // Edge attributes live on the owning relation
      // (CopyOneToManyEdges(2)).
      for (size_t i = 0; i < edge.attributes.size(); ++i) {
        table.columns.push_back({layout.attribute_columns[i],
                                 ToRelColumnType(edge.attributes[i].type),
                                 true});
      }
      if (edge.source.functional && edge.target.functional) {
        // One-to-one: the foreign key is also unique.
        table.unique_keys.push_back(table.foreign_keys.back().columns);
      }
    } else {
      // Many-to-many: junction relation
      // (Eliminate.DeleteManyToManyEdges).
      rel::TableSchema junction;
      junction.name = layout.table;
      AddForeignKey("fk_" + junction.name + "_from", layout.from_columns,
                    KeyOf(schema, edge.from), edge.from, /*nullable=*/false,
                    /*primary=*/true, &junction);
      AddForeignKey("fk_" + junction.name + "_to", layout.to_columns,
                    KeyOf(schema, edge.to), edge.to, /*nullable=*/false,
                    /*primary=*/true, &junction);
      for (size_t i = 0; i < edge.attributes.size(); ++i) {
        const AttributeDef& a = edge.attributes[i];
        junction.columns.push_back({layout.attribute_columns[i],
                                    ToRelColumnType(a.type),
                                    a.optional || a.intensional});
      }
      tables.push_back(std::move(junction));
    }
  }
  return tables;
}

std::vector<CsvFileSchema> TranslateToCsv(const SuperSchema& schema) {
  std::vector<CsvFileSchema> out;
  for (const NodeDef& node : schema.nodes()) {
    CsvFileSchema file{TableName(node.name) + ".csv",
                       KeyOf(schema, node.name).columns, {}};
    for (const AttributeDef& a : schema.EffectiveAttributes(node.name)) {
      if (a.is_id) continue;
      file.columns.push_back(ColumnName(a.name));
      file.attributes.push_back(a);
    }
    out.push_back(std::move(file));
  }
  for (const EdgeDef& edge : schema.edges()) {
    CsvFileSchema file{TableName(edge.name) + ".csv", {}, edge.attributes};
    for (const std::string& col : KeyOf(schema, edge.from).columns) {
      file.columns.push_back("from_" + col);
    }
    for (const std::string& col : KeyOf(schema, edge.to).columns) {
      file.columns.push_back("to_" + col);
    }
    for (const AttributeDef& a : edge.attributes) {
      file.columns.push_back(ColumnName(a.name));
    }
    out.push_back(std::move(file));
  }
  return out;
}

}  // namespace kgm::translate
