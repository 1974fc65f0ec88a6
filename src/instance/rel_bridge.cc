#include "instance/rel_bridge.h"

#include <algorithm>
#include <chrono>

#include "base/check.h"
#include "translate/native.h"

namespace kgm::instance {

namespace {

using core::AttributeDef;
using core::EdgeDef;
using core::NodeTypeIndex;
using core::SuperSchema;
using translate::NodeKey;
using translate::RelEdgeLayout;

// The positions of `columns` in `table`, each of which it must have.
Result<std::vector<int>> ColumnPositions(
    const rel::TableSchema& table, const std::vector<std::string>& columns) {
  std::vector<int> out;
  for (const std::string& col : columns) {
    int idx = table.ColumnIndex(col);
    if (idx < 0) {
      return FailedPrecondition("table " + table.name + " lacks column " +
                                col);
    }
    out.push_back(idx);
  }
  return out;
}

rel::Tuple Project(const rel::Tuple& row, const std::vector<int>& positions) {
  rel::Tuple out;
  for (int p : positions) out.push_back(row[p]);
  return out;
}

// Writes `values` into `row` at `table`'s `columns`.  GraphToRelational
// made `table` from the same layout, so it has all of them.
void SetColumns(const rel::TableSchema& table,
                const std::vector<std::string>& columns,
                const rel::Tuple& values, rel::Tuple* row) {
  for (size_t i = 0; i < columns.size(); ++i) {
    (*row)[table.ColumnIndex(columns[i])] = values[i];
  }
}

// Writes the attributes of edge instance `e` into `row`.
void SetEdgeAttributes(const rel::TableSchema& table, const EdgeDef& edge,
                       const RelEdgeLayout& layout, const pg::Edge& e,
                       rel::Tuple* row) {
  for (size_t i = 0; i < edge.attributes.size(); ++i) {
    auto it = e.props.find(edge.attributes[i].name);
    if (it != e.props.end()) {
      (*row)[table.ColumnIndex(layout.attribute_columns[i])] = it->second;
    }
  }
}

}  // namespace

Result<pg::PropertyGraph> RelationalToGraph(const SuperSchema& schema,
                                            const rel::Database& db) {
  KGM_RETURN_IF_ERROR(schema.Validate());
  const NodeTypeIndex types(schema);
  pg::PropertyGraph graph;
  translate::EntityMap entity_of;

  // --- entities --------------------------------------------------------------
  // Member relations deepest first, ties by name: the first to hold an
  // entity is its primary type (the deepest of the entity's member
  // types, the earlier name on a tie), which creates its node.
  std::vector<const NodeTypeIndex::Type*> members;
  for (const NodeTypeIndex::Type& type : types.types()) {
    members.push_back(&type);
  }
  std::sort(members.begin(), members.end(),
            [](const NodeTypeIndex::Type* a, const NodeTypeIndex::Type* b) {
              if (a->depth() != b->depth()) return a->depth() > b->depth();
              return a->def->name < b->def->name;
            });
  for (const NodeTypeIndex::Type* type : members) {
    const rel::Table* table =
        db.GetTable(translate::TableName(type->def->name));
    if (table == nullptr) continue;
    const NodeKey key = translate::KeyOf(schema, type->def->name);
    KGM_ASSIGN_OR_RETURN(std::vector<int> key_pos,
                         ColumnPositions(table->schema(), key.columns));
    // Own attributes of this member relation.
    std::vector<std::string> attribute_columns;
    for (const AttributeDef& attr : type->def->attributes) {
      attribute_columns.push_back(translate::ColumnName(attr.name));
    }
    KGM_ASSIGN_OR_RETURN(std::vector<int> attribute_pos,
                         ColumnPositions(table->schema(), attribute_columns));
    for (const rel::Tuple& row : table->rows()) {
      auto [it, inserted] = entity_of.try_emplace(
          std::pair(type->root(), Project(row, key_pos)), pg::kInvalidNode);
      if (inserted) {
        it->second = graph.AddNode(type->labels);
        translate::SetKeyProperties(key, it->first.second, it->second, &graph);
      }
      for (size_t i = 0; i < attribute_pos.size(); ++i) {
        const Value& v = row[attribute_pos[i]];
        if (!v.is_null()) {
          graph.SetNodeProperty(it->second, type->def->attributes[i].name, v);
        }
      }
    }
  }

  // --- edges: FK columns on the owner's relation, or junction relations ------
  for (const EdgeDef& edge : schema.edges()) {
    const RelEdgeLayout layout = translate::RelationalEdgeLayout(schema, edge);
    const rel::Table* table = db.GetTable(layout.table);
    if (table == nullptr) continue;
    const rel::TableSchema& ts = table->schema();
    KGM_ASSIGN_OR_RETURN(std::vector<int> from_pos,
                         ColumnPositions(ts, layout.from_columns));
    KGM_ASSIGN_OR_RETURN(std::vector<int> to_pos,
                         ColumnPositions(ts, layout.to_columns));
    KGM_ASSIGN_OR_RETURN(std::vector<int> attribute_pos,
                         ColumnPositions(ts, layout.attribute_columns));
    const std::string& from_root = types.Find(edge.from)->root();
    const std::string& to_root = types.Find(edge.to)->root();
    for (const rel::Tuple& row : table->rows()) {
      rel::Tuple from_key = Project(row, from_pos);
      rel::Tuple to_key = Project(row, to_pos);
      // A null foreign key: this owner has no such edge.
      const rel::Tuple& fk = layout.owner_is_source ? to_key : from_key;
      if (!layout.junction() &&
          std::any_of(fk.begin(), fk.end(),
                      [](const Value& v) { return v.is_null(); })) {
        continue;
      }
      auto from = entity_of.find({from_root, std::move(from_key)});
      auto to = entity_of.find({to_root, std::move(to_key)});
      if (from == entity_of.end() || to == entity_of.end()) {
        return FailedPrecondition("dangling " + edge.name + " row in " +
                                  ts.name);
      }
      pg::PropertyMap props;
      for (size_t i = 0; i < attribute_pos.size(); ++i) {
        const Value& v = row[attribute_pos[i]];
        if (!v.is_null()) props[edge.attributes[i].name] = v;
      }
      graph.AddEdge(from->second, to->second, edge.name, std::move(props));
    }
  }
  return graph;
}

Result<rel::Database> GraphToRelational(const SuperSchema& schema,
                                        const pg::PropertyGraph& data) {
  KGM_ASSIGN_OR_RETURN(std::vector<rel::TableSchema> tables,
                       translate::TranslateToRelational(schema));
  rel::Database db;
  for (rel::TableSchema& t : tables) {
    KGM_RETURN_IF_ERROR(db.CreateTable(std::move(t)));
  }
  const NodeTypeIndex types(schema);
  std::vector<NodeKey> keys;
  for (const core::NodeDef& node : schema.nodes()) {
    keys.push_back(translate::KeyOf(schema, node.name));
  }
  auto key_of = [&](const std::string& type) -> const NodeKey& {
    return keys[types.Find(type)->position];
  };
  std::vector<RelEdgeLayout> layouts;
  for (const EdgeDef& edge : schema.edges()) {
    layouts.push_back(translate::RelationalEdgeLayout(schema, edge));
  }

  // FK values owned by a member relation: for each functional edge whose
  // owner is `type`, the key of the single neighbour (if present).
  auto fill_fk_columns = [&](pg::NodeId id, const std::string& type,
                             const rel::TableSchema& table,
                             rel::Tuple* row) {
    for (size_t e = 0; e < layouts.size(); ++e) {
      const RelEdgeLayout& layout = layouts[e];
      if (layout.owner != type) continue;
      const EdgeDef& edge = schema.edges()[e];
      const bool source = layout.owner_is_source;
      // The single incident edge, if any.
      const pg::Edge* incident = nullptr;
      for (pg::EdgeId eid : source ? data.OutEdges(id) : data.InEdges(id)) {
        if (data.HasEdge(eid) && data.edge(eid).label == edge.name) {
          incident = &data.edge(eid);
          break;
        }
      }
      if (incident == nullptr) continue;
      const std::string& target = source ? edge.to : edge.from;
      SetColumns(table, source ? layout.to_columns : layout.from_columns,
                 translate::KeyValues(key_of(target), data,
                                      source ? incident->to : incident->from),
                 row);
      SetEdgeAttributes(table, edge, layout, *incident, row);
    }
  };

  // --- nodes: one row per member relation of the hierarchy --------------------
  for (pg::NodeId id = 0; id < data.node_capacity(); ++id) {
    if (!data.HasNode(id)) continue;
    const NodeTypeIndex::Type* type = types.PrimaryOf(data.node(id).labels);
    if (type == nullptr) continue;
    for (const std::string& member : type->labels) {
      rel::Table* table = db.GetTable(translate::TableName(member));
      KGM_CHECK(table != nullptr);
      const rel::TableSchema& ts = table->schema();
      rel::Tuple row(ts.arity());
      const NodeKey& key = key_of(member);
      SetColumns(ts, key.columns, translate::KeyValues(key, data, id), &row);
      for (const AttributeDef& attr : types.Find(member)->def->attributes) {
        const Value* v = data.NodeProperty(id, attr.name);
        if (v != nullptr) {
          row[ts.ColumnIndex(translate::ColumnName(attr.name))] = *v;
        }
      }
      fill_fk_columns(id, member, ts, &row);
      KGM_RETURN_IF_ERROR(table->Insert(std::move(row)));
    }
  }

  // --- junction rows for many-to-many edges -----------------------------------
  for (size_t e = 0; e < layouts.size(); ++e) {
    const RelEdgeLayout& layout = layouts[e];
    if (!layout.junction()) continue;
    const EdgeDef& edge = schema.edges()[e];
    rel::Table* table = db.GetTable(layout.table);
    KGM_CHECK(table != nullptr);
    const rel::TableSchema& ts = table->schema();
    for (pg::EdgeId eid : data.EdgesWithLabel(edge.name)) {
      const pg::Edge& instance = data.edge(eid);
      rel::Tuple row(ts.arity());
      SetColumns(ts, layout.from_columns,
                 translate::KeyValues(key_of(edge.from), data, instance.from),
                 &row);
      SetColumns(ts, layout.to_columns,
                 translate::KeyValues(key_of(edge.to), data, instance.to),
                 &row);
      SetEdgeAttributes(ts, edge, layout, instance, &row);
      Status inserted = table->Insert(std::move(row));
      // Parallel edges collapse onto one junction row.
      if (!inserted.ok() &&
          inserted.code() != StatusCode::kAlreadyExists) {
        return inserted;
      }
    }
  }
  KGM_RETURN_IF_ERROR(db.ValidateForeignKeys());
  return db;
}

Result<MaterializeStats> MaterializeRelational(
    const SuperSchema& schema, const std::string& sigma_source,
    rel::Database* db, const MaterializeOptions& options) {
  using Clock = std::chrono::steady_clock;
  auto t0 = Clock::now();
  KGM_ASSIGN_OR_RETURN(pg::PropertyGraph data,
                       RelationalToGraph(schema, *db));
  auto t1 = Clock::now();
  KGM_ASSIGN_OR_RETURN(MaterializeStats stats,
                       Materialize(schema, sigma_source, &data, options));
  auto t2 = Clock::now();
  KGM_ASSIGN_OR_RETURN(rel::Database result,
                       GraphToRelational(schema, data));
  auto t3 = Clock::now();
  stats.load_seconds += std::chrono::duration<double>(t1 - t0).count();
  stats.flush_seconds += std::chrono::duration<double>(t3 - t2).count();
  *db = std::move(result);
  return stats;
}

}  // namespace kgm::instance
