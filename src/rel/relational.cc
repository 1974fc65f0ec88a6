#include "rel/relational.h"

#include <algorithm>
#include <sstream>

#include "base/check.h"

namespace kgm::rel {

const char* ColumnTypeName(ColumnType t) {
  switch (t) {
    case ColumnType::kAny:
      return "any";
    case ColumnType::kBool:
      return "bool";
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
  }
  return "?";
}

bool ValueMatchesType(const Value& v, ColumnType t) {
  switch (t) {
    case ColumnType::kAny:
      return true;
    case ColumnType::kBool:
      return v.is_bool();
    case ColumnType::kInt:
      return v.is_int();
    case ColumnType::kDouble:
      return v.is_numeric();
    case ColumnType::kString:
      // Skolem-generated identifiers are admissible wherever strings are:
      // the chase materializes OIDs from the identifier set I into key
      // columns.
      return v.is_string() || v.is_skolem();
  }
  return false;
}

int TableSchema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (const std::string& col : schema_.primary_key) {
    int idx = schema_.ColumnIndex(col);
    KGM_CHECK_MSG(idx >= 0, ("primary key column missing: " + col).c_str());
    pk_positions_.push_back(idx);
  }
  for (const auto& unique : schema_.unique_keys) {
    std::vector<int> positions;
    for (const std::string& col : unique) {
      int idx = schema_.ColumnIndex(col);
      KGM_CHECK_MSG(idx >= 0, ("unique column missing: " + col).c_str());
      positions.push_back(idx);
    }
    unique_positions_.push_back(std::move(positions));
  }
  unique_indexes_.resize(unique_positions_.size());
}

Tuple Table::ProjectKey(const Tuple& row,
                        const std::vector<int>& positions) const {
  Tuple key;
  key.reserve(positions.size());
  for (int p : positions) key.push_back(row[p]);
  return key;
}

Status Table::Insert(Tuple row) {
  if (row.size() != schema_.arity()) {
    return InvalidArgument("table " + schema_.name + ": arity mismatch, got " +
                           std::to_string(row.size()) + " want " +
                           std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.columns[i];
    if (row[i].is_null()) {
      if (!col.nullable) {
        return InvalidArgument("table " + schema_.name + ": column " +
                               col.name + " is NOT NULL");
      }
      continue;
    }
    if (!ValueMatchesType(row[i], col.type)) {
      return InvalidArgument("table " + schema_.name + ": column " +
                             col.name + " expects " +
                             ColumnTypeName(col.type) + ", got " +
                             row[i].ToString());
    }
  }
  if (!pk_positions_.empty()) {
    Tuple key = ProjectKey(row, pk_positions_);
    if (pk_index_.count(key) > 0) {
      return AlreadyExists("table " + schema_.name +
                           ": duplicate primary key");
    }
    pk_index_.emplace(std::move(key), rows_.size());
  }
  for (size_t u = 0; u < unique_positions_.size(); ++u) {
    Tuple key = ProjectKey(row, unique_positions_[u]);
    if (unique_indexes_[u].count(key) > 0) {
      return AlreadyExists("table " + schema_.name +
                           ": unique constraint violated");
    }
    unique_indexes_[u].emplace(std::move(key), rows_.size());
  }
  rows_.push_back(std::move(row));
  return OkStatus();
}

void Table::InsertUnchecked(Tuple row) {
  KGM_CHECK(row.size() == schema_.arity());
  if (!pk_positions_.empty()) {
    pk_index_.emplace(ProjectKey(row, pk_positions_), rows_.size());
  }
  rows_.push_back(std::move(row));
}

std::vector<const Tuple*> Table::Lookup(std::string_view col,
                                        const Value& v) const {
  std::vector<const Tuple*> out;
  int idx = schema_.ColumnIndex(col);
  if (idx < 0) return out;
  for (const Tuple& row : rows_) {
    if (row[idx] == v) out.push_back(&row);
  }
  return out;
}

const Tuple* Table::FindByPrimaryKey(const Tuple& key) const {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return nullptr;
  return &rows_[it->second];
}

int64_t Table::FindRowIndexByPrimaryKey(const Tuple& key) const {
  auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return -1;
  return static_cast<int64_t>(it->second);
}

Status Table::UpdateValue(size_t row, std::string_view col, Value v) {
  if (row >= rows_.size()) {
    return OutOfRange("table " + schema_.name + ": row " +
                      std::to_string(row) + " out of range");
  }
  int idx = schema_.ColumnIndex(col);
  if (idx < 0) {
    return NotFound("table " + schema_.name + ": no column " +
                    std::string(col));
  }
  for (int p : pk_positions_) {
    if (p == idx) {
      return FailedPrecondition("table " + schema_.name +
                                ": cannot update primary-key column " +
                                std::string(col));
    }
  }
  for (const auto& positions : unique_positions_) {
    for (int p : positions) {
      if (p == idx) {
        return FailedPrecondition("table " + schema_.name +
                                  ": cannot update unique column " +
                                  std::string(col));
      }
    }
  }
  const ColumnDef& column = schema_.columns[idx];
  if (v.is_null()) {
    if (!column.nullable) {
      return InvalidArgument("table " + schema_.name + ": column " +
                             column.name + " is NOT NULL");
    }
  } else if (!ValueMatchesType(v, column.type)) {
    return InvalidArgument("table " + schema_.name + ": column " +
                           column.name + " expects " +
                           ColumnTypeName(column.type));
  }
  rows_[row][idx] = std::move(v);
  return OkStatus();
}

Status Database::CreateTable(TableSchema schema) {
  if (HasTable(schema.name)) {
    return AlreadyExists("table already exists: " + schema.name);
  }
  order_.push_back(schema.name);
  std::string name = schema.name;
  tables_.emplace(std::move(name), Table(std::move(schema)));
  return OkStatus();
}

bool Database::HasTable(std::string_view name) const {
  return tables_.find(name) != tables_.end();
}

Table* Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  return &it->second;
}

const Table* Database::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  return &it->second;
}

std::vector<std::string> Database::TableNames() const { return order_; }

Status Database::ValidateForeignKeys() const {
  for (const auto& [name, table] : tables_) {
    for (const ForeignKeyDef& fk : table.schema().foreign_keys) {
      const Table* target = GetTable(fk.ref_table);
      if (target == nullptr) {
        return FailedPrecondition("table " + name +
                                  ": foreign key references missing table " +
                                  fk.ref_table);
      }
      std::vector<int> src_pos;
      for (const std::string& col : fk.columns) {
        int idx = table.schema().ColumnIndex(col);
        if (idx < 0) {
          return FailedPrecondition("table " + name +
                                    ": foreign key column missing: " + col);
        }
        src_pos.push_back(idx);
      }
      std::vector<int> dst_pos;
      for (const std::string& col : fk.ref_columns) {
        int idx = target->schema().ColumnIndex(col);
        if (idx < 0) {
          return FailedPrecondition(
              "table " + fk.ref_table +
              ": referenced foreign key column missing: " + col);
        }
        dst_pos.push_back(idx);
      }
      // Build the set of referenced keys once per constraint.
      std::unordered_map<Tuple, bool, TupleHash> keys;
      for (const Tuple& row : target->rows()) {
        Tuple key;
        for (int p : dst_pos) key.push_back(row[p]);
        keys.emplace(std::move(key), true);
      }
      for (const Tuple& row : table.rows()) {
        Tuple key;
        bool has_null = false;
        for (int p : src_pos) {
          if (row[p].is_null()) has_null = true;
          key.push_back(row[p]);
        }
        if (has_null) continue;  // SQL semantics: NULL FK is not checked.
        if (keys.find(key) == keys.end()) {
          return FailedPrecondition("table " + name +
                                    ": dangling foreign key into " +
                                    fk.ref_table);
        }
      }
    }
  }
  return OkStatus();
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.size();
  return n;
}

namespace {
const char* SqlType(ColumnType t) {
  switch (t) {
    case ColumnType::kAny:
      return "TEXT";
    case ColumnType::kBool:
      return "BOOLEAN";
    case ColumnType::kInt:
      return "BIGINT";
    case ColumnType::kDouble:
      return "DOUBLE PRECISION";
    case ColumnType::kString:
      return "VARCHAR(255)";
  }
  return "TEXT";
}

std::string ColumnList(const std::vector<std::string>& cols) {
  std::string out;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ", ";
    out += cols[i];
  }
  return out;
}
}  // namespace

std::string RenderSqlDdl(const std::vector<TableSchema>& schemas) {
  std::ostringstream os;
  for (const TableSchema& schema : schemas) {
    os << "CREATE TABLE " << schema.name << " (\n";
    bool first = true;
    for (const ColumnDef& col : schema.columns) {
      if (!first) os << ",\n";
      first = false;
      os << "  " << col.name << " " << SqlType(col.type);
      if (!col.nullable) os << " NOT NULL";
    }
    if (!schema.primary_key.empty()) {
      os << ",\n  PRIMARY KEY (" << ColumnList(schema.primary_key) << ")";
    }
    for (const auto& unique : schema.unique_keys) {
      os << ",\n  UNIQUE (" << ColumnList(unique) << ")";
    }
    for (const ForeignKeyDef& fk : schema.foreign_keys) {
      os << ",\n  ";
      if (!fk.name.empty()) os << "CONSTRAINT " << fk.name << " ";
      os << "FOREIGN KEY (" << ColumnList(fk.columns) << ") REFERENCES "
         << fk.ref_table << " (" << ColumnList(fk.ref_columns) << ")";
    }
    os << "\n);\n\n";
  }
  return os.str();
}

}  // namespace kgm::rel
