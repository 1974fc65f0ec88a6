#include "translate/csv_io.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>

#include "base/strings.h"
#include "translate/native.h"

namespace kgm::translate {

namespace {

using core::AttrType;
using core::AttributeDef;
using core::SuperSchema;

std::string CsvValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return "";
    case ValueKind::kBool:
      return v.AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(v.AsInt());
    case ValueKind::kDouble: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v.AsDoubleExact());
      return buffer;
    }
    case ValueKind::kString:
      return v.AsString();
    default:
      return v.ToString();
  }
}

Result<Value> ParseCsvValue(const std::string& field, AttrType type) {
  if (field.empty()) return Value();
  const char* first = field.data();
  const char* last = field.data() + field.size();
  switch (type) {
    case AttrType::kString:
    case AttrType::kDate:
      return Value(field);
    case AttrType::kInt: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(first, last, v);
      if (ec == std::errc::result_out_of_range) {
        return InvalidArgument("integer out of range: " + field);
      }
      if (ec != std::errc() || ptr != last) {
        return InvalidArgument("bad integer: " + field);
      }
      return Value(v);
    }
    case AttrType::kDouble: {
      double v = 0;
      auto [ptr, ec] = std::from_chars(first, last, v);
      if (ec == std::errc::result_out_of_range) {
        return InvalidArgument("double out of range: " + field);
      }
      if (ec != std::errc() || ptr != last) {
        return InvalidArgument("bad double: " + field);
      }
      return Value(v);
    }
    case AttrType::kBool:
      if (field == "true") return Value(true);
      if (field == "false") return Value(false);
      return InvalidArgument("bad boolean: " + field);
  }
  return Value(field);
}

// Appends `row` to `doc` as one CSV line.
void AppendRow(const std::vector<Value>& row, std::string* doc) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) *doc += ',';
    *doc += CsvEscape(CsvValue(row[i]));
  }
  *doc += '\n';
}

// Parses the key `key` from `fields` at `*col`, advancing it.
Result<std::vector<Value>> ParseKey(const NodeKey& key,
                                    const std::vector<std::string>& fields,
                                    size_t* col) {
  std::vector<Value> out;
  if (key.ids.empty()) {
    out.emplace_back(fields[(*col)++]);
    return out;
  }
  for (const AttributeDef& id : key.ids) {
    KGM_ASSIGN_OR_RETURN(Value v, ParseCsvValue(fields[(*col)++], id.type));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

std::string CsvEscape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Result<std::vector<std::string>> CsvSplitLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) return InvalidArgument("unterminated quote in CSV line");
  out.push_back(std::move(field));
  return out;
}

Result<std::vector<std::string>> CsvSplitRecords(const std::string& doc) {
  std::vector<std::string> out;
  std::string record;
  bool quoted = false;
  for (size_t i = 0; i < doc.size(); ++i) {
    char c = doc[i];
    if (quoted) {
      // Inside quotes only a '"' changes state; "" stays inside (the
      // escape is resolved by CsvSplitLine, which re-scans the record).
      if (c == '"' && !(i + 1 < doc.size() && doc[i + 1] == '"')) {
        quoted = false;
      } else if (c == '"') {
        record += c;
        ++i;
      }
      record += c;
      continue;
    }
    if (c == '"') {
      quoted = true;
      record += c;
    } else if (c == '\n') {
      if (!record.empty() && record.back() == '\r') record.pop_back();
      out.push_back(std::move(record));
      record.clear();
    } else {
      record += c;
    }
  }
  if (quoted) return InvalidArgument("unterminated quote in CSV document");
  if (!record.empty()) {
    if (record.back() == '\r') record.pop_back();
    out.push_back(std::move(record));
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

Result<std::map<std::string, std::string>> ExportCsv(
    const SuperSchema& schema, const pg::PropertyGraph& data) {
  KGM_RETURN_IF_ERROR(schema.Validate());
  const std::vector<CsvFileSchema> layout = TranslateToCsv(schema);
  std::vector<std::string> docs;
  for (const CsvFileSchema& file : layout) {
    docs.push_back(Join(file.columns, ",") + "\n");
  }
  const core::NodeTypeIndex types(schema);
  std::vector<NodeKey> keys;
  for (const core::NodeDef& node : schema.nodes()) {
    keys.push_back(KeyOf(schema, node.name));
  }
  auto key_of = [&](const std::string& type) -> const NodeKey& {
    return keys[types.Find(type)->position];
  };

  // Node files: each node is a row of its primary type's file.
  for (pg::NodeId id = 0; id < data.node_capacity(); ++id) {
    if (!data.HasNode(id)) continue;
    const core::NodeTypeIndex::Type* type =
        types.PrimaryOf(data.node(id).labels);
    if (type == nullptr) continue;
    std::vector<Value> row = KeyValues(keys[type->position], data, id);
    for (const AttributeDef& a : layout[type->position].attributes) {
      const Value* v = data.NodeProperty(id, a.name);
      row.push_back(v == nullptr ? Value() : *v);
    }
    AppendRow(row, &docs[type->position]);
  }

  // Edge files: endpoint keys plus attributes.
  const size_t num_nodes = schema.nodes().size();
  for (size_t e = 0; e < schema.edges().size(); ++e) {
    const core::EdgeDef& edge = schema.edges()[e];
    for (pg::EdgeId id : data.EdgesWithLabel(edge.name)) {
      const pg::Edge& instance = data.edge(id);
      std::vector<Value> row =
          KeyValues(key_of(edge.from), data, instance.from);
      for (Value& v : KeyValues(key_of(edge.to), data, instance.to)) {
        row.push_back(std::move(v));
      }
      for (const AttributeDef& a : layout[num_nodes + e].attributes) {
        auto it = instance.props.find(a.name);
        row.push_back(it == instance.props.end() ? Value() : it->second);
      }
      AppendRow(row, &docs[num_nodes + e]);
    }
  }

  std::map<std::string, std::string> files;
  for (size_t i = 0; i < layout.size(); ++i) {
    files[layout[i].file_name] = std::move(docs[i]);
  }
  return files;
}

Result<pg::PropertyGraph> ImportCsv(
    const SuperSchema& schema,
    const std::map<std::string, std::string>& files) {
  KGM_RETURN_IF_ERROR(schema.Validate());
  const std::vector<CsvFileSchema> layout = TranslateToCsv(schema);
  const core::NodeTypeIndex types(schema);
  const size_t num_nodes = schema.nodes().size();
  pg::PropertyGraph graph;
  EntityMap entity_of;

  // Node files first, then edge files: the layout's order.
  for (size_t f = 0; f < layout.size(); ++f) {
    const CsvFileSchema& file = layout[f];
    auto it = files.find(file.file_name);
    if (it == files.end()) continue;
    KGM_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                         CsvSplitRecords(it->second));
    if (lines.empty()) continue;
    KGM_ASSIGN_OR_RETURN(std::vector<std::string> header,
                         CsvSplitLine(lines[0]));
    const std::vector<std::string> key_columns(
        file.columns.begin(), file.columns.end() - file.attributes.size());
    if (header.size() < key_columns.size() ||
        !std::equal(key_columns.begin(), key_columns.end(), header.begin())) {
      return InvalidArgument(file.file_name +
                             ": header does not start with the key columns " +
                             Join(key_columns, ","));
    }
    // The attribute of each later header column; null for a column the
    // layout lacks, which is skipped.
    std::vector<const AttributeDef*> attribute_of(header.size(), nullptr);
    for (size_t col = key_columns.size(); col < header.size(); ++col) {
      for (size_t a = 0; a < file.attributes.size(); ++a) {
        if (file.columns[key_columns.size() + a] == header[col]) {
          attribute_of[col] = &file.attributes[a];
        }
      }
    }
    // The node types whose keys lead each row: the file's own, or the
    // edge's endpoints.
    const core::EdgeDef* edge =
        f < num_nodes ? nullptr : &schema.edges()[f - num_nodes];
    const std::vector<const core::NodeTypeIndex::Type*> ends =
        edge == nullptr ? std::vector{&types.types()[f]}
                        : std::vector{types.Find(edge->from),
                                      types.Find(edge->to)};
    std::vector<NodeKey> keys;
    for (const auto* end : ends) keys.push_back(KeyOf(schema, end->def->name));

    for (size_t li = 1; li < lines.size(); ++li) {
      KGM_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                           CsvSplitLine(lines[li]));
      if (fields.size() != header.size()) {
        return InvalidArgument(file.file_name + " line " +
                               std::to_string(li) + ": field count mismatch");
      }
      size_t col = 0;
      std::vector<std::vector<Value>> key_values;
      for (const NodeKey& key : keys) {
        KGM_ASSIGN_OR_RETURN(std::vector<Value> values,
                             ParseKey(key, fields, &col));
        key_values.push_back(std::move(values));
      }
      pg::PropertyMap props;
      for (; col < fields.size(); ++col) {
        if (attribute_of[col] == nullptr) continue;
        KGM_ASSIGN_OR_RETURN(
            Value v, ParseCsvValue(fields[col], attribute_of[col]->type));
        if (!v.is_null()) props[attribute_of[col]->name] = std::move(v);
      }
      if (edge == nullptr) {
        const pg::NodeId id = graph.AddNode(ends[0]->labels, std::move(props));
        SetKeyProperties(keys[0], key_values[0], id, &graph);
        if (!entity_of.emplace(std::pair(ends[0]->root(), key_values[0]), id)
                 .second) {
          return InvalidArgument(file.file_name + ": duplicate key at line " +
                                 std::to_string(li));
        }
        continue;
      }
      auto from = entity_of.find({ends[0]->root(), key_values[0]});
      auto to = entity_of.find({ends[1]->root(), key_values[1]});
      if (from == entity_of.end() || to == entity_of.end()) {
        return FailedPrecondition(file.file_name + " line " +
                                  std::to_string(li) +
                                  ": dangling endpoint reference");
      }
      graph.AddEdge(from->second, to->second, edge->name, std::move(props));
    }
  }
  return graph;
}

}  // namespace kgm::translate
