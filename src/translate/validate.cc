#include "translate/validate.h"

#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "metalog/catalog.h"  // kOidProperty

namespace kgm::translate {

namespace {

bool TypeMatches(core::AttrType type, const Value& v) {
  switch (type) {
    case core::AttrType::kString:
    case core::AttrType::kDate:
      return v.is_string();
    case core::AttrType::kInt:
      return v.is_int();
    case core::AttrType::kDouble:
      return v.is_numeric();
    case core::AttrType::kBool:
      return v.is_bool();
  }
  return false;
}

// The node type (by schema) that declares `attr`, walking from `label`
// upwards; uniqueness is scoped to that declaring type.
std::string DeclaringLabel(const core::SuperSchema& schema,
                           const std::string& label,
                           const std::string& attr) {
  for (const std::string& type : schema.AccumulatedLabels(label)) {
    const core::NodeDef* node = schema.FindNode(type);
    if (node != nullptr && node->FindAttribute(attr) != nullptr) return type;
  }
  return label;
}

}  // namespace

const char* ViolationKindName(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kUnknownLabel:
      return "unknown_label";
    case Violation::Kind::kMissingLabel:
      return "missing_label";
    case Violation::Kind::kMissingRequired:
      return "missing_required";
    case Violation::Kind::kWrongType:
      return "wrong_type";
    case Violation::Kind::kUndeclaredProperty:
      return "undeclared_property";
    case Violation::Kind::kUniqueViolated:
      return "unique_violated";
    case Violation::Kind::kUnknownRelationship:
      return "unknown_relationship";
    case Violation::Kind::kBadEndpoint:
      return "bad_endpoint";
    case Violation::Kind::kCardinality:
      return "cardinality";
    case Violation::Kind::kEnumViolated:
      return "enum_violated";
    case Violation::Kind::kRangeViolated:
      return "range_violated";
  }
  return "?";
}

size_t ValidationReport::Count(Violation::Kind kind) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

std::string ValidationReport::ToString() const {
  std::ostringstream os;
  os << "validated " << checked_nodes << " nodes, " << checked_edges
     << " edges: "
     << (violations.empty() ? "conformant"
                            : std::to_string(violations.size()) +
                                  " violation(s)")
     << "\n";
  for (const Violation& v : violations) {
    os << "  [" << ViolationKindName(v.kind) << "] " << v.message << "\n";
  }
  return os.str();
}

ValidationReport ValidateInstance(const core::SuperSchema& schema,
                                  const core::PgSchema& pg_schema,
                                  const pg::PropertyGraph& data,
                                  const ValidateOptions& options) {
  ValidationReport report;
  auto add = [&](Violation::Kind kind, std::string message) {
    if (options.max_violations != 0 &&
        report.violations.size() >= options.max_violations) {
      return;
    }
    report.violations.push_back({kind, std::move(message)});
  };

  // Indexes.
  const core::NodeTypeIndex types(schema);
  std::map<std::string, const core::PgNodeType*> type_of;
  std::set<std::string> all_known_labels;
  for (const core::PgNodeType& nt : pg_schema.node_types) {
    type_of[nt.primary_label()] = &nt;
    for (const std::string& l : nt.labels) all_known_labels.insert(l);
  }
  std::set<std::string> edge_labels;
  for (const core::PgRelationshipType& rt : pg_schema.relationship_types) {
    edge_labels.insert(rt.name);
  }
  // (declaring label, attr, value) -> first node seen.
  std::map<std::tuple<std::string, std::string, std::string>, pg::NodeId>
      unique_seen;
  // (primary label, attribute) -> schema attribute, for modifier checks.
  std::map<std::pair<std::string, std::string>, core::AttributeDef>
      attr_defs;
  for (const core::NodeDef& n : schema.nodes()) {
    for (const core::AttributeDef& a : schema.EffectiveAttributes(n.name)) {
      attr_defs[{n.name, a.name}] = a;
    }
  }

  // --- nodes ------------------------------------------------------------------
  for (pg::NodeId id = 0; id < data.node_capacity(); ++id) {
    if (!data.HasNode(id)) continue;
    const pg::Node& node = data.node(id);
    ++report.checked_nodes;
    std::string node_name = "node " + std::to_string(id);

    const core::NodeTypeIndex::Type* primary = types.PrimaryOf(node.labels);
    auto primary_type =
        primary == nullptr ? type_of.end() : type_of.find(primary->def->name);
    const core::PgNodeType* nt =
        primary_type == type_of.end() ? nullptr : primary_type->second;
    if (nt == nullptr) {
      add(Violation::Kind::kUnknownLabel,
          node_name + " has no label naming a schema node type");
      continue;
    }
    if (nt->intensional && options.ignore_intensional) continue;
    // Accumulated labels must all be present; extra labels must be known.
    std::set<std::string> expected(nt->labels.begin(), nt->labels.end());
    for (const std::string& label : nt->labels) {
      if (!node.HasLabel(label)) {
        add(Violation::Kind::kMissingLabel,
            node_name + " (:" + nt->primary_label() + ") lacks label " +
                label);
      }
    }
    for (const std::string& label : node.labels) {
      if (expected.count(label) == 0 &&
          all_known_labels.count(label) == 0) {
        add(Violation::Kind::kUnknownLabel,
            node_name + " carries unknown label " + label);
      }
    }
    // Properties.
    std::set<std::string> declared;
    for (const core::PgPropertyDef& prop : nt->properties) {
      declared.insert(prop.name);
      auto it = node.props.find(prop.name);
      if (it == node.props.end() || it->second.is_null()) {
        if (prop.required &&
            !(prop.intensional && options.ignore_intensional)) {
          add(Violation::Kind::kMissingRequired,
              node_name + " (:" + nt->primary_label() +
                  ") misses required property " + prop.name);
        }
        continue;
      }
      if (!TypeMatches(prop.type, it->second)) {
        add(Violation::Kind::kWrongType,
            node_name + "." + prop.name + " = " + it->second.ToString() +
                " is not a " + core::AttrTypeName(prop.type));
      }
      // SM_AttributeModifier constraints (enum, range).
      auto def = attr_defs.find({nt->primary_label(), prop.name});
      if (def != attr_defs.end()) {
        for (const core::AttributeModifier& mod : def->second.modifiers) {
          if (mod.kind == core::AttributeModifier::Kind::kEnum) {
            bool allowed = false;
            for (const Value& v : mod.enum_values) {
              if (v == it->second) allowed = true;
            }
            if (!allowed) {
              add(Violation::Kind::kEnumViolated,
                  node_name + "." + prop.name + " = " +
                      it->second.ToString() +
                      " is not among the enumerated values");
            }
          } else if (mod.kind == core::AttributeModifier::Kind::kRange &&
                     it->second.is_numeric()) {
            double v = it->second.AsDouble();
            if (v < mod.min || v > mod.max) {
              add(Violation::Kind::kRangeViolated,
                  node_name + "." + prop.name + " = " +
                      it->second.ToString() + " outside [" +
                      std::to_string(mod.min) + ", " +
                      std::to_string(mod.max) + "]");
            }
          }
        }
      }
      if (prop.unique) {
        std::string scope =
            DeclaringLabel(schema, nt->primary_label(), prop.name);
        auto key = std::make_tuple(scope, prop.name,
                                   it->second.ToString());
        auto [pos, inserted] = unique_seen.emplace(key, id);
        if (!inserted) {
          add(Violation::Kind::kUniqueViolated,
              node_name + "." + prop.name + " duplicates node " +
                  std::to_string(pos->second) + " (" +
                  it->second.ToString() + ", unique within " + scope + ")");
        }
      }
    }
    for (const auto& [key, value] : node.props) {
      if (key == metalog::kOidProperty) continue;
      if (declared.count(key) == 0) {
        add(Violation::Kind::kUndeclaredProperty,
            node_name + " (:" + nt->primary_label() +
                ") carries undeclared property " + key);
      }
    }
  }

  // --- edges ------------------------------------------------------------------
  // Outgoing/incoming counts per (node, edge type) for cardinalities.
  std::unordered_map<uint64_t, size_t> out_count;
  std::unordered_map<uint64_t, size_t> in_count;
  std::map<std::string, size_t> edge_type_index;
  {
    size_t i = 0;
    for (const core::EdgeDef& e : schema.edges()) {
      edge_type_index[e.name] = i++;
    }
  }
  auto count_key = [&](pg::NodeId node, const std::string& label) {
    return node * edge_type_index.size() + edge_type_index[label];
  };

  for (pg::EdgeId id = 0; id < data.edge_capacity(); ++id) {
    if (!data.HasEdge(id)) continue;
    const pg::Edge& edge = data.edge(id);
    ++report.checked_edges;
    const core::EdgeDef* def = schema.FindEdge(edge.label);
    if (def == nullptr) {
      if (edge_labels.count(edge.label) == 0) {
        add(Violation::Kind::kUnknownRelationship,
            "edge " + std::to_string(id) + " has unknown label " +
                edge.label);
      }
      continue;
    }
    if (def->intensional && options.ignore_intensional) continue;
    // Endpoints must carry the (ancestor) labels of the edge definition.
    if (!data.node(edge.from).HasLabel(def->from)) {
      add(Violation::Kind::kBadEndpoint,
          "edge " + std::to_string(id) + " (:" + edge.label +
              ") starts at a node without label " + def->from);
    }
    if (!data.node(edge.to).HasLabel(def->to)) {
      add(Violation::Kind::kBadEndpoint,
          "edge " + std::to_string(id) + " (:" + edge.label +
              ") ends at a node without label " + def->to);
    }
    ++out_count[count_key(edge.from, edge.label)];
    ++in_count[count_key(edge.to, edge.label)];
  }

  // Cardinality bounds.
  for (const core::EdgeDef& def : schema.edges()) {
    if (def.intensional && options.ignore_intensional) continue;
    for (pg::NodeId id = 0; id < data.node_capacity(); ++id) {
      if (!data.HasNode(id)) continue;
      if (data.node(id).HasLabel(def.from)) {
        size_t n = out_count.count(count_key(id, def.name)) > 0
                       ? out_count[count_key(id, def.name)]
                       : 0;
        if (def.source.functional && n > 1) {
          add(Violation::Kind::kCardinality,
              "node " + std::to_string(id) + " has " + std::to_string(n) +
                  " outgoing :" + def.name + " edges (max 1)");
        }
        if (!def.source.optional && n == 0) {
          add(Violation::Kind::kCardinality,
              "node " + std::to_string(id) + " has no outgoing :" +
                  def.name + " edge (min 1)");
        }
      }
      if (data.node(id).HasLabel(def.to)) {
        size_t n = in_count.count(count_key(id, def.name)) > 0
                       ? in_count[count_key(id, def.name)]
                       : 0;
        if (def.target.functional && n > 1) {
          add(Violation::Kind::kCardinality,
              "node " + std::to_string(id) + " has " + std::to_string(n) +
                  " incoming :" + def.name + " edges (max 1)");
        }
        if (!def.target.optional && n == 0) {
          add(Violation::Kind::kCardinality,
              "node " + std::to_string(id) + " has no incoming :" +
                  def.name + " edge (min 1)");
        }
      }
    }
  }
  return report;
}

}  // namespace kgm::translate
