#include "core/superschema.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace kgm::core {

const char* AttrTypeName(AttrType t) {
  switch (t) {
    case AttrType::kString:
      return "string";
    case AttrType::kInt:
      return "int";
    case AttrType::kDouble:
      return "double";
    case AttrType::kBool:
      return "bool";
    case AttrType::kDate:
      return "date";
  }
  return "?";
}

std::string AttributeModifier::ToString() const {
  switch (kind) {
    case Kind::kUnique:
      return "unique";
    case Kind::kEnum: {
      std::string out = "enum{";
      for (size_t i = 0; i < enum_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += enum_values[i].ToString();
      }
      return out + "}";
    }
    case Kind::kRange: {
      std::ostringstream os;
      os << "range[" << min << ", " << max << "]";
      return os.str();
    }
  }
  return "?";
}

AttributeDef IdAttr(std::string name, AttrType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.is_id = true;
  return a;
}

AttributeDef Attr(std::string name, AttrType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

AttributeDef OptAttr(std::string name, AttrType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.optional = true;
  return a;
}

AttributeDef IntensionalAttr(std::string name, AttrType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.optional = true;
  a.intensional = true;
  return a;
}

std::string Cardinality::ToString() const {
  std::string out = "(";
  out += optional ? "0" : "1";
  out += ",";
  out += functional ? "1" : "N";
  out += ")";
  return out;
}

const AttributeDef* NodeDef::FindAttribute(std::string_view attr_name) const {
  for (const AttributeDef& a : attributes) {
    if (a.name == attr_name) return &a;
  }
  return nullptr;
}

const AttributeDef* EdgeDef::FindAttribute(std::string_view attr_name) const {
  for (const AttributeDef& a : attributes) {
    if (a.name == attr_name) return &a;
  }
  return nullptr;
}

NodeDef& SuperSchema::AddNode(std::string node_name,
                              std::vector<AttributeDef> attributes) {
  NodeDef node;
  node.name = std::move(node_name);
  node.attributes = std::move(attributes);
  nodes_.push_back(std::move(node));
  return nodes_.back();
}

NodeDef& SuperSchema::AddIntensionalNode(
    std::string node_name, std::vector<AttributeDef> attributes) {
  NodeDef& node = AddNode(std::move(node_name), std::move(attributes));
  node.intensional = true;
  return node;
}

EdgeDef& SuperSchema::AddEdge(std::string edge_name, std::string from,
                              std::string to, Cardinality source,
                              Cardinality target,
                              std::vector<AttributeDef> attributes) {
  EdgeDef edge;
  edge.name = std::move(edge_name);
  edge.from = std::move(from);
  edge.to = std::move(to);
  edge.source = source;
  edge.target = target;
  edge.attributes = std::move(attributes);
  edges_.push_back(std::move(edge));
  return edges_.back();
}

EdgeDef& SuperSchema::AddIntensionalEdge(
    std::string edge_name, std::string from, std::string to,
    std::vector<AttributeDef> attributes) {
  EdgeDef& edge = AddEdge(std::move(edge_name), std::move(from),
                          std::move(to), Cardinality::ZeroOrMore(),
                          Cardinality::ZeroOrMore(), std::move(attributes));
  edge.intensional = true;
  return edge;
}

GeneralizationDef& SuperSchema::AddGeneralization(
    std::string parent, std::vector<std::string> children, bool total,
    bool disjoint) {
  GeneralizationDef gen;
  gen.parent = std::move(parent);
  gen.children = std::move(children);
  gen.total = total;
  gen.disjoint = disjoint;
  generalizations_.push_back(std::move(gen));
  return generalizations_.back();
}

const NodeDef* SuperSchema::FindNode(std::string_view node_name) const {
  for (const NodeDef& n : nodes_) {
    if (n.name == node_name) return &n;
  }
  return nullptr;
}

const EdgeDef* SuperSchema::FindEdge(std::string_view edge_name) const {
  for (const EdgeDef& e : edges_) {
    if (e.name == edge_name) return &e;
  }
  return nullptr;
}

std::vector<std::string> SuperSchema::AncestorsOf(
    std::string_view node_name) const {
  std::vector<std::string> out;
  std::string current(node_name);
  // Single-parent hierarchies (validated); walk upwards.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const GeneralizationDef& g : generalizations_) {
      for (const std::string& child : g.children) {
        if (child == current) {
          out.push_back(g.parent);
          current = g.parent;
          moved = true;
          break;
        }
      }
      if (moved) break;
    }
    if (out.size() > nodes_.size()) break;  // cycle guard
  }
  return out;
}

std::vector<std::string> SuperSchema::AccumulatedLabels(
    std::string_view node_name) const {
  std::vector<std::string> out{std::string(node_name)};
  for (std::string& ancestor : AncestorsOf(node_name)) {
    out.push_back(std::move(ancestor));
  }
  return out;
}

std::vector<std::string> SuperSchema::DescendantsOf(
    std::string_view node_name) const {
  std::vector<std::string> out;
  std::vector<std::string> frontier{std::string(node_name)};
  std::set<std::string> seen;
  while (!frontier.empty()) {
    std::string current = frontier.back();
    frontier.pop_back();
    for (const GeneralizationDef& g : generalizations_) {
      if (g.parent != current) continue;
      for (const std::string& child : g.children) {
        if (seen.insert(child).second) {
          out.push_back(child);
          frontier.push_back(child);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SuperSchema::IsLeaf(std::string_view node_name) const {
  for (const GeneralizationDef& g : generalizations_) {
    if (g.parent == node_name) return false;
  }
  return true;
}

std::vector<std::string> SuperSchema::LeavesUnder(
    std::string_view node_name) const {
  std::vector<std::string> out;
  if (IsLeaf(node_name)) {
    out.emplace_back(node_name);
    return out;
  }
  for (const std::string& d : DescendantsOf(node_name)) {
    if (IsLeaf(d)) out.push_back(d);
  }
  return out;
}

std::string SuperSchema::RootOf(std::string_view node_name) const {
  std::vector<std::string> ancestors = AncestorsOf(node_name);
  return ancestors.empty() ? std::string(node_name) : ancestors.back();
}

std::vector<AttributeDef> SuperSchema::EffectiveAttributes(
    std::string_view node_name) const {
  std::vector<AttributeDef> out;
  const NodeDef* node = FindNode(node_name);
  if (node == nullptr) return out;
  out = node->attributes;
  for (const std::string& ancestor : AncestorsOf(node_name)) {
    const NodeDef* a = FindNode(ancestor);
    if (a == nullptr) continue;
    for (const AttributeDef& attr : a->attributes) {
      bool duplicate = false;
      for (const AttributeDef& existing : out) {
        if (existing.name == attr.name) duplicate = true;
      }
      if (!duplicate) out.push_back(attr);
    }
  }
  return out;
}

std::vector<AttributeDef> SuperSchema::EffectiveIdAttributes(
    std::string_view node_name) const {
  std::vector<AttributeDef> out;
  for (const AttributeDef& a : EffectiveAttributes(node_name)) {
    if (a.is_id) out.push_back(a);
  }
  return out;
}

Status SuperSchema::Validate() const {
  std::set<std::string> node_names;
  for (const NodeDef& n : nodes_) {
    if (!node_names.insert(n.name).second) {
      return FailedPrecondition("duplicate node type: " + n.name);
    }
    std::set<std::string> attr_names;
    for (const AttributeDef& a : n.attributes) {
      if (!attr_names.insert(a.name).second) {
        return FailedPrecondition("duplicate attribute " + a.name +
                                  " on node " + n.name);
      }
      if (a.is_id && a.optional) {
        return FailedPrecondition("identifying attribute " + a.name +
                                  " on node " + n.name +
                                  " cannot be optional");
      }
    }
  }
  std::set<std::string> edge_names;
  for (const EdgeDef& e : edges_) {
    // SM_Edges have one single SM_Type: super-schemas are simple graphs by
    // construction (Section 3.2).
    if (!edge_names.insert(e.name).second) {
      return FailedPrecondition("duplicate edge type: " + e.name);
    }
    if (node_names.count(e.from) == 0) {
      return FailedPrecondition("edge " + e.name +
                                " has unknown source node " + e.from);
    }
    if (node_names.count(e.to) == 0) {
      return FailedPrecondition("edge " + e.name +
                                " has unknown target node " + e.to);
    }
    std::set<std::string> attr_names;
    for (const AttributeDef& a : e.attributes) {
      if (!attr_names.insert(a.name).second) {
        return FailedPrecondition("duplicate attribute " + a.name +
                                  " on edge " + e.name);
      }
      if (a.is_id) {
        return FailedPrecondition("edge attribute " + a.name + " on " +
                                  e.name + " cannot be identifying");
      }
    }
  }
  // Generalizations: known members, single parent, no cycles.
  std::map<std::string, std::string> parent_of;
  for (const GeneralizationDef& g : generalizations_) {
    if (node_names.count(g.parent) == 0) {
      return FailedPrecondition("generalization parent unknown: " + g.parent);
    }
    if (g.children.empty()) {
      return FailedPrecondition("generalization of " + g.parent +
                                " has no children");
    }
    for (const std::string& child : g.children) {
      if (node_names.count(child) == 0) {
        return FailedPrecondition("generalization child unknown: " + child);
      }
      if (child == g.parent) {
        return FailedPrecondition("node " + child + " generalizes itself");
      }
      auto [it, inserted] = parent_of.emplace(child, g.parent);
      if (!inserted) {
        return FailedPrecondition("node " + child +
                                  " has multiple parents (" + it->second +
                                  ", " + g.parent + ")");
      }
    }
  }
  for (const NodeDef& n : nodes_) {
    // Cycle check by walking up with a step budget.
    std::string current = n.name;
    size_t steps = 0;
    while (parent_of.count(current) > 0) {
      current = parent_of[current];
      if (++steps > nodes_.size()) {
        return FailedPrecondition("generalization cycle involving " + n.name);
      }
    }
  }
  // Every non-intensional node must have a resolvable identifier.
  for (const NodeDef& n : nodes_) {
    if (n.intensional) continue;
    if (EffectiveIdAttributes(n.name).empty()) {
      return FailedPrecondition("node " + n.name +
                                " has no identifying attributes (own or "
                                "inherited)");
    }
  }
  return OkStatus();
}

std::string SuperSchema::Summary() const {
  std::ostringstream os;
  os << "schema " << name_ << ": " << nodes_.size() << " nodes, "
     << edges_.size() << " edges, " << generalizations_.size()
     << " generalizations";
  return os.str();
}

NodeTypeIndex::NodeTypeIndex(const SuperSchema& schema) {
  types_.reserve(schema.nodes().size());
  for (const NodeDef& node : schema.nodes()) {
    position_of_.emplace(node.name, types_.size());
    types_.push_back(
        {&node, types_.size(), schema.AccumulatedLabels(node.name)});
  }
}

const NodeTypeIndex::Type* NodeTypeIndex::Find(std::string_view name) const {
  auto it = position_of_.find(name);
  return it == position_of_.end() ? nullptr : &types_[it->second];
}

const NodeTypeIndex::Type* NodeTypeIndex::PrimaryOf(
    const std::vector<std::string>& labels) const {
  const Type* best = nullptr;
  for (const std::string& label : labels) {
    const Type* type = Find(label);
    if (type != nullptr && (best == nullptr || type->depth() > best->depth())) {
      best = type;
    }
  }
  return best;
}

}  // namespace kgm::core
