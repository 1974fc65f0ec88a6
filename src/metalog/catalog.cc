#include "metalog/catalog.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

namespace kgm::metalog {

namespace {

const std::vector<std::string> kNoProps;

void MergeProps(std::map<std::string, std::vector<std::string>>* labels,
                const std::string& label,
                const std::vector<std::string>& props) {
  std::vector<std::string>& existing = (*labels)[label];
  std::set<std::string> merged(existing.begin(), existing.end());
  merged.insert(props.begin(), props.end());
  existing.assign(merged.begin(), merged.end());
}

}  // namespace

GraphCatalog GraphCatalog::FromGraph(const pg::PropertyGraph& graph) {
  GraphCatalog catalog;
  for (pg::NodeId id = 0; id < graph.node_capacity(); ++id) {
    if (!graph.HasNode(id)) continue;
    const pg::Node& n = graph.node(id);
    std::vector<std::string> props;
    for (const auto& [k, v] : n.props) {
      if (k != kOidProperty) props.push_back(k);
    }
    for (const std::string& label : n.labels) {
      MergeProps(&catalog.node_labels_, label, props);
    }
  }
  for (pg::EdgeId id = 0; id < graph.edge_capacity(); ++id) {
    if (!graph.HasEdge(id)) continue;
    const pg::Edge& e = graph.edge(id);
    std::vector<std::string> props;
    for (const auto& [k, v] : e.props) {
      if (k != kOidProperty) props.push_back(k);
    }
    MergeProps(&catalog.edge_labels_, e.label, props);
  }
  return catalog;
}

void GraphCatalog::AddNodeLabel(const std::string& label,
                                const std::vector<std::string>& props) {
  MergeProps(&node_labels_, label, props);
}

void GraphCatalog::AddEdgeLabel(const std::string& label,
                                const std::vector<std::string>& props) {
  MergeProps(&edge_labels_, label, props);
}

Status GraphCatalog::AbsorbProgram(const MetaProgram& program) {
  auto absorb_atom = [this](const PgAtom& atom) {
    if (atom.label.empty()) return;
    std::vector<std::string> props;
    for (const PgProperty& p : atom.properties) props.push_back(p.name);
    if (atom.is_edge) {
      MergeProps(&edge_labels_, atom.label, props);
    } else {
      MergeProps(&node_labels_, atom.label, props);
    }
  };
  std::function<void(const PathPtr&)> absorb_path =
      [&](const PathPtr& path) {
        if (path->kind == PathKind::kEdge) {
          absorb_atom(path->edge);
          return;
        }
        for (const PathPtr& c : path->children) absorb_path(c);
      };
  auto absorb_pattern = [&](const GraphPattern& pattern) {
    for (const PgAtom& n : pattern.nodes) absorb_atom(n);
    for (const PathPtr& p : pattern.paths) absorb_path(p);
  };
  for (const MetaRule& rule : program.rules) {
    for (const GraphPattern& p : rule.body_patterns) absorb_pattern(p);
    for (const GraphPattern& p : rule.negated_patterns) absorb_pattern(p);
    for (const GraphPattern& p : rule.head_patterns) absorb_pattern(p);
  }
  for (const auto& [label, props] : node_labels_) {
    if (edge_labels_.count(label) > 0) {
      return FailedPrecondition("label used for both nodes and edges: " +
                                label);
    }
  }
  return OkStatus();
}

void GraphCatalog::Merge(const GraphCatalog& other) {
  for (const auto& [label, props] : other.node_labels_) {
    MergeProps(&node_labels_, label, props);
  }
  for (const auto& [label, props] : other.edge_labels_) {
    MergeProps(&edge_labels_, label, props);
  }
}

uint64_t GraphCatalog::Fingerprint() const {
  // The label maps are ordered, so hashing in iteration order is already
  // deterministic and content-defined.
  std::hash<std::string> hs;
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto fold = [&h, &hs](
      const std::map<std::string, std::vector<std::string>>& labels,
      uint64_t salt) {
    h = HashCombine(h, salt);
    for (const auto& [label, props] : labels) {
      h = HashCombine(h, hs(label));
      for (const std::string& p : props) h = HashCombine(h, hs(p));
      h = HashCombine(h, props.size());
    }
  };
  fold(node_labels_, 0x6e6f6465);  // "node"
  fold(edge_labels_, 0x65646765);  // "edge"
  return h;
}

bool GraphCatalog::HasNodeLabel(const std::string& label) const {
  return node_labels_.count(label) > 0;
}

bool GraphCatalog::HasEdgeLabel(const std::string& label) const {
  return edge_labels_.count(label) > 0;
}

const std::vector<std::string>& GraphCatalog::NodeProps(
    const std::string& label) const {
  auto it = node_labels_.find(label);
  return it == node_labels_.end() ? kNoProps : it->second;
}

const std::vector<std::string>& GraphCatalog::EdgeProps(
    const std::string& label) const {
  auto it = edge_labels_.find(label);
  return it == edge_labels_.end() ? kNoProps : it->second;
}

int GraphCatalog::NodePropColumn(const std::string& label,
                                 const std::string& prop) const {
  const std::vector<std::string>& props = NodeProps(label);
  for (size_t i = 0; i < props.size(); ++i) {
    if (props[i] == prop) return static_cast<int>(1 + i);
  }
  return -1;
}

int GraphCatalog::EdgePropColumn(const std::string& label,
                                 const std::string& prop) const {
  const std::vector<std::string>& props = EdgeProps(label);
  for (size_t i = 0; i < props.size(); ++i) {
    if (props[i] == prop) return static_cast<int>(3 + i);
  }
  return -1;
}

size_t GraphCatalog::NodeArity(const std::string& label) const {
  return 1 + NodeProps(label).size();
}

size_t GraphCatalog::EdgeArity(const std::string& label) const {
  return 3 + EdgeProps(label).size();
}

std::vector<std::string> GraphCatalog::NodeLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, props] : node_labels_) out.push_back(label);
  return out;
}

std::vector<std::string> GraphCatalog::EdgeLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, props] : edge_labels_) out.push_back(label);
  return out;
}

namespace {

// The OID a node/edge carries in the relational encoding: its preserved
// chase OID when present, its integer id otherwise.
Value NodeOid(const pg::Node& n) {
  auto it = n.props.find(kOidProperty);
  if (it != n.props.end()) return it->second;
  return Value(static_cast<int64_t>(n.id));
}

Value EdgeOid(const pg::Edge& e) {
  auto it = e.props.find(kOidProperty);
  if (it != e.props.end()) return it->second;
  return Value(static_cast<int64_t>(e.id));
}

// Edge identity in DecodeGraph is the full (oid, from, to) triple: under
// frontier Skolemization two derived edges may share an OID while
// differing in their endpoints.  The endpoints are the resolved node ids.
struct EdgeKey {
  Value oid;
  pg::NodeId from;
  pg::NodeId to;
  bool operator==(const EdgeKey&) const = default;
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    std::hash<pg::NodeId> id_hash;
    return HashCombine(HashCombine(k.oid.Hash(), id_hash(k.from)),
                       id_hash(k.to));
  }
};

}  // namespace

vadalog::FactDb EncodeGraph(const pg::PropertyGraph& graph,
                            const GraphCatalog& catalog) {
  vadalog::FactDb db;
  for (pg::NodeId id = 0; id < graph.node_capacity(); ++id) {
    if (!graph.HasNode(id)) continue;
    const pg::Node& n = graph.node(id);
    Value oid = NodeOid(n);
    for (const std::string& label : n.labels) {
      if (!catalog.HasNodeLabel(label)) continue;
      const std::vector<std::string>& props = catalog.NodeProps(label);
      vadalog::Tuple t;
      t.reserve(1 + props.size());
      t.push_back(oid);
      for (const std::string& prop : props) {
        auto it = n.props.find(prop);
        t.push_back(it == n.props.end() ? Value() : it->second);
      }
      db.Add(label, std::move(t));
    }
  }
  for (pg::EdgeId id = 0; id < graph.edge_capacity(); ++id) {
    if (!graph.HasEdge(id)) continue;
    const pg::Edge& e = graph.edge(id);
    if (!catalog.HasEdgeLabel(e.label)) continue;
    const std::vector<std::string>& props = catalog.EdgeProps(e.label);
    vadalog::Tuple t;
    t.reserve(3 + props.size());
    t.push_back(EdgeOid(e));
    t.push_back(NodeOid(graph.node(e.from)));
    t.push_back(NodeOid(graph.node(e.to)));
    for (const std::string& prop : props) {
      auto it = e.props.find(prop);
      t.push_back(it == e.props.end() ? Value() : it->second);
    }
    db.Add(e.label, std::move(t));
  }
  return db;
}

Result<DecodeStats> DecodeGraph(const vadalog::FactDb& db,
                                const GraphCatalog& catalog,
                                pg::PropertyGraph* graph) {
  // Validate every label relation's width before touching the graph.
  auto check_width = [&db](const std::string& label,
                           size_t expected) -> Status {
    const vadalog::Relation* rel = db.Get(label);
    if (rel == nullptr || rel->size() == 0 || rel->arity() == expected) {
      return OkStatus();
    }
    return FailedPrecondition("relation " + label + " has width " +
                              std::to_string(rel->arity()) +
                              " but its catalog label decodes " +
                              std::to_string(expected) + " columns");
  };
  for (const std::string& label : catalog.NodeLabels()) {
    KGM_RETURN_IF_ERROR(check_width(label, catalog.NodeArity(label)));
  }
  for (const std::string& label : catalog.EdgeLabels()) {
    KGM_RETURN_IF_ERROR(check_width(label, catalog.EdgeArity(label)));
  }
  DecodeStats stats;
  std::unordered_map<Value, pg::NodeId, ValueHash> node_of;
  std::unordered_map<EdgeKey, pg::EdgeId, EdgeKeyHash> edge_of;
  for (pg::NodeId id = 0; id < graph->node_capacity(); ++id) {
    if (graph->HasNode(id)) node_of.emplace(NodeOid(graph->node(id)), id);
  }
  for (pg::EdgeId id = 0; id < graph->edge_capacity(); ++id) {
    if (!graph->HasEdge(id)) continue;
    const pg::Edge& e = graph->edge(id);
    edge_of.emplace(EdgeKey{EdgeOid(e), e.from, e.to}, id);
  }
  // Pass 1: nodes.  Later facts win property conflicts: monotonic
  // aggregates emit improving values over time, and relation order is
  // derivation order.
  for (const std::string& label : catalog.NodeLabels()) {
    const vadalog::Relation* rel = db.Get(label);
    if (rel == nullptr) continue;
    const std::vector<std::string>& props = catalog.NodeProps(label);
    for (const vadalog::Tuple& t : rel->tuples()) {
      const Value& oid = t[0];
      auto it = node_of.find(oid);
      pg::NodeId id;
      bool is_new = it == node_of.end();
      if (is_new) {
        id = graph->AddNode(label);
        if (!oid.is_int()) {
          graph->SetNodeProperty(id, kOidProperty, oid);
        }
        node_of.emplace(oid, id);
        ++stats.new_nodes;
      } else {
        id = it->second;
        if (!graph->node(id).HasLabel(label)) {
          graph->AddLabel(id, label);
          ++stats.updated_nodes;
        }
      }
      for (size_t i = 0; i < props.size(); ++i) {
        if (t[1 + i].is_null()) continue;
        const Value* existing = graph->NodeProperty(id, props[i]);
        if (existing == nullptr || !(*existing == t[1 + i])) {
          graph->SetNodeProperty(id, props[i], t[1 + i]);
          if (!is_new && existing != nullptr) ++stats.updated_nodes;
        }
      }
    }
  }
  // Pass 2: edges.
  for (const std::string& label : catalog.EdgeLabels()) {
    const vadalog::Relation* rel = db.Get(label);
    if (rel == nullptr) continue;
    const std::vector<std::string>& props = catalog.EdgeProps(label);
    for (const vadalog::Tuple& t : rel->tuples()) {
      const Value& oid = t[0];
      // Resolve the endpoints before the existing-edge lookup: an existing
      // edge's endpoints always resolve, so failing here changes no result.
      auto from_it = node_of.find(t[1]);
      auto to_it = node_of.find(t[2]);
      if (from_it == node_of.end() || to_it == node_of.end()) {
        return FailedPrecondition("derived edge " + label +
                                  " references unresolved node OID " +
                                  (from_it == node_of.end() ? t[1] : t[2])
                                      .ToString());
      }
      EdgeKey key{oid, from_it->second, to_it->second};
      auto existing = edge_of.find(key);
      if (existing != edge_of.end() &&
          graph->edge(existing->second).label == label) {
        pg::EdgeId eid = existing->second;
        for (size_t i = 0; i < props.size(); ++i) {
          if (t[3 + i].is_null()) continue;
          const Value* old = graph->EdgeProperty(eid, props[i]);
          if (old == nullptr || !(*old == t[3 + i])) {
            graph->SetEdgeProperty(eid, props[i], t[3 + i]);
          }
        }
        continue;
      }
      pg::PropertyMap prop_map;
      for (size_t i = 0; i < props.size(); ++i) {
        if (!t[3 + i].is_null()) prop_map[props[i]] = t[3 + i];
      }
      if (!oid.is_int()) prop_map[kOidProperty] = oid;
      pg::EdgeId eid = graph->AddEdge(from_it->second, to_it->second, label,
                                      std::move(prop_map));
      edge_of.emplace(std::move(key), eid);
      ++stats.new_edges;
    }
  }
  return stats;
}

}  // namespace kgm::metalog
