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
  // One growing property set per label, turned into sorted lists once.
  std::map<std::string, std::set<std::string>> node_props;
  std::map<std::string, std::set<std::string>> edge_props;
  auto collect = [](const pg::PropertyMap& props,
                    std::set<std::string>* into) {
    for (const auto& [k, v] : props) {
      if (k != kOidProperty) into->insert(k);
    }
  };
  for (pg::NodeId id = 0; id < graph.node_capacity(); ++id) {
    if (!graph.HasNode(id)) continue;
    const pg::Node& n = graph.node(id);
    for (const std::string& label : n.labels) {
      collect(n.props, &node_props[label]);
    }
  }
  for (pg::EdgeId id = 0; id < graph.edge_capacity(); ++id) {
    if (!graph.HasEdge(id)) continue;
    const pg::Edge& e = graph.edge(id);
    collect(e.props, &edge_props[e.label]);
  }
  GraphCatalog catalog;
  for (const auto& [label, props] : node_props) {
    catalog.node_labels_[label].assign(props.begin(), props.end());
  }
  for (const auto& [label, props] : edge_props) {
    catalog.edge_labels_[label].assign(props.begin(), props.end());
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
  for (const MetaRule& rule : program.rules) {
    ForEachRuleAtom(rule, [this](const PgAtom& atom, PatternRole, bool) {
      if (atom.label.empty()) return;
      std::vector<std::string> props;
      for (const PgProperty& p : atom.properties) props.push_back(p.name);
      MergeProps(atom.is_edge ? &edge_labels_ : &node_labels_, atom.label,
                 props);
    });
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

bool GraphCatalog::SameColumnsIn(const GraphCatalog& other) const {
  for (const auto& [label, props] : node_labels_) {
    if (other.NodeProps(label) != props) return false;
  }
  for (const auto& [label, props] : edge_labels_) {
    if (other.EdgeProps(label) != props) return false;
  }
  return true;
}

Result<const vadalog::Relation*> GraphCatalog::LabelRelation(
    const vadalog::FactDb& db, const std::string& label, bool is_edge) const {
  const auto& labels = is_edge ? edge_labels_ : node_labels_;
  auto it = labels.find(label);
  const vadalog::Relation* rel = db.Get(label);
  if (it == labels.end() || rel == nullptr || rel->size() == 0) return nullptr;
  const size_t width = (is_edge ? 3 : 1) + it->second.size();
  if (rel->arity() != width) {
    return FailedPrecondition("relation " + label + " has width " +
                              std::to_string(rel->arity()) +
                              " but its catalog label decodes " +
                              std::to_string(width) + " columns");
  }
  return rel;
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

// The OID a node/edge carries in the relational encoding: its __oid when
// present, its integer id otherwise.
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

// Appends one column per catalog property: the entity's value, or null.
// `props` is sorted like the map's keys, so one merge walk covers both.
void AppendProps(const pg::PropertyMap& have,
                 const std::vector<std::string>& props, vadalog::Tuple* t) {
  auto it = have.begin();
  for (const std::string& prop : props) {
    int cmp = 1;
    while (it != have.end() && (cmp = it->first.compare(prop)) < 0) ++it;
    t->push_back(it != have.end() && cmp == 0 ? it->second : Value());
  }
}

// True if `oid` is the integer `id`: an entity encoded under its own id
// needs no __oid.
bool IsOwnId(const Value& oid, uint64_t id) {
  return oid.is_int() && oid.AsInt() >= 0 &&
         static_cast<uint64_t>(oid.AsInt()) == id;
}

// Resolves OIDs to live nodes as a map from every node's NodeOid, filled
// in id order, would: to the lowest id whose OID equals it.  Only nodes
// carrying __oid and the nodes the decode creates are indexed; an integer
// OID otherwise names the node with that id.
class NodeResolver {
 public:
  explicit NodeResolver(const pg::PropertyGraph& graph) : graph_(graph) {
    for (pg::NodeId id = 0; id < graph.node_capacity(); ++id) {
      if (!graph.HasNode(id)) continue;
      const Value* oid = graph.NodeProperty(id, kOidProperty);
      if (oid != nullptr) by_oid_.emplace(*oid, id);
    }
  }

  pg::NodeId Find(const Value& oid) const {
    pg::NodeId found = pg::kInvalidNode;
    auto it = by_oid_.find(oid);
    if (it != by_oid_.end()) found = it->second;
    if (oid.is_int() && oid.AsInt() >= 0) {
      auto id = static_cast<pg::NodeId>(oid.AsInt());
      if (id < found && graph_.HasNode(id) &&
          graph_.NodeProperty(id, kOidProperty) == nullptr) {
        found = id;
      }
    }
    return found;
  }

  // Records a node the decode created, after Find missed its OID.
  void Add(const Value& oid, pg::NodeId id) { by_oid_.emplace(oid, id); }

 private:
  const pg::PropertyGraph& graph_;
  std::unordered_map<Value, pg::NodeId, ValueHash> by_oid_;
};

// Under frontier Skolemization two derived edges may share an OID while
// differing in their endpoints, and a relabeling rule gives an edge of
// another label the OID of the edge it came from.  So edge identity is
// (OID, endpoints, label); the index is keyed by the first three.
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

// NodeResolver's rule for edges: the lowest live id with this identity.
class EdgeResolver {
 public:
  explicit EdgeResolver(const pg::PropertyGraph& graph) : graph_(graph) {
    for (pg::EdgeId id = 0; id < graph.edge_capacity(); ++id) {
      if (!graph.HasEdge(id)) continue;
      const pg::Edge& e = graph.edge(id);
      auto oid = e.props.find(kOidProperty);
      if (oid != e.props.end()) {
        by_key_.emplace(EdgeKey{oid->second, e.from, e.to}, id);
      }
    }
  }

  pg::EdgeId Find(const Value& oid, pg::NodeId from, pg::NodeId to,
                  const std::string& label) const {
    pg::EdgeId found = pg::kInvalidEdge;
    auto [lo, hi] = by_key_.equal_range(EdgeKey{oid, from, to});
    for (auto it = lo; it != hi; ++it) {
      if (it->second < found && graph_.edge(it->second).label == label) {
        found = it->second;
      }
    }
    if (oid.is_int() && oid.AsInt() >= 0) {
      auto id = static_cast<pg::EdgeId>(oid.AsInt());
      if (id < found && graph_.HasEdge(id)) {
        const pg::Edge& e = graph_.edge(id);
        if (e.from == from && e.to == to && e.label == label &&
            e.props.count(kOidProperty) == 0) {
          found = id;
        }
      }
    }
    return found;
  }

  // Records an edge the decode created, after Find missed its identity.
  void Add(const Value& oid, pg::NodeId from, pg::NodeId to, pg::EdgeId id) {
    by_key_.emplace(EdgeKey{oid, from, to}, id);
  }

 private:
  const pg::PropertyGraph& graph_;
  std::unordered_multimap<EdgeKey, pg::EdgeId, EdgeKeyHash> by_key_;
};

}  // namespace

vadalog::FactDb EncodeGraph(const pg::PropertyGraph& graph,
                            const GraphCatalog& catalog) {
  vadalog::FactDb db;
  for (const std::string& label : catalog.NodeLabels()) {
    std::vector<pg::NodeId> ids = graph.NodesWithLabel(label);
    if (ids.empty()) continue;
    // AddLabel appends an older node to the label index; rows go in id
    // order.
    if (!std::is_sorted(ids.begin(), ids.end())) {
      std::sort(ids.begin(), ids.end());
    }
    const std::vector<std::string>& props = catalog.NodeProps(label);
    vadalog::Relation& rel = db.GetOrCreate(label, 1 + props.size());
    for (pg::NodeId id : ids) {
      const pg::Node& n = graph.node(id);
      vadalog::Tuple t;
      t.reserve(1 + props.size());
      t.push_back(NodeOid(n));
      AppendProps(n.props, props, &t);
      rel.Insert(std::move(t));
    }
  }
  for (const std::string& label : catalog.EdgeLabels()) {
    std::vector<pg::EdgeId> ids = graph.EdgesWithLabel(label);
    if (ids.empty()) continue;
    const std::vector<std::string>& props = catalog.EdgeProps(label);
    vadalog::Relation& rel = db.GetOrCreate(label, 3 + props.size());
    for (pg::EdgeId id : ids) {
      const pg::Edge& e = graph.edge(id);
      vadalog::Tuple t;
      t.reserve(3 + props.size());
      t.push_back(EdgeOid(e));
      t.push_back(NodeOid(graph.node(e.from)));
      t.push_back(NodeOid(graph.node(e.to)));
      AppendProps(e.props, props, &t);
      rel.Insert(std::move(t));
    }
  }
  return db;
}

RowCounts CountRows(const vadalog::FactDb& db) {
  RowCounts counts;
  for (const std::string& pred : db.Predicates()) {
    counts.emplace(pred, db.Get(pred)->row_bound());
  }
  return counts;
}

Result<DecodeStats> DecodeGraph(const vadalog::FactDb& db,
                                const GraphCatalog& catalog,
                                pg::PropertyGraph* graph,
                                const RowCounts& encoded_rows) {
  // Validate every label relation's width before touching the graph.
  for (const std::string& label : catalog.NodeLabels()) {
    KGM_RETURN_IF_ERROR(
        catalog.LabelRelation(db, label, /*is_edge=*/false).status());
  }
  for (const std::string& label : catalog.EdgeLabels()) {
    KGM_RETURN_IF_ERROR(
        catalog.LabelRelation(db, label, /*is_edge=*/true).status());
  }
  auto first_row = [&encoded_rows](const std::string& label,
                                   const vadalog::Relation& rel) {
    auto it = encoded_rows.find(label);
    return it == encoded_rows.end() ? size_t{0}
                                    : std::min(it->second, rel.row_bound());
  };
  DecodeStats stats;
  NodeResolver nodes(*graph);
  EdgeResolver edges(*graph);
  // Pass 1: nodes.  Later facts win property conflicts: monotonic
  // aggregates emit improving values over time, and relation order is
  // derivation order.
  for (const std::string& label : catalog.NodeLabels()) {
    const vadalog::Relation* rel = db.Get(label);
    if (rel == nullptr) continue;
    const std::vector<std::string>& props = catalog.NodeProps(label);
    for (size_t row = first_row(label, *rel); row < rel->row_bound(); ++row) {
      if (!rel->live(row)) continue;
      const vadalog::Tuple& t = rel->tuple(row);
      const Value& oid = t[0];
      pg::NodeId id = nodes.Find(oid);
      const bool is_new = id == pg::kInvalidNode;
      if (is_new) {
        id = graph->AddNode(label);
        if (!IsOwnId(oid, id)) graph->SetNodeProperty(id, kOidProperty, oid);
        nodes.Add(oid, id);
        ++stats.new_nodes;
      } else if (!graph->node(id).HasLabel(label)) {
        graph->AddLabel(id, label);
        ++stats.updated_nodes;
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
    for (size_t row = first_row(label, *rel); row < rel->row_bound(); ++row) {
      if (!rel->live(row)) continue;
      const vadalog::Tuple& t = rel->tuple(row);
      const Value& oid = t[0];
      // Resolve the endpoints before the existing-edge lookup: an existing
      // edge's endpoints always resolve, so failing here changes no result.
      const pg::NodeId from = nodes.Find(t[1]);
      const pg::NodeId to = nodes.Find(t[2]);
      if (from == pg::kInvalidNode || to == pg::kInvalidNode) {
        return FailedPrecondition(
            "derived edge " + label + " references unresolved node OID " +
            (from == pg::kInvalidNode ? t[1] : t[2]).ToString());
      }
      pg::EdgeId eid = edges.Find(oid, from, to, label);
      if (eid != pg::kInvalidEdge) {
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
      if (!IsOwnId(oid, graph->edge_capacity())) {
        prop_map[kOidProperty] = oid;
      }
      eid = graph->AddEdge(from, to, label, std::move(prop_map));
      edges.Add(oid, from, to, eid);
      ++stats.new_edges;
    }
  }
  return stats;
}

}  // namespace kgm::metalog
