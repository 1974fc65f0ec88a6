#include "instance/loader.h"

#include <map>
#include <utility>

#include "base/check.h"
#include "core/dictionary.h"

namespace kgm::instance {

namespace {

// Properties of the instance constructs.
constexpr char kInstanceOidProp[] = "instanceOID";
constexpr char kValueProp[] = "value";

// A schema type's construct in the super-schema dictionary (its SM_Node or
// SM_Edge) and its attributes' SM_Attributes by attribute name.
struct TypeConstructs {
  pg::NodeId construct = pg::kInvalidNode;
  std::map<std::string, pg::NodeId, std::less<>> attrs;
};

// Index of the super-schema dictionary: a node type's constructs by its
// position in the schema (NodeTypeIndex::Type::position), an edge type's
// by name.  A node type's attributes include the ones it inherits,
// resolved up the generalization hierarchy.
struct SchemaIndex {
  explicit SchemaIndex(const core::SuperSchema& schema)
      : types(schema), nodes(schema.nodes().size()) {}

  core::NodeTypeIndex types;
  std::vector<TypeConstructs> nodes;
  std::map<std::string, TypeConstructs, std::less<>> edges;
};

SchemaIndex BuildSchemaIndex(const core::SuperSchema& schema,
                             const pg::PropertyGraph& dict) {
  SchemaIndex index(schema);
  auto type_name = [&dict](pg::NodeId construct,
                           const char* link) -> std::string {
    for (pg::EdgeId e : dict.OutEdges(construct)) {
      if (dict.HasEdge(e) && dict.edge(e).label == link) {
        const Value* name = dict.NodeProperty(dict.edge(e).to, "name");
        if (name != nullptr) return name->AsString();
      }
    }
    return "";
  };
  auto add_types = [&](const char* label, const char* type_link,
                       const char* attr_link,
                       std::map<std::string, TypeConstructs, std::less<>>*
                           types) {
    for (pg::NodeId id : dict.NodesWithLabel(label)) {
      std::string name = type_name(id, type_link);
      if (name.empty()) continue;
      TypeConstructs& type = (*types)[name];
      type.construct = id;
      for (pg::EdgeId e : dict.OutEdges(id)) {
        if (!dict.HasEdge(e) || dict.edge(e).label != attr_link) continue;
        const Value* attr_name = dict.NodeProperty(dict.edge(e).to, "name");
        if (attr_name != nullptr) {
          type.attrs[attr_name->AsString()] = dict.edge(e).to;
        }
      }
    }
  };
  std::map<std::string, TypeConstructs, std::less<>> nodes;
  add_types(core::kSmNode, core::kSmHasNodeType, core::kSmHasNodeProperty,
            &nodes);
  add_types(core::kSmEdge, core::kSmHasEdgeType, core::kSmHasEdgeProperty,
            &index.edges);
  // A node type's own construct and attributes, then the attributes of its
  // ancestors, nearest first.
  for (const core::NodeTypeIndex::Type& type : index.types.types()) {
    TypeConstructs& self = index.nodes[type.position];
    for (const std::string& label : type.labels) {
      auto it = nodes.find(label);
      if (it == nodes.end()) continue;
      if (label == type.def->name) self.construct = it->second.construct;
      self.attrs.insert(it->second.attrs.begin(), it->second.attrs.end());
    }
  }
  return index;
}

// The constructs the walk emits, by kind.
enum NodeKind { kInstNode, kInstEdge, kInstAttribute, kNumNodeKinds };
enum EdgeKind {
  kReferences,
  kHasNodeAttr,
  kHasEdgeAttr,
  kFrom,
  kTo,
  kNumEdgeKinds
};
constexpr const char* kNodeLabel[kNumNodeKinds] = {kISmNode, kISmEdge,
                                                   kISmAttribute};
constexpr const char* kEdgeLabel[kNumEdgeKinds] = {
    kSmReferences, kISmHasNodeAttr, kISmHasEdgeAttr, kISmFrom, kISmTo};

// The instance walk of Figure 9, the one both loaders share: classifies
// each data node by its primary type (core::NodeTypeIndex), resolves its
// declared and inherited attributes, then does the same for the edges,
// and numbers what it emits as a dictionary holding `schema_dict` would:
// nodes and edges each in emission order, after the super-schema's.
// `sink` receives every construct through Node(kind, id, value) — `value`
// is the attribute value of an I_SM_Attribute and null otherwise — and
// Edge(kind, id, from, to).
template <typename Sink>
void WalkInstance(const SchemaIndex& index,
                  const pg::PropertyGraph& schema_dict,
                  const pg::PropertyGraph& data, InstanceMap* out,
                  Sink* sink) {
  pg::NodeId next_node = schema_dict.node_capacity();
  pg::EdgeId next_edge = schema_dict.edge_capacity();
  auto node = [&](NodeKind kind, const Value* value) {
    sink->Node(kind, next_node, value);
    return next_node++;
  };
  auto edge = [&](EdgeKind kind, pg::NodeId from, pg::NodeId to) {
    sink->Edge(kind, next_edge++, from, to);
  };
  out->inode_of_data.assign(data.node_capacity(), pg::kInvalidNode);

  // Pass 1: nodes with their attributes.
  for (pg::NodeId id = 0; id < data.node_capacity(); ++id) {
    if (!data.HasNode(id)) continue;
    const pg::Node& n = data.node(id);
    const core::NodeTypeIndex::Type* primary =
        index.types.PrimaryOf(n.labels);
    if (primary == nullptr) continue;
    const TypeConstructs* type = &index.nodes[primary->position];
    if (type->construct == pg::kInvalidNode) continue;
    const pg::NodeId inode = node(kInstNode, nullptr);
    edge(kReferences, inode, type->construct);
    out->inode_of_data[id] = inode;
    out->data_of_inode.resize(inode + 1, pg::kInvalidNode);
    out->data_of_inode[inode] = id;
    ++out->loaded_nodes;
    for (const auto& [key, value] : n.props) {
      auto attr = type->attrs.find(key);
      if (attr == type->attrs.end()) continue;  // undeclared
      const pg::NodeId ia = node(kInstAttribute, &value);
      edge(kHasNodeAttr, inode, ia);
      edge(kReferences, ia, attr->second);
      ++out->loaded_attributes;
    }
  }
  // Pass 2: edges.
  for (pg::EdgeId id = 0; id < data.edge_capacity(); ++id) {
    if (!data.HasEdge(id)) continue;
    const pg::Edge& e = data.edge(id);
    auto type = index.edges.find(e.label);
    if (type == index.edges.end()) continue;
    const pg::NodeId from = out->inode_of_data[e.from];
    const pg::NodeId to = out->inode_of_data[e.to];
    if (from == pg::kInvalidNode || to == pg::kInvalidNode) continue;
    const pg::NodeId iedge = node(kInstEdge, nullptr);
    edge(kReferences, iedge, type->second.construct);
    edge(kFrom, iedge, from);
    edge(kTo, iedge, to);
    ++out->loaded_edges;
    for (const auto& [key, value] : e.props) {
      auto attr = type->second.attrs.find(key);
      if (attr == type->second.attrs.end()) continue;
      const pg::NodeId ia = node(kInstAttribute, &value);
      edge(kHasEdgeAttr, iedge, ia);
      edge(kReferences, ia, attr->second);
      ++out->loaded_attributes;
    }
  }
}

// Adds each construct to the dictionary, which must number it as the walk
// did.
class DictSink {
 public:
  DictSink(pg::PropertyGraph* dict, int64_t instance_oid)
      : dict_(dict), oid_(instance_oid) {}

  void Node(NodeKind kind, pg::NodeId id, const Value* value) {
    pg::PropertyMap props{{kInstanceOidProp, oid_}};
    if (value != nullptr) props.emplace(kValueProp, *value);
    KGM_CHECK(dict_->AddNode(kNodeLabel[kind], std::move(props)) == id);
  }
  void Edge(EdgeKind kind, pg::EdgeId id, pg::NodeId from, pg::NodeId to) {
    KGM_CHECK(dict_->AddEdge(from, to, kEdgeLabel[kind]) == id);
  }

 private:
  pg::PropertyGraph* dict_;
  Value oid_;
};

// The instance labels as GraphCatalog::FromGraph finds them on a
// dictionary that holds each of them.
const metalog::GraphCatalog& InstanceCatalog() {
  static const metalog::GraphCatalog catalog = [] {
    metalog::GraphCatalog c;
    c.AddNodeLabel(kISmNode, {kInstanceOidProp});
    c.AddNodeLabel(kISmEdge, {kInstanceOidProp});
    c.AddNodeLabel(kISmAttribute, {kInstanceOidProp, kValueProp});
    for (const char* label : kEdgeLabel) c.AddEdgeLabel(label);
    return c;
  }();
  return catalog;
}

// Appends each construct as the row EncodeGraph would give it under
// `layout`: the OID (its dictionary id), then one column per property of
// the label, null where the construct lacks it.  A label's relation is
// created by its first row, as EncodeGraph creates only non-empty ones.
class FactSink {
 public:
  FactSink(vadalog::FactDb* db, const metalog::GraphCatalog& layout,
           int64_t instance_oid)
      : db_(db), oid_(instance_oid) {
    for (int k = 0; k < kNumNodeKinds; ++k) {
      NodeRows& rows = nodes_[k];
      rows.arity = layout.NodeArity(kNodeLabel[k]);
      rows.oid_col = layout.NodePropColumn(kNodeLabel[k], kInstanceOidProp);
      rows.value_col = layout.NodePropColumn(kNodeLabel[k], kValueProp);
    }
    for (int k = 0; k < kNumEdgeKinds; ++k) {
      edges_[k].arity = layout.EdgeArity(kEdgeLabel[k]);
    }
  }

  void Node(NodeKind kind, pg::NodeId id, const Value* value) {
    NodeRows& rows = nodes_[kind];
    if (rows.rel == nullptr) {
      rows.rel = &db_->GetOrCreate(kNodeLabel[kind], rows.arity);
    }
    vadalog::Tuple t(rows.arity);
    t[0] = Value(static_cast<int64_t>(id));
    if (rows.oid_col > 0) t[rows.oid_col] = oid_;
    if (rows.value_col > 0 && value != nullptr) t[rows.value_col] = *value;
    rows.rel->Insert(std::move(t));
  }
  void Edge(EdgeKind kind, pg::EdgeId id, pg::NodeId from, pg::NodeId to) {
    EdgeRows& rows = edges_[kind];
    if (rows.rel == nullptr) {
      rows.rel = &db_->GetOrCreate(kEdgeLabel[kind], rows.arity);
    }
    vadalog::Tuple t(rows.arity);
    t[0] = Value(static_cast<int64_t>(id));
    t[1] = Value(static_cast<int64_t>(from));
    t[2] = Value(static_cast<int64_t>(to));
    rows.rel->Insert(std::move(t));
  }

  // Registers in `catalog` the instance labels that received rows.
  void AddWrittenLabels(metalog::GraphCatalog* catalog) const {
    const metalog::GraphCatalog& own = InstanceCatalog();
    for (int k = 0; k < kNumNodeKinds; ++k) {
      if (nodes_[k].rel == nullptr) continue;
      catalog->AddNodeLabel(kNodeLabel[k], own.NodeProps(kNodeLabel[k]));
    }
    for (int k = 0; k < kNumEdgeKinds; ++k) {
      if (edges_[k].rel != nullptr) catalog->AddEdgeLabel(kEdgeLabel[k]);
    }
  }

 private:
  struct NodeRows {
    vadalog::Relation* rel = nullptr;
    size_t arity = 0;
    int oid_col = -1;
    int value_col = -1;
  };
  struct EdgeRows {
    vadalog::Relation* rel = nullptr;
    size_t arity = 0;
  };

  vadalog::FactDb* db_;
  Value oid_;
  NodeRows nodes_[kNumNodeKinds];
  EdgeRows edges_[kNumEdgeKinds];
};

}  // namespace

pg::NodeId InstanceMap::DataNodeOf(const Value& oid) const {
  if (!oid.is_int() || oid.AsInt() < 0) return pg::kInvalidNode;
  const auto id = static_cast<uint64_t>(oid.AsInt());
  return id < data_of_inode.size() ? data_of_inode[id] : pg::kInvalidNode;
}

Result<LoadedInstance> LoadInstance(const core::SuperSchema& schema,
                                    const pg::PropertyGraph& data,
                                    int64_t instance_oid) {
  LoadedInstance out;
  out.instance_oid = instance_oid;
  KGM_RETURN_IF_ERROR(core::StoreSuperSchema(schema, &out.dict));
  const SchemaIndex index = BuildSchemaIndex(schema, out.dict);
  DictSink sink(&out.dict, instance_oid);
  WalkInstance(index, out.dict, data, &out, &sink);
  return out;
}

Result<InstanceFacts> LoadInstanceFacts(const core::SuperSchema& schema,
                                        const pg::PropertyGraph& data,
                                        int64_t instance_oid,
                                        const metalog::GraphCatalog* layout) {
  InstanceFacts out;
  out.instance_oid = instance_oid;
  pg::PropertyGraph schema_dict;
  KGM_RETURN_IF_ERROR(core::StoreSuperSchema(schema, &schema_dict));
  const SchemaIndex index = BuildSchemaIndex(schema, schema_dict);
  out.catalog = metalog::GraphCatalog::FromGraph(schema_dict);
  out.db = metalog::EncodeGraph(schema_dict,
                                layout != nullptr ? *layout : out.catalog);
  FactSink sink(&out.db, layout != nullptr ? *layout : InstanceCatalog(),
                instance_oid);
  WalkInstance(index, schema_dict, data, &out, &sink);
  sink.AddWrittenLabels(&out.catalog);
  return out;
}

}  // namespace kgm::instance
