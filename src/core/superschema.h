// The super-model and super-schemas (Section 3 of the paper).
//
// The super-model offers the data engineer model-independent conceptual
// elements — the super-constructs of Figure 3: SM_Node, SM_Edge, SM_Type,
// SM_Attribute, SM_AttributeModifier and SM_Generalization, plus the links
// connecting them.  A SuperSchema is an instance of the super-model: the
// conceptual design of one knowledge graph (e.g. the Company KG of
// Figure 4).
//
// This header is the typed C++ surface the data engineer uses; the
// dictionary serialization (dictionary.h) stores the same information as a
// property graph so the SSST MetaLog mappings can operate on it at
// meta-level.

#ifndef KGM_CORE_SUPERSCHEMA_H_
#define KGM_CORE_SUPERSCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/value.h"

namespace kgm::core {

// Attribute value domains (MM_Property "type").
enum class AttrType {
  kString = 0,
  kInt,
  kDouble,
  kBool,
  kDate,  // stored as ISO-8601 strings
};

const char* AttrTypeName(AttrType t);

// SM_AttributeModifier: extra business constraints on an attribute.  The
// paper names SM_UniqueAttributeModifier and SM_EnumAttributeModifier
// explicitly; kRange is one of the "many more modifiers" it alludes to.
struct AttributeModifier {
  enum class Kind { kUnique, kEnum, kRange };
  Kind kind = Kind::kUnique;
  std::vector<Value> enum_values;  // kEnum
  double min = 0;                  // kRange
  double max = 0;                  // kRange

  static AttributeModifier Unique() { return {Kind::kUnique, {}, 0, 0}; }
  static AttributeModifier Enum(std::vector<Value> values) {
    return {Kind::kEnum, std::move(values), 0, 0};
  }
  static AttributeModifier Range(double min, double max) {
    return {Kind::kRange, {}, min, max};
  }
  std::string ToString() const;
};

// SM_Attribute.
struct AttributeDef {
  std::string name;
  AttrType type = AttrType::kString;
  bool is_id = false;      // part of the identifier
  bool optional = false;   // isOpt
  bool intensional = false;
  std::vector<AttributeModifier> modifiers;
};

// Convenience constructors for the builder API.
AttributeDef IdAttr(std::string name, AttrType type = AttrType::kString);
AttributeDef Attr(std::string name, AttrType type = AttrType::kString);
AttributeDef OptAttr(std::string name, AttrType type = AttrType::kString);
AttributeDef IntensionalAttr(std::string name,
                             AttrType type = AttrType::kString);

// One side of an SM_Edge cardinality: (min, max) with min in {0,1} (isOpt)
// and max in {1, N} (isFun).
struct Cardinality {
  bool optional = true;    // min = 0
  bool functional = false; // max = 1

  static Cardinality ZeroOrOne() { return {true, true}; }
  static Cardinality ExactlyOne() { return {false, true}; }
  static Cardinality ZeroOrMore() { return {true, false}; }
  static Cardinality OneOrMore() { return {false, false}; }
  std::string ToString() const;  // "(0,1)", "(1,1)", "(0,N)", "(1,N)"
};

// SM_Node.
struct NodeDef {
  std::string name;  // the SM_Type name
  bool intensional = false;
  std::vector<AttributeDef> attributes;

  const AttributeDef* FindAttribute(std::string_view attr_name) const;
};

// SM_Edge: a binary aggregation of two SM_Nodes.  Super-schemas are simple
// graphs by construction: each edge has one single SM_Type (name).
struct EdgeDef {
  std::string name;
  std::string from;  // source node type
  std::string to;    // target node type
  // Cardinality as the engineer reads it: `source` constrains how many
  // edges a source node can have (isFun1/isOpt1 in the paper's encoding),
  // `target` the reverse direction.
  Cardinality source = Cardinality::ZeroOrMore();
  Cardinality target = Cardinality::ZeroOrMore();
  bool intensional = false;
  std::vector<AttributeDef> attributes;

  bool many_to_many() const {
    return !source.functional && !target.functional;
  }
  const AttributeDef* FindAttribute(std::string_view attr_name) const;
};

// SM_Generalization.
struct GeneralizationDef {
  std::string parent;
  std::vector<std::string> children;
  bool total = false;
  bool disjoint = false;
};

// A super-schema: an instance of the super-model.
class SuperSchema {
 public:
  explicit SuperSchema(std::string name, int64_t schema_oid = 0)
      : name_(std::move(name)), schema_oid_(schema_oid) {}

  const std::string& name() const { return name_; }
  int64_t schema_oid() const { return schema_oid_; }
  void set_schema_oid(int64_t oid) { schema_oid_ = oid; }

  // --- builder ---------------------------------------------------------------

  NodeDef& AddNode(std::string node_name,
                   std::vector<AttributeDef> attributes = {});
  NodeDef& AddIntensionalNode(std::string node_name,
                              std::vector<AttributeDef> attributes = {});
  EdgeDef& AddEdge(std::string edge_name, std::string from, std::string to,
                   Cardinality source = Cardinality::ZeroOrMore(),
                   Cardinality target = Cardinality::ZeroOrMore(),
                   std::vector<AttributeDef> attributes = {});
  EdgeDef& AddIntensionalEdge(std::string edge_name, std::string from,
                              std::string to,
                              std::vector<AttributeDef> attributes = {});
  GeneralizationDef& AddGeneralization(std::string parent,
                                       std::vector<std::string> children,
                                       bool total, bool disjoint);

  // --- access ---------------------------------------------------------------

  const std::vector<NodeDef>& nodes() const { return nodes_; }
  const std::vector<EdgeDef>& edges() const { return edges_; }
  const std::vector<GeneralizationDef>& generalizations() const {
    return generalizations_;
  }

  const NodeDef* FindNode(std::string_view node_name) const;
  const EdgeDef* FindEdge(std::string_view edge_name) const;

  // Proper ancestors of `node_name` through the generalization hierarchy,
  // nearest first.
  std::vector<std::string> AncestorsOf(std::string_view node_name) const;
  // Type accumulation (Section 5.2): `node_name`, then its ancestors
  // nearest first.  A data node of that type carries these labels.
  std::vector<std::string> AccumulatedLabels(
      std::string_view node_name) const;
  // Proper descendants (children at any depth).
  std::vector<std::string> DescendantsOf(std::string_view node_name) const;
  // Leaf descendants (nodes with no children); a leaf returns itself.
  std::vector<std::string> LeavesUnder(std::string_view node_name) const;
  // True if `node_name` has no children.
  bool IsLeaf(std::string_view node_name) const;
  // The topmost ancestor (the node itself when it has no parent).
  std::string RootOf(std::string_view node_name) const;

  // Own attributes plus all attributes inherited from ancestors.
  std::vector<AttributeDef> EffectiveAttributes(
      std::string_view node_name) const;
  // Identifier attributes: own isId attributes, else the root's.
  std::vector<AttributeDef> EffectiveIdAttributes(
      std::string_view node_name) const;

  // Structural validation: unique names, known endpoints, acyclic
  // generalizations, single parent per node, identifiers resolvable.
  Status Validate() const;

  // Summary string ("schema CompanyKG: 12 nodes, 13 edges, 4 gens").
  std::string Summary() const;

 private:
  std::string name_;
  int64_t schema_oid_;
  std::vector<NodeDef> nodes_;
  std::vector<EdgeDef> edges_;
  std::vector<GeneralizationDef> generalizations_;
};

// A super-schema's node types, indexed once per pass over an instance.  It
// holds the two rules every instance path follows (the loader, the flush,
// the CSV and relational bridges, validation): a node of a type carries
// the type's accumulated labels, and a data node's primary type is the
// deepest schema node type among its labels, the earlier label winning a
// tie.  The schema must outlive the index.
class NodeTypeIndex {
 public:
  struct Type {
    const NodeDef* def = nullptr;
    size_t position = 0;              // in SuperSchema::nodes()
    std::vector<std::string> labels;  // AccumulatedLabels(def->name)

    size_t depth() const { return labels.size() - 1; }
    // The root of the type's hierarchy, whose key the type shares.
    const std::string& root() const { return labels.back(); }
  };

  explicit NodeTypeIndex(const SuperSchema& schema);

  // In SuperSchema::nodes() order.
  const std::vector<Type>& types() const { return types_; }
  // The node type named `name`, or null.
  const Type* Find(std::string_view name) const;
  // The primary type of a node with `labels`, or null when none names a
  // schema node type.  One hash lookup per label; allocates nothing.
  const Type* PrimaryOf(const std::vector<std::string>& labels) const;

 private:
  std::vector<Type> types_;
  std::unordered_map<std::string_view, size_t> position_of_;
};

}  // namespace kgm::core

#endif  // KGM_CORE_SUPERSCHEMA_H_
