#include "instance/views.h"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "instance/loader.h"

namespace kgm::instance {

namespace {

// The variables of the labeled node atoms in `rule`'s positive body.
std::set<std::string> LabeledVars(const metalog::MetaRule& rule) {
  std::set<std::string> out;
  for (const metalog::GraphPattern& p : rule.body_patterns) {
    for (const metalog::PgAtom& n : p.nodes) {
      if (!n.label.empty() && !n.id_var.empty()) out.insert(n.id_var);
    }
  }
  return out;
}

// True when `labels` holds a proper ancestor of node type `type`.
bool HasAncestorIn(const core::SuperSchema& schema,
                   const std::set<std::string>& labels,
                   const std::string& type) {
  for (const std::string& a : schema.AncestorsOf(type)) {
    if (labels.count(a) > 0) return true;
  }
  return false;
}

// True when a head node atom of `rule` is anonymous, existential, or bound
// by no node atom of the rule's positive body.
bool MintsNode(const metalog::MetaRule& rule) {
  std::set<std::string> bound;
  for (const metalog::GraphPattern& p : rule.body_patterns) {
    for (const metalog::PgAtom& n : p.nodes) bound.insert(n.id_var);
  }
  for (const vadalog::ExistentialSpec& e : rule.existentials) {
    bound.erase(e.var);
  }
  for (const metalog::GraphPattern& p : rule.head_patterns) {
    for (const metalog::PgAtom& n : p.nodes) {
      if (n.id_var.empty() || n.id_var == "_" || bound.count(n.id_var) == 0) {
        return true;
      }
    }
  }
  return false;
}

// True when a head atom sets `property` of `label`, per `set_props`.
bool Sets(const std::map<std::string, std::set<std::string>>& set_props,
          const std::string& label, const std::string& property) {
  auto it = set_props.find(label);
  return it != set_props.end() &&
         (it->second.count(property) > 0 || it->second.count("*") > 0);
}

}  // namespace

SigmaAnalysis AnalyzeSigma(const metalog::MetaProgram& sigma) {
  SigmaAnalysis out;
  for (const metalog::MetaRule& rule : sigma.rules) {
    metalog::ForEachRuleAtom(rule, [&out](const metalog::PgAtom& atom,
                                          metalog::PatternRole role, bool) {
      if (atom.label.empty()) return;
      const bool in_head = role == metalog::PatternRole::kHead;
      auto& target = atom.is_edge
                         ? (in_head ? out.head_edge_labels
                                    : out.body_edge_labels)
                         : (in_head ? out.head_node_labels
                                    : out.body_node_labels);
      target.insert(atom.label);
      if (!in_head) {
        if (!atom.properties.empty()) {
          (atom.is_edge ? out.read_edge_labels : out.read_node_labels)
              .insert(atom.label);
        }
        return;
      }
      std::set<std::string>& set =
          (atom.is_edge ? out.set_edge_props : out.set_node_props)[atom.label];
      for (const metalog::PgProperty& p : atom.properties) set.insert(p.name);
      if (!atom.spread_var.empty()) set.insert("*");
    });
    out.mints_nodes = out.mints_nodes || MintsNode(rule);
  }
  return out;
}

std::set<std::string> InputViewNodeLabels(
    const core::SuperSchema& schema, const metalog::MetaProgram& sigma) {
  std::set<std::string> labels = AnalyzeSigma(sigma).body_node_labels;
  // An edge view joins VIEW_OF on both endpoints, and VIEW_OF exists only
  // for instances some node view covers.  A single-edge step whose
  // endpoint carries a label in the rule body is covered by that label's
  // view; any other endpoint needs the view of its schema type.
  std::set<std::string> endpoints;
  for (const metalog::MetaRule& rule : sigma.rules) {
    const std::set<std::string> labeled = LabeledVars(rule);
    auto is_labeled = [&labeled](const metalog::PgAtom& n) {
      return !n.label.empty() || labeled.count(n.id_var) > 0;
    };
    for (const auto* patterns : {&rule.body_patterns, &rule.negated_patterns}) {
      for (const metalog::GraphPattern& p : *patterns) {
        for (size_t k = 0; k < p.paths.size(); ++k) {
          const metalog::PathExpr& path = *p.paths[k];
          if (!path.IsSingleEdge()) {
            // Every edge of a longer path adds its schema endpoint types.
            metalog::ForEachPathAtom(
                path, [&](const metalog::PgAtom& edge_atom, bool) {
                  const core::EdgeDef* edge = schema.FindEdge(edge_atom.label);
                  if (edge == nullptr) return;
                  endpoints.insert(edge->from);
                  endpoints.insert(edge->to);
                });
            continue;
          }
          const core::EdgeDef* edge = schema.FindEdge(path.edge.label);
          if (edge == nullptr) continue;
          const metalog::PgAtom& from = p.nodes[path.inverse ? k + 1 : k];
          const metalog::PgAtom& to = p.nodes[path.inverse ? k : k + 1];
          if (!is_labeled(from)) endpoints.insert(edge->from);
          if (!is_labeled(to)) endpoints.insert(edge->to);
        }
      }
    }
  }
  // The view of a type, or of one of its ancestors, covers its instances.
  const std::set<std::string> body = labels;
  for (const std::string& type : endpoints) {
    if (body.count(type) == 0 && !HasAncestorIn(schema, body, type) &&
        !HasAncestorIn(schema, endpoints, type)) {
      labels.insert(type);
    }
  }
  return labels;
}

Result<std::string> GenerateInputViews(const core::SuperSchema& schema,
                                       const metalog::MetaProgram& sigma,
                                       int64_t instance_oid) {
  SigmaAnalysis analysis = AnalyzeSigma(sigma);
  for (const std::string& label : analysis.body_node_labels) {
    if (schema.FindNode(label) == nullptr) {
      return InvalidArgument("Sigma uses unknown node label " + label);
    }
  }
  for (const std::string& label : analysis.body_edge_labels) {
    if (schema.FindEdge(label) == nullptr) {
      return InvalidArgument("Sigma uses unknown edge label " + label);
    }
  }
  const std::set<std::string> node_labels = InputViewNodeLabels(schema, sigma);
  std::ostringstream os;
  std::string oid = std::to_string(instance_oid);

  for (const std::string& label : node_labels) {
    // Membership in the generalization hierarchy is resolved here: the
    // view of L has rules for L and for each of its descendants, so a
    // Business instance also populates the Person view.  Each body is
    // written schema side first: the join planner ranks the SM_Type
    // constant and the instanceOID constant alike and takes the first
    // written, so this order walks from one SM_Type down to the instances
    // of one SM_Node instead of scanning every instance.  Every rule of
    // every view mints the same VIEW_OF edge per instance.
    std::vector<std::string> types{label};
    for (const std::string& d : schema.DescendantsOf(label)) {
      types.push_back(d);
    }
    const bool read = analysis.read_node_labels.count(label) > 0;
    const std::string head =
        "  -> exists c = skView(i), exists w = skViewOf(i) (c: " + label;
    os << "% V_I: " << label << " node view\n";
    for (const std::string& type : types) {
      const std::string members =
          "(: SM_Type; name: \"" + type + "\")[: SM_HAS_NODE_TYPE]-"
          "(n: SM_Node)\n    [: SM_REFERENCES]-(i: I_SM_Node; instanceOID: " +
          oid + ")";
      if (!read) {
        // Sigma reads no property of L: no attribute join, and the view
        // rows carry null properties.
        os << members << "\n" << head << "), (c)[w: VIEW_OF](i).\n";
        continue;
      }
      // With attributes: pack them into a record and spread it into the
      // view atom (Example 6.2).  LoadInstance attaches only declared
      // attributes, so a type without any gets no such rule.
      if (!schema.EffectiveAttributes(type).empty()) {
        os << members << ",\n"
           << "(i)[: I_SM_HAS_NODE_ATTR](ia: I_SM_Attribute; value: v)\n"
           << "    [: SM_REFERENCES](na: SM_Attribute; name: m),\n"
           << "p = pack(m, v)\n"
           << head << "; *p), (c)[w: VIEW_OF](i).\n";
      }
      // Attribute-less instances still appear in the view.
      os << members << ",\nnot (i)[: I_SM_HAS_NODE_ATTR]()\n"
         << head << "), (c)[w: VIEW_OF](i).\n";
    }
    os << "\n";
  }
  for (const std::string& label : analysis.body_edge_labels) {
    const core::EdgeDef* edge = schema.FindEdge(label);
    // I_SM_FROM and I_SM_TO link only I_SM_Nodes (LoadInstance).
    const std::string members =
        "(: SM_Type; name: \"" + label + "\")[: SM_HAS_EDGE_TYPE]-"
        "(se: SM_Edge)\n    [: SM_REFERENCES]-(ie: I_SM_Edge; instanceOID: " +
        oid + "),\n"
        "(ie)[: I_SM_FROM](ix),\n"
        "(ie)[: I_SM_TO](iy),\n"
        "(cx)[: VIEW_OF](ix),\n"
        "(cy)[: VIEW_OF](iy)";
    const std::string head =
        "  -> exists k = skViewE(ie) (cx)[k: " + label;
    os << "% V_I: " << label << " edge view\n";
    // As for node views: attributes only for a label Sigma reads them of.
    if (analysis.read_edge_labels.count(label) == 0) {
      os << members << "\n" << head << "](cy).\n\n";
      continue;
    }
    if (!edge->attributes.empty()) {
      os << members << ",\n"
         << "(ie)[: I_SM_HAS_EDGE_ATTR](ia: I_SM_Attribute; value: v)\n"
         << "    [: SM_REFERENCES](ea: SM_Attribute; name: m),\n"
         << "p = pack(m, v)\n"
         << head << "; *p](cy).\n";
    }
    os << members << ",\nnot (ie)[: I_SM_HAS_EDGE_ATTR]()\n"
       << head << "](cy).\n\n";
  }
  return os.str();
}

Result<std::string> GenerateOutputViews(const core::SuperSchema& schema,
                                        const metalog::MetaProgram& sigma,
                                        int64_t instance_oid) {
  (void)instance_oid;
  SigmaAnalysis analysis = AnalyzeSigma(sigma);
  std::ostringstream os;

  for (const std::string& label : analysis.head_node_labels) {
    const core::NodeDef* node = schema.FindNode(label);
    if (node == nullptr) {
      return InvalidArgument("Sigma derives unknown node label " + label);
    }
    std::vector<std::string> written;
    for (const core::AttributeDef& attr :
         schema.EffectiveAttributes(label)) {
      if (Sets(analysis.set_node_props, label, attr.name)) {
        written.push_back(attr.name);
      }
    }
    os << "% V_O: " << label << " node outputs\n";
    // Property updates on existing entities.
    for (const std::string& attr : written) {
      os << "(f: " << label << "; " << attr
         << ": v)[: VIEW_OF](i), !is_null(v)\n"
         << "  -> exists u = skOUpd_" << label << "_" << attr
         << "(f) (u: O_SM_PropUpdate; name: \"" << attr
         << "\", value: v), (u)[: O_ON](i).\n";
    }
    // Newly created entities.
    if (analysis.mints_nodes) {
      os << "(f: " << label << "), not (f)[: VIEW_OF]()\n"
         << "  -> exists o = skONew(f) (o: O_SM_Node; nodeType: \"" << label
         << "\").\n";
      for (const std::string& attr : written) {
        os << "(f: " << label << "; " << attr
           << ": v), not (f)[: VIEW_OF](), !is_null(v)\n"
           << "  -> exists o = skONew(f), exists a = skONewA_" << label
           << "_" << attr << "(f)\n"
           << "     (o: O_SM_Node)[: O_SM_HAS_ATTR](a: O_SM_Attribute; "
           << "name: \"" << attr << "\", value: v).\n";
      }
    }
    os << "\n";
  }
  for (const std::string& label : analysis.head_edge_labels) {
    const core::EdgeDef* edge = schema.FindEdge(label);
    if (edge == nullptr) {
      return InvalidArgument("Sigma derives unknown edge label " + label);
    }
    os << "% V_O: " << label << " edge outputs\n";
    // Endpoint-resolution variants: each endpoint is either an existing
    // entity (VIEW_OF resolvable) or, when Sigma mints nodes, a new one.
    // V_I derives VIEW_OF only to I_SM_Nodes.
    const char* kFromExisting = "(cx)[: VIEW_OF](ix)";
    const char* kFromNew = "not (cx)[: VIEW_OF]()";
    const char* kToExisting = "(cy)[: VIEW_OF](iy)";
    const char* kToNew = "not (cy)[: VIEW_OF]()";
    const int variants = analysis.mints_nodes ? 4 : 1;
    for (int variant = 0; variant < variants; ++variant) {
      bool from_existing = (variant & 1) == 0;
      bool to_existing = (variant & 2) == 0;
      os << "(cx)[k: " << label << "](cy),\n"
         << (from_existing ? kFromExisting : kFromNew) << ",\n"
         << (to_existing ? kToExisting : kToNew) << "\n"
         << "  -> exists e = skOE(k)";
      if (!from_existing) os << ", exists ox = skONew(cx)";
      if (!to_existing) os << ", exists oy = skONew(cy)";
      os << "\n     (e: O_SM_Edge; edgeType: \"" << label << "\"), "
         << "(e)[: O_FROM]("
         << (from_existing ? "ix" : "ox: O_SM_Node") << "), "
         << "(e)[: O_TO]("
         << (to_existing ? "iy" : "oy: O_SM_Node") << ").\n";
    }
    for (const core::AttributeDef& attr : edge->attributes) {
      if (!Sets(analysis.set_edge_props, label, attr.name)) continue;
      os << "(cx)[k: " << label << "; " << attr.name
         << ": v](cy), !is_null(v)\n"
         << "  -> exists e = skOE(k), exists a = skOEA_" << label << "_"
         << attr.name << "(k)\n"
         << "     (e: O_SM_Edge)[: O_SM_HAS_ATTR](a: O_SM_Attribute; "
         << "name: \"" << attr.name << "\", value: v).\n";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace kgm::instance
