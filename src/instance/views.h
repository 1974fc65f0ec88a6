// Automatic construction of the input and output views (Algorithm 2,
// lines 5-6).
//
// Given the intensional component Sigma, KGModel generates by static
// analysis:
//
//   * V_I: for every node/edge label in Sigma's body, MetaLog rules that
//     re-create label facts from the instance super-constructs.  The views
//     are specialized to the schema they are generated for: membership in
//     the generalization hierarchy is resolved here, so the view of L has
//     rules for L and for each of its descendants (an instance referencing
//     SM_Node Business also appears in the Person view), and each rule
//     body starts from its SM_Type constant and walks the dictionary down
//     to the instances.  Each view node links back to its instance
//     construct with one VIEW_OF edge, the same (skViewOf) in every view
//     that covers the instance.  Endpoints of Sigma's edge steps that carry
//     no label get the node view of their schema type, so every edge view
//     finds VIEW_OF on both ends.
//
//     The views are specialized to Sigma too, at label granularity.  For a
//     label some body atom (positive or negated) names a property of, a
//     rule packs the I_SM_Attribute values of an instance into a record
//     and unpacks it into the view atom with the `*p` spread (Example 6.2),
//     and a `not ..._ATTR()` twin covers instances without attributes; a
//     type or edge label without schema attributes gets only the twin.
//     Every other label gets one rule per member type, without attribute
//     join: its view rows carry null properties, which no Sigma atom reads.
//
//   * V_O: MetaLog rules that de-normalize what Sigma's heads derive into
//     staging constructs (O_SM_Node / O_SM_Edge / O_SM_Attribute /
//     O_SM_PropUpdate), distinguishing updates to existing entities
//     (VIEW_OF resolvable) from newly created ones (negated VIEW_OF).  Only
//     what Sigma writes is staged: a property rule exists for each (label,
//     property) pair a head atom sets (a `*` spread sets them all), and the
//     rules for new nodes, with the edge variants whose endpoints are new
//     nodes, exist only when Sigma mints a node (SigmaAnalysis::mints_nodes).
//     So a view row's own values never come back as updates.
//
// Both generators return MetaLog source text, so the generated views can
// be inspected, printed, and executed by the ordinary MTV pipeline.

#ifndef KGM_INSTANCE_VIEWS_H_
#define KGM_INSTANCE_VIEWS_H_

#include <map>
#include <set>
#include <string>

#include "base/status.h"
#include "core/superschema.h"
#include "metalog/ast.h"

namespace kgm::instance {

// What a MetaLog program reads and writes: the labels it references,
// split by construct and role, and the properties it reads and sets.
struct SigmaAnalysis {
  std::set<std::string> body_node_labels;
  std::set<std::string> body_edge_labels;
  std::set<std::string> head_node_labels;
  std::set<std::string> head_edge_labels;
  // Labels a positive or negated body atom names a property of.
  std::set<std::string> read_node_labels;
  std::set<std::string> read_edge_labels;
  // The properties head atoms set, by label; a `*` spread sets every
  // property and is recorded as "*".
  std::map<std::string, std::set<std::string>> set_node_props;
  std::map<std::string, std::set<std::string>> set_edge_props;
  // True when a head node variable is minted: existential, anonymous, or
  // bound by no node atom of a positive body pattern.  One flag for the
  // whole program, as a minted node can flow into another rule's body.
  bool mints_nodes = false;
};

SigmaAnalysis AnalyzeSigma(const metalog::MetaProgram& sigma);

// The node labels V_I has a view for: Sigma's body node labels, plus the
// schema type of each body edge endpoint that no node view would cover
// otherwise (an endpoint without a label in its rule body, or any endpoint
// of a step inside a longer path), unless a body label or another such
// type is an ancestor of it.
std::set<std::string> InputViewNodeLabels(const core::SuperSchema& schema,
                                          const metalog::MetaProgram& sigma);

// Generates V_I for `sigma` (MetaLog source).  Fails when sigma uses a
// label unknown to the schema.
Result<std::string> GenerateInputViews(const core::SuperSchema& schema,
                                       const metalog::MetaProgram& sigma,
                                       int64_t instance_oid);

// Generates V_O for `sigma` (MetaLog source).
Result<std::string> GenerateOutputViews(const core::SuperSchema& schema,
                                        const metalog::MetaProgram& sigma,
                                        int64_t instance_oid);

}  // namespace kgm::instance

#endif  // KGM_INSTANCE_VIEWS_H_
