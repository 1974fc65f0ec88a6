// Automatic construction of the input and output views (Algorithm 2,
// lines 5-6).
//
// Given the intensional component Sigma, KGModel generates by static
// analysis:
//
//   * V_I: for every node/edge label in Sigma's body, MetaLog rules that
//     re-create label facts from the instance super-constructs.  Per
//     Example 6.2, a rule packs the I_SM_Attribute values of an I_SM_Node
//     into a record and unpacks it into the view atom with the `*p`
//     spread.  The views are specialized to the schema they are generated
//     for: membership in the generalization hierarchy is resolved here, so
//     the view of L has rules for L and for each of its descendants (an
//     instance referencing SM_Node Business also appears in the Person
//     view), and each rule body starts from its SM_Type constant and walks
//     the dictionary down to the instances.  A type or edge label without
//     schema attributes gets no attribute-packing rule.  Each view node
//     links back to its instance construct with one VIEW_OF edge, the same
//     (skViewOf) in every view that covers the instance.  Endpoints of
//     Sigma's edge steps that carry no label get the node view of their
//     schema type, so every edge view finds VIEW_OF on both ends.
//
//   * V_O: for every node/edge label in Sigma's head, MetaLog rules that
//     de-normalize the derived facts into staging constructs (O_SM_Node /
//     O_SM_Edge / O_SM_Attribute / O_SM_PropUpdate), distinguishing
//     updates to existing entities (VIEW_OF resolvable) from newly created
//     ones (negated VIEW_OF).
//
// Both generators return MetaLog source text, so the generated views can
// be inspected, printed, and executed by the ordinary MTV pipeline.

#ifndef KGM_INSTANCE_VIEWS_H_
#define KGM_INSTANCE_VIEWS_H_

#include <set>
#include <string>

#include "base/status.h"
#include "core/superschema.h"
#include "metalog/ast.h"

namespace kgm::instance {

// Labels referenced by a MetaLog program, split by construct and role.
struct SigmaAnalysis {
  std::set<std::string> body_node_labels;
  std::set<std::string> body_edge_labels;
  std::set<std::string> head_node_labels;
  std::set<std::string> head_edge_labels;
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
