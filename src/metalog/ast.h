// Abstract syntax of MetaLog (Section 4 of the paper).
//
// A MetaLog rule is an existential rule whose body is a conjunction of
// property-graph node atoms, path patterns, conditions and expressions, and
// whose head is a conjunction of PG node atoms and (single-edge) path
// patterns:
//
//   (x: Business)[: CONTROLS](z: Business)
//       [: OWNS; percentage: w](y: Business),
//   v = msum(w, <z>), v > 0.5
//     -> exists c (x)[c: CONTROLS](y).
//
// Path patterns are regular expressions over edge atoms with concatenation
// '/', alternation '|', inversion (postfix '-'), Kleene star '*' (reflexive,
// per the paper's semi-path semantics with q >= 0) and strict closure '+'.
//
// Scalar machinery (expressions, conditions, assignments, aggregates,
// existential specifications) is shared with the Vadalog AST.

#ifndef KGM_METALOG_AST_H_
#define KGM_METALOG_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "vadalog/ast.h"

namespace kgm::metalog {

// A property constraint `name: term` inside a PG atom.
struct PgProperty {
  std::string name;
  vadalog::Term value;
};

// A node atom `(x: Label; k1: v1, ...)` or edge atom `[x: Label; ...]`.
// All parts are optional: `(x)`, `(: Label)`, `()` are legal node atoms.
// `spread_var` implements the `*p` unpacking operator of Example 6.2.
struct PgAtom {
  bool is_edge = false;
  std::string id_var;   // empty = anonymous
  std::string label;    // empty = no label constraint
  std::vector<PgProperty> properties;
  std::string spread_var;  // empty = no spread
  // Position of the opening '(' or '[' in the source.
  SourceLoc loc;

  std::string ToString() const;
};

// A regular path expression over edge atoms.
struct PathExpr;
using PathPtr = std::shared_ptr<const PathExpr>;

enum class PathKind { kEdge, kConcat, kAlt, kStar, kPlus };

struct PathExpr {
  PathKind kind = PathKind::kEdge;
  // kEdge
  PgAtom edge;
  bool inverse = false;  // rho^- : traverse the edge backwards
  // kConcat / kAlt: two or more children; kStar / kPlus: one child
  std::vector<PathPtr> children;

  static PathPtr Edge(PgAtom atom, bool inverse);
  static PathPtr Concat(std::vector<PathPtr> parts);
  static PathPtr Alt(std::vector<PathPtr> branches);
  static PathPtr Star(PathPtr inner);
  static PathPtr Plus(PathPtr inner);

  std::string ToString() const;

  // True if this expression is a single (possibly inverted) edge atom.
  bool IsSingleEdge() const { return kind == PathKind::kEdge; }

  // Appends all variables mentioned in edge atoms of this subtree.
  void CollectVars(std::vector<std::string>* out) const;
};

// A chain `n0 p0 n1 p1 n2 ...`: k+1 node atoms joined by k path patterns.
struct GraphPattern {
  std::vector<PgAtom> nodes;   // size k+1
  std::vector<PathPtr> paths;  // size k

  std::string ToString() const;
};

struct MetaRule {
  std::vector<GraphPattern> body_patterns;
  // Negated patterns (`not (x)[: L](y)` / `not (x: L)`): restricted to a
  // single node atom or a single-edge two-node pattern whose endpoints are
  // bound references, so each translates to one negated relational literal.
  std::vector<GraphPattern> negated_patterns;
  std::vector<vadalog::Assignment> assignments;
  std::vector<vadalog::Condition> conditions;
  std::vector<vadalog::Aggregate> aggregates;
  std::vector<vadalog::ExistentialSpec> existentials;
  std::vector<GraphPattern> head_patterns;
  std::string label;
  // Start of the rule in the source.
  SourceLoc loc;

  std::string ToString() const;
};

struct MetaProgram {
  std::vector<MetaRule> rules;

  std::string ToString() const;
};

// The one walk over the atoms of MetaLog patterns.  `inside_star` is true
// for an edge atom under a Kleene star.
using AtomVisitor = std::function<void(const PgAtom& atom, bool inside_star)>;

// Visits the edge atoms of `path` depth-first.
void ForEachPathAtom(const PathExpr& path, const AtomVisitor& fn,
                     bool inside_star = false);

// Visits the node atoms of `pattern` in order, then the edge atoms of each
// of its paths (ForEachPathAtom).
void ForEachPatternAtom(const GraphPattern& pattern, const AtomVisitor& fn);

// The part of a rule a pattern belongs to.
enum class PatternRole { kBody, kNegated, kHead };

// Visits the atoms of `rule`'s body, negated and head patterns, in that
// order (ForEachPatternAtom).
void ForEachRuleAtom(
    const MetaRule& rule,
    const std::function<void(const PgAtom& atom, PatternRole role,
                             bool inside_star)>& fn);

}  // namespace kgm::metalog

#endif  // KGM_METALOG_AST_H_
