// MTV: the MetaLog-to-Vadalog translator (Section 4 of the paper).
//
// Given a MetaLog program and a label catalog, MTV produces a Vadalog
// program over the relational encoding of the property graph:
//
//  (2) PG node atoms (x: L; K) become relational atoms L(x, k1, ..., kn)
//      with the catalog's canonical property order; unmentioned properties
//      become anonymous variables in the body and nulls in the head.
//  (3) Path patterns are resolved inductively:
//        * single edge atoms inline as Le(e, x, y, props) (inverse swaps the
//          endpoints);
//        * concatenations chain through fresh intermediate variables;
//        * alternations compile to a helper predicate (alpha) with one rule
//          per branch;
//        * closures compile to a transitive helper predicate (beta); '*' is
//          reflexive per the paper's semi-path semantics (q >= 0), realized
//          by expanding the rule into 2^k variants where each star either
//          contributes its closure atom or unifies its endpoints.  Setting
//          `reflexive_star = false` reproduces the paper's published
//          non-reflexive beta translation (Example 4.4).
//      Variables shared between a closure body and the rest of the rule
//      (e.g. the schemaOID selector of Example 5.1) become parameter
//      columns of the helper predicate, threaded through every step.
//
// Head conveniences: a labeled head atom with no identifier variable gets an
// automatic existential OID; a `*p` spread expands to get(p, "field")
// assignments over the catalog's fields.

#ifndef KGM_METALOG_MTV_H_
#define KGM_METALOG_MTV_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "vadalog/ast.h"

namespace kgm::metalog {

// Taken only by TranslateMetaProgram and CompileMeta (metalog/prepared.h).
// Every other layer — the prepared cache, the runner, Materialize, lint and
// the service — compiles with these defaults.
struct MtvOptions {
  // Kleene star includes the empty path (paper semantics).  When false, the
  // star is translated exactly as published in Example 4.4 (one or more
  // steps).
  bool reflexive_star = true;
  // Maximum number of star occurrences per rule (reflexive expansion is
  // exponential in this count).
  int max_stars_per_rule = 4;
};

struct MtvResult {
  vadalog::Program program;
  // Names of generated helper predicates (alpha / beta of Section 4).
  std::vector<std::string> helper_predicates;
  // Provenance: for every compiled rule (parallel to program.rules) the
  // 0-based index of the MetaLog rule it was generated from — helper rules
  // and star-expansion variants map back to their originating rule, so
  // diagnostics on compiled rules can report at the MetaLog source line.
  std::vector<int> rule_origin;
};

// Translates a whole MetaLog program.  The catalog must already know every
// label the program mentions (see GraphCatalog::AbsorbProgram).
Result<MtvResult> TranslateMetaProgram(const MetaProgram& program,
                                       const GraphCatalog& catalog,
                                       const MtvOptions& options = {});

// Target query language for the generated @input annotations.
enum class BindingLanguage {
  kCypher,  // graph-database targets (Example 4.4 binds Neo4J this way)
  kSql,     // relational targets
};

// Generates the `@input(atom, "query")` annotation block of Example 4.4:
// for every node/edge label the program's bodies read, a query in the
// target system's language that populates the corresponding relational
// atom (implementing translation step (1) at the source).
std::string GenerateInputBindings(const MetaProgram& program,
                                  const GraphCatalog& catalog,
                                  BindingLanguage language);

}  // namespace kgm::metalog

#endif  // KGM_METALOG_MTV_H_
