// The lint pass pipeline: static analysis over Vadalog and MetaLog
// programs producing structured, source-located diagnostics.
//
// Passes over the (possibly compiled) Vadalog program:
//   * safety           — range restriction per rule (error)
//   * stratification   — negation inside a recursive SCC (error)
//   * aggregate        — an aggregate with the wrong argument count, or a
//                        rule mixing monotonic and stratified aggregates;
//                        runs with stratification (error)
//   * wardedness       — dangerous variables without a ward (error)
//   * arity            — one predicate used with different arities, or a
//                        rule wider than the engine compiles: more than
//                        kMaxRuleVariables variables or an atom with more
//                        than kMaxAtomArity arguments (error)
//   * undefined-predicate — body predicate with no rule, @fact, @input or
//                        external definition (warning)
//   * unused-predicate — derived predicate never read and not an @output;
//                        only when the program declares outputs (warning)
//   * unreachable-rule — rule not reachable from any @output; only when
//                        the program declares outputs (warning)
//   * singleton-variable — variable occurring exactly once in a rule;
//                        names starting with '_' are exempt (warning)
//   * type-conflict    — abstract interpretation (vadalog/typeflow.h)
//                        proves a join/comparison/arithmetic/fold mixes
//                        kinds that can never meet, e.g. msum over a
//                        string position (error)
//   * unsat-rule       — a body condition or constant is statically
//                        unsatisfiable under the inferred intervals and
//                        constants: the rule is dead (warning)
//   * null-flow        — labeled nulls / Skolems reach an @output position
//                        that otherwise carries numeric or boolean
//                        scalars (warning)
//   * magic-futility   — @output whose bound (point) queries can never
//                        benefit from the magic-sets rewrite: either no
//                        bound argument reaches a recursive predicate, or
//                        the output's cone forces a materialize fallback
//                        (aggregates);
//                        only when the program declares outputs and has
//                        no errors (warning)
//
// MetaLog-level passes (run on the MetaProgram before/independent of MTV):
//   * catalog          — labels/properties absent from the base graph
//                        catalog and not derived by any rule (warning, or
//                        error for a label used as both node and edge)
//   * path-unbound-variable — variable bound only inside a '*' sub-path but
//                        used in the head / conditions / assignments: the
//                        star's empty-path variant leaves it unbound (error)
//
// For compiled MetaLog, diagnostics found on the Vadalog program are
// remapped through MTV provenance (MtvResult::rule_origin) so they anchor
// at the originating MetaLog rule.

#ifndef KGM_LINT_LINT_H_
#define KGM_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "vadalog/ast.h"

namespace kgm::lint {

// Every pass always runs; magic-futility and the typeflow passes skip —
// recorded in LintResult::skipped_passes — when error-grade passes already
// fired, since they are only meaningful over a well-formed program.  A pass
// is switched off only through LintConfig (lint/config.h), which drops its
// findings.
struct LintOptions {
  // Predicates defined outside the program (e.g. graph-catalog labels):
  // exempt from the undefined/unused passes.
  std::vector<std::string> external_predicates;
};

// Runs the Vadalog passes over `program`.  Diagnostics are sorted.
LintResult RunLints(const vadalog::Program& program,
                    const LintOptions& options = {});

// Lints a MetaLog program that `program` was compiled from: runs the
// Vadalog passes over the compiled program with anchors remapped to the
// MetaLog rules via `rule_origin` (MtvResult::rule_origin), plus the
// MetaLog-level passes.  `base_catalog` is the catalog *before*
// AbsorbProgram (nullptr skips the catalog pass).
LintResult LintCompiledMeta(const metalog::MetaProgram& meta,
                            const vadalog::Program& program,
                            const std::vector<int>& rule_origin,
                            const metalog::GraphCatalog* base_catalog,
                            const LintOptions& options = {});

LintResult LintCompiledMeta(const metalog::MetaProgram& meta,
                            const metalog::MtvResult& mtv,
                            const metalog::GraphCatalog* base_catalog,
                            const LintOptions& options = {});

// Source front doors used by kgmctl and tools: parse (and for MetaLog,
// absorb + translate), then lint.  Parse/translate failures are reported as
// a single error diagnostic of pass "parse" / "translate" instead of a
// Status, so callers always get a renderable result.
LintResult LintVadalogSource(std::string_view source,
                             const LintOptions& options = {});
LintResult LintMetaLogSource(std::string_view source,
                             const metalog::GraphCatalog* base_catalog,
                             const LintOptions& options = {});

}  // namespace kgm::lint

#endif  // KGM_LINT_LINT_H_
