// Magic-sets rewriting for point queries (query-driven reasoning).
//
// Serving answers bound-argument queries — "who controls company X?" —
// against a materialized snapshot by scanning the full output relation.
// The magic-sets transformation makes such queries cheap without
// materializing anything irrelevant: given a query atom with some
// arguments bound (`controls(c123, ?y)`), the rewriter
//
//   1. *adorns* predicates with a bound/free pattern per argument
//      position ("bf" for `controls(c123, ?y)`), propagating bindings
//      sideways through each rule body left to right (the SIP strategy,
//      refined with assignment/condition information),
//   2. generates a *magic* predicate per adornment whose extension is
//      the set of bindings the top-down evaluation would ask about, and
//   3. emits guarded variants of the original rules: each adorned rule
//      fires only for bindings seeded by its magic predicate.
//
// Bottom-up (semi-naive) evaluation of the rewritten program then
// touches only the query-relevant slice of the database, with the
// existing engine — parallelism, deadline polls and all —
// unchanged.  Answers equal the full materialization filtered by the
// binding (the classic magic-sets theorem; the differential tests in
// tests/finkg/pointquery_differential_test.cc assert set-identity).
//
// Supported fragment and fallbacks.  Rules reachable from the query
// predicate may use positive/negated literals, conditions, assignments
// and existentials.  The rewrite *falls back* — reporting a
// FallbackReason instead of a program, after which the point-query
// dispatcher (point_query.h) answers by full materialization — for
// aggregates (monotonic aggregation is not magic-preserving), when the
// query has no bound argument, or when the adornment worklist explodes
// past RewriteOptions::max_adorned_predicates.  Negated or all-free
// intensional subgoals are handled by marking their cones
// "full-required": those predicates keep their original rules unguarded
// (complete evaluation), which preserves stratification because magic
// predicates never appear under negation.
//
// Skolem determinism.  The engine auto-Skolemizes `exists z` heads with
// a functor derived from the *rule index* (`_sk_r<N>_<var>`), and the
// rewritten program renumbers rules.  To keep answer tuples
// value-identical to the full run, the rewriter pins every included
// rule's existentials to explicit specs replicating exactly the
// functor and frontier-argument order the original program would have
// used (see PinSkolemSpecs).

#ifndef KGM_VADALOG_MAGIC_MAGIC_H_
#define KGM_VADALOG_MAGIC_MAGIC_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/value.h"
#include "vadalog/ast.h"

namespace kgm::vadalog::magic {

// A point query: an output predicate with a constant pinned at each
// bound position.  `args` has one entry per argument position; engaged
// entries are bound.
struct QueryBinding {
  std::string predicate;
  std::vector<std::optional<Value>> args;

  size_t BoundCount() const;
  // "bf..b" — one letter per position, 'b' bound, 'f' free.
  std::string Adornment() const;
  // Human-readable text form, e.g. `controls("c12",?)`, for explain and
  // log output.  NOT collision-free: Value::ToString prints doubles at
  // default ostream precision, so 1.0 renders exactly like the int 1 and
  // distinct doubles can merge.  Never use as cache-key material.
  std::string Render() const;
  // Collision-free serialization for result-cache keys: every constant
  // carries a kind tag, strings (and Skolem functors / record field
  // names) are length-prefixed, and doubles print shortest-round-trip,
  // so bindings with different answer sets never share key material
  // (1, 1.0 and "1" all key differently).  Stable across processes for
  // every kind a client binding can carry.
  std::string CacheKey() const;
  // True when `t` (of matching arity) agrees with every bound position.
  bool Matches(const std::vector<Value>& t) const;
};

// Parses a comma-separated binding list: `_` marks a free position,
// `"quoted"` a string (backslash escapes), `true`/`false` booleans,
// and numeric tokens ints/doubles; any other bare token is taken as a
// string constant.  `c12,_` -> [Value("c12"), nullopt].
Result<std::vector<std::optional<Value>>> ParseBoundArgs(
    std::string_view csv);

// Why a rewrite (or the whole point-query route) fell back to full
// materialization.
enum class FallbackReason {
  kNone = 0,
  kNoBoundArgument,         // every query position is free
  kAggregates,              // an aggregate rule is in the query's cone
  kAdornmentExplosion,      // > max_adorned_predicates distinct adornments
  kRewriteRejected,         // rewritten program failed engine validation
};

const char* FallbackReasonName(FallbackReason r);

struct RewriteOptions {
  // Cap on distinct (predicate, adornment) pairs before giving up.
  size_t max_adorned_predicates = 128;
};

// One adorned predicate, for explain output.
struct AdornedPredicate {
  std::string pred;        // original predicate
  std::string adornment;   // "bf..." pattern
  std::string magic_pred;  // its magic predicate's name
};

struct MagicRewrite {
  // kNone: `program` is valid.  Anything else: fallback; `program` is
  // untouched and `detail` says what triggered it.
  FallbackReason fallback = FallbackReason::kNone;
  std::string detail;

  Program program;            // the rewritten program
  std::string query_pred;     // adorned name of the query predicate
  std::vector<AdornedPredicate> adorned;  // worklist-order summary
  // Predicates whose cones are evaluated unguarded (negated or
  // all-free intensional occurrences).
  std::vector<std::string> full_required;
  size_t magic_rules = 0;   // magic-defining rules emitted
  size_t guarded_rules = 0; // adorned variants of original rules
  size_t copy_rules = 0;    // guarded EDB->adorned copy rules

  bool ok() const { return fallback == FallbackReason::kNone; }
};

// Rewrites `program` for the bound query `query`.  `edb_preds` is the
// extensional base: predicates present in the database, declared
// @input, or asserted via @fact (an adorned predicate with both rules
// and an extensional base gets a guarded copy rule).  Never fails hard:
// out-of-fragment programs come back with `fallback` set.
MagicRewrite RewriteForQuery(const Program& program,
                             const QueryBinding& query,
                             const std::set<std::string>& edb_preds,
                             const RewriteOptions& options = {});

// Rewrites the existential specs of `rule` (the rule at `rule_index` of
// its program) so that auto-Skolemized existentials carry the explicit
// functor and frontier-argument order the engine would synthesize for
// that index.  Skolem terms minted by the pinned rule are
// value-identical to the original's regardless of where the rule lands
// in a rewritten program.  No-op for rules without auto existentials.
void PinSkolemSpecs(Rule* rule, size_t rule_index);

// Lint support: would ANY bound binding pattern on `output_pred`
// benefit from the magic rewrite?  "Benefit" means the all-bound
// adornment propagates at least one bound argument into a recursive
// predicate's subgoals; programs where it cannot (or whose cone forces
// a fallback) always evaluate the full recursion at serve time.
struct MagicOpportunity {
  bool recursive_cone = false;  // the output depends on recursion
  bool beneficial = false;      // bindings reach a recursive predicate
  FallbackReason fallback = FallbackReason::kNone;  // cone-level fallback
  std::string detail;
};

MagicOpportunity AnalyzeMagicOpportunity(const Program& program,
                                         const std::string& output_pred);

}  // namespace kgm::vadalog::magic

#endif  // KGM_VADALOG_MAGIC_MAGIC_H_
