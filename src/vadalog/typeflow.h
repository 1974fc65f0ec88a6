// Whole-program abstract interpretation over the predicate dependency
// graph ("typeflow").
//
// For every predicate position the analysis infers an element of a small
// value-kind lattice — a bitset over {int, double, string, bool,
// null-like (labeled null / Skolem), record} with the empty set as bottom
// (position never populated) and the full set as top (unknown) — plus,
// when derivable, a numeric interval and/or a single known constant.
// Seeds come from `@fact` declarations and from constants in rule heads;
// `@input` predicates and other extensional bases are top (their content
// is data, not program text).  Rules are interpreted abstractly in the
// SCC topological order ComputeStratification produces, iterating each
// SCC to its (finite-lattice) fixpoint, so recursive predicates converge
// in a handful of rounds.
//
// Three defect classes fall out of the interpretation and are reported
// as findings for the lint layer (src/lint) to anchor and render:
//
//   * kTypeConflict (error)  — a join variable meets two positions with
//     disjoint kind sets, a comparison/arithmetic expression is applied
//     to operands that can never share a kind, or a numeric aggregate
//     (msum & co.) folds a position that can never be numeric;
//   * kUnsatRule (warning)   — a body condition is statically always
//     false under the inferred intervals/constants: the rule is dead;
//   * kNullFlow (warning)    — labeled nulls / Skolems reach an @output
//     position that otherwise carries numeric or boolean scalars, which
//     scalar consumers (thresholds, aggregates) will choke on.

#ifndef KGM_VADALOG_TYPEFLOW_H_
#define KGM_VADALOG_TYPEFLOW_H_

#include <map>
#include <string>
#include <vector>

#include "base/value.h"
#include "vadalog/ast.h"

namespace kgm::vadalog {

// --- the value-kind lattice --------------------------------------------------

using KindSet = unsigned;
inline constexpr KindSet kKindInt = 1u << 0;
inline constexpr KindSet kKindDouble = 1u << 1;
inline constexpr KindSet kKindString = 1u << 2;
inline constexpr KindSet kKindBool = 1u << 3;
// Labeled nulls and Skolem terms: values minted by existentials.
inline constexpr KindSet kKindNull = 1u << 4;
inline constexpr KindSet kKindRecord = 1u << 5;
inline constexpr KindSet kKindNone = 0;                    // bottom
inline constexpr KindSet kKindAny = (1u << 6) - 1;         // top
inline constexpr KindSet kKindNumeric = kKindInt | kKindDouble;

// "int", "int|double", "any", "none" — deterministic, for signatures and
// diagnostics.
std::string KindSetName(KindSet kinds);

// One abstract value: a kind set, optionally narrowed by a numeric
// interval [lo, hi] and/or a single known constant.
struct AbstractValue {
  KindSet kinds = kKindNone;
  bool has_range = false;  // meaningful only when kinds intersects numeric
  double lo = 0;
  double hi = 0;
  bool has_const = false;  // exactly one concrete value flows here
  Value constant;

  static AbstractValue Top();
  static AbstractValue OfValue(const Value& v);

  bool is_bottom() const { return kinds == kKindNone; }
  // Could a concrete value here be numeric / null-like?
  bool maybe(KindSet k) const { return (kinds & k) != 0; }
  // Is every concrete value here certainly of (a subset of) `k`?
  bool certainly(KindSet k) const {
    return kinds != kKindNone && (kinds & ~k) == 0;
  }

  // Least upper bound (set union, interval hull, constants merge when
  // equal).  Returns true when *this changed — the fixpoint driver's
  // progress test.
  bool JoinWith(const AbstractValue& o);
  // Greatest lower bound (what a join variable occupying two positions
  // can actually hold).  A meet of two non-bottom values may be bottom:
  // that is exactly the type-conflict signal.
  AbstractValue MeetWith(const AbstractValue& o) const;

  std::string ToString() const;
};

// --- analysis result ---------------------------------------------------------

enum class TypeflowFindingKind {
  kTypeConflict,  // error-grade
  kUnsatRule,     // warning-grade
  kNullFlow,      // warning-grade
};

const char* TypeflowFindingKindName(TypeflowFindingKind k);

struct TypeflowFinding {
  TypeflowFindingKind kind = TypeflowFindingKind::kTypeConflict;
  // Offending rule, or -1 for program-level findings (null-flow anchors
  // at the @output declaration instead).
  int rule_index = -1;
  // For kNullFlow: index into Program::outputs (parallel to output_locs).
  int output_index = -1;
  std::string message;
};

struct TypeflowResult {
  // Predicate -> one abstract value per argument position.
  std::map<std::string, std::vector<AbstractValue>> signatures;
  // Deterministic order: rule index, then message.
  std::vector<TypeflowFinding> findings;

  const std::vector<AbstractValue>* SignatureOf(const std::string& pred) const;
  // "pred(int, double[0.2,1], string)" — analyze-verb rendering.
  std::string RenderSignature(const std::string& pred) const;
};

// Runs the abstract interpretation.  `external_predicates` names
// predicates whose extension the environment supplies outside the
// program text (graph-catalog labels in their relational encoding) —
// they seed top exactly like @input declarations, even when rules also
// derive into them.  Never fails: malformed programs (unbound variables,
// arity clashes) degrade to top — the dedicated lint passes own those
// defects, and the caller is expected to skip typeflow findings when
// error-grade passes already fired.
TypeflowResult AnalyzeTypeflow(
    const Program& program,
    const std::vector<std::string>& external_predicates = {});

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_TYPEFLOW_H_
