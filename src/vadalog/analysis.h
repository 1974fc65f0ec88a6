// Static analysis of Vadalog programs.
//
// Implements the checks the paper relies on (Section 4):
//   * safety / range-restriction validation,
//   * predicate dependency graph, SCC condensation and stratification
//     (negation must not cross an SCC; aggregation inside an SCC switches the
//     engine to monotonic semantics),
//   * wardedness (affected positions, harmful/dangerous variables, ward
//     existence) — the syntactic restriction that keeps reasoning decidable
//     and PTIME,
//   * piecewise linearity (at most one recursive body atom per rule), the
//     fragment Non-Recursive Warded Datalog+- with transitive closure reduces
//     to [Berger et al., PODS'19].

#ifndef KGM_VADALOG_ANALYSIS_H_
#define KGM_VADALOG_ANALYSIS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/ast.h"

namespace kgm::vadalog {

// Result of stratification.
struct Stratification {
  // Predicate -> SCC id (dense, 0-based, topologically ordered:
  // dependencies first).
  std::map<std::string, int> pred_scc;
  int num_sccs = 0;
  // Rule index -> stratum (= SCC id of its head predicates; multi-head rules
  // force their head predicates into one SCC).
  std::vector<int> rule_stratum;
  // Rule index -> true when some body predicate shares the head's SCC.
  std::vector<bool> rule_recursive;

  int SccOf(const std::string& pred) const {
    auto it = pred_scc.find(pred);
    return it == pred_scc.end() ? -1 : it->second;
  }
};

// A stratification violation: a negated body literal whose predicate sits in
// the same SCC as the rule's head (negation inside recursion).
struct StratViolation {
  int rule_index = -1;       // 0-based index of the offending rule
  std::string head_pred;     // first head predicate of that rule
  std::string negated_pred;  // the negated body predicate
  std::string message;       // "rule N (pred): ..." — deterministic
};

// Builds the dependency graph and computes SCC condensation, per-rule strata
// and recursion flags unconditionally.  When `violations` is non-null, any
// stratification violations are appended in rule order (deterministic)
// instead of aborting the analysis.
Stratification ComputeStratification(const Program& program,
                                     std::vector<StratViolation>* violations);

// Builds the dependency graph and stratifies the program.  Fails on the
// first stratification violation (negation inside a recursive SCC).
Result<Stratification> Stratify(const Program& program);

// Validates range restriction for one rule: head/condition/assignment/
// aggregate/negation variables must be bound by positive literals or prior
// assignments; existential variables must be fresh and appear only in the
// head.  `rule_index` is 0-based and used for the "rule N (pred):" message
// prefix.
Status ValidateRuleSafety(const Rule& r, size_t rule_index);

// Validates every rule; fails with the first violation in rule order.
Status ValidateSafety(const Program& program);

// Validates the aggregates of one rule: each takes the arguments its
// function needs (count at most one, pack two, the others one), and all
// share one mode — monotonic when the rule is recursive or the function
// is an m-prefixed one, stratified otherwise.  `recursive` is the rule's
// Stratification::rule_recursive flag.
Status ValidateRuleAggregates(const Rule& r, size_t rule_index,
                              bool recursive);

// The widest rules the engine compiles: variable slots and atom positions
// are tracked in 64-bit masks.
inline constexpr size_t kMaxRuleVariables = 64;
inline constexpr size_t kMaxAtomArity = 60;

// Validates that one rule fits the engine's limits: no atom with more than
// kMaxAtomArity arguments, and at most kMaxRuleVariables distinct named
// variables over its atoms, assignments, aggregates (contributors and
// results) and existentials (variables and Skolem arguments) — the names
// the engine gives a slot.  Fails with the first violation.
Status ValidateRuleWidth(const Rule& r, size_t rule_index);

// A use of a predicate with an arity other than its first use's.
struct ArityConflict {
  std::string pred;
  size_t first_arity = 0;  // arity of the predicate's first use
  size_t arity = 0;        // arity of this use
  int rule_index = -1;     // 0-based rule of this use; -1 for an @fact
  SourceLoc loc;           // the atom's or the @fact's position
  // "predicate p used with arity 2 but previously with arity 1"
  std::string Message() const;
};

// Each predicate's arity at its first use: rules in order (body literals,
// then head atoms), then @facts.  When `conflicts` is non-null, every later
// use with another arity is appended to it, in the same order.
std::map<std::string, size_t> PredicateArities(
    const Program& program, std::vector<ArityConflict>* conflicts);

// A predicate position (predicate name, 0-based argument index).
struct Position {
  std::string pred;
  int index;
  bool operator<(const Position& o) const {
    if (pred != o.pred) return pred < o.pred;
    return index < o.index;
  }
  bool operator==(const Position& o) const {
    return pred == o.pred && index == o.index;
  }
};

struct WardednessReport {
  bool warded = true;
  // Affected positions: those where labeled nulls may appear.
  std::set<Position> affected;
  // Human-readable violations (empty when warded), in rule order.
  std::vector<std::string> violations;
  // 0-based rule index per violation, parallel to `violations`.
  std::vector<int> violation_rules;
};

// Checks wardedness of the program's rules.
WardednessReport CheckWardedness(const Program& program);

// True if every rule has at most one body atom mutually recursive with its
// head (piecewise-linear Datalog+-).
bool IsPiecewiseLinear(const Program& program);

// True if the program's dependency graph has a cycle (self-loops count).
bool IsRecursive(const Program& program);

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_ANALYSIS_H_
