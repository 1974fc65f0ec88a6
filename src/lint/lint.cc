#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "metalog/parser.h"
#include "vadalog/analysis.h"
#include "vadalog/engine.h"
#include "vadalog/magic/magic.h"
#include "vadalog/parser.h"
#include "vadalog/typeflow.h"

namespace kgm::lint {

namespace {

using vadalog::Atom;
using vadalog::Literal;
using vadalog::Program;
using vadalog::Rule;
using vadalog::Term;

// Analysis messages carry a "rule N (pred): " prefix; diagnostics anchor the
// rule through loc/rule_index instead, so strip it.
std::string StripRulePrefix(const std::string& message) {
  if (message.rfind("rule ", 0) != 0) return message;
  size_t cut = message.find("): ");
  if (cut == std::string::npos) return message;
  return message.substr(cut + 3);
}

// Lex/parse errors embed "... at <line>:<col>: ..."; recover the position so
// parse diagnostics are source-located too.
SourceLoc ParseErrorLoc(const std::string& message) {
  SourceLoc loc;
  size_t at = message.find(" at ");
  if (at == std::string::npos) return loc;
  size_t i = at + 4;
  int line = 0, col = 0;
  while (i < message.size() && std::isdigit((unsigned char)message[i])) {
    line = line * 10 + (message[i] - '0');
    ++i;
  }
  if (i >= message.size() || message[i] != ':' || line == 0) return loc;
  ++i;
  while (i < message.size() && std::isdigit((unsigned char)message[i])) {
    col = col * 10 + (message[i] - '0');
    ++i;
  }
  if (col == 0) return loc;
  loc.line = line;
  loc.column = col;
  return loc;
}

// Anchor for rule-level findings: the rule's own position.
SourceLoc RuleAnchor(const Rule& r) { return r.loc; }

// Anchor for a finding about one atom: the atom position, falling back to
// the rule (compiled MetaLog atoms carry no positions of their own).
SourceLoc AtomAnchor(const Atom& a, const Rule& r) {
  return a.loc.valid() ? a.loc : r.loc;
}

void SafetyPass(const Program& program, LintResult* out) {
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    Status s = vadalog::ValidateRuleSafety(r, ri);
    if (!s.ok()) {
      out->Add(Severity::kError, "safety", RuleAnchor(r), static_cast<int>(ri),
               StripRulePrefix(s.message()));
    }
  }
}

void StratificationPass(const Program& program, LintResult* out) {
  std::vector<vadalog::StratViolation> violations;
  vadalog::ComputeStratification(program, &violations);
  for (const vadalog::StratViolation& v : violations) {
    const Rule& r = program.rules[v.rule_index];
    out->Add(Severity::kError, "stratification", RuleAnchor(r), v.rule_index,
             StripRulePrefix(v.message));
  }
}

void WardednessPass(const Program& program, LintResult* out) {
  vadalog::WardednessReport report = vadalog::CheckWardedness(program);
  for (size_t i = 0; i < report.violations.size(); ++i) {
    int ri = report.violation_rules[i];
    const Rule& r = program.rules[ri];
    out->Add(Severity::kError, "wardedness", RuleAnchor(r), ri,
             StripRulePrefix(report.violations[i]));
  }
}

// The engine refuses to compile a rule wider than its limits
// (vadalog/engine.h); report those rules so lint-clean means compilable.
// The variable count mirrors the engine's slot assignment: every named
// variable of an atom, assignment, aggregate or existential.
void RuleWidthCheck(const Rule& r, int ri, LintResult* out) {
  std::set<std::string> vars;
  auto check_atom = [&](const Atom& a) {
    for (const Term& t : a.args) {
      if (t.is_var() && !t.is_anonymous()) vars.insert(t.var);
    }
    if (a.args.size() > vadalog::kMaxAtomArity) {
      out->Add(Severity::kError, "arity", AtomAnchor(a, r), ri,
               "atom " + a.predicate + " has " +
                   std::to_string(a.args.size()) +
                   " arguments; the engine accepts at most " +
                   std::to_string(vadalog::kMaxAtomArity));
    }
  };
  for (const Literal& l : r.body) check_atom(l.atom);
  for (const Atom& h : r.head) check_atom(h);
  for (const vadalog::Assignment& a : r.assignments) vars.insert(a.var);
  for (const vadalog::Aggregate& a : r.aggregates) {
    vars.insert(a.contributors.begin(), a.contributors.end());
    vars.insert(a.result_var);
  }
  for (const vadalog::ExistentialSpec& e : r.existentials) {
    vars.insert(e.var);
    vars.insert(e.skolem_args.begin(), e.skolem_args.end());
  }
  if (vars.size() > vadalog::kMaxRuleVariables) {
    out->Add(Severity::kError, "arity", RuleAnchor(r), ri,
             "rule uses " + std::to_string(vars.size()) +
                 " variables; the engine accepts at most " +
                 std::to_string(vadalog::kMaxRuleVariables));
  }
}

void ArityPass(const Program& program, LintResult* out) {
  struct Seen {
    size_t arity;
    bool from_fact;
  };
  std::unordered_map<std::string, Seen> seen;
  auto check = [&](const std::string& pred, size_t arity, SourceLoc loc,
                   int rule_index) {
    auto [it, inserted] = seen.emplace(pred, Seen{arity, rule_index < 0});
    if (inserted || it->second.arity == arity) return;
    out->Add(Severity::kError, "arity", loc, rule_index,
             "predicate " + pred + " used with arity " +
                 std::to_string(arity) + " but previously with arity " +
                 std::to_string(it->second.arity));
  };
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    for (const Literal& l : r.body) {
      check(l.atom.predicate, l.atom.args.size(), AtomAnchor(l.atom, r),
            static_cast<int>(ri));
    }
    for (const Atom& h : r.head) {
      check(h.predicate, h.args.size(), AtomAnchor(h, r),
            static_cast<int>(ri));
    }
    RuleWidthCheck(r, static_cast<int>(ri), out);
  }
  for (const vadalog::FactDecl& f : program.facts) {
    check(f.predicate, f.values.size(), f.loc, -1);
  }
}

void DefinedUsePasses(const Program& program, const LintOptions& options,
                      LintResult* out) {
  std::set<std::string> external(options.external_predicates.begin(),
                                 options.external_predicates.end());
  std::set<std::string> defined;  // heads, facts, inputs
  for (const Rule& r : program.rules) {
    for (const Atom& h : r.head) defined.insert(h.predicate);
  }
  for (const vadalog::FactDecl& f : program.facts) defined.insert(f.predicate);
  for (const std::string& p : program.inputs) defined.insert(p);

  if (options.undefined_predicates) {
    std::set<std::string> reported;
    for (size_t ri = 0; ri < program.rules.size(); ++ri) {
      const Rule& r = program.rules[ri];
      for (const Literal& l : r.body) {
        const std::string& p = l.atom.predicate;
        if (defined.count(p) > 0 || external.count(p) > 0) continue;
        if (!reported.insert(p).second) continue;
        out->Add(Severity::kWarning, "undefined-predicate",
                 AtomAnchor(l.atom, r), static_cast<int>(ri),
                 "predicate " + p +
                     " is never defined: no rule derives it and it is not "
                     "declared @input or @fact");
      }
    }
    for (size_t i = 0; i < program.outputs.size(); ++i) {
      const std::string& p = program.outputs[i];
      if (defined.count(p) > 0 || external.count(p) > 0) continue;
      SourceLoc loc =
          i < program.output_locs.size() ? program.output_locs[i] : SourceLoc{};
      out->Add(Severity::kError, "undefined-predicate", loc, -1,
               "output predicate " + p + " is never defined");
    }
  }

  // The unused/unreachable passes only make sense against declared outputs:
  // without them every derived predicate is potentially the program's point.
  if (program.outputs.empty()) return;
  std::set<std::string> outputs(program.outputs.begin(),
                                program.outputs.end());

  if (options.unused_predicates) {
    std::set<std::string> used;
    for (const Rule& r : program.rules) {
      for (const Literal& l : r.body) used.insert(l.atom.predicate);
    }
    std::set<std::string> reported;
    for (size_t ri = 0; ri < program.rules.size(); ++ri) {
      const Rule& r = program.rules[ri];
      for (const Atom& h : r.head) {
        const std::string& p = h.predicate;
        if (used.count(p) > 0 || outputs.count(p) > 0 ||
            external.count(p) > 0) {
          continue;
        }
        if (!reported.insert(p).second) continue;
        out->Add(Severity::kWarning, "unused-predicate", AtomAnchor(h, r),
                 static_cast<int>(ri),
                 "predicate " + p +
                     " is derived but never used and is not an @output");
      }
    }
  }

  if (options.unreachable_rules) {
    // Reverse reachability from the outputs over head -> body edges.
    std::set<std::string> reachable = outputs;
    bool changed = true;
    std::vector<bool> rule_reachable(program.rules.size(), false);
    while (changed) {
      changed = false;
      for (size_t ri = 0; ri < program.rules.size(); ++ri) {
        if (rule_reachable[ri]) continue;
        const Rule& r = program.rules[ri];
        bool hit = false;
        for (const Atom& h : r.head) {
          if (reachable.count(h.predicate) > 0) {
            hit = true;
            break;
          }
        }
        if (!hit) continue;
        rule_reachable[ri] = true;
        changed = true;
        for (const Literal& l : r.body) reachable.insert(l.atom.predicate);
      }
    }
    for (size_t ri = 0; ri < program.rules.size(); ++ri) {
      if (rule_reachable[ri]) continue;
      const Rule& r = program.rules[ri];
      std::string head = r.head.empty() ? "?" : r.head[0].predicate;
      out->Add(Severity::kWarning, "unreachable-rule", RuleAnchor(r),
               static_cast<int>(ri),
               "rule deriving " + head +
                   " is unreachable from the declared outputs");
    }
  }
}

void SingletonPass(const Program& program, LintResult* out) {
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    std::map<std::string, int> counts;
    auto count_var = [&](const std::string& v) {
      if (!v.empty() && v[0] != '_') ++counts[v];
    };
    auto count_expr = [&](const vadalog::ExprPtr& e) {
      std::vector<std::string> vars;
      e->CollectVars(&vars);
      for (const std::string& v : vars) count_var(v);
    };
    for (const Literal& l : r.body) {
      for (const Term& t : l.atom.args) {
        if (t.is_var()) count_var(t.var);
      }
    }
    for (const Atom& h : r.head) {
      for (const Term& t : h.args) {
        if (t.is_var()) count_var(t.var);
      }
    }
    for (const vadalog::Assignment& a : r.assignments) {
      count_var(a.var);
      count_expr(a.expr);
    }
    for (const vadalog::Condition& c : r.conditions) count_expr(c.expr);
    for (const vadalog::Aggregate& a : r.aggregates) {
      count_var(a.result_var);
      for (const vadalog::ExprPtr& e : a.args) count_expr(e);
      for (const std::string& v : a.contributors) count_var(v);
    }
    for (const vadalog::ExistentialSpec& e : r.existentials) {
      count_var(e.var);
      for (const std::string& v : e.skolem_args) count_var(v);
    }
    for (const auto& [var, n] : counts) {
      if (n != 1) continue;
      out->Add(Severity::kWarning, "singleton-variable", RuleAnchor(r),
               static_cast<int>(ri),
               "variable " + var +
                   " occurs only once in the rule; use '_' if intentional");
      // --fix: the '_' prefix marks the singleton intentional while
      // keeping the name readable (and exempt from this pass).
      Diagnostic& d = out->diagnostics.back();
      d.fix_original = var;
      d.fix_replacement = "_" + var;
    }
  }
}

// Serve-time advice: an @output whose bound queries can never benefit from
// the magic-sets rewrite (see vadalog/magic) always pays the full
// materialization at point-query time — either because no bound argument
// reaches a recursive predicate, or because the output's cone forces a
// fallback (aggregates).  Only meaningful
// against declared outputs, like the unused/unreachable passes.
void MagicFutilityPass(const Program& program, LintResult* out) {
  for (size_t i = 0; i < program.outputs.size(); ++i) {
    const std::string& pred = program.outputs[i];
    vadalog::magic::MagicOpportunity opp =
        vadalog::magic::AnalyzeMagicOpportunity(program, pred);
    SourceLoc loc =
        i < program.output_locs.size() ? program.output_locs[i] : SourceLoc{};
    if (opp.fallback != vadalog::magic::FallbackReason::kNone) {
      out->Add(Severity::kWarning, "magic-futility", loc, -1,
               "bound queries on " + pred +
                   " always fall back to full materialization: " + opp.detail);
    } else if (opp.recursive_cone && !opp.beneficial) {
      out->Add(Severity::kWarning, "magic-futility", loc, -1, opp.detail);
    }
  }
}

// Translates typeflow findings (vadalog/typeflow.h) into diagnostics:
// type-conflict is error-grade, unsat-rule and null-flow are warnings.
// Rule-level findings anchor at the rule (for compiled MetaLog the
// rule_origin remap in LintCompiledMeta carries them to the source rule);
// null-flow anchors at the @output declaration.
void TypeflowPasses(const Program& program, const LintOptions& options,
                    LintResult* out) {
  vadalog::TypeflowResult flow =
      vadalog::AnalyzeTypeflow(program, options.external_predicates);
  for (const vadalog::TypeflowFinding& f : flow.findings) {
    switch (f.kind) {
      case vadalog::TypeflowFindingKind::kTypeConflict: {
        if (!options.type_conflict) break;
        SourceLoc loc;
        if (f.rule_index >= 0 &&
            f.rule_index < static_cast<int>(program.rules.size())) {
          loc = RuleAnchor(program.rules[f.rule_index]);
        }
        out->Add(Severity::kError, "type-conflict", loc, f.rule_index,
                 f.message);
        break;
      }
      case vadalog::TypeflowFindingKind::kUnsatRule: {
        if (!options.unsat_rule) break;
        SourceLoc loc;
        if (f.rule_index >= 0 &&
            f.rule_index < static_cast<int>(program.rules.size())) {
          loc = RuleAnchor(program.rules[f.rule_index]);
        }
        out->Add(Severity::kWarning, "unsat-rule", loc, f.rule_index,
                 f.message);
        break;
      }
      case vadalog::TypeflowFindingKind::kNullFlow: {
        if (!options.null_flow) break;
        SourceLoc loc;
        if (f.output_index >= 0 &&
            f.output_index < static_cast<int>(program.output_locs.size())) {
          loc = program.output_locs[f.output_index];
        }
        out->Add(Severity::kWarning, "null-flow", loc, -1, f.message);
        break;
      }
    }
  }
}

// --- MetaLog-level passes ----------------------------------------------------

using metalog::GraphCatalog;
using metalog::GraphPattern;
using metalog::MetaProgram;
using metalog::MetaRule;
using metalog::PathExpr;
using metalog::PathKind;
using metalog::PathPtr;
using metalog::PgAtom;
using metalog::PgProperty;

void ForEachPatternAtom(
    const GraphPattern& pattern,
    const std::function<void(const PgAtom&, bool inside_star)>& fn) {
  for (const PgAtom& n : pattern.nodes) fn(n, false);
  std::function<void(const PathPtr&, bool)> walk = [&](const PathPtr& p,
                                                       bool in_star) {
    if (p->kind == PathKind::kEdge) {
      fn(p->edge, in_star);
      return;
    }
    bool star = in_star || p->kind == PathKind::kStar;
    for (const PathPtr& c : p->children) walk(c, star);
  };
  for (const PathPtr& p : pattern.paths) walk(p, false);
}

// Bounded Levenshtein distance for nearest-catalog-label suggestions.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

// The closest catalog label of the right kind, or "" when nothing is near
// enough to suggest (distance must be <= 2 and strictly under the label's
// own length so short names don't map to arbitrary neighbors).
std::string NearestLabel(const std::string& label,
                         const std::vector<std::string>& candidates) {
  std::string best;
  size_t best_dist = 3;
  for (const std::string& c : candidates) {
    size_t d = EditDistance(label, c);
    if (d < best_dist || (d == best_dist && !best.empty() && c < best)) {
      best = c;
      best_dist = d;
    }
  }
  if (best_dist >= label.size()) return "";
  return best;
}

void CatalogPass(const MetaProgram& meta, const GraphCatalog& base,
                 LintResult* out) {
  // Labels derived by any head pattern are intensional: absent from the
  // base catalog by design.
  std::set<std::string> derived;
  for (const MetaRule& rule : meta.rules) {
    for (const GraphPattern& p : rule.head_patterns) {
      ForEachPatternAtom(p, [&](const PgAtom& a, bool) {
        if (!a.label.empty()) derived.insert(a.label);
      });
    }
  }
  std::set<std::pair<std::string, std::string>> reported;
  for (size_t ri = 0; ri < meta.rules.size(); ++ri) {
    const MetaRule& rule = meta.rules[ri];
    auto check_atom = [&](const PgAtom& a, bool) {
      if (a.label.empty()) return;
      const char* kind = a.is_edge ? "edge" : "node";
      bool known = a.is_edge ? base.HasEdgeLabel(a.label)
                             : base.HasNodeLabel(a.label);
      bool other_kind = a.is_edge ? base.HasNodeLabel(a.label)
                                  : base.HasEdgeLabel(a.label);
      if (!known && other_kind) {
        out->Add(Severity::kError, "catalog", a.loc, static_cast<int>(ri),
                 std::string("label ") + a.label + " is a " +
                     (a.is_edge ? "node" : "edge") + " label but used as a " +
                     kind + " label");
        return;
      }
      if (!known) {
        if (derived.count(a.label) > 0) return;  // intensional
        if (!reported.insert({a.label, ""}).second) return;
        std::string message =
            std::string(kind) + " label " + a.label +
            " is not in the graph catalog and is not derived by any rule";
        std::string nearest = NearestLabel(
            a.label, a.is_edge ? base.EdgeLabels() : base.NodeLabels());
        out->Add(Severity::kWarning, "catalog", a.loc, static_cast<int>(ri),
                 nearest.empty() ? message
                                 : message + "; did you mean " + nearest +
                                       "?");
        if (!nearest.empty()) {
          Diagnostic& d = out->diagnostics.back();
          d.fix_original = a.label;
          d.fix_replacement = nearest;
        }
        return;
      }
      const std::vector<std::string>& props =
          a.is_edge ? base.EdgeProps(a.label) : base.NodeProps(a.label);
      for (const PgProperty& p : a.properties) {
        if (std::find(props.begin(), props.end(), p.name) != props.end()) {
          continue;
        }
        if (!reported.insert({a.label, p.name}).second) continue;
        out->Add(Severity::kWarning, "catalog", a.loc, static_cast<int>(ri),
                 "property " + p.name + " is not in the graph catalog for " +
                     kind + " label " + a.label);
      }
    };
    for (const GraphPattern& p : rule.body_patterns) {
      ForEachPatternAtom(p, check_atom);
    }
    for (const GraphPattern& p : rule.negated_patterns) {
      ForEachPatternAtom(p, check_atom);
    }
    for (const GraphPattern& p : rule.head_patterns) {
      ForEachPatternAtom(p, check_atom);
    }
  }
}

void CollectAtomVars(const PgAtom& a, std::set<std::string>* vars) {
  if (!a.id_var.empty() && a.id_var != "_") vars->insert(a.id_var);
  for (const PgProperty& p : a.properties) {
    if (p.value.is_var() && !p.value.is_anonymous()) {
      vars->insert(p.value.var);
    }
  }
  if (!a.spread_var.empty()) vars->insert(a.spread_var);
}

void PathUnboundPass(const MetaProgram& meta, const LintOptions& options,
                     LintResult* out) {
  for (size_t ri = 0; ri < meta.rules.size(); ++ri) {
    const MetaRule& rule = meta.rules[ri];

    // Variables bound outside any '*' sub-path: node atoms, non-star path
    // parts, negated patterns, assignment targets and aggregate results.
    std::set<std::string> star_vars, bound_outside;
    SourceLoc star_loc;
    auto scan_pattern = [&](const GraphPattern& p) {
      ForEachPatternAtom(p, [&](const PgAtom& a, bool inside_star) {
        std::set<std::string> vars;
        CollectAtomVars(a, &vars);
        if (inside_star) {
          if (!star_loc.valid()) star_loc = a.loc;
          for (const std::string& v : vars) star_vars.insert(v);
        } else {
          for (const std::string& v : vars) bound_outside.insert(v);
        }
      });
    };
    for (const GraphPattern& p : rule.body_patterns) scan_pattern(p);
    for (const GraphPattern& p : rule.negated_patterns) scan_pattern(p);
    for (const vadalog::Assignment& a : rule.assignments) {
      bound_outside.insert(a.var);
    }
    for (const vadalog::Aggregate& a : rule.aggregates) {
      bound_outside.insert(a.result_var);
    }
    if (star_vars.empty()) continue;

    // Variables the rest of the rule consumes.
    std::set<std::string> used;
    for (const GraphPattern& p : rule.head_patterns) {
      ForEachPatternAtom(p,
                         [&](const PgAtom& a, bool) { CollectAtomVars(a, &used); });
    }
    auto use_expr = [&](const vadalog::ExprPtr& e) {
      std::vector<std::string> vars;
      e->CollectVars(&vars);
      used.insert(vars.begin(), vars.end());
    };
    for (const vadalog::Assignment& a : rule.assignments) use_expr(a.expr);
    for (const vadalog::Condition& c : rule.conditions) use_expr(c.expr);
    for (const vadalog::Aggregate& a : rule.aggregates) {
      for (const vadalog::ExprPtr& e : a.args) use_expr(e);
      used.insert(a.contributors.begin(), a.contributors.end());
    }
    for (const vadalog::ExistentialSpec& e : rule.existentials) {
      used.insert(e.skolem_args.begin(), e.skolem_args.end());
    }

    for (const std::string& v : used) {
      if (star_vars.count(v) == 0 || bound_outside.count(v) > 0) continue;
      if (options.mtv.reflexive_star) {
        out->Add(Severity::kError, "path-unbound-variable",
                 rule.loc, static_cast<int>(ri),
                 "variable " + v +
                     " is bound only inside a '*' path; the empty-path "
                     "variant leaves it unbound");
      }
    }
  }
}

LintResult RunLintsImpl(const Program& program, const LintOptions& options) {
  LintResult result;
  if (options.safety) SafetyPass(program, &result);
  if (options.stratification) StratificationPass(program, &result);
  if (options.wardedness) WardednessPass(program, &result);
  if (options.arity) ArityPass(program, &result);
  if (options.undefined_predicates || options.unused_predicates ||
      options.unreachable_rules) {
    DefinedUsePasses(program, options, &result);
  }
  if (options.singleton_variables) SingletonPass(program, &result);
  // Futility analysis runs the adornment machinery and the typeflow
  // passes run a whole-program abstract interpretation; both are only
  // meaningful over a program the error passes accepted.  Skips are
  // recorded so renderers can say why a pass produced no findings.
  const bool gated = result.has_errors();
  if (options.magic_futility) {
    if (gated) {
      result.skipped_passes.push_back("magic-futility");
    } else {
      MagicFutilityPass(program, &result);
    }
  }
  const bool typeflow_wanted =
      options.type_conflict || options.unsat_rule || options.null_flow;
  if (typeflow_wanted) {
    if (gated) {
      if (options.type_conflict) {
        result.skipped_passes.push_back("type-conflict");
      }
      if (options.unsat_rule) result.skipped_passes.push_back("unsat-rule");
      if (options.null_flow) result.skipped_passes.push_back("null-flow");
    } else {
      TypeflowPasses(program, options, &result);
    }
  }
  return result;
}

void Dedup(LintResult* result) {
  std::set<std::tuple<int, std::string, int, std::string>> seen;
  std::vector<Diagnostic> unique;
  for (Diagnostic& d : result->diagnostics) {
    if (seen.emplace(static_cast<int>(d.severity), d.pass, d.rule_index,
                     d.message)
            .second) {
      unique.push_back(std::move(d));
    }
  }
  result->diagnostics = std::move(unique);
}

}  // namespace

LintResult RunLints(const Program& program, const LintOptions& options) {
  LintResult result = RunLintsImpl(program, options);
  result.Sort();
  return result;
}

LintResult LintCompiledMeta(const MetaProgram& meta,
                            const Program& program,
                            const std::vector<int>& rule_origin,
                            const GraphCatalog* base_catalog,
                            const LintOptions& options) {
  LintResult result = RunLintsImpl(program, options);
  // Remap compiled-rule anchors to the originating MetaLog rules.  The loc
  // is already the MetaLog rule's (MTV stamps it), only the index changes.
  for (Diagnostic& d : result.diagnostics) {
    if (d.rule_index >= 0 &&
        d.rule_index < static_cast<int>(rule_origin.size())) {
      d.rule_index = rule_origin[d.rule_index];
    }
  }
  if (options.catalog && base_catalog != nullptr) {
    CatalogPass(meta, *base_catalog, &result);
  }
  if (options.path_unbound) PathUnboundPass(meta, options, &result);
  // Star-expansion variants and helper rules can repeat one source-level
  // finding; keep the first occurrence of each.
  Dedup(&result);
  result.Sort();
  return result;
}

LintResult LintCompiledMeta(const MetaProgram& meta,
                            const metalog::MtvResult& mtv,
                            const GraphCatalog* base_catalog,
                            const LintOptions& options) {
  return LintCompiledMeta(meta, mtv.program, mtv.rule_origin, base_catalog,
                          options);
}

LintResult LintVadalogSource(std::string_view source,
                             const LintOptions& options) {
  Result<Program> program = vadalog::ParseProgram(source);
  if (!program.ok()) {
    LintResult result;
    result.Add(Severity::kError, "parse",
               ParseErrorLoc(program.status().message()), -1,
               program.status().message());
    return result;
  }
  return RunLints(*program, options);
}

LintResult LintMetaLogSource(std::string_view source,
                             const GraphCatalog* base_catalog,
                             const LintOptions& options) {
  Result<MetaProgram> meta = metalog::ParseMetaProgram(source);
  if (!meta.ok()) {
    LintResult result;
    result.Add(Severity::kError, "parse",
               ParseErrorLoc(meta.status().message()), -1,
               meta.status().message());
    return result;
  }
  GraphCatalog catalog;
  if (base_catalog != nullptr) catalog = *base_catalog;
  Status absorbed = catalog.AbsorbProgram(*meta);
  if (!absorbed.ok()) {
    LintResult result;
    result.Add(Severity::kError, "translate", SourceLoc{}, -1,
               absorbed.message());
    return result;
  }
  LintOptions effective = options;
  // Catalog labels are extensional definitions for the compiled program.
  for (const std::string& l : catalog.NodeLabels()) {
    effective.external_predicates.push_back(l);
  }
  for (const std::string& l : catalog.EdgeLabels()) {
    effective.external_predicates.push_back(l);
  }
  Result<metalog::MtvResult> mtv =
      metalog::TranslateMetaProgram(*meta, catalog, options.mtv);
  if (!mtv.ok()) {
    LintResult result;
    result.Add(Severity::kError, "translate", SourceLoc{}, -1,
               mtv.status().message());
    // The MetaLog-level passes still run: they often explain the failure
    // with a better anchor.
    if (options.catalog && base_catalog != nullptr) {
      CatalogPass(*meta, *base_catalog, &result);
    }
    if (options.path_unbound) PathUnboundPass(*meta, effective, &result);
    result.Sort();
    return result;
  }
  return LintCompiledMeta(*meta, *mtv, base_catalog, effective);
}

}  // namespace kgm::lint
