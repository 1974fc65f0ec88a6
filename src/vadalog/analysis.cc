#include "vadalog/analysis.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/check.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {

namespace {

// Collects all predicates of the program in deterministic order.
std::vector<std::string> CollectPredicates(const Program& program) {
  std::set<std::string> preds;
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) preds.insert(l.atom.predicate);
    for (const Atom& a : r.head) preds.insert(a.predicate);
  }
  for (const FactDecl& f : program.facts) preds.insert(f.predicate);
  return {preds.begin(), preds.end()};
}

// Uniform diagnostic prefix: 1-based rule index plus the first head
// predicate, so analysis messages are deterministic and greppable.
std::string RulePrefix(const Rule& r, size_t ri) {
  std::string pred = r.head.empty()
                         ? (r.label.empty() ? "?" : r.label)
                         : r.head[0].predicate;
  return "rule " + std::to_string(ri + 1) + " (" + pred + "): ";
}

// Tarjan SCC over the predicate dependency graph (iterative).
std::vector<int> TarjanScc(int n, const std::vector<std::vector<int>>& adj,
                           int* num_sccs_out) {
  std::vector<int> index(n, -1), low(n, 0), scc(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0;
  int next_scc = 0;

  struct Frame {
    int v;
    size_t child;
  };
  for (int start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    std::vector<Frame> frames{{start, 0}};
    index[start] = low[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        int w = adj[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc[w] = next_scc;
            if (w == f.v) break;
          }
          ++next_scc;
        }
        int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  *num_sccs_out = next_scc;
  return scc;
}

}  // namespace

Stratification ComputeStratification(const Program& program,
                                     std::vector<StratViolation>* violations) {
  std::vector<std::string> preds = CollectPredicates(program);
  std::unordered_map<std::string, int> id;
  for (size_t i = 0; i < preds.size(); ++i) id[preds[i]] = static_cast<int>(i);
  int n = static_cast<int>(preds.size());

  std::vector<std::vector<int>> adj(n);
  for (const Rule& r : program.rules) {
    for (const Atom& h : r.head) {
      int hid = id[h.predicate];
      for (const Literal& l : r.body) {
        adj[id[l.atom.predicate]].push_back(hid);
      }
      // Multi-head rules: their head predicates are produced together, so
      // force them into the same SCC.
      for (const Atom& h2 : r.head) {
        int hid2 = id[h2.predicate];
        if (hid2 != hid) adj[hid].push_back(hid2);
      }
    }
  }

  int num_sccs = 0;
  std::vector<int> scc_raw = TarjanScc(n, adj, &num_sccs);

  // Topological order of the condensation.  Tarjan emits SCCs in reverse
  // topological order, so renumber.
  std::vector<int> renumber(num_sccs);
  for (int i = 0; i < num_sccs; ++i) renumber[i] = num_sccs - 1 - i;

  Stratification strat;
  strat.num_sccs = num_sccs;
  for (int i = 0; i < n; ++i) {
    strat.pred_scc[preds[i]] = renumber[scc_raw[i]];
  }

  strat.rule_stratum.resize(program.rules.size(), 0);
  strat.rule_recursive.resize(program.rules.size(), false);
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    int stratum = 0;
    if (!r.head.empty()) {
      stratum = strat.pred_scc[r.head[0].predicate];
      for (const Atom& h : r.head) {
        stratum = std::max(stratum, strat.pred_scc[h.predicate]);
      }
    }
    strat.rule_stratum[ri] = stratum;
    for (const Literal& l : r.body) {
      if (strat.pred_scc[l.atom.predicate] == stratum) {
        strat.rule_recursive[ri] = true;
      }
    }
    // pack() inside recursion runs in monotonic mode: the record grows as
    // contributions arrive, and intermediate (partial) records are emitted
    // along the way.  Consumers tolerate this because null-valued fields
    // are ignored on decode and facts deduplicate.
  }

  // Negation must not occur inside an SCC.  Violations are reported per rule
  // in source order so diagnostics are deterministic.
  if (violations != nullptr) {
    for (size_t ri = 0; ri < program.rules.size(); ++ri) {
      const Rule& r = program.rules[ri];
      if (r.head.empty()) continue;
      for (const Literal& l : r.body) {
        if (!l.negated) continue;
        bool same_scc = false;
        for (const Atom& h : r.head) {
          if (strat.pred_scc[l.atom.predicate] ==
              strat.pred_scc[h.predicate]) {
            same_scc = true;
            break;
          }
        }
        if (!same_scc) continue;
        StratViolation v;
        v.rule_index = static_cast<int>(ri);
        v.head_pred = r.head[0].predicate;
        v.negated_pred = l.atom.predicate;
        v.message = RulePrefix(r, ri) + "not stratified: negated dependency on " +
                    l.atom.predicate + " within a recursive SCC";
        violations->push_back(std::move(v));
      }
    }
  }
  return strat;
}

Result<Stratification> Stratify(const Program& program) {
  std::vector<StratViolation> violations;
  Stratification strat = ComputeStratification(program, &violations);
  if (!violations.empty()) {
    return FailedPrecondition("program is not stratified: " +
                              violations.front().message);
  }
  return strat;
}

Status ValidateRuleSafety(const Rule& r, size_t rule_index) {
  const std::string where = RulePrefix(r, rule_index);
  std::unordered_set<std::string> positive_vars;
  for (const Literal& l : r.body) {
    if (l.negated) continue;
    for (const Term& t : l.atom.args) {
      if (t.is_var() && !t.is_anonymous()) positive_vars.insert(t.var);
    }
  }
  std::unordered_set<std::string> bound = positive_vars;
  // Assignments may depend on aggregate results (e.g. the get() calls
  // generated for record spreads); such assignments are evaluated after
  // aggregation, so validate them against the enlarged binding set.
  std::unordered_set<std::string> result_names;
  for (const Aggregate& a : r.aggregates) result_names.insert(a.result_var);
  std::unordered_set<std::string> post_targets;
  for (const Assignment& a : r.assignments) {
    std::vector<std::string> vars;
    a.expr->CollectVars(&vars);
    bool post = false;
    for (const std::string& v : vars) {
      if (result_names.count(v) > 0 || post_targets.count(v) > 0) {
        post = true;
      }
    }
    for (const std::string& v : vars) {
      if (bound.count(v) > 0) continue;
      if (post &&
          (result_names.count(v) > 0 || post_targets.count(v) > 0)) {
        continue;
      }
      return FailedPrecondition(where + "unsafe assignment: variable " + v +
                                " unbound");
    }
    if (post) {
      post_targets.insert(a.var);
    } else {
      bound.insert(a.var);
    }
  }
  std::unordered_set<std::string> agg_results;
  for (const Aggregate& a : r.aggregates) {
    std::vector<std::string> vars;
    for (const ExprPtr& e : a.args) e->CollectVars(&vars);
    for (const std::string& v : a.contributors) vars.push_back(v);
    for (const std::string& v : vars) {
      if (bound.count(v) == 0) {
        return FailedPrecondition(where + "unsafe aggregate: variable " + v +
                                  " unbound");
      }
    }
    if (!IsAggregateFunction(a.func)) {
      return FailedPrecondition(where + "unknown aggregate function " +
                                a.func);
    }
    agg_results.insert(a.result_var);
    bound.insert(a.result_var);
  }
  for (const std::string& v : post_targets) bound.insert(v);
  for (const Condition& c : r.conditions) {
    std::vector<std::string> vars;
    c.expr->CollectVars(&vars);
    for (const std::string& v : vars) {
      if (bound.count(v) == 0) {
        return FailedPrecondition(where + "unsafe condition: variable " + v +
                                  " unbound");
      }
    }
  }
  for (const Literal& l : r.body) {
    if (!l.negated) continue;
    for (const Term& t : l.atom.args) {
      if (t.is_var() && !t.is_anonymous() && bound.count(t.var) == 0) {
        return FailedPrecondition(where + "unsafe negation: variable " +
                                  t.var + " unbound");
      }
    }
  }
  std::unordered_set<std::string> existential;
  for (const ExistentialSpec& e : r.existentials) {
    if (bound.count(e.var) > 0) {
      return FailedPrecondition(where + "existential variable " + e.var +
                                " also bound in body");
    }
    if (!existential.insert(e.var).second) {
      return FailedPrecondition(where + "duplicate existential variable " +
                                e.var);
    }
    for (const std::string& a : e.skolem_args) {
      if (bound.count(a) == 0) {
        return FailedPrecondition(where + "Skolem argument " + a +
                                  " unbound");
      }
    }
  }
  if (r.head.empty()) {
    return FailedPrecondition(where + "rule has no head");
  }
  bool head_uses_existential = r.existentials.empty();
  for (const Atom& h : r.head) {
    for (const Term& t : h.args) {
      if (!t.is_var()) continue;
      if (t.is_anonymous()) {
        return FailedPrecondition(where + "anonymous variable in head");
      }
      if (existential.count(t.var) > 0) {
        head_uses_existential = true;
        continue;
      }
      if (bound.count(t.var) == 0) {
        return FailedPrecondition(where + "unsafe head: variable " + t.var +
                                  " unbound");
      }
    }
  }
  if (!head_uses_existential) {
    return FailedPrecondition(where + "declared existential never used in head");
  }
  return OkStatus();
}

Status ValidateSafety(const Program& program) {
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    KGM_RETURN_IF_ERROR(ValidateRuleSafety(program.rules[ri], ri));
  }
  return OkStatus();
}

Status ValidateRuleAggregates(const Rule& r, size_t rule_index,
                              bool recursive) {
  const std::string where = RulePrefix(r, rule_index);
  bool any_monotonic = false;
  bool any_stratified = false;
  for (const Aggregate& a : r.aggregates) {
    if (!IsAggregateFunction(a.func)) continue;  // a safety error
    const bool explicit_mono = IsMonotonicAggregateName(a.func);
    const std::string base = explicit_mono ? a.func.substr(1) : a.func;
    (explicit_mono || recursive ? any_monotonic : any_stratified) = true;
    if (base == "count") {
      if (a.args.size() > 1) {
        return FailedPrecondition(where + a.func +
                                  " takes at most one argument");
      }
      continue;
    }
    const size_t want = base == "pack" ? 2 : 1;
    if (a.args.size() != want) {
      return FailedPrecondition(where + "aggregate " + a.func + " takes " +
                                std::to_string(want) + " argument(s)");
    }
  }
  if (any_monotonic && any_stratified) {
    return FailedPrecondition(where +
                              "mixes monotonic and stratified aggregates");
  }
  return OkStatus();
}

namespace {

// Calls fn on every named variable occurrence the engine gives a slot.
template <typename Fn>
void ForEachSlotVariable(const Rule& r, Fn fn) {
  auto atom = [&fn](const Atom& a) {
    for (const Term& t : a.args) {
      if (t.is_var() && !t.is_anonymous()) fn(t.var);
    }
  };
  for (const Literal& l : r.body) atom(l.atom);
  for (const Atom& h : r.head) atom(h);
  for (const Assignment& a : r.assignments) fn(a.var);
  for (const Aggregate& a : r.aggregates) {
    for (const std::string& c : a.contributors) fn(c);
    fn(a.result_var);
  }
  for (const ExistentialSpec& e : r.existentials) {
    fn(e.var);
    for (const std::string& v : e.skolem_args) fn(v);
  }
}

}  // namespace

Status ValidateRuleWidth(const Rule& r, size_t rule_index) {
  auto too_wide = [&](const Atom& a) {
    return FailedPrecondition(
        RulePrefix(r, rule_index) + "atom " + a.predicate + " has " +
        std::to_string(a.args.size()) +
        " arguments; the engine accepts at most " +
        std::to_string(kMaxAtomArity));
  };
  for (const Literal& l : r.body) {
    if (l.atom.args.size() > kMaxAtomArity) return too_wide(l.atom);
  }
  for (const Atom& h : r.head) {
    if (h.args.size() > kMaxAtomArity) return too_wide(h);
  }
  // A rule with at most kMaxRuleVariables named occurrences fits without
  // building the name set.
  size_t occurrences = 0;
  ForEachSlotVariable(r, [&occurrences](const std::string&) {
    ++occurrences;
  });
  if (occurrences <= kMaxRuleVariables) return OkStatus();
  std::unordered_set<std::string_view> vars;
  ForEachSlotVariable(r, [&vars](const std::string& v) { vars.insert(v); });
  if (vars.size() <= kMaxRuleVariables) return OkStatus();
  return FailedPrecondition(RulePrefix(r, rule_index) + "rule uses " +
                            std::to_string(vars.size()) +
                            " variables; the engine accepts at most " +
                            std::to_string(kMaxRuleVariables));
}

std::string ArityConflict::Message() const {
  return "predicate " + pred + " used with arity " + std::to_string(arity) +
         " but previously with arity " + std::to_string(first_arity);
}

std::map<std::string, size_t> PredicateArities(
    const Program& program, std::vector<ArityConflict>* conflicts) {
  std::map<std::string, size_t> arities;
  auto note = [&](const std::string& pred, size_t n, int rule_index,
                  const SourceLoc& loc) {
    auto [it, inserted] = arities.emplace(pred, n);
    if (inserted || it->second == n || conflicts == nullptr) return;
    conflicts->push_back({pred, it->second, n, rule_index, loc});
  };
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    const int index = static_cast<int>(ri);
    for (const Literal& l : r.body) {
      note(l.atom.predicate, l.atom.args.size(), index, l.atom.loc);
    }
    for (const Atom& h : r.head) {
      note(h.predicate, h.args.size(), index, h.loc);
    }
  }
  for (const FactDecl& f : program.facts) {
    note(f.predicate, f.values.size(), -1, f.loc);
  }
  return arities;
}

WardednessReport CheckWardedness(const Program& program) {
  WardednessReport report;

  // 1. Affected positions: start from positions hosting existential
  //    variables; propagate through rules where a universal variable occurs
  //    *only* in affected body positions.
  std::set<Position> affected;
  for (const Rule& r : program.rules) {
    std::unordered_set<std::string> ex;
    for (const ExistentialSpec& e : r.existentials) ex.insert(e.var);
    for (const Atom& h : r.head) {
      for (size_t i = 0; i < h.args.size(); ++i) {
        const Term& t = h.args[i];
        if (t.is_var() && ex.count(t.var) > 0) {
          affected.insert({h.predicate, static_cast<int>(i)});
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& r : program.rules) {
      // Occurrences of each variable in positive body atoms.
      std::unordered_map<std::string, std::pair<int, int>> occ;  // all, affected
      for (const Literal& l : r.body) {
        if (l.negated) continue;
        for (size_t i = 0; i < l.atom.args.size(); ++i) {
          const Term& t = l.atom.args[i];
          if (!t.is_var() || t.is_anonymous()) continue;
          auto& counts = occ[t.var];
          ++counts.first;
          if (affected.count({l.atom.predicate, static_cast<int>(i)}) > 0) {
            ++counts.second;
          }
        }
      }
      for (const Atom& h : r.head) {
        for (size_t i = 0; i < h.args.size(); ++i) {
          const Term& t = h.args[i];
          if (!t.is_var()) continue;
          auto it = occ.find(t.var);
          if (it == occ.end()) continue;  // existential or assigned
          const auto& [all, aff] = it->second;
          if (all > 0 && all == aff) {
            if (affected.insert({h.predicate, static_cast<int>(i)}).second) {
              changed = true;
            }
          }
        }
      }
    }
  }
  report.affected = affected;

  // 2. Per-rule ward check.
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];

    // Harmful variables: every body occurrence is in an affected position.
    std::unordered_map<std::string, std::pair<int, int>> occ;
    for (const Literal& l : r.body) {
      if (l.negated) continue;
      for (size_t i = 0; i < l.atom.args.size(); ++i) {
        const Term& t = l.atom.args[i];
        if (!t.is_var() || t.is_anonymous()) continue;
        auto& counts = occ[t.var];
        ++counts.first;
        if (affected.count({l.atom.predicate, static_cast<int>(i)}) > 0) {
          ++counts.second;
        }
      }
    }
    std::unordered_set<std::string> harmful;
    for (const auto& [var, counts] : occ) {
      if (counts.first > 0 && counts.first == counts.second) {
        harmful.insert(var);
      }
    }
    // Dangerous: harmful and propagated to the head.
    std::unordered_set<std::string> head_vars;
    for (const Atom& h : r.head) {
      for (const Term& t : h.args) {
        if (t.is_var()) head_vars.insert(t.var);
      }
    }
    std::unordered_set<std::string> dangerous;
    for (const std::string& v : harmful) {
      if (head_vars.count(v) > 0) dangerous.insert(v);
    }
    if (dangerous.empty()) continue;

    // All dangerous variables must occur in one single body atom (the ward),
    // which shares only harmless variables with the other atoms.
    bool found_ward = false;
    for (size_t wi = 0; wi < r.body.size() && !found_ward; ++wi) {
      const Literal& ward = r.body[wi];
      if (ward.negated) continue;
      std::unordered_set<std::string> ward_vars;
      for (const Term& t : ward.atom.args) {
        if (t.is_var() && !t.is_anonymous()) ward_vars.insert(t.var);
      }
      bool contains_all = true;
      for (const std::string& v : dangerous) {
        if (ward_vars.count(v) == 0) {
          contains_all = false;
          break;
        }
      }
      if (!contains_all) continue;
      bool clean = true;
      for (size_t oi = 0; oi < r.body.size() && clean; ++oi) {
        if (oi == wi || r.body[oi].negated) continue;
        for (const Term& t : r.body[oi].atom.args) {
          if (t.is_var() && !t.is_anonymous() && ward_vars.count(t.var) > 0 &&
              harmful.count(t.var) > 0) {
            clean = false;
            break;
          }
        }
      }
      if (clean) found_ward = true;
    }
    if (!found_ward) {
      report.warded = false;
      std::vector<std::string> sorted_dangerous(dangerous.begin(),
                                                dangerous.end());
      std::sort(sorted_dangerous.begin(), sorted_dangerous.end());
      std::string vars;
      for (const std::string& v : sorted_dangerous) {
        if (!vars.empty()) vars += ", ";
        vars += v;
      }
      report.violations.push_back(RulePrefix(r, ri) +
                                  "no ward for dangerous variables [" + vars +
                                  "]");
      report.violation_rules.push_back(static_cast<int>(ri));
    }
  }
  return report;
}

bool IsPiecewiseLinear(const Program& program) {
  Result<Stratification> strat = Stratify(program);
  if (!strat.ok()) return false;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& r = program.rules[ri];
    int stratum = strat->rule_stratum[ri];
    int recursive_atoms = 0;
    for (const Literal& l : r.body) {
      if (strat->SccOf(l.atom.predicate) == stratum) ++recursive_atoms;
    }
    if (recursive_atoms > 1) return false;
  }
  return true;
}

bool IsRecursive(const Program& program) {
  Result<Stratification> strat = Stratify(program);
  if (!strat.ok()) return true;  // be conservative
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    if (strat->rule_recursive[ri]) return true;
  }
  return false;
}

}  // namespace kgm::vadalog
