#include "metalog/mtv.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/check.h"

namespace kgm::metalog {

namespace {

using vadalog::Atom;
using vadalog::Expr;
using vadalog::ExprPtr;
using vadalog::Literal;
using vadalog::Rule;
using vadalog::Term;

// --- variable renaming over compiled Vadalog rules ---------------------------

ExprPtr RenameExpr(const ExprPtr& e, const std::string& from,
                   const std::string& to) {
  switch (e->kind) {
    case Expr::Kind::kConst:
      return e;
    case Expr::Kind::kVar:
      return e->var == from ? Expr::Var(to) : e;
    case Expr::Kind::kBinary:
      return Expr::Binary(e->op, RenameExpr(e->lhs, from, to),
                          RenameExpr(e->rhs, from, to));
    case Expr::Kind::kNot:
      return Expr::Not(RenameExpr(e->lhs, from, to));
    case Expr::Kind::kNeg:
      return Expr::Negate(RenameExpr(e->lhs, from, to));
    case Expr::Kind::kCall: {
      std::vector<ExprPtr> args;
      for (const ExprPtr& a : e->call_args) {
        args.push_back(RenameExpr(a, from, to));
      }
      return Expr::Call(e->call_name, std::move(args));
    }
  }
  return e;
}

void RenameInAtom(Atom* atom, const std::string& from, const std::string& to) {
  for (Term& t : atom->args) {
    if (t.is_var() && t.var == from) t.var = to;
  }
}

void RenameVar(Rule* rule, const std::string& from, const std::string& to) {
  for (Literal& l : rule->body) RenameInAtom(&l.atom, from, to);
  for (vadalog::Assignment& a : rule->assignments) {
    if (a.var == from) a.var = to;
    a.expr = RenameExpr(a.expr, from, to);
  }
  for (vadalog::Condition& c : rule->conditions) {
    c.expr = RenameExpr(c.expr, from, to);
  }
  for (vadalog::Aggregate& a : rule->aggregates) {
    if (a.result_var == from) a.result_var = to;
    for (ExprPtr& e : a.args) e = RenameExpr(e, from, to);
    for (std::string& v : a.contributors) {
      if (v == from) v = to;
    }
  }
  for (vadalog::ExistentialSpec& e : rule->existentials) {
    if (e.var == from) e.var = to;
    for (std::string& v : e.skolem_args) {
      if (v == from) v = to;
    }
  }
  for (Atom& h : rule->head) RenameInAtom(&h, from, to);
}

// --- the translator -----------------------------------------------------------

class Translator {
 public:
  Translator(const GraphCatalog& catalog, const MtvOptions& options)
      : catalog_(catalog), options_(options) {}

  Status TranslateRule(const MetaRule& rule, int rule_index);

  MtvResult TakeResult() { return std::move(result_); }

 private:
  // One use of a Kleene star inside the current rule.
  struct StarUse {
    std::string left_var;
    std::string right_var;
    Literal closure_literal;  // beta(left, right, params...)
  };

  // All generated rules go through here: every rule carries the source
  // location of the MetaLog rule it came from and a provenance entry.
  void AppendRule(Rule rule) {
    rule.loc = rule_loc_;
    result_.program.rules.push_back(std::move(rule));
    result_.rule_origin.push_back(rule_index_);
  }

  std::string FreshVar() { return "_mtv" + std::to_string(++var_counter_); }
  std::string FreshHelper(const char* kind) {
    return std::string("_") + kind + "_r" + std::to_string(rule_index_) +
           "_" + std::to_string(++helper_counter_);
  }

  // Counts occurrences of every variable in the whole MetaLog rule.
  void CountRuleVars(const MetaRule& rule);
  static void CountPatternVars(const GraphPattern& pattern,
                               std::map<std::string, int>* counts);

  // The variables an edge atom joins, in path order.
  struct Ends {
    const std::string& left;
    const std::string& right;
    bool inverse;  // the edge runs from right to left
  };

  // Appends the relation atom of a PG atom (step (1) of the translation):
  // L(id, f1..fn) for a node atom, L(id, from, to, f1..fm) for an edge
  // atom between `ends`, one column per catalog property of L.  A
  // property the atom leaves out is `_` in a body literal; in a head atom
  // it is get(p, "f") of the atom's `*p` spread, or null.  An unlabeled
  // node atom without properties is a bare endpoint and appends nothing.
  Status EmitAtom(const PgAtom& atom, const std::string& id,
                  const Ends* ends, bool head, Rule* rule);

  // Appends literal(s) realizing `path` between lv and rv to `rule`.
  // Stars are recorded into stars_ instead of emitting literals directly
  // (they are expanded into rule variants later) unless inside a helper.
  Status EmitPath(const PathPtr& path, const std::string& lv,
                  const std::string& rv, Rule* rule, bool allow_star_marker);

  // Parameters of a closure/alternation: variables occurring both inside the
  // sub-pattern and elsewhere in the rule.
  std::vector<std::string> ParamsOf(const PathPtr& sub);

  // Creates the helper predicate for an alternation and returns its literal.
  Result<Literal> BuildAlt(const PathPtr& alt, const std::string& lv,
                           const std::string& rv);

  // Creates the transitive-closure helper (>= 1 step) and returns its
  // literal between lv and rv.
  Result<Literal> BuildClosure(const PathPtr& inner, const std::string& lv,
                               const std::string& rv);

  Status EmitHeadPattern(const GraphPattern& pattern, Rule* rule,
                         std::set<std::string>* existing_existentials,
                         std::set<std::string>* body_vars);

  const GraphCatalog& catalog_;
  const MtvOptions& options_;
  MtvResult result_;

  int rule_index_ = 0;
  int var_counter_ = 0;
  int helper_counter_ = 0;
  std::map<std::string, int> var_counts_;   // across the whole MetaLog rule
  std::vector<StarUse> stars_;
  std::string rule_label_;
  SourceLoc rule_loc_;  // of the MetaLog rule being translated
};

void Translator::CountPatternVars(const GraphPattern& pattern,
                                  std::map<std::string, int>* counts) {
  auto count_atom = [counts](const PgAtom& atom) {
    if (!atom.id_var.empty() && atom.id_var != "_") ++(*counts)[atom.id_var];
    for (const PgProperty& p : atom.properties) {
      if (p.value.is_var() && !p.value.is_anonymous()) {
        ++(*counts)[p.value.var];
      }
    }
    if (!atom.spread_var.empty()) ++(*counts)[atom.spread_var];
  };
  for (const PgAtom& n : pattern.nodes) count_atom(n);
  for (const PathPtr& p : pattern.paths) {
    std::vector<std::string> vars;
    p->CollectVars(&vars);
    for (const std::string& v : vars) ++(*counts)[v];
  }
}

void Translator::CountRuleVars(const MetaRule& rule) {
  var_counts_.clear();
  for (const GraphPattern& p : rule.body_patterns) {
    CountPatternVars(p, &var_counts_);
  }
  for (const GraphPattern& p : rule.negated_patterns) {
    CountPatternVars(p, &var_counts_);
  }
  for (const GraphPattern& p : rule.head_patterns) {
    CountPatternVars(p, &var_counts_);
  }
  auto count_expr = [this](const ExprPtr& e) {
    std::vector<std::string> vars;
    e->CollectVars(&vars);
    for (const std::string& v : vars) ++var_counts_[v];
  };
  for (const vadalog::Assignment& a : rule.assignments) {
    ++var_counts_[a.var];
    count_expr(a.expr);
  }
  for (const vadalog::Condition& c : rule.conditions) count_expr(c.expr);
  for (const vadalog::Aggregate& a : rule.aggregates) {
    ++var_counts_[a.result_var];
    for (const ExprPtr& e : a.args) count_expr(e);
    for (const std::string& v : a.contributors) ++var_counts_[v];
  }
  for (const vadalog::ExistentialSpec& e : rule.existentials) {
    for (const std::string& v : e.skolem_args) ++var_counts_[v];
  }
}

Status Translator::EmitAtom(const PgAtom& atom, const std::string& id,
                            const Ends* ends, bool head, Rule* rule) {
  const bool edge = ends != nullptr;
  if (atom.label.empty()) {
    if (edge) {
      return InvalidArgument(rule_label_ +
                             (head ? ": head edge atoms must be labeled"
                                   : ": edge atoms must carry a label"));
    }
    if (!atom.properties.empty() || !atom.spread_var.empty()) {
      return InvalidArgument(rule_label_ +
                             ": node atom with properties needs a label");
    }
    return OkStatus();  // pure endpoint reference
  }
  if (edge ? !catalog_.HasEdgeLabel(atom.label)
           : !catalog_.HasNodeLabel(atom.label)) {
    return InvalidArgument(rule_label_ +
                           (edge ? ": unknown edge label "
                                 : ": unknown node label ") +
                           atom.label);
  }
  if (!head && !atom.spread_var.empty()) {
    return InvalidArgument(rule_label_ +
                           ": '*' spread is only allowed in rule heads");
  }
  const std::vector<std::string>& props =
      edge ? catalog_.EdgeProps(atom.label) : catalog_.NodeProps(atom.label);
  for (const PgProperty& p : atom.properties) {
    if (std::find(props.begin(), props.end(), p.name) == props.end()) {
      return InvalidArgument(rule_label_ + ": unknown property " + p.name +
                             (edge ? " on edge label " : " on label ") +
                             atom.label);
    }
  }
  Atom out;
  out.predicate = atom.label;
  out.args.push_back(Term::Var(id));
  if (edge) {
    out.args.push_back(Term::Var(ends->inverse ? ends->right : ends->left));
    out.args.push_back(Term::Var(ends->inverse ? ends->left : ends->right));
  }
  for (const std::string& prop : props) {
    // The first value the atom gives the property, if any.
    auto given = std::find_if(
        atom.properties.begin(), atom.properties.end(),
        [&prop](const PgProperty& p) { return p.name == prop; });
    if (given != atom.properties.end()) {
      out.args.push_back(given->value);
    } else if (!head) {
      out.args.push_back(Term::Var("_"));
    } else if (!atom.spread_var.empty()) {
      // *p expansion: fresh var assigned get(p, "prop").
      std::string v = FreshVar();
      rule->assignments.push_back(vadalog::Assignment{
          v, Expr::Call("get", {Expr::Var(atom.spread_var),
                                Expr::Const(Value(prop))})});
      out.args.push_back(Term::Var(v));
    } else {
      out.args.push_back(Term::Const(Value()));
    }
  }
  if (head) {
    rule->head.push_back(std::move(out));
  } else {
    rule->body.push_back(Literal{std::move(out), /*negated=*/false});
  }
  return OkStatus();
}

std::vector<std::string> Translator::ParamsOf(const PathPtr& sub) {
  std::vector<std::string> inner;
  sub->CollectVars(&inner);
  std::map<std::string, int> inner_counts;
  for (const std::string& v : inner) ++inner_counts[v];
  std::set<std::string> params;
  for (const auto& [v, count] : inner_counts) {
    auto it = var_counts_.find(v);
    int total = it == var_counts_.end() ? count : it->second;
    if (total > count) params.insert(v);  // also used outside the sub-pattern
  }
  return {params.begin(), params.end()};
}

Result<Literal> Translator::BuildAlt(const PathPtr& alt,
                                     const std::string& lv,
                                     const std::string& rv) {
  std::vector<std::string> params = ParamsOf(alt);
  std::string pred = FreshHelper("alt");
  result_.helper_predicates.push_back(pred);
  for (const PathPtr& branch : alt->children) {
    Rule helper;
    helper.label = pred;
    std::string h = FreshVar();
    std::string q = FreshVar();
    KGM_RETURN_IF_ERROR(EmitPath(branch, h, q, &helper,
                                 /*allow_star_marker=*/false));
    Atom head;
    head.predicate = pred;
    head.args.push_back(Term::Var(h));
    head.args.push_back(Term::Var(q));
    for (const std::string& p : params) head.args.push_back(Term::Var(p));
    helper.head.push_back(std::move(head));
    AppendRule(std::move(helper));
  }
  Atom use;
  use.predicate = pred;
  use.args.push_back(Term::Var(lv));
  use.args.push_back(Term::Var(rv));
  for (const std::string& p : params) use.args.push_back(Term::Var(p));
  return Literal{std::move(use), /*negated=*/false};
}

Result<Literal> Translator::BuildClosure(const PathPtr& inner,
                                         const std::string& lv,
                                         const std::string& rv) {
  std::vector<std::string> params = ParamsOf(inner);
  std::string pred = FreshHelper("closure");
  result_.helper_predicates.push_back(pred);

  // Base rule: tau(S)(h, q) -> beta(h, q, params).
  {
    Rule base;
    base.label = pred;
    std::string h = FreshVar();
    std::string q = FreshVar();
    KGM_RETURN_IF_ERROR(EmitPath(inner, h, q, &base,
                                 /*allow_star_marker=*/false));
    Atom head;
    head.predicate = pred;
    head.args.push_back(Term::Var(h));
    head.args.push_back(Term::Var(q));
    for (const std::string& p : params) head.args.push_back(Term::Var(p));
    base.head.push_back(std::move(head));
    AppendRule(std::move(base));
  }
  // Step rule: beta(v, h, params), tau(S)(h, q) -> beta(v, q, params).
  {
    Rule step;
    step.label = pred;
    std::string v = FreshVar();
    std::string h = FreshVar();
    std::string q = FreshVar();
    Atom rec;
    rec.predicate = pred;
    rec.args.push_back(Term::Var(v));
    rec.args.push_back(Term::Var(h));
    for (const std::string& p : params) rec.args.push_back(Term::Var(p));
    step.body.push_back(Literal{std::move(rec), /*negated=*/false});
    KGM_RETURN_IF_ERROR(EmitPath(inner, h, q, &step,
                                 /*allow_star_marker=*/false));
    Atom head;
    head.predicate = pred;
    head.args.push_back(Term::Var(v));
    head.args.push_back(Term::Var(q));
    for (const std::string& p : params) head.args.push_back(Term::Var(p));
    step.head.push_back(std::move(head));
    AppendRule(std::move(step));
  }
  Atom use;
  use.predicate = pred;
  use.args.push_back(Term::Var(lv));
  use.args.push_back(Term::Var(rv));
  for (const std::string& p : params) use.args.push_back(Term::Var(p));
  return Literal{std::move(use), /*negated=*/false};
}

Status Translator::EmitPath(const PathPtr& path, const std::string& lv,
                            const std::string& rv, Rule* rule,
                            bool allow_star_marker) {
  switch (path->kind) {
    case PathKind::kEdge: {
      const Ends ends{lv, rv, path->inverse};
      return EmitAtom(path->edge,
                      path->edge.id_var.empty() ? "_" : path->edge.id_var,
                      &ends, /*head=*/false, rule);
    }
    case PathKind::kConcat: {
      std::string prev = lv;
      for (size_t i = 0; i < path->children.size(); ++i) {
        std::string next =
            (i + 1 == path->children.size()) ? rv : FreshVar();
        KGM_RETURN_IF_ERROR(EmitPath(path->children[i], prev, next, rule,
                                     allow_star_marker));
        prev = next;
      }
      return OkStatus();
    }
    case PathKind::kAlt: {
      KGM_ASSIGN_OR_RETURN(Literal lit, BuildAlt(path, lv, rv));
      rule->body.push_back(std::move(lit));
      return OkStatus();
    }
    case PathKind::kPlus: {
      KGM_ASSIGN_OR_RETURN(Literal lit,
                           BuildClosure(path->children[0], lv, rv));
      rule->body.push_back(std::move(lit));
      return OkStatus();
    }
    case PathKind::kStar: {
      KGM_ASSIGN_OR_RETURN(Literal lit,
                           BuildClosure(path->children[0], lv, rv));
      if (options_.reflexive_star && allow_star_marker) {
        stars_.push_back(StarUse{lv, rv, std::move(lit)});
        return OkStatus();
      }
      if (options_.reflexive_star) {
        // Star nested inside another closure: the empty path is covered by
        // the enclosing closure taking fewer steps only if this star is the
        // whole step, which we cannot assume; reject to stay sound.
        return Unimplemented(rule_label_ +
                             ": '*' nested inside another closure or "
                             "alternation is not supported; rewrite with "
                             "'+' or '|'");
      }
      rule->body.push_back(std::move(lit));
      return OkStatus();
    }
  }
  return Internal("unhandled path kind");
}

Status Translator::EmitHeadPattern(
    const GraphPattern& pattern, Rule* rule,
    std::set<std::string>* existing_existentials,
    std::set<std::string>* body_vars) {
  // Resolve node endpoint variables first.
  std::vector<std::string> node_vars;
  for (const PgAtom& node : pattern.nodes) {
    std::string var = node.id_var;
    if (var.empty() || var == "_") {
      if (node.label.empty()) {
        return InvalidArgument(rule_label_ +
                               ": anonymous unlabeled node atom in head");
      }
      var = FreshVar();
    }
    // New entity (not bound in the body, not yet existential): declare it.
    if (body_vars->count(var) == 0 &&
        existing_existentials->count(var) == 0) {
      rule->existentials.push_back(vadalog::ExistentialSpec{var, "", {}});
      existing_existentials->insert(var);
    }
    node_vars.push_back(var);
    KGM_RETURN_IF_ERROR(EmitAtom(node, var, /*ends=*/nullptr, /*head=*/true,
                                 rule));
  }
  for (size_t i = 0; i < pattern.paths.size(); ++i) {
    const PathPtr& path = pattern.paths[i];
    if (!path->IsSingleEdge()) {
      return InvalidArgument(
          rule_label_ +
          ": head path patterns must be single edge atoms");
    }
    std::string id_var = path->edge.id_var;
    if (id_var.empty() || id_var == "_") id_var = FreshVar();
    if (body_vars->count(id_var) == 0 &&
        existing_existentials->count(id_var) == 0) {
      rule->existentials.push_back(vadalog::ExistentialSpec{id_var, "", {}});
      existing_existentials->insert(id_var);
    }
    const Ends ends{node_vars[i], node_vars[i + 1], path->inverse};
    KGM_RETURN_IF_ERROR(
        EmitAtom(path->edge, id_var, &ends, /*head=*/true, rule));
  }
  return OkStatus();
}

Status Translator::TranslateRule(const MetaRule& rule, int rule_index) {
  rule_index_ = rule_index;
  helper_counter_ = 0;
  stars_.clear();
  rule_label_ = rule.label.empty() ? "rule " + std::to_string(rule_index + 1)
                                   : rule.label;
  rule_loc_ = rule.loc;
  CountRuleVars(rule);

  Rule main;
  main.label = rule.label;
  // Body: node and edge literals interleaved in pattern order.
  for (const GraphPattern& pattern : rule.body_patterns) {
    std::vector<std::string> node_vars;
    for (const PgAtom& node : pattern.nodes) {
      node_vars.push_back(node.id_var.empty() || node.id_var == "_"
                              ? FreshVar()
                              : node.id_var);
    }
    KGM_RETURN_IF_ERROR(EmitAtom(pattern.nodes[0], node_vars[0],
                                 /*ends=*/nullptr, /*head=*/false, &main));
    for (size_t i = 0; i < pattern.paths.size(); ++i) {
      KGM_RETURN_IF_ERROR(EmitPath(pattern.paths[i], node_vars[i],
                                   node_vars[i + 1], &main,
                                   /*allow_star_marker=*/true));
      KGM_RETURN_IF_ERROR(EmitAtom(pattern.nodes[i + 1], node_vars[i + 1],
                                   /*ends=*/nullptr, /*head=*/false, &main));
    }
  }
  // Negated patterns: one negated literal each.
  for (const GraphPattern& pattern : rule.negated_patterns) {
    auto endpoint = [](const PgAtom& node) -> std::string {
      return node.id_var.empty() || node.id_var == "_" ? "_" : node.id_var;
    };
    if (pattern.paths.empty()) {
      // Negated node atom.
      const PgAtom& node = pattern.nodes[0];
      if (node.label.empty()) {
        return InvalidArgument(rule_label_ +
                               ": negated node atoms must carry a label");
      }
      size_t before = main.body.size();
      KGM_RETURN_IF_ERROR(EmitAtom(node, endpoint(node), /*ends=*/nullptr,
                                   /*head=*/false, &main));
      KGM_CHECK(main.body.size() == before + 1);
      main.body.back().negated = true;
      continue;
    }
    // Negated single-edge pattern: endpoints must be plain references.
    for (const PgAtom& node : pattern.nodes) {
      if (!node.label.empty() || !node.properties.empty() ||
          !node.spread_var.empty()) {
        return InvalidArgument(
            rule_label_ +
            ": endpoints of a negated edge pattern must be bare references");
      }
    }
    const PathPtr& path = pattern.paths[0];
    const std::string from = endpoint(pattern.nodes[0]);
    const std::string to = endpoint(pattern.nodes[1]);
    const Ends ends{from, to, path->inverse};
    KGM_RETURN_IF_ERROR(
        EmitAtom(path->edge,
                 path->edge.id_var.empty() ? "_" : path->edge.id_var, &ends,
                 /*head=*/false, &main));
    main.body.back().negated = true;
  }

  main.assignments = rule.assignments;
  main.conditions = rule.conditions;
  main.aggregates = rule.aggregates;
  main.existentials = rule.existentials;

  // Head.
  std::set<std::string> existentials;
  for (const vadalog::ExistentialSpec& e : rule.existentials) {
    existentials.insert(e.var);
  }
  std::set<std::string> body_vars;
  for (const Literal& l : main.body) {
    for (const Term& t : l.atom.args) {
      if (t.is_var() && !t.is_anonymous()) body_vars.insert(t.var);
    }
  }
  for (const StarUse& s : stars_) {
    body_vars.insert(s.left_var);
    body_vars.insert(s.right_var);
    for (const Term& t : s.closure_literal.atom.args) {
      if (t.is_var() && !t.is_anonymous()) body_vars.insert(t.var);
    }
  }
  for (const vadalog::Assignment& a : rule.assignments) {
    body_vars.insert(a.var);
  }
  for (const vadalog::Aggregate& a : rule.aggregates) {
    body_vars.insert(a.result_var);
  }
  for (const GraphPattern& pattern : rule.head_patterns) {
    KGM_RETURN_IF_ERROR(
        EmitHeadPattern(pattern, &main, &existentials, &body_vars));
  }

  // Reflexive-star expansion: for each subset of star uses, either the
  // closure literal appears, or the endpoints are unified (empty path).
  if (static_cast<int>(stars_.size()) > options_.max_stars_per_rule) {
    return FailedPrecondition(rule_label_ + ": too many '*' operators (" +
                              std::to_string(stars_.size()) + ")");
  }
  size_t variants = 1ULL << stars_.size();
  for (size_t mask = 0; mask < variants; ++mask) {
    Rule variant = main;
    for (size_t si = 0; si < stars_.size(); ++si) {
      const StarUse& star = stars_[si];
      if (mask & (1ULL << si)) {
        variant.body.push_back(star.closure_literal);
      } else {
        // Empty path: unify the right endpoint with the left one.
        RenameVar(&variant, star.right_var, star.left_var);
      }
    }
    AppendRule(std::move(variant));
  }
  return OkStatus();
}

}  // namespace

Result<MtvResult> TranslateMetaProgram(const MetaProgram& program,
                                       const GraphCatalog& catalog,
                                       const MtvOptions& options) {
  Translator translator(catalog, options);
  for (size_t i = 0; i < program.rules.size(); ++i) {
    KGM_RETURN_IF_ERROR(
        translator.TranslateRule(program.rules[i], static_cast<int>(i)));
  }
  return translator.TakeResult();
}

std::string GenerateInputBindings(const MetaProgram& program,
                                  const GraphCatalog& catalog,
                                  BindingLanguage language) {
  std::set<std::string> node_labels;
  std::set<std::string> edge_labels;
  for (const MetaRule& rule : program.rules) {
    ForEachRuleAtom(rule, [&](const PgAtom& atom, PatternRole role, bool) {
      if (role == PatternRole::kHead || atom.label.empty()) return;
      (atom.is_edge ? edge_labels : node_labels).insert(atom.label);
    });
  }
  std::string out;
  for (const std::string& label : node_labels) {
    const std::vector<std::string>& props = catalog.NodeProps(label);
    out += "@input(" + label + ", \"";
    if (language == BindingLanguage::kCypher) {
      out += "MATCH (n:" + label + ") RETURN id(n)";
      for (const std::string& p : props) out += ", n." + p;
    } else {
      out += "SELECT oid";
      for (const std::string& p : props) out += ", " + p;
      out += " FROM " + label;
    }
    out += "\").\n";
  }
  for (const std::string& label : edge_labels) {
    const std::vector<std::string>& props = catalog.EdgeProps(label);
    out += "@input(" + label + ", \"";
    if (language == BindingLanguage::kCypher) {
      out += "MATCH (x)-[e:" + label + "]->(y) RETURN id(e), id(x), id(y)";
      for (const std::string& p : props) out += ", e." + p;
    } else {
      out += "SELECT oid, from_oid, to_oid";
      for (const std::string& p : props) out += ", " + p;
      out += " FROM " + label;
    }
    out += "\").\n";
  }
  return out;
}

}  // namespace kgm::metalog
