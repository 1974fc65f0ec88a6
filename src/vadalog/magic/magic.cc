#include "vadalog/magic/magic.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "vadalog/analysis.h"

namespace kgm::vadalog::magic {

namespace {

std::string AdornmentOf(uint64_t mask, size_t arity) {
  std::string s(arity, 'f');
  for (size_t i = 0; i < arity; ++i) {
    if (mask & (1ULL << i)) s[i] = 'b';
  }
  return s;
}

// '@' cannot appear in a parsed identifier, so generated names never
// collide with user predicates (or with each other across kinds).
std::string AdornedName(const std::string& pred, const std::string& adorn) {
  return pred + "@" + adorn;
}
std::string MagicName(const std::string& pred, const std::string& adorn) {
  return "m@" + pred + "@" + adorn;
}

}  // namespace

size_t QueryBinding::BoundCount() const {
  size_t n = 0;
  for (const auto& a : args) {
    if (a.has_value()) ++n;
  }
  return n;
}

std::string QueryBinding::Adornment() const {
  std::string s(args.size(), 'f');
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].has_value()) s[i] = 'b';
  }
  return s;
}

std::string QueryBinding::Render() const {
  std::string s = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) s += ",";
    s += args[i].has_value() ? args[i]->ToString() : std::string("?");
  }
  s += ")";
  return s;
}

namespace {

// Appends a collision-free encoding of one constant: a kind letter, then
// a representation injective within the kind.  Doubles use to_chars
// (shortest round-trip form — distinct doubles never merge, unlike
// ToString's default ostream precision); strings, Skolem functors and
// record field names are length-prefixed so embedded commas, parens or
// quotes cannot imitate the surrounding structure.  The encoding is
// prefix-decodable, so equal keys imply equal bindings.
void AppendKeyValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      out->push_back('n');
      return;
    case ValueKind::kBool:
      *out += v.AsBool() ? "b1" : "b0";
      return;
    case ValueKind::kInt:
      out->push_back('i');
      *out += std::to_string(v.AsInt());
      return;
    case ValueKind::kDouble: {
      char buf[64];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.AsDoubleExact());
      out->push_back('d');
      out->append(buf, end);
      return;
    }
    case ValueKind::kString:
      out->push_back('s');
      *out += std::to_string(v.AsString().size());
      out->push_back(':');
      *out += v.AsString();
      return;
    case ValueKind::kSkolem: {
      const SkolemTable& table = SkolemTable::Global();
      const std::string& functor = table.FunctorOf(v.AsSkolem());
      out->push_back('k');
      *out += std::to_string(functor.size());
      out->push_back(':');
      *out += functor;
      out->push_back('(');
      const std::vector<Value>& args = table.ArgsOf(v.AsSkolem());
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out->push_back(',');
        AppendKeyValue(args[i], out);
      }
      out->push_back(')');
      return;
    }
    case ValueKind::kRecord:
      *out += "r{";
      for (const auto& [name, value] : *v.AsRecord()) {
        *out += std::to_string(name.size());
        out->push_back(':');
        *out += name;
        out->push_back('=');
        AppendKeyValue(value, out);
        out->push_back(',');
      }
      out->push_back('}');
      return;
  }
  out->push_back('?');
}

}  // namespace

std::string QueryBinding::CacheKey() const {
  std::string s = predicate;
  s.push_back('/');
  s += std::to_string(args.size());
  s.push_back('(');
  for (size_t i = 0; i < args.size(); ++i) {
    if (i) s.push_back(',');
    if (args[i].has_value()) {
      AppendKeyValue(*args[i], &s);
    } else {
      s.push_back('_');
    }
  }
  s.push_back(')');
  return s;
}

std::vector<Value> QueryBinding::BoundValues() const {
  std::vector<Value> values;
  for (const auto& a : args) {
    if (a.has_value()) values.push_back(*a);
  }
  return values;
}

bool QueryBinding::Matches(const std::vector<Value>& t) const {
  if (t.size() != args.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].has_value() && !(t[i] == *args[i])) return false;
  }
  return true;
}

Result<std::vector<std::optional<Value>>> ParseBoundArgs(
    std::string_view csv) {
  std::vector<std::optional<Value>> out;
  if (csv.empty()) return out;
  size_t i = 0;
  const size_t n = csv.size();
  while (true) {
    while (i < n && (csv[i] == ' ' || csv[i] == '\t')) ++i;
    if (i < n && csv[i] == '"') {
      std::string s;
      ++i;
      bool closed = false;
      while (i < n) {
        char c = csv[i++];
        if (c == '\\' && i < n) {
          s.push_back(csv[i++]);
        } else if (c == '"') {
          closed = true;
          break;
        } else {
          s.push_back(c);
        }
      }
      if (!closed) {
        return InvalidArgument("unterminated quoted string in binding list");
      }
      out.emplace_back(Value(std::move(s)));
      while (i < n && (csv[i] == ' ' || csv[i] == '\t')) ++i;
      if (i == n) break;
      if (csv[i] != ',') {
        return InvalidArgument("expected ',' after quoted binding");
      }
      ++i;
      continue;
    }
    size_t start = i;
    while (i < n && csv[i] != ',') ++i;
    std::string_view tok = csv.substr(start, i - start);
    while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t')) {
      tok.remove_suffix(1);
    }
    if (tok.empty()) {
      return InvalidArgument("empty binding entry (use _ for a free position)");
    }
    if (tok == "_") {
      out.emplace_back(std::nullopt);
    } else if (tok == "true") {
      out.emplace_back(Value(true));
    } else if (tok == "false") {
      out.emplace_back(Value(false));
    } else {
      int64_t iv = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        out.emplace_back(Value(iv));
      } else {
        double dv = 0;
        auto [pd, ecd] =
            std::from_chars(tok.data(), tok.data() + tok.size(), dv);
        if (ecd == std::errc() && pd == tok.data() + tok.size()) {
          out.emplace_back(Value(dv));
        } else {
          out.emplace_back(Value(std::string(tok)));
        }
      }
    }
    if (i == n) break;
    ++i;
  }
  return out;
}

const char* FallbackReasonName(FallbackReason r) {
  switch (r) {
    case FallbackReason::kNone:
      return "none";
    case FallbackReason::kNoBoundArgument:
      return "no_bound_argument";
    case FallbackReason::kAggregates:
      return "aggregates";
    case FallbackReason::kAdornmentExplosion:
      return "adornment_explosion";
    case FallbackReason::kRewriteRejected:
      return "rewrite_rejected";
  }
  return "unknown";
}

void PinSkolemSpecs(Rule* rule, size_t rule_index) {
  bool has_auto = false;
  for (const ExistentialSpec& e : rule->existentials) {
    if (e.skolem_functor.empty()) has_auto = true;
  }
  if (!has_auto) return;

  // Replicate the engine's variable-slot assignment order (engine.cc,
  // CompileRule): body literals in written order (args left to right),
  // assignment targets, aggregate contributors then results, existential
  // variables and explicit Skolem arguments, head atoms.
  std::unordered_map<std::string, int> slot;
  int next = 0;
  auto slot_of = [&](const std::string& v) {
    auto [it, inserted] = slot.emplace(v, next);
    if (inserted) ++next;
    return it->second;
  };
  for (const Literal& l : rule->body) {
    for (const Term& t : l.atom.args) {
      if (t.is_var() && !t.is_anonymous()) slot_of(t.var);
    }
  }
  for (const Assignment& a : rule->assignments) slot_of(a.var);
  for (const Aggregate& a : rule->aggregates) {
    for (const std::string& c : a.contributors) slot_of(c);
    slot_of(a.result_var);
  }
  std::unordered_set<std::string> exist_vars;
  for (const ExistentialSpec& e : rule->existentials) {
    slot_of(e.var);
    exist_vars.insert(e.var);
    if (!e.skolem_functor.empty()) {
      for (const std::string& a : e.skolem_args) slot_of(a);
    }
  }
  for (const Atom& h : rule->head) {
    for (const Term& t : h.args) {
      if (t.is_var() && !t.is_anonymous()) slot_of(t.var);
    }
  }

  // The auto frontier: universal head variables plus the arguments of
  // explicit sibling functors, in ascending slot order.
  std::map<int, std::string> frontier;
  for (const Atom& h : rule->head) {
    for (const Term& t : h.args) {
      if (t.is_var() && !t.is_anonymous() && exist_vars.count(t.var) == 0) {
        frontier[slot.at(t.var)] = t.var;
      }
    }
  }
  for (const ExistentialSpec& e : rule->existentials) {
    if (e.skolem_functor.empty()) continue;
    for (const std::string& a : e.skolem_args) frontier[slot.at(a)] = a;
  }
  std::vector<std::string> frontier_vars;
  frontier_vars.reserve(frontier.size());
  for (const auto& [s, v] : frontier) frontier_vars.push_back(v);

  for (ExistentialSpec& e : rule->existentials) {
    if (!e.skolem_functor.empty()) continue;
    e.skolem_functor = "_sk_r" + std::to_string(rule_index) + "_" + e.var;
    e.skolem_args = frontier_vars;
  }
}

namespace {

// Shared state of one rewrite (or one opportunity analysis, which runs
// the same adornment propagation without materializing rules).
struct RewriteState {
  const Program* program = nullptr;
  // Head predicate -> indices of rules defining it.
  std::map<std::string, std::vector<size_t>> defs;
  std::set<std::string> edb;

  // Adorned worklist: (pred, bound mask) -> arity.
  std::map<std::pair<std::string, uint64_t>, size_t> adorned;
  std::deque<std::pair<std::string, uint64_t>> work;
  std::vector<AdornedPredicate> adorned_order;

  std::set<std::string> full_required;
  std::deque<std::string> full_work;

  // Skolem-pinned, single-head splits per predicate (built lazily).
  std::map<std::string, std::vector<Rule>> split_defs;
  std::set<std::string> split_built;

  std::vector<Rule> magic_rules;
  std::vector<Rule> guarded_rules;
  std::vector<Rule> copy_rules;
  std::set<std::string> magic_rule_dedup;

  bool build_rules = true;  // false for opportunity analysis
  bool exploded = false;

  bool Intensional(const std::string& pred) const {
    return defs.count(pred) > 0;
  }

  void Enqueue(const std::string& pred, uint64_t mask, size_t arity) {
    auto key = std::make_pair(pred, mask);
    if (adorned.count(key) > 0) return;
    if (adorned.size() >= kMaxAdornedPredicates) {
      exploded = true;
      return;
    }
    adorned.emplace(key, arity);
    work.push_back(key);
    std::string a = AdornmentOf(mask, arity);
    adorned_order.push_back({pred, a, MagicName(pred, a)});
  }

  void RequireFull(const std::string& pred) {
    if (!Intensional(pred)) return;
    if (full_required.insert(pred).second) full_work.push_back(pred);
  }

  const std::vector<Rule>& SplitsOf(const std::string& pred) {
    if (split_built.insert(pred).second) {
      auto it = defs.find(pred);
      if (it != defs.end()) {
        for (size_t idx : it->second) {
          Rule pinned = program->rules[idx];
          PinSkolemSpecs(&pinned, idx);
          for (const Atom& h : pinned.head) {
            if (h.predicate != pred) continue;
            Rule s = pinned;
            s.head = {h};
            // Keep only the existentials this head atom uses; safety
            // requires at least one declared existential in the head.
            std::vector<ExistentialSpec> kept;
            for (const ExistentialSpec& e : pinned.existentials) {
              bool used = false;
              for (const Term& t : h.args) {
                if (t.is_var() && t.var == e.var) used = true;
              }
              if (used) kept.push_back(e);
            }
            s.existentials = std::move(kept);
            split_defs[pred].push_back(std::move(s));
          }
        }
      }
    }
    static const std::vector<Rule> kEmpty;
    auto it = split_defs.find(pred);
    return it == split_defs.end() ? kEmpty : it->second;
  }

  // Processes one adorned predicate: emits guarded variants of its
  // defining rules plus the magic rules seeding its subgoals.
  void ProcessAdorned(const std::string& pred, uint64_t mask, size_t arity);
  void ProcessFullRequired();
};

uint64_t LiteralMask(const Atom& atom,
                     const std::unordered_set<std::string>& bound) {
  uint64_t m = 0;
  for (size_t i = 0; i < atom.args.size() && i < 60; ++i) {
    const Term& t = atom.args[i];
    if (!t.is_var()) {
      m |= 1ULL << i;
    } else if (!t.is_anonymous() && bound.count(t.var) > 0) {
      m |= 1ULL << i;
    }
  }
  return m;
}

// One element of the growing body prefix used to define magic rules.
struct PrefixItem {
  enum Kind { kLit, kAssign, kCond } kind = kLit;
  Literal lit;
  Assignment assign;
  Condition cond;

  static PrefixItem Lit(Literal l) {
    PrefixItem item;
    item.kind = kLit;
    item.lit = std::move(l);
    return item;
  }
  static PrefixItem Assign(Assignment a) {
    PrefixItem item;
    item.kind = kAssign;
    item.assign = std::move(a);
    return item;
  }
  static PrefixItem Cond(Condition c) {
    PrefixItem item;
    item.kind = kCond;
    item.cond = std::move(c);
    return item;
  }
};

void RewriteState::ProcessAdorned(const std::string& pred, uint64_t mask,
                                  size_t arity) {
  const std::string adorn = AdornmentOf(mask, arity);
  for (const Rule& s : SplitsOf(pred)) {
    const Atom& h = s.head[0];
    if (h.args.size() != arity) continue;  // arity mismatch: engine rejects
    std::unordered_set<std::string> exist_vars;
    for (const ExistentialSpec& e : s.existentials) exist_vars.insert(e.var);

    // The guard: one argument per bound head position.  Universal head
    // variables propagate the binding into the body; constants are
    // matched; existential positions cannot constrain the magic tuple
    // and stay anonymous (a weaker guard, still sound — the final
    // answers are filtered by the query binding anyway).
    Atom guard;
    guard.predicate = MagicName(pred, adorn);
    std::unordered_set<std::string> bound;
    for (size_t i = 0; i < arity; ++i) {
      if (!(mask & (1ULL << i))) continue;
      const Term& t = h.args[i];
      if (!t.is_var()) {
        guard.args.push_back(t);
      } else if (exist_vars.count(t.var) > 0) {
        guard.args.push_back(Term::Var("_"));
      } else {
        guard.args.push_back(Term::Var(t.var));
        bound.insert(t.var);
      }
    }

    Rule out;
    out.label = s.label;
    out.loc = s.loc;
    out.head = {Atom{AdornedName(pred, adorn), h.args, h.loc}};
    out.existentials = s.existentials;
    out.assignments = s.assignments;
    out.conditions = s.conditions;
    out.body.push_back(Literal{guard, false});

    std::vector<PrefixItem> prefix;
    prefix.push_back(PrefixItem::Lit(Literal{guard, false}));

    // Sideways information passing, refined with assignments and
    // conditions: an assignment whose inputs are bound binds (or
    // constrains) its target; a fully bound condition prunes magic
    // tuples the original body could never satisfy.
    std::vector<char> assign_done(s.assignments.size(), 0);
    std::vector<char> cond_done(s.conditions.size(), 0);
    auto sweep = [&]() {
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t i = 0; i < s.assignments.size(); ++i) {
          if (assign_done[i]) continue;
          std::vector<std::string> vars;
          s.assignments[i].expr->CollectVars(&vars);
          bool all = true;
          for (const std::string& v : vars) {
            if (bound.count(v) == 0) all = false;
          }
          if (!all) continue;
          assign_done[i] = 1;
          prefix.push_back(PrefixItem::Assign(s.assignments[i]));
          bound.insert(s.assignments[i].var);
          changed = true;
        }
        for (size_t i = 0; i < s.conditions.size(); ++i) {
          if (cond_done[i]) continue;
          std::vector<std::string> vars;
          s.conditions[i].expr->CollectVars(&vars);
          bool all = true;
          for (const std::string& v : vars) {
            if (bound.count(v) == 0) all = false;
          }
          if (!all) continue;
          cond_done[i] = 1;
          prefix.push_back(PrefixItem::Cond(s.conditions[i]));
          changed = true;
        }
      }
    };
    sweep();

    for (const Literal& l : s.body) {
      if (l.negated) {
        // Negated subgoals are never guarded: their cones evaluate in
        // full (original names, original rules), which preserves
        // stratification — magic predicates never sit under negation.
        RequireFull(l.atom.predicate);
        out.body.push_back(l);
        continue;
      }
      Literal rewritten = l;
      if (Intensional(l.atom.predicate)) {
        uint64_t lmask = LiteralMask(l.atom, bound);
        if (lmask != 0) {
          std::string la = AdornmentOf(lmask, l.atom.args.size());
          Enqueue(l.atom.predicate, lmask, l.atom.args.size());
          rewritten.atom.predicate = AdornedName(l.atom.predicate, la);
          if (build_rules) {
            Rule mr;
            mr.label = "magic";
            Atom mh;
            mh.predicate = MagicName(l.atom.predicate, la);
            for (size_t i = 0; i < l.atom.args.size(); ++i) {
              if (lmask & (1ULL << i)) mh.args.push_back(l.atom.args[i]);
            }
            mr.head = {mh};
            for (const PrefixItem& pi : prefix) {
              switch (pi.kind) {
                case PrefixItem::kLit:
                  mr.body.push_back(pi.lit);
                  break;
                case PrefixItem::kAssign:
                  mr.assignments.push_back(pi.assign);
                  break;
                case PrefixItem::kCond:
                  mr.conditions.push_back(pi.cond);
                  break;
              }
            }
            std::string key = mr.ToString();
            if (magic_rule_dedup.insert(key).second) {
              magic_rules.push_back(std::move(mr));
            }
          }
        } else {
          RequireFull(l.atom.predicate);
        }
      }
      out.body.push_back(rewritten);
      prefix.push_back(PrefixItem::Lit(rewritten));
      for (const Term& t : l.atom.args) {
        if (t.is_var() && !t.is_anonymous()) bound.insert(t.var);
      }
      sweep();
    }
    if (build_rules) guarded_rules.push_back(std::move(out));
  }

  // An adorned predicate with an extensional base (database relation,
  // @input, @fact) needs its base tuples too — copied under the guard.
  if (build_rules && edb.count(pred) > 0) {
    Rule cr;
    cr.label = "magic-copy";
    Atom head;
    head.predicate = AdornedName(pred, adorn);
    Atom base;
    base.predicate = pred;
    Atom guard;
    guard.predicate = MagicName(pred, adorn);
    for (size_t i = 0; i < arity; ++i) {
      Term v = Term::Var("v" + std::to_string(i));
      head.args.push_back(v);
      base.args.push_back(v);
      if (mask & (1ULL << i)) guard.args.push_back(v);
    }
    cr.head = {head};
    cr.body.push_back(Literal{guard, false});
    cr.body.push_back(Literal{base, false});
    copy_rules.push_back(std::move(cr));
  }
}

void RewriteState::ProcessFullRequired() {
  std::set<size_t> included;
  while (!full_work.empty()) {
    std::string pred = full_work.front();
    full_work.pop_front();
    auto it = defs.find(pred);
    if (it == defs.end()) continue;
    for (size_t idx : it->second) {
      if (!included.insert(idx).second) continue;
      if (build_rules) {
        Rule pinned = program->rules[idx];
        PinSkolemSpecs(&pinned, idx);
        guarded_rules.push_back(std::move(pinned));
      }
      for (const Literal& l : program->rules[idx].body) {
        RequireFull(l.atom.predicate);
      }
      // Multi-head rules materialize sibling predicates too; their
      // cones are already covered by this rule's body.
    }
  }
}

void BuildDefs(const Program& program, RewriteState* st) {
  for (size_t i = 0; i < program.rules.size(); ++i) {
    std::set<std::string> seen;
    for (const Atom& h : program.rules[i].head) {
      if (seen.insert(h.predicate).second) {
        st->defs[h.predicate].push_back(i);
      }
    }
  }
}

// Relevance cone of `pred`: everything reachable through defining
// rules, polarity-ignored.
std::set<std::string> ConeOf(const RewriteState& st, const std::string& pred) {
  std::set<std::string> cone{pred};
  std::deque<std::string> work{pred};
  while (!work.empty()) {
    std::string p = work.front();
    work.pop_front();
    auto it = st.defs.find(p);
    if (it == st.defs.end()) continue;
    for (size_t idx : it->second) {
      for (const Literal& l : st.program->rules[idx].body) {
        if (cone.insert(l.atom.predicate).second) {
          work.push_back(l.atom.predicate);
        }
      }
    }
  }
  return cone;
}

// Cone-level fragment check shared by the rewrite and the lint
// analysis.  Returns kNone when every rule in the cone is admissible.
FallbackReason CheckCone(const RewriteState& st,
                         const std::set<std::string>& cone,
                         std::string* detail) {
  for (size_t i = 0; i < st.program->rules.size(); ++i) {
    const Rule& r = st.program->rules[i];
    bool relevant = false;
    for (const Atom& h : r.head) {
      if (cone.count(h.predicate) > 0) relevant = true;
    }
    if (!relevant) continue;
    if (!r.aggregates.empty()) {
      *detail = "rule " + std::to_string(i) + " (" + r.head[0].predicate +
                ") aggregates inside the query's cone";
      return FallbackReason::kAggregates;
    }
  }
  return FallbackReason::kNone;
}


}  // namespace

MagicRewrite RewriteForQuery(const Program& program,
                             const QueryBinding& query,
                             const std::set<std::string>& edb_preds) {
  MagicRewrite out;
  if (query.BoundCount() == 0) {
    out.fallback = FallbackReason::kNoBoundArgument;
    out.detail = "every argument position of " + query.predicate + " is free";
    return out;
  }

  RewriteState st;
  st.program = &program;
  st.edb = edb_preds;
  for (const std::string& p : program.inputs) st.edb.insert(p);
  for (const FactDecl& f : program.facts) st.edb.insert(f.predicate);
  BuildDefs(program, &st);

  std::set<std::string> cone = ConeOf(st, query.predicate);
  FallbackReason cone_check = CheckCone(st, cone, &out.detail);
  if (cone_check != FallbackReason::kNone) {
    out.fallback = cone_check;
    return out;
  }

  uint64_t qmask = 0;
  for (size_t i = 0; i < query.args.size() && i < 60; ++i) {
    if (query.args[i].has_value()) qmask |= 1ULL << i;
  }
  st.Enqueue(query.predicate, qmask, query.args.size());
  while (!st.work.empty()) {
    auto [pred, mask] = st.work.front();
    st.work.pop_front();
    st.ProcessAdorned(pred, mask, st.adorned.at({pred, mask}));
    if (st.exploded) {
      out.fallback = FallbackReason::kAdornmentExplosion;
      out.detail = "more than " +
                   std::to_string(kMaxAdornedPredicates) +
                   " adorned predicates";
      return out;
    }
  }
  st.ProcessFullRequired();

  Program rewritten;
  rewritten.rules.reserve(st.magic_rules.size() + st.copy_rules.size() +
                          st.guarded_rules.size());
  for (Rule& r : st.magic_rules) rewritten.rules.push_back(std::move(r));
  for (Rule& r : st.copy_rules) rewritten.rules.push_back(std::move(r));
  for (Rule& r : st.guarded_rules) rewritten.rules.push_back(std::move(r));
  rewritten.facts = program.facts;
  rewritten.inputs = program.inputs;
  out.query_pred = AdornedName(query.predicate, query.Adornment());
  out.seed_pred = MagicName(query.predicate, query.Adornment());
  rewritten.outputs = {out.query_pred};
  out.adorned = std::move(st.adorned_order);
  out.full_required.assign(st.full_required.begin(), st.full_required.end());
  out.magic_rules = st.magic_rules.size();
  out.guarded_rules = st.guarded_rules.size();
  out.copy_rules = st.copy_rules.size();
  out.engine = std::make_shared<const Engine>(std::move(rewritten));
  if (!out.engine->status().ok()) {
    out.fallback = FallbackReason::kRewriteRejected;
    out.detail = out.engine->status().message();
    out.engine.reset();
  }
  return out;
}

MagicOpportunity AnalyzeMagicOpportunity(const Program& program,
                                         const std::string& output_pred) {
  MagicOpportunity out;
  RewriteState st;
  st.program = &program;
  st.build_rules = false;
  BuildDefs(program, &st);
  if (!st.Intensional(output_pred)) {
    // Extensional output: a bound query is a plain index lookup.
    out.beneficial = true;
    out.detail = "extensional output; point queries are index lookups";
    return out;
  }

  Stratification strat = ComputeStratification(program, nullptr);
  std::set<std::string> recursive_preds;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    if (i < strat.rule_recursive.size() && strat.rule_recursive[i]) {
      for (const Atom& h : program.rules[i].head) {
        recursive_preds.insert(h.predicate);
      }
    }
  }

  std::set<std::string> cone = ConeOf(st, output_pred);
  for (const std::string& p : cone) {
    if (recursive_preds.count(p) > 0) out.recursive_cone = true;
  }
  out.fallback = CheckCone(st, cone, &out.detail);
  if (out.fallback != FallbackReason::kNone) return out;
  if (!out.recursive_cone) {
    out.detail = "no recursion in the output's cone";
    return out;
  }

  // Propagate the most favourable (all-bound) adornment and see whether
  // any bound pattern lands on a recursive predicate.
  size_t arity = 0;
  for (size_t idx : st.defs.at(output_pred)) {
    for (const Atom& h : program.rules[idx].head) {
      if (h.predicate == output_pred) arity = h.args.size();
    }
  }
  uint64_t qmask = arity >= 60 ? ~0ULL : ((1ULL << arity) - 1);
  st.Enqueue(output_pred, qmask, arity);
  while (!st.work.empty() && !st.exploded) {
    auto [pred, mask] = st.work.front();
    st.work.pop_front();
    st.ProcessAdorned(pred, mask, st.adorned.at({pred, mask}));
  }
  for (const auto& [key, a] : st.adorned) {
    if (key.second != 0 && recursive_preds.count(key.first) > 0) {
      out.beneficial = true;
    }
  }
  if (!out.beneficial) {
    out.detail =
        "no bound argument reaches a recursive predicate; bound queries "
        "on " +
        output_pred + " evaluate the full recursion";
  }
  return out;
}

}  // namespace kgm::vadalog::magic
