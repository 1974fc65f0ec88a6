#include "vadalog/typeflow.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "vadalog/analysis.h"

namespace kgm::vadalog {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// After this many fixpoint passes over one SCC the interval/constant
// component is widened away (kind bits alone form a finite lattice), so
// recursive arithmetic like `w' = w * 0.5` cannot descend forever.
constexpr int kWidenAfterPasses = 6;
constexpr int kMaxPasses = 200;

double FiniteOr(double v, double fallback) {
  return std::isnan(v) ? fallback : v;
}

}  // namespace

std::string KindSetName(KindSet kinds) {
  if (kinds == kKindNone) return "none";
  if (kinds == kKindAny) return "any";
  static const struct {
    KindSet bit;
    const char* name;
  } kNames[] = {
      {kKindInt, "int"},       {kKindDouble, "double"}, {kKindString, "string"},
      {kKindBool, "bool"},     {kKindNull, "null"},     {kKindRecord, "record"},
  };
  std::string out;
  for (const auto& n : kNames) {
    if ((kinds & n.bit) == 0) continue;
    if (!out.empty()) out += "|";
    out += n.name;
  }
  return out;
}

AbstractValue AbstractValue::Top() {
  AbstractValue v;
  v.kinds = kKindAny;
  return v;
}

AbstractValue AbstractValue::OfValue(const Value& v) {
  AbstractValue a;
  switch (v.kind()) {
    case ValueKind::kInt:
      a.kinds = kKindInt;
      a.has_range = true;
      a.lo = a.hi = static_cast<double>(v.AsInt());
      break;
    case ValueKind::kDouble:
      a.kinds = kKindDouble;
      a.has_range = true;
      a.lo = a.hi = v.AsDoubleExact();
      break;
    case ValueKind::kString:
      a.kinds = kKindString;
      break;
    case ValueKind::kBool:
      a.kinds = kKindBool;
      break;
    case ValueKind::kRecord:
      a.kinds = kKindRecord;
      break;
    case ValueKind::kNull:
    case ValueKind::kSkolem:
      a.kinds = kKindNull;
      break;
  }
  if (a.kinds != kKindNull && a.kinds != kKindRecord) {
    a.has_const = true;
    a.constant = v;
  }
  return a;
}

bool AbstractValue::JoinWith(const AbstractValue& o) {
  if (o.is_bottom()) return false;
  if (is_bottom()) {
    *this = o;
    return true;
  }
  bool changed = false;
  KindSet merged = kinds | o.kinds;
  if (merged != kinds) {
    kinds = merged;
    changed = true;
  }
  if (has_range) {
    if (!o.has_range) {
      has_range = false;
      changed = true;
    } else {
      double nlo = std::min(lo, o.lo);
      double nhi = std::max(hi, o.hi);
      if (nlo != lo || nhi != hi) {
        lo = nlo;
        hi = nhi;
        changed = true;
      }
    }
  }
  if (has_const && !(o.has_const && o.constant == constant)) {
    has_const = false;
    changed = true;
  }
  return changed;
}

AbstractValue AbstractValue::MeetWith(const AbstractValue& o) const {
  AbstractValue out;
  out.kinds = kinds & o.kinds;
  if (out.is_bottom()) return out;
  if (has_range || o.has_range) {
    out.has_range = true;
    out.lo = has_range ? (o.has_range ? std::max(lo, o.lo) : lo) : o.lo;
    out.hi = has_range ? (o.has_range ? std::min(hi, o.hi) : hi) : o.hi;
    if (out.lo > out.hi) {
      // The numeric component is empty; if nothing non-numeric survives,
      // the meet is bottom (the caller's never-matches signal).
      out.has_range = false;
      out.kinds &= ~kKindNumeric;
      if (out.is_bottom()) return out;
    }
  }
  if (has_const) out.has_const = true, out.constant = constant;
  if (o.has_const) {
    if (out.has_const && !(out.constant == o.constant)) {
      return AbstractValue{};  // two different known values: bottom
    }
    out.has_const = true;
    out.constant = o.constant;
  }
  if (out.has_const) {
    // The constant must itself satisfy the surviving constraints.
    AbstractValue c = OfValue(out.constant);
    if ((c.kinds & out.kinds) == 0) return AbstractValue{};
    if (out.has_range && c.has_range && (c.lo < out.lo || c.hi > out.hi)) {
      return AbstractValue{};
    }
  }
  return out;
}

std::string AbstractValue::ToString() const {
  if (is_bottom()) return "none";
  std::string out = KindSetName(kinds);
  if (has_const) {
    out += "=" + constant.ToString();
  } else if (has_range && (lo != -kInf || hi != kInf)) {
    std::ostringstream r;
    r << "[" << lo << "," << hi << "]";
    out += r.str();
  }
  return out;
}

const char* TypeflowFindingKindName(TypeflowFindingKind k) {
  switch (k) {
    case TypeflowFindingKind::kTypeConflict:
      return "type-conflict";
    case TypeflowFindingKind::kUnsatRule:
      return "unsat-rule";
    case TypeflowFindingKind::kNullFlow:
      return "null-flow";
  }
  return "unknown";
}

const std::vector<AbstractValue>* TypeflowResult::SignatureOf(
    const std::string& pred) const {
  auto it = signatures.find(pred);
  return it == signatures.end() ? nullptr : &it->second;
}

std::string TypeflowResult::RenderSignature(const std::string& pred) const {
  const std::vector<AbstractValue>* sig = SignatureOf(pred);
  std::string out = pred + "(";
  if (sig != nullptr) {
    for (size_t i = 0; i < sig->size(); ++i) {
      if (i > 0) out += ", ";
      out += (*sig)[i].ToString();
    }
  }
  out += ")";
  return out;
}

namespace {

using Env = std::map<std::string, AbstractValue>;

// Collects findings during the post-fixpoint reporting pass; null during
// fixpoint iteration (the interpretation is identical either way).
struct Reporter {
  int rule_index = -1;
  std::set<std::pair<TypeflowFindingKind, std::string>>* seen = nullptr;
  std::vector<TypeflowFinding>* out = nullptr;

  void Add(TypeflowFindingKind kind, std::string message) {
    if (out == nullptr) return;
    if (!seen->emplace(kind, message).second) return;
    TypeflowFinding f;
    f.kind = kind;
    f.rule_index = rule_index;
    f.message = std::move(message);
    out->push_back(std::move(f));
  }
};

enum class Tri { kUnknown, kTrue, kFalse };

AbstractValue BoolValue(Tri t) {
  AbstractValue v;
  v.kinds = kKindBool;
  if (t != Tri::kUnknown) {
    v.has_const = true;
    v.constant = Value(t == Tri::kTrue);
  }
  return v;
}

Tri TriOfBool(const AbstractValue& v) {
  if (v.has_const && v.constant.is_bool()) {
    return v.constant.AsBool() ? Tri::kTrue : Tri::kFalse;
  }
  return Tri::kUnknown;
}

// Decides a comparison when the abstract operands allow it, mirroring
// EvalCompare: numerics coerce, same-kind compares by the value order,
// cross-kind ordering is false and only (in)equality is meaningful.
Tri TriCompare(BinOp op, const AbstractValue& l, const AbstractValue& r) {
  if (l.is_bottom() || r.is_bottom()) return Tri::kUnknown;
  const bool l_num = l.certainly(kKindNumeric);
  const bool r_num = r.certainly(kKindNumeric);
  if (l_num && r_num && l.has_range && r.has_range) {
    switch (op) {
      case BinOp::kLt:
        if (l.hi < r.lo) return Tri::kTrue;
        if (l.lo >= r.hi) return Tri::kFalse;
        return Tri::kUnknown;
      case BinOp::kLe:
        if (l.hi <= r.lo) return Tri::kTrue;
        if (l.lo > r.hi) return Tri::kFalse;
        return Tri::kUnknown;
      case BinOp::kGt:
        return TriCompare(BinOp::kLt, r, l);
      case BinOp::kGe:
        return TriCompare(BinOp::kLe, r, l);
      case BinOp::kEq:
        if (l.lo > r.hi || r.lo > l.hi) return Tri::kFalse;
        if (l.has_const && r.has_const && l.lo == r.lo && l.hi == r.hi &&
            l.lo == l.hi) {
          return Tri::kTrue;
        }
        return Tri::kUnknown;
      case BinOp::kNe: {
        Tri eq = TriCompare(BinOp::kEq, l, r);
        if (eq == Tri::kTrue) return Tri::kFalse;
        if (eq == Tri::kFalse) return Tri::kTrue;
        return Tri::kUnknown;
      }
      default:
        return Tri::kUnknown;
    }
  }
  if (l.has_const && r.has_const) {
    const Value& a = l.constant;
    const Value& b = r.constant;
    int cmp;
    if (a.kind() == b.kind()) {
      cmp = (a < b) ? -1 : (b < a) ? 1 : 0;
    } else {
      if (op == BinOp::kEq) return Tri::kFalse;
      if (op == BinOp::kNe) return Tri::kTrue;
      return Tri::kFalse;
    }
    switch (op) {
      case BinOp::kEq:
        return cmp == 0 ? Tri::kTrue : Tri::kFalse;
      case BinOp::kNe:
        return cmp != 0 ? Tri::kTrue : Tri::kFalse;
      case BinOp::kLt:
        return cmp < 0 ? Tri::kTrue : Tri::kFalse;
      case BinOp::kLe:
        return cmp <= 0 ? Tri::kTrue : Tri::kFalse;
      case BinOp::kGt:
        return cmp > 0 ? Tri::kTrue : Tri::kFalse;
      case BinOp::kGe:
        return cmp >= 0 ? Tri::kTrue : Tri::kFalse;
      default:
        return Tri::kUnknown;
    }
  }
  // Cross-kind with no overlap at all: EvalCompare yields false for
  // ordering and equality, true for inequality.  Numeric pairs already
  // handled above; a shared kind makes the outcome data-dependent.
  if ((l.kinds & r.kinds) == 0 && !(l.maybe(kKindNumeric) &&
                                    r.maybe(kKindNumeric))) {
    if (op == BinOp::kNe) return Tri::kTrue;
    return Tri::kFalse;
  }
  return Tri::kUnknown;
}

AbstractValue EvalAbstract(const Expr& e, const Env& env, Reporter* report);

AbstractValue EvalAbstractCall(const Expr& e, const Env& env,
                               Reporter* report) {
  std::vector<AbstractValue> args;
  args.reserve(e.call_args.size());
  for (const ExprPtr& a : e.call_args) {
    args.push_back(EvalAbstract(*a, env, report));
  }
  const std::string& f = e.call_name;
  auto require = [&](size_t i, KindSet k, const char* what) {
    if (i >= args.size()) return;
    if (!args[i].is_bottom() && !args[i].maybe(k) && report != nullptr) {
      report->Add(TypeflowFindingKind::kTypeConflict,
                  f + " applied to a value that can never be " +
                      std::string(what) + " (" + args[i].ToString() + ")");
    }
  };
  AbstractValue out;
  if (f == "concat" || f == "to_string") {
    out.kinds = kKindString;
    return out;
  }
  if (f == "substr") {
    require(0, kKindString, "a string");
    out.kinds = kKindString;
    return out;
  }
  if (f == "strlen") {
    require(0, kKindString, "a string");
    out.kinds = kKindInt;
    out.has_range = true;
    out.lo = 0;
    out.hi = kInf;
    return out;
  }
  if (f == "to_int" || f == "to_double") {
    require(0, kKindNumeric | kKindString, "numeric or a string");
    out.kinds = f == "to_int" ? kKindInt : kKindDouble;
    if (!args.empty() && args[0].has_range) {
      out.has_range = true;
      out.lo = args[0].lo;
      out.hi = args[0].hi;
    }
    return out;
  }
  if (f == "abs") {
    require(0, kKindNumeric, "numeric");
    out.kinds = args.empty() ? kKindNumeric
                             : (args[0].kinds & kKindNumeric);
    if (out.kinds == kKindNone) out.kinds = kKindNumeric;
    if (!args.empty() && args[0].has_range) {
      double alo = std::fabs(args[0].lo);
      double ahi = std::fabs(args[0].hi);
      out.has_range = true;
      out.lo = (args[0].lo <= 0 && args[0].hi >= 0) ? 0 : std::min(alo, ahi);
      out.hi = std::max(alo, ahi);
    }
    return out;
  }
  if (f == "min" || f == "max" || f == "mod") {
    require(0, kKindNumeric, "numeric");
    require(1, kKindNumeric, "numeric");
    KindSet k = kKindNone;
    for (const AbstractValue& a : args) k |= a.kinds & kKindNumeric;
    out.kinds = k == kKindNone ? kKindNumeric : k;
    if (f != "mod" && args.size() == 2 && args[0].has_range &&
        args[1].has_range) {
      out.has_range = true;
      if (f == "min") {
        out.lo = std::min(args[0].lo, args[1].lo);
        out.hi = std::min(args[0].hi, args[1].hi);
      } else {
        out.lo = std::max(args[0].lo, args[1].lo);
        out.hi = std::max(args[0].hi, args[1].hi);
      }
    }
    return out;
  }
  if (f == "is_null") {
    out.kinds = kKindBool;
    return out;
  }
  // get(record, field) and anything unknown: no static knowledge.
  return AbstractValue::Top();
}

AbstractValue EvalAbstract(const Expr& e, const Env& env, Reporter* report) {
  switch (e.kind) {
    case Expr::Kind::kConst:
      return AbstractValue::OfValue(e.constant);
    case Expr::Kind::kVar: {
      auto it = env.find(e.var);
      // Unbound names are the safety pass's finding, not ours.
      return it == env.end() ? AbstractValue::Top() : it->second;
    }
    case Expr::Kind::kNot: {
      AbstractValue v = EvalAbstract(*e.lhs, env, report);
      Tri t = TriOfBool(v);
      if (t == Tri::kTrue) return BoolValue(Tri::kFalse);
      if (t == Tri::kFalse) return BoolValue(Tri::kTrue);
      return BoolValue(Tri::kUnknown);
    }
    case Expr::Kind::kNeg: {
      AbstractValue v = EvalAbstract(*e.lhs, env, report);
      if (!v.is_bottom() && !v.maybe(kKindNumeric) && report != nullptr) {
        report->Add(TypeflowFindingKind::kTypeConflict,
                    "unary '-' applied to a value that can never be numeric "
                    "(" + v.ToString() + ")");
      }
      AbstractValue out;
      out.kinds = v.kinds & kKindNumeric;
      if (out.kinds == kKindNone) out.kinds = kKindNumeric;
      if (v.has_range) {
        out.has_range = true;
        out.lo = -v.hi;
        out.hi = -v.lo;
      }
      return out;
    }
    case Expr::Kind::kBinary: {
      AbstractValue l = EvalAbstract(*e.lhs, env, report);
      AbstractValue r = EvalAbstract(*e.rhs, env, report);
      switch (e.op) {
        case BinOp::kAnd:
        case BinOp::kOr: {
          Tri lt = TriOfBool(l);
          Tri rt = TriOfBool(r);
          if (e.op == BinOp::kAnd) {
            if (lt == Tri::kFalse || rt == Tri::kFalse) {
              return BoolValue(Tri::kFalse);
            }
            if (lt == Tri::kTrue && rt == Tri::kTrue) {
              return BoolValue(Tri::kTrue);
            }
          } else {
            if (lt == Tri::kTrue || rt == Tri::kTrue) {
              return BoolValue(Tri::kTrue);
            }
            if (lt == Tri::kFalse && rt == Tri::kFalse) {
              return BoolValue(Tri::kFalse);
            }
          }
          return BoolValue(Tri::kUnknown);
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod: {
          for (const AbstractValue* v : {&l, &r}) {
            if (!v->is_bottom() && !v->maybe(kKindNumeric) &&
                report != nullptr) {
              report->Add(TypeflowFindingKind::kTypeConflict,
                          std::string("operator '") + BinOpName(e.op) +
                              "' applied to a value that can never be "
                              "numeric (" + v->ToString() + ")");
            }
          }
          AbstractValue out;
          KindSet lk = l.kinds & kKindNumeric;
          KindSet rk = r.kinds & kKindNumeric;
          if (lk == kKindNone) lk = kKindNumeric;
          if (rk == kKindNone) rk = kKindNumeric;
          // int op int stays int; any double operand makes double possible.
          out.kinds = kKindNone;
          if ((lk & kKindInt) != 0 && (rk & kKindInt) != 0) {
            out.kinds |= kKindInt;
          }
          if ((lk & kKindDouble) != 0 || (rk & kKindDouble) != 0) {
            out.kinds |= kKindDouble;
          }
          if (out.kinds == kKindNone) out.kinds = kKindNumeric;
          if (l.has_range && r.has_range &&
              (e.op == BinOp::kAdd || e.op == BinOp::kSub ||
               e.op == BinOp::kMul)) {
            double a, b;
            if (e.op == BinOp::kAdd) {
              a = l.lo + r.lo;
              b = l.hi + r.hi;
            } else if (e.op == BinOp::kSub) {
              a = l.lo - r.hi;
              b = l.hi - r.lo;
            } else {
              double p1 = l.lo * r.lo, p2 = l.lo * r.hi;
              double p3 = l.hi * r.lo, p4 = l.hi * r.hi;
              a = std::min(std::min(p1, p2), std::min(p3, p4));
              b = std::max(std::max(p1, p2), std::max(p3, p4));
            }
            a = FiniteOr(a, -kInf);
            b = FiniteOr(b, kInf);
            if (a <= b) {
              out.has_range = true;
              out.lo = a;
              out.hi = b;
            }
          }
          return out;
        }
        default: {
          // Ordering a pair that can never share a comparable kind is a
          // programmer error even though the runtime silently yields
          // false (SQL-style null semantics).
          const bool ordering = e.op == BinOp::kLt || e.op == BinOp::kLe ||
                                e.op == BinOp::kGt || e.op == BinOp::kGe;
          if (ordering && !l.is_bottom() && !r.is_bottom() &&
              (l.kinds & r.kinds) == 0 &&
              !(l.maybe(kKindNumeric) && r.maybe(kKindNumeric)) &&
              report != nullptr) {
            report->Add(TypeflowFindingKind::kTypeConflict,
                        std::string("comparison '") + BinOpName(e.op) +
                            "' over incompatible kinds (" + l.ToString() +
                            " vs " + r.ToString() + ")");
          }
          return BoolValue(TriCompare(e.op, l, r));
        }
      }
    }
    case Expr::Kind::kCall:
      return EvalAbstractCall(e, env, report);
  }
  return AbstractValue::Top();
}

// Narrows `env` with what a satisfied comparison implies: `x > 0.5`
// tightens x's numeric interval, `x == c` pins the constant.  Only the
// var-against-expression shapes are handled; everything else is a no-op
// (narrowing is an optimization of the analysis, not a soundness need).
void NarrowByComparison(BinOp op, const Expr& var_side,
                        const AbstractValue& other, Env* env) {
  if (var_side.kind != Expr::Kind::kVar) return;
  auto it = env->find(var_side.var);
  if (it == env->end()) return;
  AbstractValue& v = it->second;
  if (op == BinOp::kEq) {
    AbstractValue met = v.MeetWith(other);
    if (!met.is_bottom()) v = met;
    return;
  }
  if (!other.has_range || !v.maybe(kKindNumeric)) return;
  double lo = v.has_range ? v.lo : -kInf;
  double hi = v.has_range ? v.hi : kInf;
  switch (op) {
    case BinOp::kLt:
    case BinOp::kLe:
      hi = std::min(hi, other.hi);
      break;
    case BinOp::kGt:
    case BinOp::kGe:
      lo = std::max(lo, other.lo);
      break;
    default:
      return;
  }
  if (lo <= hi) {
    v.has_range = true;
    v.lo = lo;
    v.hi = hi;
  }
}

// Flips a comparison for the `const op var` orientation.
BinOp MirrorOp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;
  }
}

// Evaluates one condition expression, reporting statically-false ones and
// narrowing the environment on the satisfied path.  Conjunctions recurse
// so each conjunct narrows the next.
void ApplyCondition(const Expr& e, Env* env, Reporter* report,
                    const std::string& rendered) {
  if (e.kind == Expr::Kind::kBinary && e.op == BinOp::kAnd) {
    ApplyCondition(*e.lhs, env, report, rendered);
    ApplyCondition(*e.rhs, env, report, rendered);
    return;
  }
  AbstractValue v = EvalAbstract(e, *env, report);
  if (TriOfBool(v) == Tri::kFalse && report != nullptr) {
    report->Add(TypeflowFindingKind::kUnsatRule,
                "condition '" + rendered +
                    "' is statically always false: the rule never fires");
  }
  if (e.kind == Expr::Kind::kBinary) {
    AbstractValue l = EvalAbstract(*e.lhs, *env, nullptr);
    AbstractValue r = EvalAbstract(*e.rhs, *env, nullptr);
    NarrowByComparison(e.op, *e.lhs, r, env);
    NarrowByComparison(MirrorOp(e.op), *e.rhs, l, env);
  }
}

bool IsNumericAggregate(const std::string& func) {
  return func == "sum" || func == "prod" || func == "min" || func == "max" ||
         func == "msum" || func == "mprod" || func == "mmin" ||
         func == "mmax";
}

struct RuleEval {
  Env env;
  bool fireable = true;
};

// One abstract pass over a rule body against the current signatures.
RuleEval EvalRuleBody(
    const Rule& rule,
    const std::map<std::string, std::vector<AbstractValue>>& sig,
    Reporter* report) {
  RuleEval out;
  auto position_value = [&](const std::string& pred,
                            size_t index) -> AbstractValue {
    auto it = sig.find(pred);
    if (it == sig.end() || index >= it->second.size()) {
      return AbstractValue::Top();
    }
    return it->second[index];
  };

  for (const Literal& l : rule.body) {
    if (l.negated) continue;  // negated vars must be bound positively
    for (size_t i = 0; i < l.atom.args.size(); ++i) {
      const Term& t = l.atom.args[i];
      AbstractValue pos = position_value(l.atom.predicate, i);
      if (pos.is_bottom()) out.fireable = false;
      if (t.is_var()) {
        if (t.is_anonymous()) continue;
        auto [it, inserted] = out.env.emplace(t.var, pos);
        if (inserted) continue;
        AbstractValue met = it->second.MeetWith(pos);
        if (met.is_bottom() && !it->second.is_bottom() && !pos.is_bottom() &&
            report != nullptr) {
          report->Add(TypeflowFindingKind::kTypeConflict,
                      "variable " + t.var + " joins incompatible positions: " +
                          it->second.ToString() + " vs " + pos.ToString() +
                          " at " + l.atom.predicate + "[" +
                          std::to_string(i) + "]");
        }
        if (met.is_bottom()) out.fireable = false;
        it->second = met;
      } else {
        AbstractValue c = AbstractValue::OfValue(t.constant);
        AbstractValue met = c.MeetWith(pos);
        if (met.is_bottom()) {
          out.fireable = false;
          if (!pos.is_bottom() && report != nullptr) {
            report->Add(TypeflowFindingKind::kUnsatRule,
                        "body atom " + l.atom.ToString() +
                            " can never match: position " +
                            std::to_string(i) + " holds " + pos.ToString() +
                            " but the rule requires " +
                            t.constant.ToString());
          }
        }
      }
    }
  }

  for (const Assignment& a : rule.assignments) {
    out.env[a.var] = EvalAbstract(*a.expr, out.env, report);
  }
  for (const Condition& c : rule.conditions) {
    ApplyCondition(*c.expr, &out.env, report, c.expr->ToString());
  }
  for (const Aggregate& a : rule.aggregates) {
    AbstractValue arg = a.args.empty()
                            ? AbstractValue::Top()
                            : EvalAbstract(*a.args[0], out.env, report);
    AbstractValue result;
    if (IsNumericAggregate(a.func)) {
      if (!arg.is_bottom() && !arg.maybe(kKindNumeric) && report != nullptr) {
        report->Add(TypeflowFindingKind::kTypeConflict,
                    "aggregate " + a.func +
                        " folds values that can never be numeric (" +
                        arg.ToString() + ")");
      }
      result.kinds = arg.kinds & kKindNumeric;
      if (result.kinds == kKindNone) result.kinds = kKindNumeric;
      // min/max pick an existing value; sums/products of unboundedly many
      // contributions carry no usable interval.
      if ((a.func == "min" || a.func == "max" || a.func == "mmin" ||
           a.func == "mmax") &&
          arg.has_range) {
        result.has_range = true;
        result.lo = arg.lo;
        result.hi = arg.hi;
      }
    } else if (a.func == "count" || a.func == "mcount") {
      result.kinds = kKindInt;
      result.has_range = true;
      result.lo = 0;
      result.hi = kInf;
    } else if (a.func == "pack") {
      result.kinds = kKindRecord;
    } else {
      result = AbstractValue::Top();
    }
    out.env[a.result_var] = result;
  }
  for (const ExistentialSpec& e : rule.existentials) {
    AbstractValue n;
    n.kinds = kKindNull;
    out.env[e.var] = n;
  }
  return out;
}

void StripRefinements(AbstractValue* v) {
  v->has_range = false;
  v->has_const = false;
}

}  // namespace

TypeflowResult AnalyzeTypeflow(
    const Program& program,
    const std::vector<std::string>& external_predicates) {
  TypeflowResult result;

  // Predicate arities, from every syntactic use (the arity pass owns
  // mismatches; we take the max so indexes stay in range).
  std::map<std::string, size_t> arity;
  auto see = [&](const std::string& pred, size_t n) {
    size_t& a = arity[pred];
    a = std::max(a, n);
  };
  std::set<std::string> derived;
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) see(l.atom.predicate, l.atom.args.size());
    for (const Atom& h : r.head) {
      see(h.predicate, h.args.size());
      derived.insert(h.predicate);
    }
  }
  std::set<std::string> fact_preds;
  for (const FactDecl& f : program.facts) {
    see(f.predicate, f.values.size());
    fact_preds.insert(f.predicate);
  }
  for (const std::string& p : program.inputs) see(p, arity[p]);

  auto& sig = result.signatures;
  for (const auto& [pred, n] : arity) sig[pred].resize(n);

  // Extensional seeds: @input predicates and body predicates with no rule
  // or @fact definition hold data, not program text — top.  @fact values
  // seed their exact abstract values.
  std::set<std::string> inputs(program.inputs.begin(), program.inputs.end());
  // Environment-supplied predicates (catalog labels in their relational
  // encoding) hold data even when rules also derive into them.
  inputs.insert(external_predicates.begin(), external_predicates.end());
  for (auto& [pred, positions] : sig) {
    bool extensional =
        inputs.count(pred) > 0 ||
        (derived.count(pred) == 0 && fact_preds.count(pred) == 0);
    if (!extensional) continue;
    for (AbstractValue& v : positions) v = AbstractValue::Top();
  }
  for (const FactDecl& f : program.facts) {
    std::vector<AbstractValue>& positions = sig[f.predicate];
    for (size_t i = 0; i < f.values.size() && i < positions.size(); ++i) {
      positions[i].JoinWith(AbstractValue::OfValue(f.values[i]));
    }
  }

  // Fixpoint in SCC topological order; each stratum iterates only its own
  // rules (lower strata are already stable).
  Stratification strat = ComputeStratification(program, nullptr);
  std::map<int, std::vector<size_t>> by_stratum;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    int s = ri < strat.rule_stratum.size() ? strat.rule_stratum[ri] : 0;
    by_stratum[s].push_back(ri);
  }
  for (const auto& [stratum, rule_indexes] : by_stratum) {
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      bool changed = false;
      const bool widen = pass >= kWidenAfterPasses;
      for (size_t ri : rule_indexes) {
        const Rule& rule = program.rules[ri];
        RuleEval body = EvalRuleBody(rule, sig, nullptr);
        if (!body.fireable) continue;
        for (const Atom& h : rule.head) {
          std::vector<AbstractValue>& positions = sig[h.predicate];
          for (size_t i = 0; i < h.args.size() && i < positions.size(); ++i) {
            const Term& t = h.args[i];
            AbstractValue v;
            if (t.is_var()) {
              auto it = body.env.find(t.var);
              v = it == body.env.end() ? AbstractValue::Top() : it->second;
            } else {
              v = AbstractValue::OfValue(t.constant);
            }
            if (v.is_bottom()) continue;
            // Widening: past a few passes only the (finite) kind bits may
            // keep growing, so recursive interval arithmetic terminates.
            if (widen) StripRefinements(&v);
            if (positions[i].JoinWith(v)) changed = true;
          }
        }
      }
      if (!changed) break;
    }
  }

  // Reporting pass with the converged signatures.
  std::set<std::pair<TypeflowFindingKind, std::string>> seen;
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    Reporter report;
    report.rule_index = static_cast<int>(ri);
    report.seen = &seen;
    report.out = &result.findings;
    seen.clear();
    EvalRuleBody(program.rules[ri], sig, &report);
  }

  // Null-flow: an @output position that mixes minted nulls with numeric
  // or boolean scalars will break scalar consumers of the output.
  for (size_t oi = 0; oi < program.outputs.size(); ++oi) {
    const std::string& pred = program.outputs[oi];
    auto it = sig.find(pred);
    if (it == sig.end()) continue;
    for (size_t i = 0; i < it->second.size(); ++i) {
      const AbstractValue& v = it->second[i];
      if (!v.maybe(kKindNull) || !v.maybe(kKindNumeric | kKindBool)) continue;
      // Top means "unknown data", not "nulls proven to flow": extensional
      // inputs land here and must not warn.  Only a *derived* mix — the
      // analysis actually watched an existential feed the position — is
      // worth flagging.
      if (v.kinds == kKindAny) continue;
      TypeflowFinding f;
      f.kind = TypeflowFindingKind::kNullFlow;
      f.rule_index = -1;
      f.output_index = static_cast<int>(oi);
      f.message = "labeled nulls reach @output " + pred + " position " +
                  std::to_string(i) + ", which otherwise carries " +
                  KindSetName(v.kinds & (kKindNumeric | kKindBool)) +
                  " values";
      result.findings.push_back(std::move(f));
    }
  }

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const TypeflowFinding& a, const TypeflowFinding& b) {
                     if (a.rule_index != b.rule_index) {
                       return a.rule_index < b.rule_index;
                     }
                     if (a.output_index != b.output_index) {
                       return a.output_index < b.output_index;
                     }
                     return a.message < b.message;
                   });
  return result;
}

}  // namespace kgm::vadalog
