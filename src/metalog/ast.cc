#include "metalog/ast.h"

#include <utility>

namespace kgm::metalog {

std::string PgAtom::ToString() const {
  std::string out;
  out += is_edge ? "[" : "(";
  out += id_var;
  if (!label.empty()) out += ": " + label;
  if (!properties.empty() || !spread_var.empty()) {
    out += "; ";
    bool first = true;
    for (const PgProperty& p : properties) {
      if (!first) out += ", ";
      first = false;
      out += p.name + ": " + p.value.ToString();
    }
    if (!spread_var.empty()) {
      if (!first) out += ", ";
      out += "*" + spread_var;
    }
  }
  out += is_edge ? "]" : ")";
  return out;
}

PathPtr PathExpr::Edge(PgAtom atom, bool inverse) {
  auto e = std::make_shared<PathExpr>();
  e->kind = PathKind::kEdge;
  e->edge = std::move(atom);
  e->inverse = inverse;
  return e;
}

PathPtr PathExpr::Concat(std::vector<PathPtr> parts) {
  if (parts.size() == 1) return parts[0];
  auto e = std::make_shared<PathExpr>();
  e->kind = PathKind::kConcat;
  e->children = std::move(parts);
  return e;
}

PathPtr PathExpr::Alt(std::vector<PathPtr> branches) {
  if (branches.size() == 1) return branches[0];
  auto e = std::make_shared<PathExpr>();
  e->kind = PathKind::kAlt;
  e->children = std::move(branches);
  return e;
}

PathPtr PathExpr::Star(PathPtr inner) {
  auto e = std::make_shared<PathExpr>();
  e->kind = PathKind::kStar;
  e->children = {std::move(inner)};
  return e;
}

PathPtr PathExpr::Plus(PathPtr inner) {
  auto e = std::make_shared<PathExpr>();
  e->kind = PathKind::kPlus;
  e->children = {std::move(inner)};
  return e;
}

std::string PathExpr::ToString() const {
  switch (kind) {
    case PathKind::kEdge:
      return edge.ToString() + (inverse ? "-" : "");
    case PathKind::kConcat: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += " / ";
        bool paren = children[i]->kind == PathKind::kAlt;
        out += paren ? "(" + children[i]->ToString() + ")"
                     : children[i]->ToString();
      }
      return out;
    }
    case PathKind::kAlt: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += " | ";
        out += children[i]->ToString();
      }
      return out;
    }
    case PathKind::kStar:
    case PathKind::kPlus: {
      std::string inner = children[0]->ToString();
      bool paren = children[0]->kind != PathKind::kEdge;
      std::string out = paren ? "(" + inner + ")" : inner;
      return out + (kind == PathKind::kStar ? "*" : "+");
    }
  }
  return "?";
}

void PathExpr::CollectVars(std::vector<std::string>* out) const {
  ForEachPathAtom(*this, [out](const PgAtom& edge, bool) {
    if (!edge.id_var.empty() && edge.id_var != "_") {
      out->push_back(edge.id_var);
    }
    for (const PgProperty& p : edge.properties) {
      if (p.value.is_var() && !p.value.is_anonymous()) {
        out->push_back(p.value.var);
      }
    }
  });
}

std::string GraphPattern::ToString() const {
  std::string out = nodes[0].ToString();
  for (size_t i = 0; i < paths.size(); ++i) {
    bool paren = paths[i]->kind == PathKind::kConcat ||
                 paths[i]->kind == PathKind::kAlt;
    out += paren ? "(" + paths[i]->ToString() + ")" : paths[i]->ToString();
    out += nodes[i + 1].ToString();
  }
  return out;
}

std::string MetaRule::ToString() const {
  std::vector<std::string> parts;
  for (const GraphPattern& p : body_patterns) parts.push_back(p.ToString());
  for (const GraphPattern& p : negated_patterns) {
    parts.push_back("not " + p.ToString());
  }
  for (const vadalog::Assignment& a : assignments) {
    parts.push_back(a.ToString());
  }
  for (const vadalog::Aggregate& a : aggregates) parts.push_back(a.ToString());
  for (const vadalog::Condition& c : conditions) parts.push_back(c.ToString());
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  out += " -> ";
  for (const vadalog::ExistentialSpec& e : existentials) {
    out += e.ToString() + " ";
  }
  for (size_t i = 0; i < head_patterns.size(); ++i) {
    if (i > 0) out += ", ";
    out += head_patterns[i].ToString();
  }
  out += ".";
  return out;
}

void ForEachPathAtom(const PathExpr& path, const AtomVisitor& fn,
                     bool inside_star) {
  if (path.kind == PathKind::kEdge) {
    fn(path.edge, inside_star);
    return;
  }
  inside_star = inside_star || path.kind == PathKind::kStar;
  for (const PathPtr& c : path.children) ForEachPathAtom(*c, fn, inside_star);
}

void ForEachPatternAtom(const GraphPattern& pattern, const AtomVisitor& fn) {
  for (const PgAtom& n : pattern.nodes) fn(n, false);
  for (const PathPtr& p : pattern.paths) ForEachPathAtom(*p, fn);
}

void ForEachRuleAtom(
    const MetaRule& rule,
    const std::function<void(const PgAtom& atom, PatternRole role,
                             bool inside_star)>& fn) {
  for (const auto& [patterns, role] :
       {std::pair{&rule.body_patterns, PatternRole::kBody},
        std::pair{&rule.negated_patterns, PatternRole::kNegated},
        std::pair{&rule.head_patterns, PatternRole::kHead}}) {
    const AtomVisitor visit = [&fn, role](const PgAtom& atom, bool in_star) {
      fn(atom, role, in_star);
    };
    for (const GraphPattern& p : *patterns) ForEachPatternAtom(p, visit);
  }
}

std::string MetaProgram::ToString() const {
  std::string out;
  for (const MetaRule& r : rules) out += r.ToString() + "\n";
  return out;
}

}  // namespace kgm::metalog
