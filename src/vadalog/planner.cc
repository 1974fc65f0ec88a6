#include "vadalog/planner.h"

#include <algorithm>

#include "base/status.h"

namespace kgm::vadalog {

const char* PlanRegimeName(PlanRegime regime) {
  switch (regime) {
    case PlanRegime::kFull:
      return "full";
    case PlanRegime::kDeltaScan:
      return "delta_scan";
    case PlanRegime::kDeltaPrebound:
      return "delta_prebound";
  }
  return "unknown";
}

namespace {

// Scan beats a hash-index probe on tiny relations: the probe's hashing and
// bucket chase cost more than touching every row.
constexpr size_t kIndexMinRows = 8;

// Working view of one literal while planning: resolved relation + size.
struct LitInfo {
  const Relation* rel = nullptr;
  size_t rows = 0;
};

uint64_t MaskFor(const PlanLiteral& lit, const std::vector<char>& bound) {
  uint64_t mask = 0;
  for (size_t p = 0; p < lit.args.size(); ++p) {
    const PlanArg& a = lit.args[p];
    if (a.is_const ||
        (a.slot >= 0 && a.slot < (int)bound.size() && bound[a.slot])) {
      mask |= uint64_t{1} << p;
    }
  }
  return mask;
}

bool FullyBound(const PlanLiteral& lit, uint64_t mask) {
  return lit.args.empty() ||
         mask == ((uint64_t{1} << lit.args.size()) - 1);
}

// Estimated rows matching one probe of `lit` with `mask` bound: the
// independence assumption N * prod(1/d_p) over bound positions, clamped to
// [~0, N]; a fully bound probe is a containment check expecting <= 1 row.
double EstRows(const PlanLiteral& lit, const LitInfo& info, uint64_t mask) {
  double est = static_cast<double>(info.rows);
  if (info.rel != nullptr) {
    for (size_t p = 0; p < lit.args.size(); ++p) {
      if (mask & (uint64_t{1} << p)) {
        est /= std::max(1.0, info.rel->DistinctEstimate(p));
      }
    }
  }
  est = std::min(est, static_cast<double>(info.rows));
  if (FullyBound(lit, mask)) est = std::min(est, 1.0);
  return est;
}

bool ChooseIndex(const LitInfo& info, uint64_t mask, bool fully_bound) {
  if (mask == 0 || fully_bound) return false;  // scan / containment probe
  return info.rows >= kIndexMinRows;
}

// Per-probe candidate-row cost of evaluating `lit` the chosen way.
double ProbeCost(const LitInfo& info, uint64_t /*mask*/, bool fully_bound,
                 bool use_index, double est_rows) {
  if (fully_bound) return 1.0;
  if (use_index) return std::max(1.0, est_rows);
  return static_cast<double>(info.rows);  // (filtered) scan touches all rows
}

void BindSlots(const PlanLiteral& lit, std::vector<char>& bound) {
  for (const PlanArg& a : lit.args) {
    if (a.slot >= 0 && a.slot < (int)bound.size()) bound[a.slot] = 1;
  }
}

int MaxSlot(const RuleDesc& rule) {
  int mx = -1;
  for (const PlanLiteral& lit : rule.positives) {
    for (const PlanArg& a : lit.args) mx = std::max(mx, a.slot);
  }
  return mx;
}

// Costs a fixed evaluation order with the estimator, filling mask /
// use_index / est_rows per literal.  `bound` carries pre-bound slots in
// and ends with every body slot bound.
double CostOrder(const RuleDesc& rule, const std::vector<LitInfo>& infos,
                 const std::vector<size_t>& order, std::vector<char>& bound,
                 std::vector<PlannedLiteral>* out, double* est_firings) {
  double probes = 0;
  double prefix = 1;
  for (size_t li : order) {
    const PlanLiteral& lit = rule.positives[li];
    uint64_t mask = MaskFor(lit, bound);
    bool fb = FullyBound(lit, mask);
    double est = EstRows(lit, infos[li], mask);
    bool use_index = ChooseIndex(infos[li], mask, fb);
    probes += prefix * ProbeCost(infos[li], mask, fb, use_index, est);
    prefix *= est;
    if (out != nullptr) {
      out->push_back(PlannedLiteral{li, mask, use_index, est});
    }
    BindSlots(lit, bound);
  }
  if (est_firings != nullptr) *est_firings = prefix;
  return probes;
}

}  // namespace

JoinPlanner::JoinPlanner(PlanMode mode, std::vector<RuleDesc> rules)
    : mode_(mode), rules_(std::move(rules)) {}

std::vector<size_t> JoinPlanner::SizeSnapshot(
    const RuleDesc& rule, FactDb& db, const Relation* delta_rel) const {
  std::vector<size_t> sizes;
  sizes.reserve(rule.positives.size() + 1);
  for (const PlanLiteral& lit : rule.positives) {
    const Relation* rel = db.Get(lit.pred);
    sizes.push_back(rel == nullptr ? 0 : rel->size());
  }
  if (delta_rel != nullptr) sizes.push_back(delta_rel->size());
  return sizes;
}

const JoinPlan* JoinPlanner::PlanFor(size_t rule_index, PlanRegime regime,
                                     int delta_literal, FactDb& db,
                                     const Relation* delta_rel) {
  if (mode_ == PlanMode::kOff) return nullptr;
  KGM_CHECK(rule_index < rules_.size());
  const RuleDesc& rule = rules_[rule_index];
  if (rule.positives.empty()) return nullptr;

  // Erases mark sketches stale; rebuild them before estimating so the
  // planner never works from inflated distinct counts (satellite fix for
  // EraseTuples).  Driver-only call sites guarantee no staged tuples.
  bool stats_refreshed = false;
  for (const PlanLiteral& lit : rule.positives) {
    Relation* rel = db.GetMutable(lit.pred);
    if (rel != nullptr && rel->stats_stale()) {
      rel->RefreshStats();
      stats_refreshed = true;
    }
  }

  CacheKey key{rule_index, regime, delta_literal};
  std::vector<size_t> sizes = SizeSnapshot(rule, db, delta_rel);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    CacheEntry& entry = it->second;
    entry.uses++;
    bool drifted = stats_refreshed;
    for (size_t i = 0; !drifted && i < sizes.size(); ++i) {
      size_t snap =
          i < entry.size_snapshot.size() ? entry.size_snapshot[i] : 0;
      if (sizes[i] > 2 * snap + 16 || sizes[i] < snap / 2) drifted = true;
    }
    if (!drifted) {
      cache_hits_++;
      return &entry.plan;
    }
    entry.plan = BuildPlan(rule, regime, delta_literal, db, delta_rel);
    entry.size_snapshot = std::move(sizes);
    entry.replans++;
    replans_++;
    plans_built_++;
    if (entry.plan.reordered) plans_reordered_++;
    return &entry.plan;
  }

  CacheEntry entry;
  entry.plan = BuildPlan(rule, regime, delta_literal, db, delta_rel);
  entry.size_snapshot = std::move(sizes);
  entry.uses = 1;
  plans_built_++;
  if (entry.plan.reordered) plans_reordered_++;
  auto [pos, inserted] = cache_.emplace(key, std::move(entry));
  (void)inserted;
  return &pos->second.plan;
}

JoinPlan JoinPlanner::BuildPlan(const RuleDesc& rule, PlanRegime regime,
                                int delta_literal, FactDb& db,
                                const Relation* delta_rel) const {
  const size_t n = rule.positives.size();
  std::vector<LitInfo> infos(n);
  for (size_t i = 0; i < n; ++i) {
    // The delta literal enumerates (or probes) the delta relation, not the
    // canonical store — its size anchors the whole estimate.
    if ((int)i == delta_literal && regime != PlanRegime::kFull &&
        delta_rel != nullptr) {
      infos[i].rel = delta_rel;
    } else {
      infos[i].rel = db.Get(rule.positives[i].pred);
    }
    infos[i].rows = infos[i].rel == nullptr ? 0 : infos[i].rel->size();
  }

  std::vector<char> initial_bound(static_cast<size_t>(MaxSlot(rule) + 1), 0);
  if (regime == PlanRegime::kDeltaPrebound && delta_literal >= 0 &&
      delta_literal < (int)n) {
    // EvalRuleDelta binds the delta literal's variables to one delta tuple
    // before the join starts.
    for (const PlanArg& a : rule.positives[delta_literal].args) {
      if (a.slot >= 0) initial_bound[a.slot] = 1;
    }
  }

  // Written-order baseline (identity permutation) under the same initial
  // bindings — the comparison point for est_probes_saved.
  std::vector<size_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = i;
  JoinPlan plan;
  {
    std::vector<char> bound = initial_bound;
    plan.est_probes_written =
        CostOrder(rule, infos, identity, bound, nullptr, nullptr);
  }

  std::vector<size_t> order;
  order.reserve(n);
  std::vector<char> chosen(n, 0);
  std::vector<char> bound = initial_bound;
  if (!rule.reorderable) {
    // Ineligible rules keep written order; the plan still carries per-depth
    // masks and index-vs-scan choices (order-neutral, so always safe).
    order = identity;
  } else {
    // Regime pins: kFull keeps literal 0 outermost (Phase A partitions its
    // scan range, and the cross-item emission order keys on it); kDeltaScan
    // pins the delta literal (usually the smallest input; the engine
    // partitions it when it is literal 0) and kDeltaPrebound puts its
    // containment probe first.
    int pinned = -1;
    if (regime == PlanRegime::kFull) {
      pinned = 0;
    } else if (delta_literal >= 0 && delta_literal < (int)n) {
      pinned = delta_literal;
    }
    if (pinned >= 0) {
      order.push_back(static_cast<size_t>(pinned));
      chosen[pinned] = 1;
      BindSlots(rule.positives[pinned], bound);
    }
    while (order.size() < n) {
      // Greedy: smallest estimated result cardinality next; break ties on
      // cheaper probes, then on written position (determinism).
      size_t best = n;
      double best_rows = 0, best_cost = 0;
      for (size_t i = 0; i < n; ++i) {
        if (chosen[i]) continue;
        const PlanLiteral& lit = rule.positives[i];
        uint64_t mask = MaskFor(lit, bound);
        bool fb = FullyBound(lit, mask);
        double est = EstRows(lit, infos[i], mask);
        bool use_index = ChooseIndex(infos[i], mask, fb);
        double cost = ProbeCost(infos[i], mask, fb, use_index, est);
        if (best == n || est < best_rows ||
            (est == best_rows && cost < best_cost)) {
          best = i;
          best_rows = est;
          best_cost = cost;
        }
      }
      order.push_back(best);
      chosen[best] = 1;
      BindSlots(rule.positives[best], bound);
    }
  }

  std::vector<char> cost_bound = initial_bound;
  plan.est_probes = CostOrder(rule, infos, order, cost_bound, &plan.order,
                              &plan.est_firings);
  plan.reordered = order != identity;
  return plan;
}

std::vector<PlanSnapshot> JoinPlanner::Snapshot() const {
  std::vector<PlanSnapshot> out;
  out.reserve(cache_.size());
  for (const auto& [key, entry] : cache_) {
    PlanSnapshot snap;
    snap.rule_index = static_cast<int>(key.rule_index);
    snap.regime = key.regime;
    snap.delta_literal = key.delta_literal;
    snap.plan = entry.plan;
    const RuleDesc& rule = rules_[key.rule_index];
    for (const PlannedLiteral& pl : entry.plan.order) {
      snap.preds.push_back(rule.positives[pl.literal].pred);
    }
    snap.uses = entry.uses;
    snap.replans = entry.replans;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace kgm::vadalog
