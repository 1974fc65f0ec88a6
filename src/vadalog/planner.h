// Cost-based join planner for the Vadalog engine.
//
// Rule bodies are written for readability, not for evaluation cost: a badly
// ordered literal can multiply join-probe counts by orders of magnitude
// (the canonical offender is a node-label atom scanned outermost while the
// selective relationship atom sits behind it).  The planner estimates
// per-literal selectivity from the FactDb's cardinality statistics — row
// counts plus per-position approximate distinct counts (see
// Relation::DistinctEstimate) — greedily reorders body literals, and picks
// index-lookup vs. full-scan per literal.
//
// Determinism contract.  Plans change PROBE order only, never output: the
// engine evaluates reordered rules with collect-and-flush firing
// restoration (emissions are keyed by the matched row ids in WRITTEN
// literal order and flushed in ascending key order, which is exactly the
// sequence a written-order join would have produced), so materialization is
// bit-identical to what plan_mode = kOff produces, which is itself the same
// at every thread count.  Because output is invariant under ANY plan, the
// planner is free to use whatever statistics are current — plan quality
// affects probe counts, not results.
//
// Plans are cached per (rule, regime, delta literal) and re-planned when a
// body relation's size drifts past 2x of the planning-time snapshot, or
// when an erase left its distinct-count registers stale.

#ifndef KGM_VADALOG_PLANNER_H_
#define KGM_VADALOG_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vadalog/database.h"

namespace kgm::vadalog {

enum class PlanMode {
  kOff,     // written-order evaluation (today's behavior, the default)
  kGreedy,  // greedy cost-based reordering + index-vs-scan selection
};

// Iteration regime a plan is built for.  The bound-variable set at each
// join depth — and hence every selectivity estimate — depends on it, and
// so does the literal pinned outermost.  The engine's barrier driver
// (kFull, kDeltaScan) evaluates against the frozen pre-barrier database;
// DeltaEvaluator (kDeltaPrebound) emits through a callback.
enum class PlanRegime {
  // Phase A full evaluation: nothing bound initially; literal 0 stays
  // outermost (scan partitioning ranges over it, so moving it would break
  // the cross-item emission order the flush restoration relies on).
  kFull,
  // Phase B semi-naive iteration: the delta literal is forced outermost
  // (the engine partitions it when it is literal 0, and runs a later one
  // as a single item) and its variables are bound for everything after it.
  kDeltaScan,
  // DeltaEvaluator::EvalRuleDelta: the delta literal's variables are
  // pre-bound to one delta tuple before the join starts; the delta literal
  // itself degenerates to a containment probe.
  kDeltaPrebound,
};

const char* PlanRegimeName(PlanRegime regime);

// One positive body literal as the planner sees it: predicate plus the
// constant/variable-slot shape (a mirror of the engine's compiled literal,
// kept engine-independent so the planner is testable on its own).
struct PlanArg {
  bool is_const = false;
  int slot = -1;  // -1 = anonymous variable
};

struct PlanLiteral {
  std::string pred;
  std::vector<PlanArg> args;
};

struct RuleDesc {
  int rule_index = 0;
  std::vector<PlanLiteral> positives;
  // Computed by the engine: body reordering is admissible (two or more
  // positive literals, no aggregates, not a restricted-chase existential
  // rule).  Ineligible rules still get per-literal index-vs-scan selection
  // on the written order, which is order-neutral.
  bool reorderable = false;
};

// One literal of a chosen plan.
struct PlannedLiteral {
  size_t literal = 0;     // index into the rule's positives (written order)
  uint64_t mask = 0;      // expected bound mask at this depth
  bool use_index = true;  // probe the mask's hash index vs. filtered scan
  double est_rows = 0;    // estimated matching rows per probe
};

struct JoinPlan {
  std::vector<PlannedLiteral> order;  // evaluation order, outermost first
  bool reordered = false;             // order differs from written order
  double est_probes = 0;          // estimated candidate rows, chosen order
  double est_probes_written = 0;  // same estimator on the written order
  double est_firings = 0;         // estimated complete body matches
};

// Cache-entry snapshot for observability (EngineStats::rule_plans).
struct PlanSnapshot {
  int rule_index = 0;
  PlanRegime regime = PlanRegime::kFull;
  int delta_literal = -1;
  JoinPlan plan;
  // Predicate of each planned literal, parallel to plan.order.
  std::vector<std::string> preds;
  size_t uses = 0;     // PlanFor calls served by this entry
  size_t replans = 0;  // times the entry was rebuilt on stats drift
};

// Builds, caches and serves join plans.  Driver-only: PlanFor runs at
// barrier boundaries (work-item creation), never on pool threads.
class JoinPlanner {
 public:
  JoinPlanner(PlanMode mode, std::vector<RuleDesc> rules);

  // The plan for evaluating `rule_index` under `regime`.  `delta_literal`
  // is the semi-naive delta literal (-1 for kFull); `delta_rel` is the
  // delta relation it enumerates (kDeltaScan/kDeltaPrebound; its size
  // anchors the outermost cardinality).  Returns nullptr when planning is
  // off or the rule has no positive literals — the engine then evaluates
  // exactly as it does today.  The pointer stays valid until the next
  // PlanFor call for the same key.  Refreshes stale relation statistics
  // (so it must not run while staged tuples are pending).
  const JoinPlan* PlanFor(size_t rule_index, PlanRegime regime,
                          int delta_literal, FactDb& db,
                          const Relation* delta_rel);

  size_t plans_built() const { return plans_built_; }
  size_t plans_reordered() const { return plans_reordered_; }
  size_t cache_hits() const { return cache_hits_; }
  size_t replans() const { return replans_; }

  // Every cached plan with its usage counters, for EngineStats.
  std::vector<PlanSnapshot> Snapshot() const;

 private:
  struct CacheKey {
    size_t rule_index;
    PlanRegime regime;
    int delta_literal;
    bool operator<(const CacheKey& o) const {
      if (rule_index != o.rule_index) return rule_index < o.rule_index;
      if (regime != o.regime) return regime < o.regime;
      return delta_literal < o.delta_literal;
    }
  };
  struct CacheEntry {
    JoinPlan plan;
    // Body-relation sizes at planning time (delta relation included as the
    // last entry for delta regimes); >2x drift triggers a re-plan.
    std::vector<size_t> size_snapshot;
    size_t uses = 0;
    size_t replans = 0;
  };

  JoinPlan BuildPlan(const RuleDesc& rule, PlanRegime regime,
                     int delta_literal, FactDb& db,
                     const Relation* delta_rel) const;
  std::vector<size_t> SizeSnapshot(const RuleDesc& rule, FactDb& db,
                                   const Relation* delta_rel) const;

  PlanMode mode_;
  std::vector<RuleDesc> rules_;
  std::map<CacheKey, CacheEntry> cache_;
  size_t plans_built_ = 0;
  size_t plans_reordered_ = 0;
  size_t cache_hits_ = 0;
  size_t replans_ = 0;
};

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_PLANNER_H_
