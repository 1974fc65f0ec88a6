#include "vadalog/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/check.h"
#include "base/thread_pool.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {

namespace {

// Ceiling on the fixpoint iterations of one stratum.
constexpr size_t kMaxIterations = 10'000'000;

// --- compiled rule representation -------------------------------------------

struct ArgSlot {
  bool is_const = false;
  Value constant;
  int slot = -1;  // -1 for anonymous variables
};

struct CompiledLiteral {
  std::string pred;
  std::vector<ArgSlot> args;
  bool recursive = false;  // predicate in the rule's own SCC
};

struct CompiledAgg {
  std::string base_func;  // sum / prod / count / min / max / pack
  bool monotonic = false;
  std::vector<ExprPtr> args;
  std::vector<int> contributor_slots;
  int result_slot = -1;
};

struct ExistSlot {
  int slot = -1;
  std::string functor;          // never empty after compilation
  std::vector<int> arg_slots;   // Skolem arguments
};

// Per-group aggregation state.  Persistent across fixpoint iterations for
// monotonic aggregates; a stratified rule's groups live for its one barrier.
struct GroupState {
  explicit GroupState(size_t num_aggs)
      : acc(num_aggs), has_value(num_aggs, false), packed(num_aggs),
        seen(num_aggs) {}

  std::vector<Value> acc;                  // one accumulator per aggregate
  std::vector<bool> has_value;             // accumulator initialized?
  std::vector<Record> packed;              // pack() accumulators
  std::vector<std::unordered_set<Tuple, TupleHashFn>> seen;  // contributions
};
using GroupMap = std::unordered_map<Tuple, GroupState, TupleHashFn>;

// A rule's join: recursion depth d joins positive order[d]; masks holds
// every body literal's probe mask, positives then negatives.
struct JoinPlan {
  std::vector<uint32_t> order;
  std::vector<uint64_t> masks;
};

struct CompiledRule {
  const Rule* rule = nullptr;
  int index = 0;
  int stratum = 0;
  bool recursive = false;

  std::vector<std::string> slot_names;
  std::unordered_map<std::string, int> varmap;

  std::vector<CompiledLiteral> positives;
  std::vector<CompiledLiteral> negatives;
  // The barrier driver's plan (PlanJoin with nothing pre-bound):
  // recursion depth d joins positives[plan.order[d]], and every work item
  // partitions positives[plan.order[0]].  A negated literal's mask is the
  // same in every plan: all its named arguments are bound.
  JoinPlan plan;
  // Assignments evaluated before aggregation, and those that depend
  // (transitively) on aggregate results, evaluated after it.
  std::vector<std::pair<int, ExprPtr>> assignments;       // pre-aggregation
  std::vector<std::pair<int, ExprPtr>> post_assignments;  // post-aggregation
  std::vector<ExprPtr> pre_conditions;
  std::vector<ExprPtr> post_conditions;
  std::vector<CompiledAgg> aggregates;
  std::vector<int> group_slots;
  std::vector<ExistSlot> existentials;
  std::vector<CompiledLiteral> head;  // reuse ArgSlot encoding
};

// One rule's share of a run's state.  A rule-at-a-time call keeps its own.
struct RuleState {
  // The relation each body literal reads, positives then negatives
  // (nullptr when the predicate has none or the literal reads a delta),
  // with the index its plan probes built before the join starts.
  std::vector<const Relation*> rels;
  // Aggregation state, folded on the driver at the barrier.  A monotonic
  // rule's groups persist across the whole run; a stratified rule's are
  // emitted in first-seen order (group_order) and dropped after its one
  // barrier.  Map nodes do not move, so the pointers stay valid.
  GroupMap groups;
  std::vector<GroupMap::value_type*> group_order;
};

Result<Value> FoldNumeric(const std::string& func, const Value& acc,
                          const Value& v) {
  if (!v.is_numeric() || !acc.is_numeric()) {
    return InvalidArgument("aggregate " + func + " over non-numeric value " +
                           v.ToString());
  }
  if (acc.is_int() && v.is_int()) {
    int64_t a = acc.AsInt();
    int64_t b = v.AsInt();
    int64_t r = 0;
    if (func == "sum") {
      if (__builtin_add_overflow(a, b, &r)) {
        return InvalidArgument("integer overflow in sum aggregate: " +
                               std::to_string(a) + " + " + std::to_string(b));
      }
      return Value(r);
    }
    if (func == "prod") {
      if (__builtin_mul_overflow(a, b, &r)) {
        return InvalidArgument("integer overflow in prod aggregate: " +
                               std::to_string(a) + " * " + std::to_string(b));
      }
      return Value(r);
    }
    if (func == "min") return Value(std::min(a, b));
    if (func == "max") return Value(std::max(a, b));
  }
  double a = acc.AsDouble();
  double b = v.AsDouble();
  if (func == "sum") return Value(a + b);
  if (func == "prod") return Value(a * b);
  if (func == "min") return Value(std::min(a, b));
  if (func == "max") return Value(std::max(a, b));
  return Internal("unknown numeric aggregate " + func);
}

// All aggregates of a rule share one mode (ValidateRuleAggregates rejects
// mixing at construction time).
bool AllMonotonic(const CompiledRule& cr) {
  for (const CompiledAgg& a : cr.aggregates) {
    if (!a.monotonic) return false;
  }
  return true;
}

bool FullyBoundMask(uint64_t mask, size_t n) {
  return n > 0 && n < 64 && mask == (1ULL << n) - 1;
}

// True when a probe under `mask` of an n-ary literal uses a hash index.
bool PartlyBound(uint64_t mask, size_t n) {
  return mask != 0 && !FullyBoundMask(mask, n);
}

// The relation of `pred` with the index a probe under `mask` needs built;
// nullptr when the predicate has no relation.  A shared relation is copied
// only when it lacks that index.
const Relation* ProbeRelation(FactDb* db, const std::string& pred,
                              uint64_t mask, size_t n) {
  return PartlyBound(mask, n) ? db->GetIndexed(pred, mask) : db->Get(pred);
}

// Plans the join of `cr` with the slots in `bound` bound before it starts.
// Positive literal `first` (-1 = none) joins at depth 0; each other depth
// takes the first unevaluated positive literal, in written order, from the
// best tier: fully bound (a containment probe), then partly bound (an
// index lookup), then unbound (a scan).  A literal's mask is its constants
// plus the variables bound when it joins; negated literals are checked
// with every named argument bound.  The plan depends only on the rule's
// shape, `bound` and `first`: it needs no statistics.
JoinPlan PlanJoin(const CompiledRule& cr, std::vector<char> bound,
                  int first = -1) {
  auto mask_of = [&bound](const CompiledLiteral& lit) {
    uint64_t m = 0;
    for (size_t i = 0; i < lit.args.size(); ++i) {
      const ArgSlot& a = lit.args[i];
      if (a.is_const || (a.slot >= 0 && bound[a.slot])) m |= 1ULL << i;
    }
    return m;
  };
  const size_t n = cr.positives.size();
  JoinPlan plan;
  plan.order.reserve(n);
  plan.masks.assign(n + cr.negatives.size(), 0);
  std::vector<char> taken(n, 0);
  auto take = [&](size_t i) {
    taken[i] = 1;
    plan.order.push_back(static_cast<uint32_t>(i));
    plan.masks[i] = mask_of(cr.positives[i]);
    for (const ArgSlot& a : cr.positives[i].args) {
      if (a.slot >= 0) bound[a.slot] = 1;
    }
  };
  if (first >= 0) take(static_cast<size_t>(first));
  while (plan.order.size() < n) {
    size_t best = n;
    int best_tier = 3;
    for (size_t i = 0; i < n && best_tier > 0; ++i) {
      if (taken[i]) continue;
      uint64_t m = mask_of(cr.positives[i]);
      size_t arity = cr.positives[i].args.size();
      int tier = m == 0 ? 2 : FullyBoundMask(m, arity) ? 0 : 1;
      if (tier < best_tier) {
        best = i;
        best_tier = tier;
      }
    }
    take(best);
  }
  std::fill(bound.begin(), bound.end(), 1);
  for (size_t j = 0; j < cr.negatives.size(); ++j) {
    plan.masks[n + j] = mask_of(cr.negatives[j]);
  }
  return plan;
}

// One recorded firing of a rule with aggregates, produced by a parallel
// join worker and folded into the rule's group state by the driver in
// deterministic work-item order.
struct PendingContribution {
  Tuple group_key;
  // Per aggregate: contributor slot values followed by evaluated argument
  // values (the same encoding ProcessAggregates uses for `seen`).
  std::vector<Tuple> per_agg;
};

// One derived fact recorded by a work item, replayed by the driver at the
// iteration barrier in ascending (item, seq) order, or by a rule-at-a-time
// call, handed to its emit callback after the join.
struct ReplayOp {
  const std::string* pred = nullptr;  // head predicate
  Tuple tuple;
};

// Per-evaluation binding and output state.  Every work item owns a context
// that records its derived facts in firing order, and its aggregate
// contributions, for the replay at the iteration barrier.  A
// rule-at-a-time call records its facts for its callback.  Either way the
// join reads a database that does not change, through relations and
// indexes prepared before it started.
struct EvalContext {
  const CompiledRule* rule = nullptr;
  RuleState* state = nullptr;
  std::vector<Value> slots;
  std::vector<char> bound;

  // Derived facts, appended by RecordFact; only the driver's replay
  // inserts.  With drop_present (work items only), a fact the frozen
  // database already holds is dropped instead, and counted in
  // present_dropped.
  bool drop_present = false;
  size_t present_dropped = 0;
  std::vector<ReplayOp> replay_ops;

  // Aggregate contributions recorded by the join; the driver folds them
  // into the rule's group state at the barrier.
  std::vector<PendingContribution> contributions;

  // Partitioning: positive literal (written index) whose enumeration is
  // restricted to rows [row_begin, row_end); -1 = none.
  int range_literal = -1;
  size_t row_begin = 0;
  size_t row_end = static_cast<size_t>(-1);

  // Fact-budget baseline for recorded ops (db size at freeze time).
  size_t budget_base = 0;

  // Join-probe counter driving the periodic deadline poll (checked every
  // few tens of thousands of candidate rows).
  size_t checkpoint_tick = 0;

  // Per-literal scratch probes for Join, indexed by literal position (the
  // recursion occupies one depth per literal, so frames never alias).
  std::vector<Tuple> join_probes;

  // Join order for this evaluation: recursion depth d evaluates positive
  // literal (*order)[d].  Barrier work items join by the rule's
  // compile-time plan (CompiledRule::plan); a rule-at-a-time call joins by
  // a plan made for what it pre-binds.
  const std::vector<uint32_t>* order = nullptr;

  // Counters, flushed into EngineStats by the driver.
  size_t firings = 0;
  size_t probes = 0;
};

void ResetStats(EngineStats* stats, size_t rules) {
  *stats = EngineStats{};
  stats->rule_firings_by_rule.assign(rules, 0);
  stats->rule_probes_by_rule.assign(rules, 0);
}

Result<Value> Eval(const EvalContext& ctx, const ExprPtr& e) {
  return EvalExpr(*e, [&ctx](const std::string& name) -> const Value* {
    auto it = ctx.rule->varmap.find(name);
    if (it == ctx.rule->varmap.end()) return nullptr;
    if (!ctx.bound[it->second]) return nullptr;
    return &ctx.slots[it->second];
  });
}

// Greedy batching in program order: a rule joins the current batch unless
// it reads a predicate some batch member writes.  Within a batch no rule
// observes another's output — exactly the sequential semantics, since
// earlier rules never see later rules' facts and recorded evaluation hides
// same-batch outputs.  Head relations also keep their sequential row
// order: recorded facts and aggregate emissions replay in work-item order.
std::vector<std::vector<const CompiledRule*>> IndependentBatches(
    const std::vector<const CompiledRule*>& rules) {
  std::vector<std::vector<const CompiledRule*>> out;
  std::vector<const CompiledRule*> current;
  std::set<std::string> current_writes;
  for (const CompiledRule* cr : rules) {
    bool conflict = false;
    for (const CompiledLiteral& l : cr->positives) {
      if (current_writes.count(l.pred) > 0) conflict = true;
    }
    for (const CompiledLiteral& l : cr->negatives) {
      if (current_writes.count(l.pred) > 0) conflict = true;
    }
    if (conflict && !current.empty()) {
      out.push_back(std::move(current));
      current.clear();
      current_writes.clear();
    }
    current.push_back(cr);
    for (const CompiledLiteral& h : cr->head) current_writes.insert(h.pred);
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

}  // namespace

// --- the compiled program ----------------------------------------------------

// What compilation produces: the compiled rules with their plans, and each
// stratum's batches and recursive literals.  Run only reads it; the
// rule-at-a-time calls add their plans as they first need them.
struct Engine::Impl {
  std::vector<CompiledRule> compiled;
  std::map<std::string, size_t> arity;
  // Head predicates: a run takes write access to these up front.
  std::set<std::string> derived;

  // One stratum's evaluation, in ascending stratum order.
  struct Stratum {
    // Phase A: the stratum's rules in independent batches.
    std::vector<std::vector<const CompiledRule*>> batches;
    // Predicates of its recursive literals: a new row of one is mirrored
    // into the next delta.
    std::set<std::string> recursive_preds;
    // Phase B: every (rule, recursive positive literal) pair.
    std::vector<std::pair<const CompiledRule*, int>> rec_slots;
  };
  std::vector<Stratum> strata;

  // Rule-at-a-time plans, made on first use: every call of one (rule,
  // literal) or (rule, head atom) binds the same slots, so it joins by the
  // same plan.  A seeded plan also keeps the slot each head position binds
  // (-1 for a constant, anonymous or existential position).
  struct SeededPlan {
    std::vector<int> head_slots;
    JoinPlan plan;
  };
  std::map<std::pair<size_t, size_t>, JoinPlan> delta_plans;
  std::map<std::pair<size_t, size_t>, SeededPlan> seeded_plans;

  Status Compile(const Program& program, const Stratification& strat);
  void CompileRule(const Rule& rule, int index, const Stratification& strat);

  // A delta call joins the delta literal first, with nothing bound: each
  // delta row is enumerated once and binds the literal's variables for the
  // rest of the join, which is planned as if they were bound up front.
  const JoinPlan& DeltaPlan(const CompiledRule& cr, size_t literal_index) {
    auto [it, fresh] = delta_plans.try_emplace(
        {static_cast<size_t>(cr.index), literal_index});
    if (fresh) {
      it->second = PlanJoin(cr, std::vector<char>(cr.slot_names.size(), 0),
                            static_cast<int>(literal_index));
    }
    return it->second;
  }

  // Existential slots stay free: MintAndEmitHead re-interns their Skolem
  // terms, which are content-addressed, so a matching body reproduces the
  // original values.
  const SeededPlan& SeededPlanFor(const CompiledRule& cr, size_t head_index) {
    auto [it, fresh] =
        seeded_plans.try_emplace({static_cast<size_t>(cr.index), head_index});
    if (fresh) {
      std::vector<char> existential(cr.slot_names.size(), 0);
      for (const ExistSlot& e : cr.existentials) existential[e.slot] = 1;
      std::vector<char> bound(cr.slot_names.size(), 0);
      SeededPlan& sp = it->second;
      for (const ArgSlot& a : cr.head[head_index].args) {
        const bool binds = !a.is_const && a.slot >= 0 && !existential[a.slot];
        sp.head_slots.push_back(binds ? a.slot : -1);
        if (binds) bound[a.slot] = 1;
      }
      sp.plan = PlanJoin(cr, std::move(bound));
    }
    return it->second;
  }

  // The compiled rule a call evaluates.  Aggregates fold only at Run's
  // barriers, which calls never reach; incremental maintenance reruns such
  // programs instead.
  Result<const CompiledRule*> CallRule(size_t rule_index) const {
    KGM_CHECK(rule_index < compiled.size());
    const CompiledRule& cr = compiled[rule_index];
    if (!cr.aggregates.empty()) {
      return FailedPrecondition(
          "rule-at-a-time evaluation does not support aggregates: " +
          cr.rule->ToString());
    }
    return &cr;
  }
};

Status Engine::Impl::Compile(const Program& program,
                             const Stratification& strat) {
  std::vector<ArityConflict> conflicts;
  arity = PredicateArities(program, &conflicts);
  if (!conflicts.empty()) {
    return FailedPrecondition(conflicts.front().Message());
  }
  compiled.reserve(program.rules.size());
  for (size_t i = 0; i < program.rules.size(); ++i) {
    KGM_RETURN_IF_ERROR(ValidateRuleWidth(program.rules[i], i));
    CompileRule(program.rules[i], static_cast<int>(i), strat);
  }
  std::map<int, std::vector<const CompiledRule*>> by_stratum;
  for (const CompiledRule& cr : compiled) {
    by_stratum[cr.stratum].push_back(&cr);
    for (const CompiledLiteral& h : cr.head) derived.insert(h.pred);
  }
  for (const auto& [index, rules] : by_stratum) {
    Stratum& stratum = strata.emplace_back();
    stratum.batches = IndependentBatches(rules);
    for (const CompiledRule* cr : rules) {
      for (size_t li = 0; li < cr->positives.size(); ++li) {
        if (!cr->positives[li].recursive) continue;
        stratum.recursive_preds.insert(cr->positives[li].pred);
        stratum.rec_slots.emplace_back(cr, static_cast<int>(li));
      }
    }
  }
  return OkStatus();
}

// --- one run's state ---------------------------------------------------------

// Everything a run, or a rule-at-a-time call, changes: the database, the
// pool, the deltas, the fact-budget count and the deadline poll, and each
// rule's relations and aggregate groups.  It lives on its caller's stack,
// so runs on one engine share nothing but the compiled program.
struct Engine::RunState {
  RunState(const Impl& impl, FactDb* db, const EngineOptions& options,
           EngineStats* stats)
      : impl(impl), db(db), options(options), stats(stats),
        checkpoints_armed(options.deadline !=
                          std::chrono::steady_clock::time_point{}) {}

  const Impl& impl;
  FactDb* const db;
  const EngineOptions& options;
  EngineStats* const stats;
  // True when the run has a deadline to poll.
  const bool checkpoints_armed;

  // Helper pool (num_workers - 1 threads; the driver is the last worker);
  // null at one thread, where the driver runs every work item inline.
  std::unique_ptr<ThreadPool> pool;
  size_t num_workers = 1;

  // Run only, one per compiled rule; a call keeps its rule's own.
  std::vector<RuleState> rules;

  // The stratum under evaluation.
  const std::set<std::string>* recursive_preds = nullptr;
  std::map<std::string, Relation>* next_delta = nullptr;
  std::map<std::string, Relation>* cur_delta = nullptr;

  // Count of ops recorded since the last barrier (fact budget).
  std::atomic<size_t> recorded_total{0};

  // Cooperative deadline poll.  Called at stratum and batch boundaries, at
  // every fixpoint iteration, and (rate-limited) from the join loops; safe
  // on pool threads.
  Status Checkpoint() const {
    if (checkpoints_armed &&
        std::chrono::steady_clock::now() >= options.deadline) {
      return DeadlineExceeded("engine deadline exceeded");
    }
    return OkStatus();
  }

  Status Run(const std::vector<FactDecl>& facts);

  // Resolves the relation each body literal of `cr` reads under `plan`,
  // with the index its mask probes built, into `rs->rels`.  Positive
  // `delta_literal` (-1 = none) reads a delta and gets none.  A shared
  // relation is copied only when it lacks the mask — on the driver, never
  // inside a parallel phase.
  void BindRelations(const CompiledRule& cr, const JoinPlan& plan,
                     int delta_literal, RuleState* rs) const {
    const size_t np = cr.positives.size();
    rs->rels.assign(plan.masks.size(), nullptr);
    for (size_t i = 0; i < plan.masks.size(); ++i) {
      if (static_cast<int>(i) == delta_literal) continue;
      const CompiledLiteral& lit =
          i < np ? cr.positives[i] : cr.negatives[i - np];
      rs->rels[i] = ProbeRelation(db, lit.pred, plan.masks[i],
                                  lit.args.size());
    }
  }

  // --- rule-at-a-time calls ---

  // Readies `ctx` for a call that joins `cr` by `plan`: resolves every body
  // relation into `rs` and builds each index the plan probes.  The delta
  // literal (-1 = none) reads `delta`, indexed when its constants leave it
  // partly bound.  Emissions are recorded as ops, at most max_facts.
  void PrepareCall(const CompiledRule& cr, const JoinPlan& plan,
                   int delta_literal, Relation* delta, RuleState* rs,
                   EvalContext* ctx) const {
    BindRelations(cr, plan, delta_literal, rs);
    if (delta_literal >= 0) {
      const size_t n = cr.positives[delta_literal].args.size();
      if (PartlyBound(plan.masks[delta_literal], n)) {
        delta->EnsureIndex(plan.masks[delta_literal]);
      }
    }
    ctx->rule = &cr;
    ctx->state = rs;
    ctx->order = &plan.order;
  }

  // Adds the call's counters to the stats and hands its recorded emissions
  // to `emit` once the join has returned, so an insert from `emit` cannot
  // reach it.
  Status FinishCall(EvalContext& ctx, Status status, const EmitFn& emit) {
    FlushCtxStats(ctx, *ctx.rule);
    for (ReplayOp& op : ctx.replay_ops) emit(*op.pred, std::move(op.tuple));
    return status;
  }

  Status EvalStratum(size_t stratum_index);
  Status EvalRule(EvalContext& ctx, const CompiledRule& cr,
                  int delta_literal);
  Status Join(EvalContext& ctx, const CompiledRule& cr, size_t literal_index,
              int delta_literal);
  Status FinishBinding(EvalContext& ctx, const CompiledRule& cr);
  Status ProcessAggregates(EvalContext& ctx, const CompiledRule& cr);
  Status ApplyContribution(const CompiledAgg& agg, GroupState& state,
                           size_t ai, const Tuple& contribution,
                           bool* any_update);
  Status EmitWithAggregates(EvalContext& ctx, const CompiledRule& cr,
                            const Tuple& group_key, const GroupState& state);
  Status EmitHeadWithPostConditions(EvalContext& ctx, const CompiledRule& cr);
  Status MintAndEmitHead(EvalContext& ctx, const CompiledRule& cr);
  // Appends `t` to ctx.replay_ops (see EvalContext::drop_present).
  Status RecordFact(EvalContext& ctx, const std::string& pred, Tuple t);
  // Inserts one fact on the driver (mirroring a new row of a recursive
  // predicate into next_delta); returns whether it was new.
  bool InsertShared(const std::string& pred, Tuple t);

  // --- stratum driver ---
  struct WorkItem {
    const CompiledRule* rule = nullptr;
    int delta_literal = -1;
    EvalContext ctx;
    Status status;
  };
  size_t PartitionCount(size_t rows) const;
  // Appends the items of `cr` (delta literal `delta_literal`, -1 = none)
  // that split the row ids of `scan`, the relation its plan joins
  // outermost, into PartitionCount ascending ranges; none when `scan` is
  // empty, as the rule cannot fire.
  void AddPartitionedItems(std::deque<WorkItem>& items,
                           const CompiledRule* cr, int delta_literal,
                           const Relation* scan) const;
  // Runs fn(0) .. fn(n - 1): on the driver and the pool's helpers when
  // there is a pool, inline in index order otherwise.
  void ForEachIndex(size_t n, const std::function<void(size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(n, fn);
      return;
    }
    for (size_t i = 0; i < n; ++i) fn(i);
  }
  // Runs the items on the driver and the pool's helpers, then replays
  // their recorded emissions at the barrier.  New rows of recursive
  // predicates are mirrored into next_delta.
  Status RunItems(std::deque<WorkItem>& items);
  // The barrier replay: inserts the recorded facts of `items` on the
  // driver, through the shared path, in ascending (item, seq) order.
  Status ReplayOrderedOps(std::deque<WorkItem>& items);
  // Folds the deferred aggregate contributions of `items` in submission
  // order into each rule's groups, and appends the emissions to the
  // folding item's log: a monotonic rule re-emits a group when it
  // improves, a stratified rule emits each group once after its last item.
  Status FoldItemContributions(std::deque<WorkItem>& items);
  Status FoldPending(const CompiledRule& cr, RuleState& rs,
                     EvalContext& scratch, const PendingContribution& pc);
  void FlushCtxStats(EvalContext& ctx, const CompiledRule& cr);

  Status FactBudgetExceeded() const {
    return ResourceExhausted(
        "fact budget exceeded (" + std::to_string(options.max_facts) +
        "); the chase may not terminate on this program");
  }
  // Counts one op `ctx` recorded against the fact budget.  The count
  // overestimates when a barrier derives the same fact twice, so a runaway
  // chase fails inside the barrier, not only at the replay.
  Status CountRecorded(const EvalContext& ctx) {
    size_t recorded =
        recorded_total.fetch_add(1, std::memory_order_relaxed) + 1;
    return ctx.budget_base + recorded > options.max_facts
               ? FactBudgetExceeded()
               : OkStatus();
  }
};

void Engine::Impl::CompileRule(const Rule& rule, int index,
                               const Stratification& strat) {
  CompiledRule cr;
  cr.rule = &rule;
  cr.index = index;
  cr.stratum = strat.rule_stratum[index];
  cr.recursive = strat.rule_recursive[index];

  auto slot_of = [&cr](const std::string& name) -> int {
    auto it = cr.varmap.find(name);
    if (it != cr.varmap.end()) return it->second;
    int s = static_cast<int>(cr.slot_names.size());
    cr.slot_names.push_back(name);
    cr.varmap.emplace(name, s);
    return s;
  };
  auto compile_atom = [&](const Atom& atom,
                          bool recursive) -> CompiledLiteral {
    CompiledLiteral cl;
    cl.pred = atom.predicate;
    cl.recursive = recursive;
    for (const Term& t : atom.args) {
      ArgSlot a;
      if (t.is_var()) {
        a.is_const = false;
        a.slot = t.is_anonymous() ? -1 : slot_of(t.var);
      } else {
        a.is_const = true;
        a.constant = t.constant;
      }
      cl.args.push_back(std::move(a));
    }
    return cl;
  };

  for (const Literal& l : rule.body) {
    bool rec = strat.SccOf(l.atom.predicate) == cr.stratum;
    CompiledLiteral cl = compile_atom(l.atom, rec);
    if (l.negated) {
      cr.negatives.push_back(std::move(cl));
    } else {
      cr.positives.push_back(std::move(cl));
    }
  }

  // The barrier driver's plan, with nothing bound up front (assignments
  // run after all positives).
  cr.plan = PlanJoin(cr, std::vector<char>(cr.slot_names.size(), 0));

  std::unordered_set<std::string> result_names;
  for (const Aggregate& a : rule.aggregates) {
    result_names.insert(a.result_var);
  }
  std::unordered_set<std::string> post_targets;
  for (const Assignment& a : rule.assignments) {
    std::vector<std::string> vars;
    a.expr->CollectVars(&vars);
    bool post = false;
    for (const std::string& v : vars) {
      if (result_names.count(v) > 0 || post_targets.count(v) > 0) {
        post = true;
      }
    }
    if (post) {
      post_targets.insert(a.var);
      cr.post_assignments.emplace_back(slot_of(a.var), a.expr);
    } else {
      cr.assignments.emplace_back(slot_of(a.var), a.expr);
    }
  }

  std::unordered_set<std::string> result_vars;
  for (const Aggregate& a : rule.aggregates) {
    CompiledAgg ca;
    bool explicit_mono = IsMonotonicAggregateName(a.func);
    ca.base_func = explicit_mono ? a.func.substr(1) : a.func;
    ca.monotonic = explicit_mono || cr.recursive;
    ca.args = a.args;
    for (const std::string& c : a.contributors) {
      ca.contributor_slots.push_back(slot_of(c));
    }
    ca.result_slot = slot_of(a.result_var);
    result_vars.insert(a.result_var);
    cr.aggregates.push_back(std::move(ca));
  }

  std::unordered_set<std::string> existential_vars;
  for (const ExistentialSpec& e : rule.existentials) {
    ExistSlot es;
    es.slot = slot_of(e.var);
    existential_vars.insert(e.var);
    if (e.skolem_functor.empty()) {
      es.functor = "_sk_r" + std::to_string(index) + "_" + e.var;
      // Frontier Skolemization: arguments are the universal variables of the
      // head, filled in below once the head is compiled.
    } else {
      es.functor = e.skolem_functor;
      for (const std::string& a : e.skolem_args) {
        es.arg_slots.push_back(slot_of(a));
      }
    }
    cr.existentials.push_back(std::move(es));
  }

  for (const Atom& h : rule.head) {
    cr.head.push_back(compile_atom(h, false));
  }

  // Frontier arguments for auto-Skolemized existentials: the universal
  // variables appearing in the head, in slot order — plus the arguments of
  // any explicit linker Skolem functor in the same head, so that two
  // firings differing only in an explicitly Skolemized sibling (e.g. an
  // edge OID) still mint distinct auto OIDs.
  std::set<int> frontier;
  for (const Atom& h : rule.head) {
    for (const Term& t : h.args) {
      if (!t.is_var()) continue;
      if (existential_vars.count(t.var) > 0) continue;
      frontier.insert(cr.varmap[t.var]);
    }
  }
  for (const ExistentialSpec& e : rule.existentials) {
    if (e.skolem_functor.empty()) continue;
    for (const std::string& a : e.skolem_args) {
      frontier.insert(cr.varmap[a]);
    }
  }
  for (size_t i = 0; i < rule.existentials.size(); ++i) {
    if (rule.existentials[i].skolem_functor.empty()) {
      cr.existentials[i].arg_slots.assign(frontier.begin(), frontier.end());
    }
  }

  // Split conditions into pre-/post-aggregation.
  for (const Condition& c : rule.conditions) {
    std::vector<std::string> vars;
    c.expr->CollectVars(&vars);
    bool post = false;
    for (const std::string& v : vars) {
      if (result_vars.count(v) > 0) post = true;
    }
    if (post) {
      cr.post_conditions.push_back(c.expr);
    } else {
      cr.pre_conditions.push_back(c.expr);
    }
  }

  // Aggregation group: variables needed after aggregation (head atoms,
  // post-conditions, Skolem arguments) minus results and existentials.
  if (!cr.aggregates.empty()) {
    std::set<int> group;
    std::vector<std::string> needed;
    for (const Atom& h : rule.head) {
      for (const Term& t : h.args) {
        if (t.is_var() && !t.is_anonymous()) needed.push_back(t.var);
      }
    }
    for (const ExprPtr& c : cr.post_conditions) c->CollectVars(&needed);
    for (const ExistentialSpec& e : rule.existentials) {
      for (const std::string& a : e.skolem_args) needed.push_back(a);
    }
    // Post-aggregation assignments consume group values too.
    for (const auto& [slot, expr] : cr.post_assignments) {
      expr->CollectVars(&needed);
    }
    for (const std::string& v : needed) {
      if (result_vars.count(v) > 0 || existential_vars.count(v) > 0 ||
          post_targets.count(v) > 0) {
        continue;
      }
      auto it = cr.varmap.find(v);
      if (it != cr.varmap.end()) group.insert(it->second);
    }
    cr.group_slots.assign(group.begin(), group.end());
  }

  compiled.push_back(std::move(cr));
}

bool Engine::RunState::InsertShared(const std::string& pred, Tuple t) {
  Relation& rel = db->GetOrCreate(pred, t.size());
  if (!rel.Insert(t)) return false;
  ++stats->facts_derived;
  if (recursive_preds->count(pred) > 0) {
    auto it = next_delta->find(pred);
    if (it == next_delta->end()) {
      it = next_delta->emplace(pred, Relation(t.size())).first;
    }
    it->second.Insert(std::move(t));
  }
  return true;
}

Status Engine::RunState::RecordFact(EvalContext& ctx, const std::string& pred,
                                Tuple t) {
  // A work item drops a fact the frozen database already holds: the
  // replay's insert would be a no-op, and Contains is read-only, so the
  // check is safe beside the other workers.  Every head predicate is
  // pre-created in Run.  A rule-at-a-time call keeps such facts: DRed
  // overdeletion follows the derivations of tuples that exist.
  if (ctx.drop_present && db->Get(pred)->Contains(t)) {
    ++ctx.present_dropped;
    return OkStatus();
  }
  // `pred` refers into the compiled rule, so the pointer stays valid for
  // the replay.
  ReplayOp op;
  op.pred = &pred;
  op.tuple = std::move(t);
  ctx.replay_ops.push_back(std::move(op));
  return CountRecorded(ctx);
}

Status Engine::RunState::Run(const std::vector<FactDecl>& facts) {
  ResetStats(stats, impl.compiled.size());
  rules.resize(impl.compiled.size());
  // Check arities, pre-create relations and materialize program facts.
  // Arities are checked first, so a program fact that conflicts with a
  // database relation fails here instead of aborting in GetOrCreate.
  // Write access is taken here, once, before the first barrier, and only
  // to the predicates the program derives or declares facts for: a shared
  // relation the program only reads is never copied for a write.
  for (const auto& [pred, n] : impl.arity) {
    const Relation* existing = db->Get(pred);
    if (existing != nullptr && existing->arity() != n) {
      return FailedPrecondition("database relation " + pred + " has arity " +
                                std::to_string(existing->arity()) +
                                " but the program expects " +
                                std::to_string(n));
    }
    if (existing == nullptr || impl.derived.count(pred) > 0) {
      db->GetOrCreate(pred, n);
    }
  }
  for (const FactDecl& f : facts) {
    Relation& rel = db->GetOrCreate(f.predicate, f.values.size());
    rel.Insert(Tuple(f.values.begin(), f.values.end()));
  }

  // Every stratum runs the frozen barrier driver at every thread count
  // (at one thread the driver runs the work items inline), and the driver
  // inserts every recorded fact in ascending (item, seq) order.
  num_workers = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                         : options.num_threads;
  // The driver runs work items too (ParallelFor), so the pool holds one
  // helper fewer than the threads that run.
  if (num_workers > 1) pool = std::make_unique<ThreadPool>(num_workers - 1);
  stats->threads_used = num_workers;
  stats->strata = static_cast<int>(impl.strata.size());
  for (size_t i = 0; i < impl.strata.size(); ++i) {
    auto t0 = std::chrono::steady_clock::now();
    Status status = EvalStratum(i);
    stats->stratum_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    KGM_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

// --- stratum driver ----------------------------------------------------------

void Engine::RunState::FlushCtxStats(EvalContext& ctx, const CompiledRule& cr) {
  stats->rule_firings += ctx.firings;
  stats->join_probes += ctx.probes;
  stats->rule_firings_by_rule[cr.index] += ctx.firings;
  stats->rule_probes_by_rule[cr.index] += ctx.probes;
  stats->staged_duplicates += ctx.present_dropped;
  ctx.firings = 0;
  ctx.probes = 0;
  ctx.present_dropped = 0;
}

size_t Engine::RunState::PartitionCount(size_t rows) const {
  // Small deltas are not worth splitting; large ones are over-partitioned
  // a little so a slow chunk cannot straggle the whole iteration.
  constexpr size_t kMinChunkRows = 64;
  if (rows == 0) return 1;
  size_t parts = std::min(num_workers,
                          (rows + kMinChunkRows - 1) / kMinChunkRows);
  return std::max<size_t>(parts, 1);
}

void Engine::RunState::AddPartitionedItems(std::deque<WorkItem>& items,
                                           const CompiledRule* cr,
                                           int delta_literal,
                                           const Relation* scan) const {
  // The partitions split the row ids, dead rows included.
  if (scan == nullptr || scan->size() == 0) return;
  const size_t rows = scan->row_bound();
  const size_t parts = PartitionCount(rows);
  const size_t chunk = (rows + parts - 1) / parts;
  for (size_t begin = 0; begin < rows; begin += chunk) {
    WorkItem& item = items.emplace_back();
    item.rule = cr;
    item.delta_literal = delta_literal;
    item.ctx.range_literal = static_cast<int>(cr->plan.order[0]);
    item.ctx.row_begin = begin;
    item.ctx.row_end = std::min(rows, begin + chunk);
  }
}

Status Engine::RunState::RunItems(std::deque<WorkItem>& items) {
  recorded_total.store(0, std::memory_order_relaxed);
  size_t budget_base = db->TotalFacts();
  for (WorkItem& item : items) {
    item.ctx.state = &rules[item.rule->index];
    item.ctx.drop_present = true;
    item.ctx.budget_base = budget_base;
  }
  auto eval_start = std::chrono::steady_clock::now();
  // Without a pool (one thread) the items run inline in submission order,
  // with the same frozen-iteration semantics.
  ForEachIndex(items.size(), [this, &items](size_t i) {
    WorkItem& item = items[i];
    item.status = EvalRule(item.ctx, *item.rule, item.delta_literal);
  });
  stats->eval_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    eval_start)
          .count();
  Status first_error = OkStatus();
  for (WorkItem& item : items) {
    FlushCtxStats(item.ctx, *item.rule);
    if (first_error.ok() && !item.status.ok()) first_error = item.status;
  }
  if (first_error.ok()) {
    // Aggregate contributions fold at the barrier in work-item order; the
    // emissions are appended to the folding item's log, so the replay
    // places them right after that item's own facts whatever the
    // partitioning.
    first_error = FoldItemContributions(items);
  }
  if (!first_error.ok()) return first_error;
  return ReplayOrderedOps(items);
}

Status Engine::RunState::ReplayOrderedOps(std::deque<WorkItem>& items) {
  auto t0 = std::chrono::steady_clock::now();
  // Replay in ascending (item, seq) order: item creation order is rule /
  // partition order, with partitions covering ascending ranges, so the
  // concatenated op sequence is independent of how many partitions (and
  // threads) the iteration used.  A fact recorded twice in one barrier
  // keeps its first copy.
  Status status = OkStatus();
  size_t tick = 0;
  for (WorkItem& item : items) {
    for (ReplayOp& op : item.ctx.replay_ops) {
      // Replays can insert millions of rows between barriers; poll the
      // deadline like the join loops do.
      if (checkpoints_armed && (++tick & 0x3FFF) == 0) {
        status = Checkpoint();
        if (!status.ok()) break;
      }
      ++(InsertShared(*op.pred, std::move(op.tuple))
             ? stats->staged_inserts
             : stats->staged_duplicates);
    }
    item.ctx.replay_ops.clear();
    if (!status.ok()) break;
  }
  stats->merge_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Every recorded op was counted against the budget; this is the safety
  // net on the database itself.
  if (status.ok() && db->TotalFacts() > options.max_facts) {
    return FactBudgetExceeded();
  }
  return status;
}

Status Engine::RunState::FoldItemContributions(std::deque<WorkItem>& items) {
  auto t0 = std::chrono::steady_clock::now();
  EvalContext scratch;
  scratch.drop_present = true;
  size_t tick = 0;
  // Folds and emissions between barriers can run long; poll the
  // deadline every ~16k of them like the join loops do.
  auto poll = [this, &tick]() {
    return checkpoints_armed && (++tick & 0x3FFF) == 0 ? Checkpoint()
                                                        : OkStatus();
  };
  for (size_t i = 0; i < items.size(); ++i) {
    WorkItem& item = items[i];
    const CompiledRule& cr = *item.rule;
    if (cr.aggregates.empty()) continue;
    RuleState& rs = *item.ctx.state;
    scratch.rule = &cr;
    scratch.slots.assign(cr.slot_names.size(), Value());
    scratch.budget_base = item.ctx.budget_base;
    for (const PendingContribution& pc : item.ctx.contributions) {
      KGM_RETURN_IF_ERROR(poll());
      KGM_RETURN_IF_ERROR(FoldPending(cr, rs, scratch, pc));
    }
    item.ctx.contributions.clear();
    // A stratified rule is not recursive, so all its items run in this
    // barrier, one after another: after the last has folded, its groups
    // are final.  Their rows follow that item's, in first-seen order.
    const bool last = i + 1 == items.size() || items[i + 1].rule != &cr;
    if (last && !AllMonotonic(cr)) {
      for (GroupMap::value_type* group : rs.group_order) {
        KGM_RETURN_IF_ERROR(poll());
        scratch.bound.assign(cr.slot_names.size(), 0);
        KGM_RETURN_IF_ERROR(
            EmitWithAggregates(scratch, cr, group->first, group->second));
      }
      rs.group_order.clear();
      rs.groups.clear();
    }
    // Splice the fold's emissions into the owning item's log, after the
    // item's own facts.
    std::move(scratch.replay_ops.begin(), scratch.replay_ops.end(),
              std::back_inserter(item.ctx.replay_ops));
    scratch.replay_ops.clear();
  }
  stats->staged_duplicates += scratch.present_dropped;
  stats->agg_finalize_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return OkStatus();
}

// Folds one recorded firing into the rule's group state.  A monotonic
// rule re-emits the head when an accumulator improves; a stratified rule
// records a new group's first-seen position and emits later.
Status Engine::RunState::FoldPending(const CompiledRule& cr, RuleState& rs,
                                     EvalContext& scratch,
                                     const PendingContribution& pc) {
  auto [it, inserted] =
      rs.groups.try_emplace(pc.group_key, cr.aggregates.size());
  GroupState& state = it->second;
  bool any_update = false;
  for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
    KGM_RETURN_IF_ERROR(ApplyContribution(cr.aggregates[ai], state, ai,
                                          pc.per_agg[ai], &any_update));
  }
  if (!AllMonotonic(cr)) {
    if (inserted) rs.group_order.push_back(&*it);
    return OkStatus();
  }
  if (!any_update && !inserted) return OkStatus();
  scratch.bound.assign(cr.slot_names.size(), 0);
  return EmitWithAggregates(scratch, cr, pc.group_key, state);
}

Status Engine::RunState::EvalStratum(size_t stratum_index) {
  const Impl::Stratum& stratum = impl.strata[stratum_index];
  std::map<std::string, Relation> delta_a, delta_b;
  recursive_preds = &stratum.recursive_preds;
  next_delta = &delta_a;
  cur_delta = nullptr;

  // Phase A: independent-rule batches.  Each rule fans out into
  // (rule x partition) items: the literal its plan joins outermost is
  // range-restricted, so large scans split across the pool while the
  // concatenation of the partitions preserves the unpartitioned
  // enumeration order.
  for (const std::vector<const CompiledRule*>& batch : stratum.batches) {
    KGM_RETURN_IF_ERROR(Checkpoint());
    for (const CompiledRule* cr : batch) {
      BindRelations(*cr, cr->plan, -1, &rules[cr->index]);
    }
    std::deque<WorkItem> items;
    for (const CompiledRule* cr : batch) {
      if (cr->positives.empty()) {
        items.emplace_back().rule = cr;
      } else {
        AddPartitionedItems(items, cr, -1,
                            rules[cr->index].rels[cr->plan.order[0]]);
      }
    }
    KGM_RETURN_IF_ERROR(RunItems(items));
  }

  // Phase B: semi-naive fixpoint; work items are (rule x recursive
  // literal x partition of the plan's outermost literal), all joining
  // against the frozen database and the current delta, merged at the
  // iteration barrier.
  size_t iterations = 0;
  while (!next_delta->empty()) {
    if (++iterations > kMaxIterations) {
      return ResourceExhausted("iteration budget exceeded in stratum " +
                               std::to_string(stratum_index));
    }
    KGM_RETURN_IF_ERROR(Checkpoint());
    ++stats->iterations;
    cur_delta = next_delta;
    next_delta = (cur_delta == &delta_a) ? &delta_b : &delta_a;
    next_delta->clear();

    std::deque<WorkItem> items;
    for (const auto& [cr, li] : stratum.rec_slots) {
      const CompiledLiteral& lit = cr->positives[li];
      auto dit = cur_delta->find(lit.pred);
      if (dit == cur_delta->end()) continue;
      // Indexes on the database relations this rule probes (no-ops after
      // the first iteration: Insert maintains built indexes), and on the
      // fresh delta relation when the delta literal itself is probed.
      RuleState& rs = rules[cr->index];
      BindRelations(*cr, cr->plan, -1, &rs);
      const uint64_t mask = cr->plan.masks[li];
      if (PartlyBound(mask, lit.args.size())) dit->second.EnsureIndex(mask);
      // Partition only the literal the plan joins outermost — the delta
      // when it is the delta literal, its database relation otherwise: the
      // partitions then enumerate consecutive slices of the one-item
      // firing order, so the output does not depend on how many
      // partitions the worker count allows.
      const uint32_t outer = cr->plan.order[0];
      AddPartitionedItems(
          items, cr, li,
          static_cast<int>(outer) == li ? &dit->second : rs.rels[outer]);
    }
    KGM_RETURN_IF_ERROR(RunItems(items));
    cur_delta = nullptr;
  }
  return OkStatus();
}

// --- rule evaluation ---------------------------------------------------------

Status Engine::RunState::EvalRule(EvalContext& ctx, const CompiledRule& cr,
                              int delta_literal) {
  ctx.rule = &cr;
  ctx.order = &cr.plan.order;
  ctx.slots.assign(cr.slot_names.size(), Value());
  ctx.bound.assign(cr.slot_names.size(), 0);
  return Join(ctx, cr, 0, delta_literal);
}

Status Engine::RunState::Join(EvalContext& ctx, const CompiledRule& cr,
                          size_t literal_index, int delta_literal) {
  if (literal_index == cr.positives.size()) return FinishBinding(ctx, cr);
  // Recursion depth d evaluates literal (*order)[d]; everything below keys
  // on the ACTUAL written literal index (delta / range checks, probe
  // scratch).
  const size_t actual = (*ctx.order)[literal_index];
  const CompiledLiteral& lit = cr.positives[actual];
  bool is_delta = static_cast<int>(actual) == delta_literal;
  bool is_ranged = static_cast<int>(actual) == ctx.range_literal;
  // Build the bound mask and probe.  The probe is per-literal scratch: the
  // recursion touches one depth per literal, and a fresh Tuple here costs
  // an allocation per outer-row visit.  Sized to the full literal count up
  // front so deeper recursion never reallocates the vector under a
  // shallower frame's reference.
  size_t n = lit.args.size();
  uint64_t mask = 0;
  if (ctx.join_probes.size() < cr.positives.size()) {
    ctx.join_probes.resize(cr.positives.size());
  }
  Tuple& probe = ctx.join_probes[actual];
  probe.clear();
  probe.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ArgSlot& a = lit.args[i];
    if (a.is_const) {
      mask |= 1ULL << i;
      probe[i] = a.constant;
    } else if (a.slot >= 0 && ctx.bound[a.slot]) {
      mask |= 1ULL << i;
      probe[i] = ctx.slots[a.slot];
    }
  }
  const bool indexed = PartlyBound(mask, n);
  // Relations and probe indexes were prepared before the join started: the
  // delta's by EvalStratum or PrepareCall, the database's in the rule
  // state's rels (no string-map lookup per recursive Join call).
  const Relation* source = nullptr;
  if (is_delta) {
    KGM_CHECK(cur_delta != nullptr);
    auto it = cur_delta->find(lit.pred);
    if (it == cur_delta->end()) return OkStatus();
    source = &it->second;
  } else {
    source = ctx.state->rels[actual];
  }
  if (source == nullptr) return OkStatus();

  // Partition filter: only the partitioned literal is range-restricted.
  size_t range_begin = is_ranged ? ctx.row_begin : 0;
  size_t range_end = is_ranged ? ctx.row_end : static_cast<size_t>(-1);

  // Rows bind by reference: joins never insert (they record emissions),
  // so `source` is stable for the whole recursion.
  auto try_row = [&](const Tuple& row) -> Status {
    // A single fixpoint iteration can run for minutes on a bad join order;
    // poll the deadline every ~16k candidate rows so such iterations stay
    // cancellable.
    if (checkpoints_armed && (++ctx.checkpoint_tick & 0x3FFF) == 0) {
      KGM_RETURN_IF_ERROR(Checkpoint());
    }
    // Bind free positions, checking intra-atom repeated variables.  The
    // bound-slot scratch is a fixed array: arity is capped at 64 by the
    // uint64_t position masks, and a heap vector here costs an allocation
    // per candidate row.
    std::array<int, 64> bound_here;
    size_t bound_count = 0;
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i) {
      const ArgSlot& a = lit.args[i];
      if (a.is_const) {
        if (!(row[i] == a.constant)) ok = false;
      } else if (a.slot < 0) {
        // anonymous: matches anything
      } else if (ctx.bound[a.slot]) {
        if (!(row[i] == ctx.slots[a.slot])) ok = false;
      } else {
        ctx.slots[a.slot] = row[i];
        ctx.bound[a.slot] = 1;
        bound_here[bound_count++] = a.slot;
      }
    }
    Status status = OkStatus();
    if (ok) status = Join(ctx, cr, literal_index + 1, delta_literal);
    for (size_t i = 0; i < bound_count; ++i) ctx.bound[bound_here[i]] = 0;
    return status;
  };

  if (FullyBoundMask(mask, n)) {
    // Fully bound: containment test (by row so the partition filter
    // applies — a fully bound partitioned literal must match in exactly
    // one partition, not every one).  Its first partition counts the
    // probe, so the count does not depend on the partitioning either.
    if (range_begin == 0) ++ctx.probes;
    size_t row = source->RowOf(probe);
    if (row != Relation::kNoRow && row >= range_begin && row < range_end) {
      return Join(ctx, cr, literal_index + 1, delta_literal);
    }
    return OkStatus();
  }
  if (indexed) {
    // A chain lists its rows in ascending order, so a partition's rows end
    // at the first row past its range.
    for (uint32_t rowi : source->LookupBuilt(mask, probe)) {
      if (rowi >= range_end) break;
      if (rowi < range_begin) continue;
      ++ctx.probes;
      if (!source->MatchesMasked(rowi, mask, probe)) continue;
      KGM_RETURN_IF_ERROR(try_row(source->tuple(rowi)));
    }
    return OkStatus();
  }
  // A scan walks row ids and skips the dead rows of an erased-from
  // relation (see Relation); only live rows count as probes.
  size_t scan_end = std::min(source->row_bound(), range_end);
  for (size_t k = range_begin; k < scan_end; ++k) {
    if (!source->live(k)) continue;
    ++ctx.probes;
    KGM_RETURN_IF_ERROR(try_row(source->tuple(k)));
  }
  return OkStatus();
}

Status Engine::RunState::FinishBinding(EvalContext& ctx, const CompiledRule& cr) {
  // Negated literals: named arguments are bound (safety-validated);
  // anonymous positions act as wildcards, so the check is a masked
  // existence test against the literal's relation, whose index for the
  // plan's mask was built before the join started.
  const size_t np = cr.positives.size();
  for (size_t j = 0; j < cr.negatives.size(); ++j) {
    const CompiledLiteral& lit = cr.negatives[j];
    size_t n = lit.args.size();
    const uint64_t mask = cr.plan.masks[np + j];
    Tuple probe(n);
    for (size_t i = 0; i < n; ++i) {
      const ArgSlot& a = lit.args[i];
      if (a.is_const) {
        probe[i] = a.constant;
      } else if (a.slot >= 0) {
        KGM_CHECK(ctx.bound[a.slot]);
        probe[i] = ctx.slots[a.slot];
      }
    }
    const Relation* rel = ctx.state->rels[np + j];
    if (rel == nullptr) continue;  // empty relation: negation holds
    if (FullyBoundMask(mask, n)) {
      if (rel->Contains(probe)) return OkStatus();
    } else if (mask == 0) {
      if (rel->size() > 0) return OkStatus();
    } else {
      bool found = false;
      for (uint32_t row : rel->LookupBuilt(mask, probe)) {
        if (rel->MatchesMasked(row, mask, probe)) {
          found = true;
          break;
        }
      }
      if (found) return OkStatus();
    }
  }
  // Assignments, in order.
  std::vector<int> bound_here;
  auto cleanup = [&]() {
    for (int s : bound_here) ctx.bound[s] = 0;
  };
  for (const auto& [slot, expr] : cr.assignments) {
    Result<Value> v = Eval(ctx, expr);
    if (!v.ok()) {
      cleanup();
      return v.status();
    }
    if (!ctx.bound[slot]) {
      ctx.slots[slot] = std::move(v).value();
      ctx.bound[slot] = 1;
      bound_here.push_back(slot);
    } else if (!(ctx.slots[slot] == v.value())) {
      cleanup();
      return OkStatus();  // equality constraint failed
    }
  }
  // Pre-aggregation conditions.
  for (const ExprPtr& c : cr.pre_conditions) {
    Result<Value> v = Eval(ctx, c);
    if (!v.ok()) {
      cleanup();
      return v.status();
    }
    if (!v.value().is_bool()) {
      cleanup();
      return InvalidArgument("condition is not boolean: " + c->ToString());
    }
    if (!v.value().AsBool()) {
      cleanup();
      return OkStatus();
    }
  }

  // The whole body holds: the rule fires.
  ++ctx.firings;
  Status status = cr.aggregates.empty() ? EmitHeadWithPostConditions(ctx, cr)
                                        : ProcessAggregates(ctx, cr);
  cleanup();
  return status;
}

// Dedups `contribution` against the group's seen-set and folds it into
// accumulator `ai`.
Status Engine::RunState::ApplyContribution(const CompiledAgg& agg,
                                       GroupState& state, size_t ai,
                                       const Tuple& contribution,
                                       bool* any_update) {
  if (!state.seen[ai].insert(contribution).second) {
    return OkStatus();  // duplicate
  }
  *any_update = true;
  size_t nc = agg.contributor_slots.size();
  if (agg.base_func == "count") {
    state.acc[ai] =
        Value(state.has_value[ai] ? state.acc[ai].AsInt() + 1 : int64_t{1});
    state.has_value[ai] = true;
  } else if (agg.base_func == "pack") {
    const Value& name = contribution[nc];
    state.packed[ai].emplace_back(
        name.is_string() ? name.AsString() : name.ToString(),
        contribution[nc + 1]);
    state.has_value[ai] = true;
  } else {
    const Value& v = contribution[nc];
    if (!state.has_value[ai]) {
      if (!v.is_numeric()) {
        return InvalidArgument("aggregate " + agg.base_func +
                               " over non-numeric value " + v.ToString());
      }
      state.acc[ai] = v;
      state.has_value[ai] = true;
    } else {
      KGM_ASSIGN_OR_RETURN(state.acc[ai],
                           FoldNumeric(agg.base_func, state.acc[ai], v));
    }
  }
  return OkStatus();
}

Status Engine::RunState::ProcessAggregates(EvalContext& ctx, const CompiledRule& cr) {
  // Record the contribution; the driver folds it into the group state at
  // the barrier (FoldItemContributions).
  PendingContribution pc;
  pc.group_key.reserve(cr.group_slots.size());
  for (int s : cr.group_slots) {
    KGM_CHECK(ctx.bound[s]);
    pc.group_key.push_back(ctx.slots[s]);
  }
  pc.per_agg.reserve(cr.aggregates.size());
  for (const CompiledAgg& agg : cr.aggregates) {
    // Contribution identity: contributor values plus argument values.
    Tuple contribution;
    for (int s : agg.contributor_slots) {
      KGM_CHECK(ctx.bound[s]);
      contribution.push_back(ctx.slots[s]);
    }
    for (const ExprPtr& a : agg.args) {
      KGM_ASSIGN_OR_RETURN(Value v, Eval(ctx, a));
      contribution.push_back(std::move(v));
    }
    pc.per_agg.push_back(std::move(contribution));
  }
  // Skip contributions the (frozen) group state has already folded in a
  // previous iteration; the fold dedups same-barrier duplicates.  A
  // stratified rule's groups are empty while it joins.
  auto git = ctx.state->groups.find(pc.group_key);
  if (git != ctx.state->groups.end()) {
    bool all_seen = true;
    for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
      if (git->second.seen[ai].count(pc.per_agg[ai]) == 0) {
        all_seen = false;
      }
    }
    if (all_seen) return OkStatus();
  }
  ctx.contributions.push_back(std::move(pc));
  return OkStatus();
}

Status Engine::RunState::EmitWithAggregates(EvalContext& ctx, const CompiledRule& cr,
                                        const Tuple& group_key,
                                        const GroupState& state) {
  // Rebind the binding from the group key: the fold's scratch slots hold
  // the previous group's values.
  std::vector<int> bound_here;
  auto cleanup = [&]() {
    for (int s : bound_here) ctx.bound[s] = 0;
  };
  for (size_t i = 0; i < cr.group_slots.size(); ++i) {
    int s = cr.group_slots[i];
    if (!ctx.bound[s]) {
      ctx.bound[s] = 1;
      bound_here.push_back(s);
    }
    ctx.slots[s] = group_key[i];
  }
  for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
    const CompiledAgg& agg = cr.aggregates[ai];
    int s = agg.result_slot;
    if (!ctx.bound[s]) {
      ctx.bound[s] = 1;
      bound_here.push_back(s);
    }
    if (agg.base_func == "pack") {
      ctx.slots[s] = MakeRecord(state.packed[ai]);
    } else if (agg.base_func == "count" && !state.has_value[ai]) {
      ctx.slots[s] = Value(int64_t{0});
    } else {
      ctx.slots[s] = state.acc[ai];
    }
  }
  // Post-aggregation assignments (e.g. record-spread get() calls).
  for (const auto& [slot, expr] : cr.post_assignments) {
    Result<Value> v = Eval(ctx, expr);
    if (!v.ok()) {
      cleanup();
      return v.status();
    }
    if (!ctx.bound[slot]) {
      ctx.bound[slot] = 1;
      bound_here.push_back(slot);
    }
    ctx.slots[slot] = std::move(v).value();
  }
  Status status = EmitHeadWithPostConditions(ctx, cr);
  cleanup();
  return status;
}

Status Engine::RunState::EmitHeadWithPostConditions(EvalContext& ctx,
                                                const CompiledRule& cr) {
  for (const ExprPtr& c : cr.post_conditions) {
    KGM_ASSIGN_OR_RETURN(Value v, Eval(ctx, c));
    if (!v.is_bool()) {
      return InvalidArgument("condition is not boolean: " + c->ToString());
    }
    if (!v.AsBool()) return OkStatus();
  }
  return MintAndEmitHead(ctx, cr);
}

// Binds each existential slot, in order, to the Skolem term of its functor
// over its frontier arguments, and records the head atoms.  Skolem terms
// are content-addressed, so a firing yields the same term whichever work
// item, thread or call makes it.
Status Engine::RunState::MintAndEmitHead(EvalContext& ctx, const CompiledRule& cr) {
  std::vector<int> bound_here;
  auto cleanup = [&]() {
    for (int s : bound_here) ctx.bound[s] = 0;
  };
  for (const ExistSlot& e : cr.existentials) {
    std::vector<Value> args;
    args.reserve(e.arg_slots.size());
    for (int s : e.arg_slots) {
      KGM_CHECK(ctx.bound[s]);
      args.push_back(ctx.slots[s]);
    }
    KGM_CHECK(!ctx.bound[e.slot]);
    ctx.slots[e.slot] = SkolemTable::Global().Intern(e.functor, args);
    ctx.bound[e.slot] = 1;
    bound_here.push_back(e.slot);
  }
  for (const CompiledLiteral& h : cr.head) {
    Tuple t(h.args.size());
    for (size_t i = 0; i < h.args.size(); ++i) {
      const ArgSlot& a = h.args[i];
      if (a.is_const) {
        t[i] = a.constant;
      } else {
        KGM_CHECK_MSG(a.slot >= 0 && ctx.bound[a.slot],
                      (cr.slot_names[a.slot] + " unbound in head of: " +
                       cr.rule->ToString())
                          .c_str());
        t[i] = ctx.slots[a.slot];
      }
    }
    Status status = RecordFact(ctx, h.pred, std::move(t));
    if (!status.ok()) {
      cleanup();
      return status;
    }
  }
  cleanup();
  return OkStatus();
}

// --- Engine public interface --------------------------------------------------

Engine::Engine(Program program, EngineOptions options)
    : program_(std::move(program)), options_(options) {
  init_status_ = ValidateSafety(program_);
  if (!init_status_.ok()) return;
  Result<Stratification> strat = Stratify(program_);
  if (!strat.ok()) {
    init_status_ = strat.status();
    return;
  }
  strat_ = std::move(strat).value();
  for (size_t i = 0; i < program_.rules.size(); ++i) {
    init_status_ = ValidateRuleAggregates(program_.rules[i], i,
                                          strat_.rule_recursive[i]);
    if (!init_status_.ok()) return;
  }
  auto impl = std::make_unique<Impl>();
  init_status_ = impl->Compile(program_, strat_);
  if (!init_status_.ok()) return;
  ResetStats(&stats_, program_.rules.size());
  impl_ = std::move(impl);
}

Engine::~Engine() = default;

Status Engine::Run(FactDb* db, const EngineOptions& options,
                   EngineStats* stats) const {
  KGM_RETURN_IF_ERROR(init_status_);
  EngineStats local;
  RunState run(*impl_, db, options, stats != nullptr ? stats : &local);
  return run.Run(program_.facts);
}

Status Engine::Run(FactDb* db) { return Run(db, options_, &stats_); }

Status Engine::EvalRuleDelta(FactDb* db, size_t rule_index,
                             size_t literal_index,
                             std::map<std::string, Relation>& delta_rels,
                             const EmitFn& emit) {
  KGM_RETURN_IF_ERROR(init_status_);
  KGM_ASSIGN_OR_RETURN(const CompiledRule* cr, impl_->CallRule(rule_index));
  KGM_CHECK(literal_index < cr->positives.size());
  auto it = delta_rels.find(cr->positives[literal_index].pred);
  if (it == delta_rels.end()) return OkStatus();
  const int delta_literal = static_cast<int>(literal_index);
  // Joining the delta first reaches the other literals through their
  // indexes on the variables it binds, so with a small delta the cost
  // follows the delta's join partners, not the database.
  const JoinPlan& plan = impl_->DeltaPlan(*cr, literal_index);
  RunState run(*impl_, db, options_, &stats_);
  RuleState rule_state;
  EvalContext ctx;
  ctx.slots.assign(cr->slot_names.size(), Value());
  ctx.bound.assign(cr->slot_names.size(), 0);
  run.PrepareCall(*cr, plan, delta_literal, &it->second, &rule_state, &ctx);
  run.cur_delta = &delta_rels;
  Status status = run.Join(ctx, *cr, 0, delta_literal);
  return run.FinishCall(ctx, std::move(status), emit);
}

Status Engine::EvalRuleSeeded(FactDb* db, size_t rule_index,
                              size_t head_index, const Tuple& target,
                              const EmitFn& emit) {
  KGM_RETURN_IF_ERROR(init_status_);
  KGM_ASSIGN_OR_RETURN(const CompiledRule* cr, impl_->CallRule(rule_index));
  KGM_CHECK(head_index < cr->head.size());
  const CompiledLiteral& head = cr->head[head_index];
  KGM_CHECK(target.size() == head.args.size());

  const Impl::SeededPlan& sp = impl_->SeededPlanFor(*cr, head_index);
  EvalContext ctx;
  ctx.slots.assign(cr->slot_names.size(), Value());
  ctx.bound.assign(cr->slot_names.size(), 0);
  for (size_t i = 0; i < head.args.size(); ++i) {
    const ArgSlot& a = head.args[i];
    if (a.is_const) {
      if (!(a.constant == target[i])) return OkStatus();
      continue;
    }
    const int slot = sp.head_slots[i];
    if (slot < 0) continue;
    if (ctx.bound[slot]) {
      // Repeated head variable: the target must agree with itself.
      if (!(ctx.slots[slot] == target[i])) return OkStatus();
    } else {
      ctx.slots[slot] = target[i];
      ctx.bound[slot] = 1;
    }
  }
  // The pre-bound head variables restrict every literal they appear in,
  // and the bound-first order starts from the literals they bind — this is
  // a targeted derivability probe, not a full rule evaluation.
  RunState run(*impl_, db, options_, &stats_);
  RuleState rule_state;
  run.PrepareCall(*cr, sp.plan, /*delta_literal=*/-1, nullptr, &rule_state,
                  &ctx);
  Status status = run.Join(ctx, *cr, 0, /*delta_literal=*/-1);
  return run.FinishCall(ctx, std::move(status), emit);
}

Status RunProgram(std::string_view source, FactDb* db,
                  EngineOptions options) {
  KGM_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  Engine engine(std::move(program), options);
  return engine.Run(db);
}

}  // namespace kgm::vadalog

