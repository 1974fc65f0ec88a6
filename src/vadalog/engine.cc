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

struct TupleHashFn {
  size_t operator()(const Tuple& t) const { return HashTuple(t); }
};

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
  // Index mask the barrier driver's written-order join probes for this
  // literal (PlanJoin): constants plus variables bound by earlier body
  // literals.  DeltaEvaluator calls plan their own bound-first masks.
  uint64_t static_mask = 0;
  // Relation the join reads (nullptr when the predicate has none), with
  // its probe index built before the join starts — by PrepareJoinIndexes
  // at every barrier, by DeltaEvaluator before every call.  Read-only.
  const Relation* rel = nullptr;
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
// monotonic aggregates, per barrier for stratified ones.
struct GroupState {
  std::vector<Value> acc;                  // one accumulator per aggregate
  std::vector<bool> has_value;             // accumulator initialized?
  std::vector<Record> packed;              // pack() accumulators
  std::vector<std::unordered_set<Tuple, TupleHashFn>> seen;  // contributions
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

  // Monotonic aggregation state (persists across the whole run).
  std::unordered_map<Tuple, GroupState, TupleHashFn> mono_groups;
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

// All aggregates of a rule share one mode (mixing is rejected at
// construction time).
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

// A rule's join: recursion depth d joins positive order[d]; masks holds
// every body literal's probe mask, positives then negatives.
struct JoinPlan {
  std::vector<uint32_t> order;
  std::vector<uint64_t> masks;
};

// Plans the join of `cr` with the slots in `bound` bound before it starts.
// A literal's mask is its constants plus the variables bound when it
// joins; negated literals are checked with every named argument bound.
// Written order (bound_first = false) gives CompiledLiteral::static_mask.
// Bound first, each depth takes the first unevaluated positive literal, in
// written order, from the best tier: fully bound (a containment probe),
// then partly bound (an index lookup), then unbound (a scan).  The plan
// depends only on the rule's shape and `bound`: it needs no statistics.
JoinPlan PlanJoin(const CompiledRule& cr, std::vector<char> bound,
                  bool bound_first) {
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
  while (plan.order.size() < n) {
    size_t best = plan.order.size();
    if (bound_first) {
      best = n;
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
    }
    taken[best] = 1;
    plan.order.push_back(static_cast<uint32_t>(best));
    plan.masks[best] = mask_of(cr.positives[best]);
    for (const ArgSlot& a : cr.positives[best].args) {
      if (a.slot >= 0) bound[a.slot] = 1;
    }
  }
  std::fill(bound.begin(), bound.end(), 1);
  for (size_t j = 0; j < cr.negatives.size(); ++j) {
    plan.masks[n + j] = mask_of(cr.negatives[j]);
  }
  return plan;
}

// One recorded firing of a rule with monotonic aggregates, produced by a
// parallel join worker and folded into the rule's group state by the
// driver in deterministic work-item order.
struct PendingContribution {
  Tuple group_key;
  // Per aggregate: contributor slot values followed by evaluated argument
  // values (the same encoding ProcessAggregates uses for `seen`).
  std::vector<Tuple> per_agg;
};

// One derived fact recorded by a work item, replayed by the driver at the
// iteration barrier in ascending (item, seq) order, or by a DeltaEvaluator
// call, handed to its emit callback after the join.
struct ReplayOp {
  const std::string* pred = nullptr;  // head predicate
  Tuple tuple;
};

// Per-evaluation binding and output state.  Every work item owns a context
// that records its derived facts in firing order, and its aggregate
// contributions, for the replay at the iteration barrier.  A
// DeltaEvaluator call records its facts for its callback.  Either way the join reads a database that does not change,
// through relations and indexes prepared before it started.
struct EvalContext {
  CompiledRule* rule = nullptr;
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

  // Join-probe counter driving the periodic deadline/cancellation poll
  // (checked every few tens of thousands of candidate rows).
  size_t checkpoint_tick = 0;

  // Per-literal scratch probes for Join, indexed by literal position (the
  // recursion occupies one depth per literal, so frames never alias).
  std::vector<Tuple> join_probes;

  // Join order for this evaluation: recursion depth d evaluates positive
  // literal (*order)[d]; nullptr = written order.  Only DeltaEvaluator
  // calls set it (see PlanJoin).
  const std::vector<uint32_t>* order = nullptr;

  // Counters, flushed into EngineStats by the driver.
  size_t firings = 0;
  size_t probes = 0;
};

}  // namespace

// --- engine implementation ---------------------------------------------------

struct Engine::Impl {
  Engine* engine;
  FactDb* db = nullptr;
  const EngineOptions& options;
  EngineStats* stats;

  std::vector<CompiledRule> compiled;
  std::map<std::string, size_t> arity;

  // Helper pool (num_workers - 1 threads; the driver is the last worker);
  // null at one thread, where the driver runs every work item inline.
  std::unique_ptr<ThreadPool> pool;
  size_t num_workers = 1;

  // True when the run has a deadline or a cancellation flag to poll.
  bool checkpoints_armed = false;

  // Cooperative deadline/cancellation poll.  Called at stratum and batch
  // boundaries, at every fixpoint iteration, and (rate-limited) from the
  // join loops; safe on pool threads.
  Status Checkpoint() const {
    if (!checkpoints_armed) return OkStatus();
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return DeadlineExceeded("evaluation cancelled");
    }
    if (options.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= options.deadline) {
      return DeadlineExceeded("engine deadline exceeded");
    }
    return OkStatus();
  }

  // Per-stratum evaluation state.
  const std::set<std::string>* recursive_preds = nullptr;
  std::map<std::string, Relation>* next_delta = nullptr;
  std::map<std::string, Relation>* cur_delta = nullptr;

  // When set, Run evaluates only the strata whose id is in the filter
  // (Engine::RunStrata).
  const std::set<int>* stratum_filter = nullptr;

  explicit Impl(Engine* e) : engine(e), options(e->options_),
                             stats(&e->stats_) {}

  Status CompileAll();
  Status CompileRule(const Rule& rule, int index);
  Status Run(FactDb* target);
  Status EvalStratum(int stratum, const std::vector<CompiledRule*>& rules);
  Status EvalRule(EvalContext& ctx, CompiledRule& cr, int delta_literal);
  Status Join(EvalContext& ctx, CompiledRule& cr, size_t literal_index,
              int delta_literal);
  Status FinishBinding(EvalContext& ctx, CompiledRule& cr);
  Status ProcessAggregates(EvalContext& ctx, CompiledRule& cr);
  Status ApplyContribution(CompiledRule& cr, const CompiledAgg& agg,
                           GroupState& state, size_t ai,
                           const Tuple& contribution, bool* any_update);
  Status EmitWithAggregates(EvalContext& ctx, CompiledRule& cr,
                            const Tuple& group_key, const GroupState& state);
  Status EmitHeadWithPostConditions(EvalContext& ctx, CompiledRule& cr);
  Status MintAndEmitHead(EvalContext& ctx, CompiledRule& cr);
  // Appends `t` to ctx.replay_ops (see EvalContext::drop_present).
  Status RecordFact(EvalContext& ctx, const std::string& pred, Tuple t);
  // Inserts one fact on the driver (mirroring a new row of a recursive
  // predicate into next_delta); returns whether it was new.
  bool InsertShared(const std::string& pred, Tuple t);

  // --- stratum driver ---
  struct WorkItem {
    CompiledRule* rule = nullptr;
    int delta_literal = -1;
    // Overrides the default EvalRule body (used by aggregation-finalize
    // emission items).
    std::function<Status(EvalContext&)> body;
    EvalContext ctx;
    Status status;
  };
  std::vector<std::vector<CompiledRule*>> IndependentBatches(
      const std::vector<CompiledRule*>& rules) const;
  void PrepareJoinIndexes(CompiledRule& cr);
  size_t PartitionCount(size_t rows) const;
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
  // order: monotonic aggregates re-emit through the shared FactDb,
  // stratified ones are folded into a master group map and emitted by
  // parallel finalize items.
  Status FoldItemContributions(std::deque<WorkItem>& items);
  Status FoldAndEmitStratified(CompiledRule& cr, std::deque<WorkItem>& items);
  Status FoldPending(CompiledRule& cr, EvalContext& scratch,
                     const PendingContribution& pc);
  void FlushCtxStats(EvalContext& ctx, const CompiledRule& cr);

  // Count of ops recorded since the last barrier (fact budget).
  std::atomic<size_t> recorded_total_{0};

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
        recorded_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    return ctx.budget_base + recorded > options.max_facts
               ? FactBudgetExceeded()
               : OkStatus();
  }

  Result<Value> Eval(EvalContext& ctx, const ExprPtr& e) {
    return EvalExpr(*e, [&ctx](const std::string& name) -> const Value* {
      auto it = ctx.rule->varmap.find(name);
      if (it == ctx.rule->varmap.end()) return nullptr;
      if (!ctx.bound[it->second]) return nullptr;
      return &ctx.slots[it->second];
    });
  }
};

Status Engine::Impl::CompileAll() {
  const Program& program = engine->program_;
  // Predicate arities.
  auto note_arity = [this](const std::string& pred,
                           size_t n) -> Status {
    auto [it, inserted] = arity.emplace(pred, n);
    if (!inserted && it->second != n) {
      return FailedPrecondition("predicate " + pred +
                                " used with conflicting arities " +
                                std::to_string(it->second) + " and " +
                                std::to_string(n));
    }
    return OkStatus();
  };
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) {
      KGM_RETURN_IF_ERROR(note_arity(l.atom.predicate, l.atom.args.size()));
    }
    for (const Atom& h : r.head) {
      KGM_RETURN_IF_ERROR(note_arity(h.predicate, h.args.size()));
    }
  }
  for (const FactDecl& f : program.facts) {
    KGM_RETURN_IF_ERROR(note_arity(f.predicate, f.values.size()));
  }
  for (size_t i = 0; i < program.rules.size(); ++i) {
    KGM_RETURN_IF_ERROR(CompileRule(program.rules[i], static_cast<int>(i)));
  }
  stats->rule_firings_by_rule.assign(compiled.size(), 0);
  stats->rule_probes_by_rule.assign(compiled.size(), 0);
  return OkStatus();
}

Status Engine::Impl::CompileRule(const Rule& rule, int index) {
  const Stratification& strat = engine->strat_;
  CompiledRule cr;
  cr.rule = &rule;
  cr.index = index;
  cr.stratum = strat.rule_stratum[index];
  cr.recursive = strat.rule_recursive[index];
  std::string where = " (rule " + (rule.label.empty()
                                       ? std::to_string(index + 1)
                                       : rule.label) + ")";

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

  // Static probe masks: the barrier driver joins in written order with
  // nothing bound up front (assignments run after all positives).
  const JoinPlan written = PlanJoin(
      cr, std::vector<char>(cr.slot_names.size(), 0), /*bound_first=*/false);
  for (size_t i = 0, np = cr.positives.size(); i < written.masks.size(); ++i) {
    (i < np ? cr.positives[i] : cr.negatives[i - np]).static_mask =
        written.masks[i];
  }

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
    size_t want_args = ca.base_func == "pack" ? 2 :
                       ca.base_func == "count" ? 0 : 1;
    if (ca.base_func == "count" && a.args.size() > 1) {
      return FailedPrecondition("count takes at most one argument" + where);
    }
    if (ca.base_func != "count" && a.args.size() != want_args) {
      return FailedPrecondition("aggregate " + a.func + " takes " +
                                std::to_string(want_args) + " argument(s)" +
                                where);
    }
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

  if (cr.slot_names.size() > kMaxRuleVariables) {
    return FailedPrecondition("rule uses more than " +
                              std::to_string(kMaxRuleVariables) +
                              " variables" + where);
  }
  auto too_wide = [&where] {
    return FailedPrecondition("atom with more than " +
                              std::to_string(kMaxAtomArity) + " arguments" +
                              where);
  };
  for (const Literal& l : rule.body) {
    if (l.atom.args.size() > kMaxAtomArity) return too_wide();
  }
  for (const Atom& h : rule.head) {
    if (h.args.size() > kMaxAtomArity) return too_wide();
  }

  compiled.push_back(std::move(cr));
  return OkStatus();
}

bool Engine::Impl::InsertShared(const std::string& pred, Tuple t) {
  Relation& rel = db->GetOrCreate(pred, t.size());
  if (!rel.Insert(t)) return false;
  ++stats->facts_derived;
  if (recursive_preds != nullptr && next_delta != nullptr &&
      recursive_preds->count(pred) > 0) {
    auto it = next_delta->find(pred);
    if (it == next_delta->end()) {
      it = next_delta->emplace(pred, Relation(t.size())).first;
    }
    it->second.Insert(std::move(t));
  }
  return true;
}

Status Engine::Impl::RecordFact(EvalContext& ctx, const std::string& pred,
                                Tuple t) {
  // A work item drops a fact the frozen database already holds: the
  // replay's insert would be a no-op, and Contains is read-only, so the
  // check is safe beside the other workers.  Every head predicate is
  // pre-created in Run.  A DeltaEvaluator call keeps such facts: DRed
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

Status Engine::Impl::Run(FactDb* target) {
  db = target;
  checkpoints_armed =
      options.cancel != nullptr ||
      options.deadline != std::chrono::steady_clock::time_point{};
  // Check arities, pre-create relations and materialize program facts.
  // Arities are checked first, so a program fact that conflicts with a
  // database relation fails here instead of aborting in GetOrCreate.
  // Write access is taken here, once, before the first barrier, and only
  // to the predicates the program derives or declares facts for: a shared
  // relation the program only reads is never copied for a write.
  std::set<std::string> derived;
  for (const CompiledRule& cr : compiled) {
    for (const CompiledLiteral& h : cr.head) derived.insert(h.pred);
  }
  for (const auto& [pred, n] : arity) {
    const Relation* existing = db->Get(pred);
    if (existing != nullptr && existing->arity() != n) {
      return FailedPrecondition("database relation " + pred + " has arity " +
                                std::to_string(existing->arity()) +
                                " but the program expects " +
                                std::to_string(n));
    }
    if (existing == nullptr || derived.count(pred) > 0) {
      db->GetOrCreate(pred, n);
    }
  }
  for (const FactDecl& f : engine->program_.facts) {
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

  // Group rules by stratum.
  std::map<int, std::vector<CompiledRule*>> by_stratum;
  for (CompiledRule& cr : compiled) {
    by_stratum[cr.stratum].push_back(&cr);
  }
  stats->strata = static_cast<int>(by_stratum.size());
  for (auto& [stratum, rules] : by_stratum) {
    if (stratum_filter != nullptr && stratum_filter->count(stratum) == 0) {
      continue;
    }
    auto t0 = std::chrono::steady_clock::now();
    Status status = EvalStratum(stratum, rules);
    stats->stratum_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    KGM_RETURN_IF_ERROR(status);
  }
  return OkStatus();
}

// --- stratum driver ----------------------------------------------------------

void Engine::Impl::FlushCtxStats(EvalContext& ctx, const CompiledRule& cr) {
  stats->rule_firings += ctx.firings;
  stats->join_probes += ctx.probes;
  stats->rule_firings_by_rule[cr.index] += ctx.firings;
  stats->rule_probes_by_rule[cr.index] += ctx.probes;
  stats->staged_duplicates += ctx.present_dropped;
  ctx.firings = 0;
  ctx.probes = 0;
  ctx.present_dropped = 0;
}

// Greedy batching in program order: a rule joins the current batch unless
// it reads a predicate some batch member writes.  Within a batch no rule
// observes another's output — exactly the sequential semantics, since
// earlier rules never see later rules' facts and recorded evaluation hides
// same-batch outputs.  Head relations also keep their sequential row
// order: recorded facts (and monotonic-aggregate emissions) replay in
// work-item order.  The one exception is a stratified-aggregate rule,
// whose groups are emitted in a second round after the batch's replay — so
// such a rule must not share a head predicate with any other batch member.
std::vector<std::vector<CompiledRule*>> Engine::Impl::IndependentBatches(
    const std::vector<CompiledRule*>& rules) const {
  std::vector<std::vector<CompiledRule*>> out;
  std::vector<CompiledRule*> current;
  std::set<std::string> current_writes;
  std::set<std::string> current_strat_writes;
  for (CompiledRule* cr : rules) {
    bool stratified = !cr->aggregates.empty() && !AllMonotonic(*cr);
    bool conflict = false;
    for (const CompiledLiteral& l : cr->positives) {
      if (current_writes.count(l.pred) > 0) conflict = true;
    }
    for (const CompiledLiteral& l : cr->negatives) {
      if (current_writes.count(l.pred) > 0) conflict = true;
    }
    for (const CompiledLiteral& h : cr->head) {
      if (current_strat_writes.count(h.pred) > 0) conflict = true;
      if (stratified && current_writes.count(h.pred) > 0) conflict = true;
    }
    if (conflict && !current.empty()) {
      out.push_back(std::move(current));
      current.clear();
      current_writes.clear();
      current_strat_writes.clear();
    }
    current.push_back(cr);
    for (const CompiledLiteral& h : cr->head) {
      current_writes.insert(h.pred);
      if (stratified) current_strat_writes.insert(h.pred);
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

void Engine::Impl::PrepareJoinIndexes(CompiledRule& cr) {
  // A shared relation is copied here only when it lacks the mask — on the
  // driver, never inside a parallel phase.
  for (CompiledLiteral& lit : cr.positives) {
    lit.rel = ProbeRelation(db, lit.pred, lit.static_mask, lit.args.size());
  }
  for (CompiledLiteral& lit : cr.negatives) {
    lit.rel = ProbeRelation(db, lit.pred, lit.static_mask, lit.args.size());
  }
}

size_t Engine::Impl::PartitionCount(size_t rows) const {
  // Small deltas are not worth splitting; large ones are over-partitioned
  // a little so a slow chunk cannot straggle the whole iteration.
  constexpr size_t kMinChunkRows = 64;
  if (rows == 0) return 1;
  size_t parts = std::min(num_workers,
                          (rows + kMinChunkRows - 1) / kMinChunkRows);
  return std::max<size_t>(parts, 1);
}

Status Engine::Impl::RunItems(std::deque<WorkItem>& items) {
  recorded_total_.store(0, std::memory_order_relaxed);
  size_t budget_base = db->TotalFacts();
  for (WorkItem& item : items) {
    item.ctx.drop_present = true;
    item.ctx.budget_base = budget_base;
  }
  auto eval_start = std::chrono::steady_clock::now();
  // Without a pool (one thread) the items run inline in submission order,
  // with the same frozen-iteration semantics.
  ForEachIndex(items.size(), [this, &items](size_t i) {
    WorkItem& item = items[i];
    item.status = item.body != nullptr
                      ? item.body(item.ctx)
                      : EvalRule(item.ctx, *item.rule, item.delta_literal);
  });
  stats->eval_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    eval_start)
          .count();
  Status first_error = OkStatus();
  for (WorkItem& item : items) {
    if (item.rule != nullptr) FlushCtxStats(item.ctx, *item.rule);
    if (first_error.ok() && !item.status.ok()) first_error = item.status;
  }
  if (first_error.ok()) {
    // Monotonic-aggregate contributions fold at the barrier in work-item
    // order; the emissions are appended to the folding item's log, so the
    // replay places them right after that item's own facts whatever the
    // partitioning.
    first_error = FoldItemContributions(items);
  }
  if (!first_error.ok()) return first_error;
  return ReplayOrderedOps(items);
}

Status Engine::Impl::ReplayOrderedOps(std::deque<WorkItem>& items) {
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
      // deadline/cancel flag like the join loops do.
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

Status Engine::Impl::FoldItemContributions(std::deque<WorkItem>& items) {
  auto t0 = std::chrono::steady_clock::now();
  EvalContext scratch;
  scratch.drop_present = true;
  size_t tick = 0;
  for (WorkItem& item : items) {
    if (item.ctx.contributions.empty()) continue;
    CompiledRule& cr = *item.rule;
    // Stratified contributions are folded by FoldAndEmitStratified after
    // the whole batch has replayed.
    if (!AllMonotonic(cr)) continue;
    scratch.rule = &cr;
    scratch.slots.assign(cr.slot_names.size(), Value());
    scratch.bound.assign(cr.slot_names.size(), 0);
    scratch.budget_base = item.ctx.budget_base;
    for (const PendingContribution& pc : item.ctx.contributions) {
      // Folds between barriers can run long; poll the deadline/cancel
      // flag every ~16k contributions like the join loops do.
      if (checkpoints_armed && (++tick & 0x3FFF) == 0) {
        KGM_RETURN_IF_ERROR(Checkpoint());
      }
      KGM_RETURN_IF_ERROR(FoldPending(cr, scratch, pc));
    }
    item.ctx.contributions.clear();
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

Status Engine::Impl::FoldAndEmitStratified(CompiledRule& cr,
                                           std::deque<WorkItem>& items) {
  auto t0 = std::chrono::steady_clock::now();
  // Fold in work-item order: the rule's items cover ascending scan ranges
  // of its first body literal, so this replays exactly the unpartitioned
  // contribution order (float sums are bit-identical).
  std::unordered_map<Tuple, GroupState, TupleHashFn> groups;
  std::vector<Tuple> order;
  size_t tick = 0;
  for (WorkItem& item : items) {
    if (item.rule != &cr || item.ctx.contributions.empty()) continue;
    for (const PendingContribution& pc : item.ctx.contributions) {
      // Stratified folds can dominate a barrier (one contribution per
      // firing); keep them cancellable like the join loops.
      if (checkpoints_armed && (++tick & 0x3FFF) == 0) {
        KGM_RETURN_IF_ERROR(Checkpoint());
      }
      auto [it, inserted] = groups.try_emplace(pc.group_key);
      GroupState& state = it->second;
      if (inserted) {
        state.acc.resize(cr.aggregates.size());
        state.has_value.resize(cr.aggregates.size(), false);
        state.packed.resize(cr.aggregates.size());
        state.seen.resize(cr.aggregates.size());
        order.push_back(pc.group_key);
      }
      bool any_update = false;
      for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
        KGM_RETURN_IF_ERROR(ApplyContribution(cr, cr.aggregates[ai], state,
                                              ai, pc.per_agg[ai],
                                              &any_update));
      }
    }
    item.ctx.contributions.clear();
  }
  stats->agg_finalize_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (order.empty()) return OkStatus();
  // Emit the groups in first-seen order, partitioned across the pool.
  // The replay runs in item order, so each head relation receives the
  // groups in first-seen order whatever the partitioning.
  size_t parts = PartitionCount(order.size());
  size_t chunk = (order.size() + parts - 1) / parts;
  std::deque<WorkItem> emit;
  for (size_t p = 0; p < parts; ++p) {
    size_t begin = p * chunk;
    if (begin >= order.size()) break;
    size_t end = std::min(order.size(), begin + chunk);
    WorkItem& item = emit.emplace_back();
    item.rule = &cr;
    item.body = [this, &cr, &groups, &order, begin, end](
                    EvalContext& ctx) -> Status {
      ctx.rule = &cr;
      ctx.slots.assign(cr.slot_names.size(), Value());
      for (size_t g = begin; g < end; ++g) {
        if (checkpoints_armed && (++ctx.checkpoint_tick & 0x3FFF) == 0) {
          KGM_RETURN_IF_ERROR(Checkpoint());
        }
        ctx.bound.assign(cr.slot_names.size(), 0);
        auto it = groups.find(order[g]);
        KGM_CHECK(it != groups.end());
        KGM_RETURN_IF_ERROR(
            EmitWithAggregates(ctx, cr, order[g], it->second));
      }
      return OkStatus();
    };
  }
  return RunItems(emit);
}

// Folds one recorded firing into the rule's monotonic group state and
// re-emits the head when an accumulator improves.
Status Engine::Impl::FoldPending(CompiledRule& cr, EvalContext& scratch,
                                 const PendingContribution& pc) {
  auto [it, inserted] = cr.mono_groups.try_emplace(pc.group_key);
  GroupState& state = it->second;
  if (inserted) {
    state.acc.resize(cr.aggregates.size());
    state.has_value.resize(cr.aggregates.size(), false);
    state.packed.resize(cr.aggregates.size());
    state.seen.resize(cr.aggregates.size());
  }
  bool any_update = false;
  for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
    KGM_RETURN_IF_ERROR(ApplyContribution(cr, cr.aggregates[ai], state, ai,
                                          pc.per_agg[ai], &any_update));
  }
  if (!any_update && !inserted) return OkStatus();
  scratch.bound.assign(cr.slot_names.size(), 0);
  return EmitWithAggregates(scratch, cr, pc.group_key, state);
}

Status Engine::Impl::EvalStratum(int stratum,
                                 const std::vector<CompiledRule*>& rules) {
  std::set<std::string> rec_preds;
  for (CompiledRule* cr : rules) {
    for (const CompiledLiteral& l : cr->positives) {
      if (l.recursive) rec_preds.insert(l.pred);
    }
  }
  std::map<std::string, Relation> delta_a, delta_b;
  recursive_preds = &rec_preds;
  next_delta = &delta_a;
  cur_delta = nullptr;

  // Phase A: independent-rule batches.  Each rule fans out into
  // (rule x scan partition) items: the first body literal is
  // range-restricted, so large scans split across the pool while the
  // concatenation of the partitions preserves the unpartitioned
  // enumeration order.
  for (std::vector<CompiledRule*>& batch : IndependentBatches(rules)) {
    KGM_RETURN_IF_ERROR(Checkpoint());
    for (CompiledRule* cr : batch) PrepareJoinIndexes(*cr);
    std::deque<WorkItem> items;
    std::vector<CompiledRule*> stratified;
    for (CompiledRule* cr : batch) {
      if (!cr->aggregates.empty() && !AllMonotonic(*cr)) {
        stratified.push_back(cr);
      }
      if (cr->positives.empty()) {
        WorkItem& item = items.emplace_back();
        item.rule = cr;
        item.delta_literal = -1;
        continue;
      }
      const Relation* scan = db->Get(cr->positives[0].pred);
      size_t rows = scan == nullptr ? 0 : scan->size();
      if (rows == 0) continue;  // empty scan: the rule cannot fire
      size_t parts = PartitionCount(rows);
      size_t chunk = (rows + parts - 1) / parts;
      for (size_t p = 0; p < parts; ++p) {
        size_t begin = p * chunk;
        if (begin >= rows) break;
        WorkItem& item = items.emplace_back();
        item.rule = cr;
        item.delta_literal = -1;
        item.ctx.range_literal = 0;
        item.ctx.row_begin = begin;
        item.ctx.row_end = std::min(rows, begin + chunk);
      }
    }
    KGM_RETURN_IF_ERROR(RunItems(items));
    for (CompiledRule* cr : stratified) {
      KGM_RETURN_IF_ERROR(FoldAndEmitStratified(*cr, items));
    }
  }

  // Phase B: semi-naive fixpoint; work items are (rule x recursive
  // literal x partition of the outermost literal), all joining against the
  // frozen database and the current delta, merged at the iteration
  // barrier.
  std::vector<std::pair<CompiledRule*, int>> rec_slots;
  for (CompiledRule* cr : rules) {
    for (size_t li = 0; li < cr->positives.size(); ++li) {
      if (cr->positives[li].recursive) {
        rec_slots.emplace_back(cr, static_cast<int>(li));
      }
    }
  }
  size_t iterations = 0;
  while (!next_delta->empty()) {
    if (++iterations > options.max_iterations) {
      recursive_preds = nullptr;
      next_delta = nullptr;
      return ResourceExhausted("iteration budget exceeded in stratum " +
                               std::to_string(stratum));
    }
    if (Status s = Checkpoint(); !s.ok()) {
      recursive_preds = nullptr;
      next_delta = nullptr;
      return s;
    }
    ++stats->iterations;
    cur_delta = next_delta;
    next_delta = (cur_delta == &delta_a) ? &delta_b : &delta_a;
    next_delta->clear();

    std::deque<WorkItem> items;
    for (auto& [cr, li] : rec_slots) {
      const CompiledLiteral& lit = cr->positives[li];
      auto dit = cur_delta->find(lit.pred);
      if (dit == cur_delta->end()) continue;
      // Indexes on the database relations this rule probes (no-ops after
      // the first iteration: Insert maintains built indexes), and on the
      // fresh delta relation when the delta literal itself is probed.
      PrepareJoinIndexes(*cr);
      size_t n = lit.args.size();
      if (lit.static_mask != 0 && !FullyBoundMask(lit.static_mask, n)) {
        dit->second.EnsureIndex(lit.static_mask);
      }
      // Partition only over written literal 0, which is evaluated
      // outermost: the partitions then enumerate consecutive slices of the
      // one-item firing order, so the output does not depend on how many
      // partitions the worker count allows.
      const Relation* scan = li == 0 ? &dit->second : cr->positives[0].rel;
      size_t rows = scan == nullptr ? 0 : scan->size();
      size_t parts = PartitionCount(rows);
      size_t chunk = (rows + parts - 1) / parts;
      for (size_t p = 0; p < parts; ++p) {
        size_t begin = p * chunk;
        if (begin >= rows) break;
        WorkItem& item = items.emplace_back();
        item.rule = cr;
        item.delta_literal = li;
        item.ctx.range_literal = 0;
        item.ctx.row_begin = begin;
        item.ctx.row_end = std::min(rows, begin + chunk);
      }
    }
    Status status = RunItems(items);
    cur_delta = nullptr;
    if (!status.ok()) {
      recursive_preds = nullptr;
      next_delta = nullptr;
      return status;
    }
  }
  recursive_preds = nullptr;
  next_delta = nullptr;
  return OkStatus();
}

// --- rule evaluation ---------------------------------------------------------

Status Engine::Impl::EvalRule(EvalContext& ctx, CompiledRule& cr,
                              int delta_literal) {
  ctx.rule = &cr;
  ctx.slots.assign(cr.slot_names.size(), Value());
  ctx.bound.assign(cr.slot_names.size(), 0);
  return Join(ctx, cr, 0, delta_literal);
}

Status Engine::Impl::Join(EvalContext& ctx, CompiledRule& cr,
                          size_t literal_index, int delta_literal) {
  if (literal_index == cr.positives.size()) return FinishBinding(ctx, cr);
  // Under a join order, recursion depth d evaluates literal (*order)[d];
  // everything below keys on the ACTUAL written literal index (delta /
  // range checks, probe scratch).
  const size_t actual =
      ctx.order != nullptr ? (*ctx.order)[literal_index] : literal_index;
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
  // delta's by EvalStratum or DeltaEvaluator, the database's in lit.rel
  // (no string-map lookup per recursive Join call).
  const Relation* source = nullptr;
  if (is_delta) {
    KGM_CHECK(cur_delta != nullptr);
    auto it = cur_delta->find(lit.pred);
    if (it == cur_delta->end()) return OkStatus();
    source = &it->second;
  } else {
    source = lit.rel;
  }
  if (source == nullptr) return OkStatus();

  // Partition filter: only the partitioned literal is range-restricted.
  size_t range_begin = is_ranged ? ctx.row_begin : 0;
  size_t range_end = is_ranged ? ctx.row_end : static_cast<size_t>(-1);

  // Rows bind by reference: joins never insert (they record emissions),
  // so `source` is stable for the whole recursion.
  auto try_row = [&](const Tuple& row) -> Status {
    // A single fixpoint iteration can run for minutes on a bad join order;
    // poll the deadline/cancel flag every ~16k candidate rows so such
    // iterations stay cancellable.
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
    // one partition, not every one).
    ++ctx.probes;
    size_t row = source->RowOf(probe);
    if (row != Relation::kNoRow && row >= range_begin && row < range_end) {
      return Join(ctx, cr, literal_index + 1, delta_literal);
    }
    return OkStatus();
  }
  if (indexed) {
    for (uint32_t rowi : source->LookupBuilt(mask, probe)) {
      if (rowi < range_begin || rowi >= range_end) continue;
      ++ctx.probes;
      if (!source->MatchesMasked(rowi, mask, probe)) continue;
      KGM_RETURN_IF_ERROR(try_row(source->tuple(rowi)));
    }
    return OkStatus();
  }
  size_t scan_end = std::min(source->size(), range_end);
  for (size_t k = range_begin; k < scan_end; ++k) {
    ++ctx.probes;
    KGM_RETURN_IF_ERROR(try_row(source->tuple(k)));
  }
  return OkStatus();
}

Status Engine::Impl::FinishBinding(EvalContext& ctx, CompiledRule& cr) {
  ++ctx.firings;
  // Negated literals: named arguments are bound (safety-validated);
  // anonymous positions act as wildcards, so the check is a masked
  // existence test against lit.rel, whose index for the static mask was
  // built before the join started.
  for (const CompiledLiteral& lit : cr.negatives) {
    size_t n = lit.args.size();
    const uint64_t mask = lit.static_mask;
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
    const Relation* rel = lit.rel;
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

  Status status = cr.aggregates.empty() ? EmitHeadWithPostConditions(ctx, cr)
                                        : ProcessAggregates(ctx, cr);
  cleanup();
  return status;
}

// Dedups `contribution` against the group's seen-set and folds it into
// accumulator `ai`.  Shared by the monotonic (FoldPending) and stratified
// (FoldAndEmitStratified) barrier folds.
Status Engine::Impl::ApplyContribution(CompiledRule& cr,
                                       const CompiledAgg& agg,
                                       GroupState& state, size_t ai,
                                       const Tuple& contribution,
                                       bool* any_update) {
  (void)cr;
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

Status Engine::Impl::ProcessAggregates(EvalContext& ctx, CompiledRule& cr) {
  // Record the contribution; the driver folds it into the group state at
  // the barrier (FoldItemContributions for monotonic rules,
  // FoldAndEmitStratified for stratified ones).
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
  if (AllMonotonic(cr)) {
    // Skip contributions the (frozen) group state has already folded in
    // a previous iteration; the fold dedups same-barrier duplicates.
    auto git = cr.mono_groups.find(pc.group_key);
    if (git != cr.mono_groups.end()) {
      bool all_seen = true;
      for (size_t ai = 0; ai < cr.aggregates.size(); ++ai) {
        if (git->second.seen[ai].count(pc.per_agg[ai]) == 0) {
          all_seen = false;
        }
      }
      if (all_seen) return OkStatus();
    }
  }
  ctx.contributions.push_back(std::move(pc));
  return OkStatus();
}

Status Engine::Impl::EmitWithAggregates(EvalContext& ctx, CompiledRule& cr,
                                        const Tuple& group_key,
                                        const GroupState& state) {
  // Rebind the binding from the group key (the caller's binding may already
  // match, but in the finalize path slots are stale).
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

Status Engine::Impl::EmitHeadWithPostConditions(EvalContext& ctx,
                                                CompiledRule& cr) {
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
Status Engine::Impl::MintAndEmitHead(EvalContext& ctx, CompiledRule& cr) {
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
  // Reject rules mixing monotonic and stratified aggregates.
  for (size_t i = 0; i < program_.rules.size(); ++i) {
    const Rule& r = program_.rules[i];
    if (r.aggregates.size() < 2) continue;
    bool rec = strat_.rule_recursive[i];
    bool any_mono = false;
    bool any_strat = false;
    for (const Aggregate& a : r.aggregates) {
      bool mono = rec || IsMonotonicAggregateName(a.func);
      (mono ? any_mono : any_strat) = true;
    }
    if (any_mono && any_strat) {
      init_status_ = FailedPrecondition(
          "rule " + r.label +
          " mixes monotonic and stratified aggregates");
      return;
    }
  }
}

Status Engine::Run(FactDb* db) {
  KGM_RETURN_IF_ERROR(init_status_);
  Impl impl(this);
  KGM_RETURN_IF_ERROR(impl.CompileAll());
  return impl.Run(db);
}

Status Engine::RunStrata(FactDb* db, const std::set<int>& strata) {
  KGM_RETURN_IF_ERROR(init_status_);
  Impl impl(this);
  KGM_RETURN_IF_ERROR(impl.CompileAll());
  impl.stratum_filter = &strata;
  return impl.Run(db);
}

// --- DeltaEvaluator -----------------------------------------------------------

struct DeltaEvaluator::State {
  Engine::Impl impl;
  Status init;
  size_t join_probes = 0;  // summed over every call

  explicit State(Engine* engine) : impl(engine) {}

  // Aggregates fold only at the engine's barriers, which rule-at-a-time
  // calls never reach.  Incremental maintenance recomputes such programs
  // instead.
  Status CheckSupported(const CompiledRule& cr) const {
    if (!cr.aggregates.empty()) {
      return FailedPrecondition(
          "rule-at-a-time evaluation does not support aggregates: " +
          cr.rule->ToString());
    }
    return OkStatus();
  }

  // Readies `ctx` for a call that joins `cr` by `plan`: resolves every body
  // relation and builds each index the plan probes.  The delta literal
  // (-1 = none) reads `delta`, indexed when anonymous positions leave it
  // partly bound.  Emissions are recorded as ops, at most max_facts.
  void Prepare(CompiledRule& cr, const JoinPlan& plan, int delta_literal,
               Relation* delta, EvalContext* ctx) {
    const size_t np = cr.positives.size();
    for (size_t i = 0; i < np; ++i) {
      CompiledLiteral& lit = cr.positives[i];
      if (static_cast<int>(i) != delta_literal) {
        lit.rel = ProbeRelation(impl.db, lit.pred, plan.masks[i],
                                lit.args.size());
      } else if (PartlyBound(plan.masks[i], lit.args.size())) {
        delta->EnsureIndex(plan.masks[i]);
      }
    }
    for (size_t j = 0; j < cr.negatives.size(); ++j) {
      CompiledLiteral& lit = cr.negatives[j];
      lit.rel = ProbeRelation(impl.db, lit.pred, plan.masks[np + j],
                              lit.args.size());
    }
    ctx->rule = &cr;
    ctx->order = &plan.order;
    impl.recorded_total_.store(0, std::memory_order_relaxed);
  }

  // Hands the recorded emissions to `emit` once the join has returned, so
  // an insert from `emit` cannot reach it.
  Status Finish(EvalContext& ctx, Status status, const EmitFn& emit) {
    join_probes += ctx.probes;
    for (ReplayOp& op : ctx.replay_ops) emit(*op.pred, std::move(op.tuple));
    return status;
  }
};

DeltaEvaluator::DeltaEvaluator(Engine* engine, FactDb* db)
    : state_(std::make_unique<State>(engine)) {
  state_->init = engine->status();
  if (state_->init.ok()) state_->init = state_->impl.CompileAll();
  // One thread: no pool.
  state_->impl.db = db;
  state_->impl.num_workers = 1;
}

DeltaEvaluator::~DeltaEvaluator() = default;

const Status& DeltaEvaluator::status() const { return state_->init; }

size_t DeltaEvaluator::join_probes() const { return state_->join_probes; }

Status DeltaEvaluator::EvalRuleDelta(size_t rule_index, size_t literal_index,
                                     std::map<std::string, Relation>& delta_rels,
                                     const EmitFn& emit) {
  KGM_RETURN_IF_ERROR(state_->init);
  Engine::Impl& impl = state_->impl;
  KGM_CHECK(rule_index < impl.compiled.size());
  CompiledRule& cr = impl.compiled[rule_index];
  KGM_RETURN_IF_ERROR(state_->CheckSupported(cr));
  KGM_CHECK(literal_index < cr.positives.size());
  const CompiledLiteral& lit = cr.positives[literal_index];
  auto it = delta_rels.find(lit.pred);
  if (it == delta_rels.end()) return OkStatus();
  Relation& delta_rel = it->second;
  const int delta_literal = static_cast<int>(literal_index);

  // Enumerate the delta outermost, pre-binding the delta literal's
  // variables, so the join reaches the other literals through their
  // indexes on the shared variables instead of scanning them.  With a
  // small delta this makes the evaluation cost proportional to the
  // delta's join partners, not to the database.  The delta literal itself
  // is still probed inside Join (a containment probe); anonymous positions
  // in it are left free, which can revisit a sibling delta row —
  // emissions are idempotent for every caller, so that costs duplicate
  // work, never duplicate facts.  Every delta row binds the same slots, so
  // one plan serves the whole call.
  std::vector<char> prebound(cr.slot_names.size(), 0);
  for (const ArgSlot& a : lit.args) {
    if (a.slot >= 0) prebound[a.slot] = 1;
  }
  const JoinPlan plan = PlanJoin(cr, std::move(prebound), /*bound_first=*/true);
  EvalContext ctx;
  state_->Prepare(cr, plan, delta_literal, &delta_rel, &ctx);
  impl.cur_delta = &delta_rels;
  Status status = OkStatus();
  for (size_t row = 0; row < delta_rel.size() && status.ok(); ++row) {
    const Tuple& t = delta_rel.tuple(row);
    ctx.slots.assign(cr.slot_names.size(), Value());
    ctx.bound.assign(cr.slot_names.size(), 0);
    bool ok = true;
    for (size_t i = 0; i < lit.args.size() && ok; ++i) {
      const ArgSlot& a = lit.args[i];
      if (a.is_const) {
        ok = a.constant == t[i];
      } else if (a.slot < 0) {
        // anonymous: matches anything
      } else if (ctx.bound[a.slot]) {
        ok = ctx.slots[a.slot] == t[i];
      } else {
        ctx.slots[a.slot] = t[i];
        ctx.bound[a.slot] = 1;
      }
    }
    if (!ok) continue;
    status = impl.Join(ctx, cr, 0, delta_literal);
  }
  impl.cur_delta = nullptr;
  return state_->Finish(ctx, std::move(status), emit);
}

Status DeltaEvaluator::EvalRuleSeeded(size_t rule_index, size_t head_index,
                                      const Tuple& target, const EmitFn& emit) {
  KGM_RETURN_IF_ERROR(state_->init);
  Engine::Impl& impl = state_->impl;
  KGM_CHECK(rule_index < impl.compiled.size());
  CompiledRule& cr = impl.compiled[rule_index];
  KGM_RETURN_IF_ERROR(state_->CheckSupported(cr));
  KGM_CHECK(head_index < cr.head.size());
  const CompiledLiteral& head = cr.head[head_index];
  KGM_CHECK(target.size() == head.args.size());

  // Existential slots stay free: MintAndEmitHead re-interns their Skolem
  // terms, which are content-addressed, so a matching body reproduces the
  // original values.
  std::set<int> existential_slots;
  for (const ExistSlot& e : cr.existentials) existential_slots.insert(e.slot);

  EvalContext ctx;
  ctx.slots.assign(cr.slot_names.size(), Value());
  ctx.bound.assign(cr.slot_names.size(), 0);
  for (size_t i = 0; i < head.args.size(); ++i) {
    const ArgSlot& a = head.args[i];
    if (a.is_const) {
      if (!(a.constant == target[i])) return OkStatus();
      continue;
    }
    if (a.slot < 0 || existential_slots.count(a.slot) > 0) continue;
    if (ctx.bound[a.slot]) {
      // Repeated head variable: the target must agree with itself.
      if (!(ctx.slots[a.slot] == target[i])) return OkStatus();
    } else {
      ctx.slots[a.slot] = target[i];
      ctx.bound[a.slot] = 1;
    }
  }
  // The pre-bound head variables restrict every literal they appear in,
  // and the bound-first order starts from the literals they bind — this is
  // a targeted derivability probe, not a full rule evaluation.
  const JoinPlan plan = PlanJoin(cr, ctx.bound, /*bound_first=*/true);
  state_->Prepare(cr, plan, /*delta_literal=*/-1, nullptr, &ctx);
  Status status = impl.Join(ctx, cr, 0, /*delta_literal=*/-1);
  return state_->Finish(ctx, std::move(status), emit);
}

Status RunProgram(std::string_view source, FactDb* db,
                  EngineOptions options) {
  KGM_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  Engine engine(std::move(program), options);
  return engine.Run(db);
}

}  // namespace kgm::vadalog

