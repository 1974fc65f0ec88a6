// The Vadalog reasoning engine.
//
// Semi-naive, stratified, bottom-up evaluation of existential rule programs
// (the chase).  Features, following Section 4 of the paper:
//
//  * existential quantification, materialized through linker Skolem
//    functors (explicit `exists v = sk(x)` or automatic frontier
//    Skolemization);
//  * stratified negation;
//  * aggregation: ordinary group-by semantics in non-recursive rules,
//    Vadalog-style *monotonic* aggregation inside recursion (this is what
//    makes the company-control program of Example 4.1/4.2 converge);
//  * scalar assignments and Boolean conditions;
//  * a fact budget that turns runaway chases into ResourceExhausted errors.
//
// Usage:
//   KGM_ASSIGN_OR_RETURN(Program p, ParseProgram(src));
//   Engine engine(std::move(p));            // validate and compile once
//   KGM_RETURN_IF_ERROR(engine.Run(&db));   // db: EDB in, EDB+IDB out
//
// Compilation and evaluation are split: the Engine holds the immutable
// compiled program, and each Run keeps its per-run state on its own stack.
// Run(db, options, stats) is const, so one engine serves many runs at
// once, each with its own database, options and stats.  The forwarding
// Run(db), stats() and the DRed rule-at-a-time calls are not const.

#ifndef KGM_VADALOG_ENGINE_H_
#define KGM_VADALOG_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/analysis.h"
#include "vadalog/ast.h"
#include "vadalog/database.h"

namespace kgm::vadalog {

// What one run uses: the fact budget, the thread count and the deadline.
// A run takes its options as an argument (Engine::Run), so one compiled
// engine serves runs with different options.
struct EngineOptions {
  // Hard ceiling on the total number of facts in the database.
  size_t max_facts = 50'000'000;
  // Threads that evaluate rules, the calling (driver) thread included:
  // the engine's pool holds num_threads - 1 helpers, and the driver runs
  // work items beside them at every barrier.  0 = hardware_concurrency;
  // at 1 the driver runs every work item itself.  Every stratum runs one
  // barrier driver: Phase-A (rule x partition) and Phase-B (rule x
  // delta-literal x partition) work items, each a row range of the literal
  // its rule's bound-first plan joins outermost, join against the frozen
  // pre-barrier database and record what they derive, in firing order; at
  // the iteration barrier the driver inserts the recorded facts in
  // ascending (item, seq) order, so the first copy in item order survives
  // (see DESIGN.md, "Ordered barrier replay").  Skolem terms are
  // content-addressed, so the output — row order included — is the same
  // at every thread count.
  size_t num_threads = 0;
  // Cooperative deadline: when set (non-default time_point), the engine
  // polls the clock at evaluation checkpoints — stratum/batch boundaries,
  // every fixpoint iteration, and every few tens of thousands of join
  // probes — and Run returns DeadlineExceeded with the stats gathered so
  // far.  Derived facts of completed barriers stay in the database;
  // callers that need isolation evaluate against a FactDb that shares its
  // inputs copy-on-write (the serving layer's Snapshot::CloneFacts).
  std::chrono::steady_clock::time_point deadline{};
};

struct EngineStats {
  size_t facts_derived = 0;    // new facts added by rules
  // Bindings under which the whole body holds (positive matches that pass
  // the negated literals, assignments and conditions): each emits the
  // head or contributes to an aggregate.
  size_t rule_firings = 0;
  size_t iterations = 0;       // fixpoint rounds across all strata
  int strata = 0;
  size_t join_probes = 0;      // candidate rows examined by joins
  // Threads that ran the evaluation, the driver included:
  // EngineOptions::num_threads, with 0 resolved to hardware_concurrency.
  size_t threads_used = 1;
  // Wall-clock seconds spent in the (possibly pooled) join phase between
  // barriers — the part of an iteration that scales with worker count.
  double eval_seconds = 0;
  // Work-item facts: accepted as new at the barrier replay, or dropped as
  // already present before the barrier or as a same-barrier duplicate.
  size_t staged_inserts = 0;
  size_t staged_duplicates = 0;
  double merge_seconds = 0;        // ordered barrier replays
  double agg_finalize_seconds = 0; // aggregate fold + emission at barriers
  // Indexed by rule position in the program.
  std::vector<size_t> rule_firings_by_rule;
  std::vector<size_t> rule_probes_by_rule;
  // Wall-clock seconds per stratum, in evaluation order.
  std::vector<double> stratum_seconds;
};

class Engine {
 public:
  // Validates, stratifies and compiles `program`; check status() before
  // Run.  The compiled program — checks, strata, rule plans — is immutable
  // and serves every later run.  `options` are the ones the forwarding
  // Run(FactDb*) and the rule-at-a-time calls use.
  explicit Engine(Program program, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Construction-time outcome: safety, stratification, aggregate,
  // predicate arity and rule width checks (the checks lint runs too).
  const Status& status() const { return init_status_; }

  const Program& program() const { return program_; }
  const Stratification& stratification() const { return strat_; }

  // Evaluates the program to fixpoint against `db` with `options`, and
  // writes the run's counters to `stats` (may be null).  Facts declared in
  // the program text are inserted first.  Derived facts are added in
  // place.  Every per-run structure — pool, deltas, aggregate groups, the
  // relations the joins read — lives on this call's stack, so Run is safe
  // to call concurrently on one engine, each call on its own database.
  Status Run(FactDb* db, const EngineOptions& options,
             EngineStats* stats) const;

  // Run(db, options, &stats()) with the constructor's options.  Not safe
  // to call concurrently: it overwrites stats().
  Status Run(FactDb* db);

  // The last Run(FactDb*), plus the rule-at-a-time calls made since it.
  const EngineStats& stats() const { return stats_; }

  // --- Rule-at-a-time evaluation, for DRed (vadalog/incremental.h) ---
  //
  // A call fires one rule on the calling thread and reports each head
  // derivation through `emit` instead of inserting it, so the maintainer
  // can overdelete, rederive and insert without the fixpoint driver.  It
  // runs Run's own join/binding/emit machinery (assignments as equality
  // constraints, condition splits, Skolem interning), which is what makes
  // the maintained database converge to the from-scratch result.  It joins
  // bound-first like Run (DESIGN.md §3.11), by a plan made once per (rule,
  // delta literal) or (rule, head atom) for what it pre-binds, so its
  // emissions come in that plan's order, not in Run's.  Each call adds its
  // probes and firings to stats().  The calls are not const: they keep
  // those plans and stats(), so one engine serves one maintainer.
  //
  // `db` must not change during a call: like a barrier work item, a call
  // builds the indexes its plan probes before the join and calls `emit`
  // only after it returns, so `emit` may insert (the next call sees it).
  // Both calls return status() when it is not ok, and FailedPrecondition
  // for a rule with aggregates, which fold only at Run's barriers.

  using EmitFn = std::function<void(const std::string& pred, Tuple t)>;

  // Evaluates rule `rule_index` with its `literal_index`-th *positive* body
  // literal restricted to the tuples of `delta_rels[pred]` (the literal's
  // predicate; absent predicate = no matches); every other literal joins
  // against `db` as it was when the call started.  The delta literal joins
  // first, so each delta row is enumerated once, anonymous positions
  // included.  Calls `emit` once per derived head atom, after the join.
  // May build an index on the delta relation (when the literal has
  // constants besides variables).
  Status EvalRuleDelta(FactDb* db, size_t rule_index, size_t literal_index,
                       std::map<std::string, Relation>& delta_rels,
                       const EmitFn& emit);

  // Evaluates rule `rule_index` against `db` with the universal variables
  // of head atom `head_index` pre-bound from `target` (a tuple of that head
  // predicate's arity).  Existential head positions are left free — their
  // Skolem terms re-intern to the original values when the body matches.
  // Calls `emit` for every derivation; the caller checks whether any
  // emission equals `target` to decide rederivability.  A constant head
  // position that conflicts with `target` simply produces no emissions.
  Status EvalRuleSeeded(FactDb* db, size_t rule_index, size_t head_index,
                        const Tuple& target, const EmitFn& emit);

 private:
  // The compiled program, and the state of one run or one call.
  struct Impl;
  struct RunState;

  Program program_;
  EngineOptions options_;
  Status init_status_;
  Stratification strat_;
  EngineStats stats_;
  // Null when status() is not ok.
  std::unique_ptr<Impl> impl_;
};

// Convenience: parse, validate and run `source` against `db`.
Status RunProgram(std::string_view source, FactDb* db,
                  EngineOptions options = {});

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_ENGINE_H_
