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
//   Engine engine(std::move(p));
//   KGM_RETURN_IF_ERROR(engine.Run(&db));   // db: EDB in, EDB+IDB out

#ifndef KGM_VADALOG_ENGINE_H_
#define KGM_VADALOG_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/analysis.h"
#include "vadalog/ast.h"
#include "vadalog/database.h"

namespace kgm::vadalog {

// The widest rules the engine compiles: variable slots and atom positions
// are tracked in 64-bit masks.  Run returns FailedPrecondition for a rule
// over either limit; lint reports the same rules as errors, so a
// lint-clean program compiles.
inline constexpr size_t kMaxRuleVariables = 64;
inline constexpr size_t kMaxAtomArity = 60;

struct EngineOptions {
  // Hard ceiling on the total number of facts in the database.
  size_t max_facts = 50'000'000;
  // Hard ceiling on fixpoint iterations per stratum.
  size_t max_iterations = 10'000'000;
  // Threads that evaluate rules, the calling (driver) thread included:
  // the engine's pool holds num_threads - 1 helpers, and the driver runs
  // work items beside them at every barrier.  0 = hardware_concurrency;
  // at 1 the driver runs every work item itself.  Every stratum runs one
  // barrier driver: Phase-A (rule x scan-partition) and Phase-B (rule x
  // delta-literal x partition) work items join against the frozen
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
  // Cooperative cancellation: polled at the same checkpoints as
  // `deadline`; setting the flag makes Run return DeadlineExceeded.  The
  // flag is read with relaxed ordering, so it may take one checkpoint for
  // a store from another thread to be observed.
  std::shared_ptr<const std::atomic<bool>> cancel;
};

struct EngineStats {
  size_t facts_derived = 0;    // new facts added by rules
  size_t rule_firings = 0;     // satisfied body matches
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
  double agg_finalize_seconds = 0; // aggregate fold + finalize at barriers
  // Indexed by rule position in the program.
  std::vector<size_t> rule_firings_by_rule;
  std::vector<size_t> rule_probes_by_rule;
  // Wall-clock seconds per stratum, in evaluation order.
  std::vector<double> stratum_seconds;
  // Query-driven point-query observability (vadalog/magic/point_query.h).
  // Engine::Run never touches these; the magic::EvalPointQuery dispatcher
  // fills them on the stats it reports, so service/bench counters read one
  // struct whichever route a query took.
  bool point_query = false;    // stats describe a point-query evaluation
  size_t magic_rewrites = 0;   // magic-sets rewrites applied (0 or 1)
  size_t magic_fallbacks = 0;  // fell back to full materialization (0 or 1)
  size_t magic_subqueries = 0; // adorned predicates of the magic rewrite
  size_t magic_rules = 0;      // magic + guarded + copy rules emitted
};

class Engine {
 public:
  // Validates and stratifies `program`; check status() before Run.
  explicit Engine(Program program, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Construction-time validation outcome.
  const Status& status() const { return init_status_; }

  const Program& program() const { return program_; }
  const Stratification& stratification() const { return strat_; }

  // Evaluates the program to fixpoint against `db`.  Facts declared in the
  // program text are inserted first.  Derived facts are added in place.
  Status Run(FactDb* db);

  // Evaluates only the strata whose SCC ids appear in `strata` (see
  // stratification()), assuming every lower stratum is already materialized
  // in `db`.  Program facts are (re-)inserted first; inserts are
  // deduplicated, so re-running a stratum whose head relations were reset
  // to their EDB base reproduces exactly the evaluation a full Run would
  // perform at that stratum.  Used by incremental maintenance
  // (vadalog/incremental.h) to recompute a suffix of the program after a
  // delta.
  Status RunStrata(FactDb* db, const std::set<int>& strata);

  const EngineStats& stats() const { return stats_; }

 private:
  friend class DeltaEvaluator;
  struct Impl;

  Program program_;
  EngineOptions options_;
  Status init_status_;
  Stratification strat_;
  EngineStats stats_;
};

// Convenience: parse, validate and run `source` against `db`.
Status RunProgram(std::string_view source, FactDb* db,
                  EngineOptions options = {});

// Rule-at-a-time evaluation over a validated engine's compiled program,
// built for the DRed incremental maintainer (vadalog/incremental.h).
// Instead of inserting derived facts into the database, every head
// derivation is reported through an emit callback, so the caller can run
// overdeletion (collect heads reachable from deleted tuples), rederivation
// (probe whether a specific tuple is still derivable) and semi-naive insert
// rounds without the engine's fixpoint driver.
//
// Evaluation runs on the calling thread and reuses the engine's own
// join/binding/emit machinery — assignments-as-equality-constraints,
// condition splits and Skolem interning behave exactly as in Engine::Run,
// which is what makes the maintained database converge to the from-scratch
// result.  Unlike Engine::Run, which joins in written order, both calls
// join bound-first: at each depth the first remaining literal, in written
// order, whose arguments are all bound, else the first partly bound one,
// else the first remaining one (DESIGN.md §3.11).  Emissions come in that
// join order, not in written order.
//
// The database must not change during a call: like a barrier work item, a
// call builds the indexes its join order probes before the join starts and
// calls `emit` only after the join returns.  So `emit` may insert (the DRed
// insert phase does); the next call sees it, this one does not.  Between
// calls the maintainer erases and inserts tuples as its phases complete.
// Rules with aggregates fold only at the engine's barriers: both calls
// return FailedPrecondition for them (IncrementalView never sends them).
class DeltaEvaluator {
 public:
  // `engine` must have ok status and outlive the evaluator; `db` is the
  // database joins read.  Compiles the program once.
  DeltaEvaluator(Engine* engine, FactDb* db);
  ~DeltaEvaluator();

  DeltaEvaluator(const DeltaEvaluator&) = delete;
  DeltaEvaluator& operator=(const DeltaEvaluator&) = delete;

  // Construction-time compilation outcome.
  const Status& status() const;

  // Candidate rows examined by the joins of every call so far.
  size_t join_probes() const;

  using EmitFn = std::function<void(const std::string& pred, Tuple t)>;

  // Evaluates rule `rule_index` with its `literal_index`-th *positive* body
  // literal restricted to the tuples of `delta_rels[pred]` (the literal's
  // predicate; absent predicate = no matches); every other literal joins
  // against the database as it was when the call started.  Calls `emit`
  // once per derived head atom, after the join.  May build an index on the
  // delta relation (anonymous positions leave the delta literal partly
  // bound).
  Status EvalRuleDelta(size_t rule_index, size_t literal_index,
                       std::map<std::string, Relation>& delta_rels,
                       const EmitFn& emit);

  // Evaluates rule `rule_index` with the universal variables of head atom
  // `head_index` pre-bound from `target` (a tuple of that head predicate's
  // arity).  Existential head positions are left free — their Skolem terms
  // re-intern to the original values when the body matches.  Calls `emit`
  // for every derivation; the caller checks whether any emission equals
  // `target` to decide rederivability.  A constant head position that
  // conflicts with `target` simply produces no emissions.
  Status EvalRuleSeeded(size_t rule_index, size_t head_index,
                        const Tuple& target, const EmitFn& emit);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_ENGINE_H_
