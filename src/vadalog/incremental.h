// Incremental materialization: maintains the output of a Vadalog program
// under insertions and deletions of extensional facts.
//
// The maintainer follows the classic delete-rederive (DRed) algorithm
// adapted to this engine's stratified, deterministic evaluation:
//
//   overdelete   Starting from the deleted EDB tuples, fire every rule with
//                one body literal restricted to the deletions (semi-naive,
//                against the pre-deletion database) and collect the derived
//                heads; iterate to a fixpoint.  This over-approximates the
//                set of facts that may have lost a derivation.
//   rederive     Erase the over-deleted tuples, then probe each one once
//                with a seeded evaluation (head variables pre-bound to the
//                tuple): a tuple with a surviving derivation — or
//                post-delta EDB support — is re-inserted.  A rescue can
//                enable a tuple probed before it, so the rescues then
//                spread semi-naively: rules fire with the last round's
//                rescues as the delta, and every emission still
//                over-deleted comes back, until a round rescues nothing.
//                Rescue chains inside a recursive stratum resolve without
//                probing any tuple twice.
//   insert       Semi-naive insertion rounds seeded by the inserted EDB
//                tuples and, transitively, by newly derived facts.
//
// Overdeletion, the rescue spread and insertion run one propagation loop:
// rounds that fire the stratum's rules with one body literal restricted to
// the last round's frontier, differing only in which emissions they accept
// into the next one.  Every join is a rule-at-a-time call
// (Engine::EvalRuleDelta, Engine::EvalRuleSeeded) on the engine the view
// keeps for its whole life, the one its reruns use too: the program is
// compiled once, when the view is built, and each rule's join planned once
// per view, not per batch.
//
// DRed (Gupta, Mumick and Subrahmanian, SIGMOD 1993) cannot patch every
// batch, so the maintainer has one fallback, a rerun: reset each IDB head
// relation to its EDB base and run the whole program in place over the
// maintained database.  Its non-head relations already match the EDB row
// for row, so a rerun reproduces the from-scratch materialization
// exactly.  The mode (MaintenanceMode) is picked once per program:
//
//   kDRed   No aggregates.  Existentials materialize as content-addressed
//           Skolem terms, so rederivation reproduces the original
//           witnesses.  A batch that reaches a stratum whose negated input
//           changed reruns the program instead (negation is not monotone
//           under deletion), and IncrementalStats::mode reads kRerun.
//   kRerun  The program aggregates (deleting one contribution cannot be
//           undone on a folded accumulator, and fold order sets the float
//           bits), so every batch reruns the program.
//
// Correctness contract: after Apply, db() equals the database produced by
// running the program from scratch on the post-delta EDB, at any engine
// thread count (the engine itself is deterministic across worker counts).
// A batch that reran is bit-identical (ordered: row order and float bits);
// a batch that DRed patched is equal as a set of facts, and only its row
// order may differ.

#ifndef KGM_VADALOG_INCREMENTAL_H_
#define KGM_VADALOG_INCREMENTAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"

namespace kgm::vadalog {

// A batch of extensional changes: tuples to delete and tuples to insert,
// per predicate.  Deletes apply before inserts; deleting an absent tuple or
// inserting a present one is a no-op (the maintainer normalizes the delta
// against the current EDB).
struct EdbDelta {
  std::map<std::string, std::vector<Tuple>> inserts;
  std::map<std::string, std::vector<Tuple>> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  // Predicates named by the delta (inserts or deletes), sorted.
  std::vector<std::string> TouchedPredicates() const;
};

enum class MaintenanceMode { kDRed, kRerun };

const char* MaintenanceModeName(MaintenanceMode mode);

// Observability for one Apply call.
struct IncrementalStats {
  // The path the batch took: kRerun for every batch of a kRerun program
  // and for a kDRed batch that bailed out on negation.
  MaintenanceMode mode = MaintenanceMode::kDRed;
  size_t edb_inserted = 0;     // realized EDB insertions
  size_t edb_deleted = 0;      // realized EDB deletions
  size_t strata_processed = 0; // strata that did incremental work
  size_t strata_skipped = 0;   // strata untouched by the delta
  size_t overdeleted = 0;      // tuples removed by the overdeletion phase
  size_t rederived = 0;        // over-deleted tuples with a surviving proof
  size_t idb_deleted = 0;      // derived tuples permanently removed
  size_t idb_inserted = 0;     // derived tuples newly added
  // Rule-at-a-time work of this batch's DRed strata: candidate rows
  // examined by every Engine::EvalRuleDelta and EvalRuleSeeded join (the
  // batch's share of EngineStats::join_probes), and the number of
  // EvalRuleSeeded calls rederivation made.  The DRed counters and timings
  // of a batch that bailed out count the work done before the rerun; a
  // rerun counts no derived tuples.
  size_t join_probes = 0;
  size_t seeded_calls = 0;
  double apply_seconds = 0;
  // Phases of apply_seconds: validating and applying the delta to the EDB
  // and to the non-head relations of the materialization, then the DRed
  // phases (zero for a kRerun program).  A DRed batch's four phases add up
  // to apply_seconds, less the few clock reads between them.
  double edb_seconds = 0;
  double overdelete_seconds = 0;
  double rederive_seconds = 0;
  double insert_seconds = 0;
};

// Owns a materialized database and keeps it consistent with its program as
// EDB deltas arrive.
//
//   IncrementalView view(program, options);
//   KGM_RETURN_IF_ERROR(view.status());
//   KGM_RETURN_IF_ERROR(view.Initialize(std::move(edb)));  // full chase
//   KGM_RETURN_IF_ERROR(view.Apply(delta));                // incremental
//   ... view.db() is the maintained materialization ...
class IncrementalView {
 public:
  explicit IncrementalView(Program program, EngineOptions options = {});
  ~IncrementalView();

  IncrementalView(const IncrementalView&) = delete;
  IncrementalView& operator=(const IncrementalView&) = delete;

  // Construction-time validation outcome: the engine's status().
  const Status& status() const;

  // Takes ownership of the extensional database and materializes the
  // program over it (one full engine run).  Must be called once, before
  // Apply.
  Status Initialize(FactDb edb);

  // Applies `delta` to the EDB and incrementally maintains the
  // materialization.  A delta with a tuple of the wrong arity returns
  // InvalidArgument before anything changes, and the view stays usable.
  // On any other error the view is left in an unspecified state and must
  // be re-Initialized.
  Status Apply(const EdbDelta& delta);

  // Which maintenance strategy Apply uses for this program.
  MaintenanceMode mode() const;

  // The maintained materialization (EDB + IDB).
  const FactDb& db() const;
  // The maintained extensional database (program facts included).
  const FactDb& edb() const;

  const IncrementalStats& last_stats() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// True when both databases hold exactly the same relations with exactly
// the same rows in the same order (the bit-identity check of a rerun).
// Relations that exist in only one database must be empty.
bool DatabasesEqualOrdered(const FactDb& a, const FactDb& b);

// True when both databases hold the same set of facts per predicate,
// ignoring row order (the contract of a batch DRed patched).
bool DatabasesEqualAsSets(const FactDb& a, const FactDb& b);

// Appends a human-readable description of the first difference to `out`
// (for test diagnostics); returns true when a difference was found.
bool DescribeFirstDifference(const FactDb& a, const FactDb& b, bool ordered,
                             std::string* out);

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_INCREMENTAL_H_
