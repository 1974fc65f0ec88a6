// Incremental materialization: maintains the output of a Vadalog program
// under insertions and deletions of extensional facts without re-running
// the whole chase.
//
// The maintainer follows the classic delete-rederive (DRed) algorithm
// adapted to this engine's stratified, deterministic evaluation:
//
//   overdelete   Starting from the deleted EDB tuples, fire every rule with
//                one body literal restricted to the deletions (semi-naive,
//                against the pre-deletion database) and collect the derived
//                heads; iterate to a fixpoint.  This over-approximates the
//                set of facts that may have lost a derivation.
//   rederive     Erase the over-deleted tuples, then probe each one with a
//                seeded evaluation (head variables pre-bound to the tuple):
//                a tuple with a surviving derivation — or post-delta EDB
//                support — is re-inserted.  Iterated until no tuple comes
//                back, so rescue chains inside a recursive stratum resolve.
//   insert       Semi-naive insertion rounds seeded by the inserted EDB
//                tuples and, transitively, by newly derived facts.
//
// Not every program is DRed-maintainable with the engine's semantics, so
// the maintainer picks one of three modes per program (MaintenanceMode):
//
//   kDRed             No aggregates, and existentials (if any) materialize
//                     as content-addressed Skolem terms, so rederivation
//                     reproduces the original witnesses.  Maintains the
//                     database as a set: contents match a from-scratch
//                     materialization exactly; row order may differ.
//                     A stratum that negates a changed predicate falls back
//                     to per-stratum recomputation (negation is not
//                     monotone under deletion).
//   kRecomputeStrata  The program aggregates (deleting one contribution
//                     cannot be undone on a folded accumulator), so each
//                     affected stratum is recomputed from its EDB base
//                     while unaffected strata are skipped.  Change
//                     detection is order-sensitive, which makes the
//                     maintained database bit-identical to a from-scratch
//                     run — including row order and float bits.
//   kFullRerun        Restricted-chase programs with existentials mint
//                     labeled nulls from a run-global counter; any partial
//                     re-evaluation would renumber them.  The maintainer
//                     falls back to a full re-materialization, which the
//                     deterministic engine makes bit-identical by
//                     construction.
//
// Correctness contract: after Apply, db() equals the database produced by
// running the program from scratch on the post-delta EDB — bit-identical
// (ordered) in kRecomputeStrata / kFullRerun modes, equal as a set of
// facts in kDRed mode — at any engine thread count (the engine itself is
// deterministic across worker counts).

#ifndef KGM_VADALOG_INCREMENTAL_H_
#define KGM_VADALOG_INCREMENTAL_H_

#include <map>
#include <memory>
#include <set>
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

enum class MaintenanceMode { kDRed, kRecomputeStrata, kFullRerun };

const char* MaintenanceModeName(MaintenanceMode mode);

// Observability for one Apply call.
struct IncrementalStats {
  MaintenanceMode mode = MaintenanceMode::kDRed;
  size_t edb_inserted = 0;     // realized EDB insertions
  size_t edb_deleted = 0;      // realized EDB deletions
  size_t strata_processed = 0; // strata that did incremental work
  size_t strata_skipped = 0;   // strata untouched by the delta
  size_t strata_recomputed = 0;  // strata recomputed from their EDB base
  size_t overdeleted = 0;      // tuples removed by the overdeletion phase
  size_t rederived = 0;        // over-deleted tuples with a surviving proof
  size_t idb_deleted = 0;      // derived tuples permanently removed
  size_t idb_inserted = 0;     // derived tuples newly added
  // Rule-at-a-time (DeltaEvaluator) work of the kDRed strata: candidate
  // rows examined by every EvalRuleDelta and EvalRuleSeeded join, and the
  // number of EvalRuleSeeded calls rederivation made.
  size_t join_probes = 0;
  size_t seeded_calls = 0;
  double apply_seconds = 0;
  // DRed phase breakdown (zero outside kDRed strata).
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

  // Construction-time validation outcome (program safety/stratification).
  const Status& status() const;

  // Takes ownership of the extensional database and materializes the
  // program over it (one full engine run).  Must be called once, before
  // Apply.
  Status Initialize(FactDb edb);

  // Applies `delta` to the EDB and incrementally maintains the
  // materialization.  On error the view is left in an unspecified state
  // and must be re-Initialized.
  Status Apply(const EdbDelta& delta);

  // Which maintenance strategy Apply uses for this program.
  MaintenanceMode mode() const;

  // The maintained materialization (EDB + IDB).
  const FactDb& db() const;
  // The maintained extensional database (program facts included).
  const FactDb& edb() const;

  // Predicates whose relation contents actually changed during the last
  // Apply (normalized: a delete of an absent tuple does not count).  This
  // is what the serving layer uses to decide which snapshot relations to
  // re-encode and which cached results to carry forward.
  const std::set<std::string>& last_changed() const;
  const IncrementalStats& last_stats() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// True when both databases hold exactly the same relations with exactly
// the same rows in the same order (the bit-identity check of the
// kRecomputeStrata / kFullRerun contract).  Relations that exist in only
// one database must be empty.
bool DatabasesEqualOrdered(const FactDb& a, const FactDb& b);

// True when both databases hold the same set of facts per predicate,
// ignoring row order (the kDRed contract).
bool DatabasesEqualAsSets(const FactDb& a, const FactDb& b);

// Appends a human-readable description of the first difference to `out`
// (for test diagnostics); returns true when a difference was found.
bool DescribeFirstDifference(const FactDb& a, const FactDb& b, bool ordered,
                             std::string* out);

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_INCREMENTAL_H_
