// Point-query dispatcher: routes a bound-argument query to the cheapest
// admissible evaluation mode.
//
//   kEdbLookup    the query predicate has no defining rules — answer with
//                 one (indexed) relation probe, no reasoning at all;
//   kMagic        magic-sets rewrite (magic.h) + the ordinary bottom-up
//                 engine over the rewritten program, seeded with the
//                 binding's constants;
//   kMaterialize  full bottom-up evaluation, then filter the output
//                 relation by the binding — the always-correct fallback
//                 whenever the rewrite gives up (see FallbackReason), and
//                 the differential baseline the harness compares every
//                 other mode against.
//
// Routing order: EDB lookup, then magic, then materialize.
//
// All modes answer against the caller's FactDb (the serving layer passes
// one that shares the pinned epoch snapshot's relations; see FactDb) and
// produce answer sets identical to `materialize then filter` — including
// Skolem terms, which the rewrite pins to the original program's functors
// (see magic::PinSkolemSpecs).
//
// Reusing rewrites.  A magic rewrite does not depend on the binding's
// constants: the magic route inserts the seed row (QueryBinding::
// BoundValues into MagicRewrite::seed_pred) into the caller's database and
// runs the rewrite's compiled engine as it is.  So a caller answering many
// bindings of one program can compute the rewrite once per (predicate,
// adornment) and supply it through PointQueryOptions::rewrite_lookup.  The
// serving layer's lookup keeps such rewrites in an LRU keyed on its
// prepared program entry.

#ifndef KGM_VADALOG_MAGIC_POINT_QUERY_H_
#define KGM_VADALOG_MAGIC_POINT_QUERY_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"
#include "vadalog/magic/magic.h"

namespace kgm::vadalog::magic {

enum class PointQueryMode {
  kOff = 0,      // not a point query (no binding given)
  kEdbLookup,    // direct indexed lookup on an extensional predicate
  kMagic,        // magic-sets rewrite + bottom-up engine
  kMaterialize,  // full evaluation + scan filter (fallback / baseline)
};

const char* PointQueryModeName(PointQueryMode m);

struct PointQueryOptions {
  // Engine options for whichever evaluation runs (fact budget, threads
  // and deadline all honored).
  EngineOptions engine;
  // Diagnostics/benchmarks: skip straight to the materialize baseline.
  bool force_materialize = false;
  // Called only once the magic route is chosen, with `edb` = `db`'s
  // predicates.  Must return a RewriteForQuery result for the same
  // program, `edb` and a binding with `query`'s predicate and adornment —
  // e.g. one cached from an earlier read.  The magic route runs it seeded
  // with `query` instead of rewriting, and PointQueryStats::magic_rewrites
  // stays 0: the lookup counts the rewrites it computes.
  std::function<std::shared_ptr<const MagicRewrite>(
      const QueryBinding& query, const std::set<std::string>& edb)>
      rewrite_lookup;
};

struct PointQueryStats {
  PointQueryMode mode = PointQueryMode::kOff;
  FallbackReason fallback = FallbackReason::kNone;
  std::string fallback_detail;
  // Rewrite summary for explain-style output (empty unless kMagic ran or
  // was attempted).
  std::vector<AdornedPredicate> adorned;
  std::vector<std::string> full_required;
  // Set when kMagic ran: the magic-sets rewrites computed (0 or 1; 0 when
  // the rewrite came from PointQueryOptions::rewrite_lookup), and the
  // magic, guarded and copy rules of the rewrite.
  size_t magic_rewrites = 0;
  size_t magic_rules = 0;
  // Counters of the engine that ran; for kMaterialize, join_probes
  // additionally counts the final filter scan (that's the honest
  // materialize-then-scan cost).
  EngineStats engine;
  size_t answers = 0;
};

// Evaluates `query` over `program` against `db` (mutated: derived facts,
// the magic seed and program facts land in it — pass a database that
// shares the inputs copy-on-write, e.g. Snapshot::CloneFacts, for
// isolation).
// Answer tuples agree with every bound position of the binding; their
// order is deterministic for a given (program, db, options) but differs
// between modes.
Result<std::vector<Tuple>> EvalPointQuery(const Program& program,
                                          const QueryBinding& query,
                                          FactDb* db,
                                          const PointQueryOptions& options,
                                          PointQueryStats* stats);

}  // namespace kgm::vadalog::magic

#endif  // KGM_VADALOG_MAGIC_POINT_QUERY_H_
