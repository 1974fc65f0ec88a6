#include "vadalog/magic/point_query.h"

#include <optional>
#include <utility>

namespace kgm::vadalog::magic {

namespace {

constexpr size_t kIndexMinRows = 8;

bool IsIntensional(const Program& program, const std::string& pred) {
  for (const Rule& r : program.rules) {
    for (const Atom& h : r.head) {
      if (h.predicate == pred) return true;
    }
  }
  return false;
}

Result<std::vector<Tuple>> FilterRelation(const Relation* rel,
                                          const QueryBinding& query,
                                          size_t* probes) {
  std::vector<Tuple> out;
  if (rel == nullptr) return out;
  if (rel->arity() != query.args.size()) {
    return InvalidArgument("binding arity " +
                           std::to_string(query.args.size()) +
                           " does not match " + query.predicate + "/" +
                           std::to_string(rel->arity()));
  }
  for (const Tuple& t : rel->tuples()) {
    ++*probes;
    if (query.Matches(t)) out.push_back(t);
  }
  return out;
}

Result<std::vector<Tuple>> RunMaterialize(const Program& program,
                                          const QueryBinding& query,
                                          FactDb* db,
                                          const PointQueryOptions& options,
                                          PointQueryStats* stats) {
  stats->mode = PointQueryMode::kMaterialize;
  Engine engine(program, options.engine);
  KGM_RETURN_IF_ERROR(engine.status());
  Status run = engine.Run(db);
  stats->engine = engine.stats();
  KGM_RETURN_IF_ERROR(run);
  // The scan over the full output relation is part of this route's cost.
  return FilterRelation(db->Get(query.predicate), query,
                        &stats->engine.join_probes);
}

Result<std::vector<Tuple>> RunEdbLookup(const Program& program,
                                        const QueryBinding& query, FactDb* db,
                                        PointQueryStats* stats) {
  stats->mode = PointQueryMode::kEdbLookup;
  for (const FactDecl& f : program.facts) {
    if (f.predicate == query.predicate) {
      db->GetOrCreate(f.predicate, f.values.size()).Insert(f.values);
    }
  }
  const Relation* rel = db->Get(query.predicate);
  std::vector<Tuple> out;
  if (rel == nullptr) return out;
  if (rel->arity() != query.args.size()) {
    return InvalidArgument("binding arity " +
                           std::to_string(query.args.size()) +
                           " does not match " + query.predicate + "/" +
                           std::to_string(rel->arity()));
  }
  uint64_t mask = 0;
  Tuple probe(rel->arity());
  for (size_t i = 0; i < query.args.size() && i < 60; ++i) {
    if (query.args[i].has_value()) {
      mask |= 1ULL << i;
      probe[i] = *query.args[i];
    }
  }
  if (mask != 0 && rel->size() >= kIndexMinRows) {
    rel = db->GetIndexed(query.predicate, mask);
    for (uint32_t row : rel->LookupBuilt(mask, probe)) {
      ++stats->engine.join_probes;
      if (rel->MatchesMasked(row, mask, probe)) out.push_back(rel->tuple(row));
    }
    return out;
  }
  return FilterRelation(rel, query, &stats->engine.join_probes);
}

}  // namespace

const char* PointQueryModeName(PointQueryMode m) {
  switch (m) {
    case PointQueryMode::kOff:
      return "off";
    case PointQueryMode::kEdbLookup:
      return "edb_lookup";
    case PointQueryMode::kMagic:
      return "magic";
    case PointQueryMode::kMaterialize:
      return "materialize";
  }
  return "unknown";
}

Result<std::vector<Tuple>> EvalPointQuery(const Program& program,
                                          const QueryBinding& query,
                                          FactDb* db,
                                          const PointQueryOptions& options,
                                          PointQueryStats* stats) {
  PointQueryStats local;
  if (stats == nullptr) stats = &local;
  *stats = PointQueryStats{};
  stats->engine.point_query = true;

  // Binding arity is validated up front so every route rejects a
  // mismatched binding identically.  Without this the magic route masks
  // the client error as an empty answer set: the rewriter skips each
  // mismatched rule, the adorned output relation never exists, and the
  // final filter over a missing relation yields zero rows — while the
  // materialize and EDB routes return InvalidArgument for the same
  // query.
  std::optional<size_t> declared;
  for (const Rule& r : program.rules) {
    for (const Atom& h : r.head) {
      if (h.predicate == query.predicate) declared = h.args.size();
    }
  }
  if (!declared.has_value()) {
    for (const FactDecl& f : program.facts) {
      if (f.predicate == query.predicate) declared = f.values.size();
    }
  }
  if (!declared.has_value()) {
    const Relation* rel = db->Get(query.predicate);
    if (rel != nullptr) declared = rel->arity();
  }
  if (declared.has_value() && *declared != query.args.size()) {
    return InvalidArgument("binding arity " +
                           std::to_string(query.args.size()) +
                           " does not match " + query.predicate + "/" +
                           std::to_string(*declared));
  }

  auto finish = [&](Result<std::vector<Tuple>> r) {
    stats->engine.point_query = true;
    stats->engine.magic_fallbacks =
        (stats->mode == PointQueryMode::kMaterialize &&
         stats->fallback != FallbackReason::kNone)
            ? 1
            : 0;
    if (r.ok()) stats->answers = r->size();
    return r;
  };

  if (options.force_materialize) {
    return finish(RunMaterialize(program, query, db, options, stats));
  }
  if (query.BoundCount() == 0) {
    stats->fallback = FallbackReason::kNoBoundArgument;
    stats->fallback_detail =
        "every argument position of " + query.predicate + " is free";
    return finish(RunMaterialize(program, query, db, options, stats));
  }
  if (!IsIntensional(program, query.predicate)) {
    return finish(RunEdbLookup(program, query, db, stats));
  }
  std::set<std::string> edb;
  for (const std::string& p : db->Predicates()) edb.insert(p);
  MagicRewrite rw = RewriteForQuery(program, query, edb, options.rewrite);
  stats->fallback = rw.fallback;
  stats->fallback_detail = rw.detail;
  if (rw.ok()) {
    stats->adorned = rw.adorned;
    stats->full_required = rw.full_required;
    Engine engine(std::move(rw.program), options.engine);
    if (engine.status().ok()) {
      stats->mode = PointQueryMode::kMagic;
      Status run = engine.Run(db);
      stats->engine = engine.stats();
      stats->engine.point_query = true;
      stats->engine.magic_rewrites = 1;
      stats->engine.magic_subqueries = rw.adorned.size();
      stats->engine.magic_rules =
          rw.magic_rules + rw.guarded_rules + rw.copy_rules;
      KGM_RETURN_IF_ERROR(run);
      // Belt and braces: the adorned output already respects the
      // binding, but filtering is one cheap pass over a small relation.
      return finish(FilterRelation(db->Get(rw.query_pred), query,
                                   &stats->engine.join_probes));
    }
    stats->fallback = FallbackReason::kRewriteRejected;
    stats->fallback_detail = engine.status().message();
  }
  return finish(RunMaterialize(program, query, db, options, stats));
}

}  // namespace kgm::vadalog::magic
