#include "vadalog/magic/point_query.h"

#include <optional>
#include <utility>

namespace kgm::vadalog::magic {

namespace {

constexpr size_t kIndexMinRows = 8;

// Arity of the last rule head defining `pred`; nullopt when no rule does
// (an extensional predicate).
std::optional<size_t> HeadArity(const Program& program,
                                const std::string& pred) {
  std::optional<size_t> arity;
  for (const Rule& r : program.rules) {
    for (const Atom& h : r.head) {
      if (h.predicate == pred) arity = h.args.size();
    }
  }
  return arity;
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
  Engine engine(program);
  KGM_RETURN_IF_ERROR(engine.Run(db, options.engine, &stats->engine));
  // The scan over the full output relation is part of this route's cost.
  return FilterRelation(db->Get(query.predicate), query,
                        &stats->engine.join_probes);
}

Result<std::vector<Tuple>> RunEdbLookup(const Program& program,
                                        const QueryBinding& query, FactDb* db,
                                        PointQueryStats* stats) {
  stats->mode = PointQueryMode::kEdbLookup;
  // Every program fact of the predicate must have the database relation's
  // arity, else the binding's (EvalPointQuery checked it against the last
  // fact); checked before any is inserted, as Engine::Run checks them, so a
  // client's fact cannot abort the process in GetOrCreate.
  const Relation* rel = db->Get(query.predicate);
  const size_t n = rel != nullptr ? rel->arity() : query.args.size();
  for (const FactDecl& f : program.facts) {
    if (f.predicate == query.predicate && f.values.size() != n) {
      return FailedPrecondition("predicate " + query.predicate + " has arity " +
                                std::to_string(n) + " but a program fact has " +
                                std::to_string(f.values.size()) +
                                " arguments");
    }
  }
  for (const FactDecl& f : program.facts) {
    if (f.predicate == query.predicate) {
      db->GetOrCreate(f.predicate, n).Insert(f.values);
    }
  }
  rel = db->Get(query.predicate);
  std::vector<Tuple> out;
  if (rel == nullptr) return out;
  // The index mask holds the bound positions below 64; candidates are
  // confirmed against the whole binding, which checks the rest.
  uint64_t mask = 0;
  Tuple probe(rel->arity());
  for (size_t i = 0; i < query.args.size() && i < 64; ++i) {
    if (query.args[i].has_value()) {
      mask |= 1ULL << i;
      probe[i] = *query.args[i];
    }
  }
  if (mask != 0 && rel->size() >= kIndexMinRows) {
    rel = db->GetIndexed(query.predicate, mask);
    for (uint32_t row : rel->LookupBuilt(mask, probe)) {
      ++stats->engine.join_probes;
      if (query.Matches(rel->tuple(row))) out.push_back(rel->tuple(row));
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

  // Binding arity is validated up front so every route rejects a
  // mismatched binding identically.  Without this the magic route masks
  // the client error as an empty answer set: the rewriter skips each
  // mismatched rule, the adorned output relation never exists, and the
  // final filter over a missing relation yields zero rows — while the
  // materialize and EDB routes return InvalidArgument for the same
  // query.
  const std::optional<size_t> head_arity = HeadArity(program, query.predicate);
  std::optional<size_t> declared = head_arity;
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
  if (!head_arity.has_value()) {
    return finish(RunEdbLookup(program, query, db, stats));
  }
  std::set<std::string> edb;
  for (const std::string& p : db->Predicates()) edb.insert(p);
  const std::shared_ptr<const MagicRewrite> rw =
      options.rewrite_lookup
          ? options.rewrite_lookup(query, edb)
          : std::make_shared<const MagicRewrite>(
                RewriteForQuery(program, query, edb));
  stats->fallback = rw->fallback;
  stats->fallback_detail = rw->detail;
  stats->adorned = rw->adorned;
  stats->full_required = rw->full_required;
  if (!rw->ok()) {
    return finish(RunMaterialize(program, query, db, options, stats));
  }
  stats->mode = PointQueryMode::kMagic;
  stats->magic_rewrites = options.rewrite_lookup ? 0 : 1;
  stats->magic_rules = rw->magic_rules + rw->guarded_rules + rw->copy_rules;
  // The seed is this read's one input to the shared rewrite.  A relation
  // of its name with another arity is refused here, before GetOrCreate
  // would abort on it.
  std::vector<Value> seed = query.BoundValues();
  if (const Relation* existing = db->Get(rw->seed_pred);
      existing != nullptr && existing->arity() != seed.size()) {
    return FailedPrecondition("database relation " + rw->seed_pred +
                              " has arity " +
                              std::to_string(existing->arity()) +
                              " but the magic seed has " +
                              std::to_string(seed.size()));
  }
  db->GetOrCreate(rw->seed_pred, seed.size()).Insert(std::move(seed));
  KGM_RETURN_IF_ERROR(rw->engine->Run(db, options.engine, &stats->engine));
  // Belt and braces: the adorned output already respects the binding, but
  // filtering is one cheap pass over a small relation.
  return finish(FilterRelation(db->Get(rw->query_pred), query,
                               &stats->engine.join_probes));
}

}  // namespace kgm::vadalog::magic
