#include "vadalog/incremental.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "base/check.h"

namespace kgm::vadalog {

namespace {

struct TupleHashFn {
  size_t operator()(const Tuple& t) const { return HashTuple(t); }
};

using TupleSet = std::unordered_set<Tuple, TupleHashFn>;
using TupleListMap = std::map<std::string, std::vector<Tuple>>;

bool NonEmpty(const TupleListMap& m, const std::string& pred) {
  auto it = m.find(pred);
  return it != m.end() && !it->second.empty();
}

}  // namespace

std::vector<std::string> EdbDelta::TouchedPredicates() const {
  std::set<std::string> preds;
  for (const auto& [p, ts] : inserts) {
    if (!ts.empty()) preds.insert(p);
  }
  for (const auto& [p, ts] : deletes) {
    if (!ts.empty()) preds.insert(p);
  }
  return std::vector<std::string>(preds.begin(), preds.end());
}

const char* MaintenanceModeName(MaintenanceMode mode) {
  switch (mode) {
    case MaintenanceMode::kDRed:
      return "dred";
    case MaintenanceMode::kRecomputeStrata:
      return "recompute-strata";
  }
  return "unknown";
}

// --- State -------------------------------------------------------------------

struct IncrementalView::State {
  Engine engine;
  Status init;
  bool initialized = false;
  MaintenanceMode mode = MaintenanceMode::kDRed;

  FactDb edb;  // extensional base, program facts included
  FactDb db;   // maintained materialization

  std::set<std::string> last_changed;
  IncrementalStats last_stats;

  // --- static program metadata (derived once at construction) ---
  struct StratumInfo {
    std::vector<size_t> rules;      // rule indices, program order
    std::set<std::string> heads;    // head predicates of those rules
    std::set<std::string> pos_body; // positive body predicates
    std::set<std::string> neg_body; // negated body predicates
  };
  std::map<int, StratumInfo> strata;        // rule strata only, ascending
  std::set<std::string> all_heads;          // IDB predicates
  std::map<std::string, size_t> pred_arity; // from the program text
  // Per rule: predicate of each positive body literal (in literal order —
  // matching DeltaEvaluator's positive indexing) and of each head atom.
  std::vector<std::vector<std::string>> rule_positives;
  std::vector<std::vector<std::string>> rule_heads;

  State(Program program, EngineOptions opts)
      : engine(std::move(program), opts) {
    init = engine.status();
    if (!init.ok()) return;
    const Program& p = engine.program();
    const Stratification& strat = engine.stratification();
    rule_positives.resize(p.rules.size());
    rule_heads.resize(p.rules.size());
    bool has_aggregates = false;
    for (size_t i = 0; i < p.rules.size(); ++i) {
      const Rule& r = p.rules[i];
      StratumInfo& info = strata[strat.rule_stratum[i]];
      info.rules.push_back(i);
      for (const Literal& l : r.body) {
        pred_arity.emplace(l.atom.predicate, l.atom.args.size());
        if (l.negated) {
          info.neg_body.insert(l.atom.predicate);
        } else {
          info.pos_body.insert(l.atom.predicate);
          rule_positives[i].push_back(l.atom.predicate);
        }
      }
      for (const Atom& h : r.head) {
        pred_arity.emplace(h.predicate, h.args.size());
        info.heads.insert(h.predicate);
        all_heads.insert(h.predicate);
        rule_heads[i].push_back(h.predicate);
      }
      if (!r.aggregates.empty()) has_aggregates = true;
    }
    for (const FactDecl& f : p.facts) {
      pred_arity.emplace(f.predicate, f.values.size());
    }
    // A folded accumulator cannot un-fold a deleted contribution.
    mode = has_aggregates ? MaintenanceMode::kRecomputeStrata
                          : MaintenanceMode::kDRed;
  }

  size_t ArityOf(const std::string& pred, size_t fallback) const {
    auto it = pred_arity.find(pred);
    return it != pred_arity.end() ? it->second : fallback;
  }

  // Normalizes `delta` against the current EDB and applies the net change
  // to it: d_del gets the deletions that removed a present tuple, d_ins the
  // insertions that added an absent one, with delete+reinsert pairs of
  // present tuples cancelled (deletes apply before inserts).  After the
  // call d_del[p] and d_ins[p] are disjoint and exactly describe how
  // edb[p] changed.
  Status NormalizeAndApplyEdb(const EdbDelta& delta, TupleListMap* d_del,
                              TupleListMap* d_ins);

  Status ApplyRecompute(TupleListMap& d_del, TupleListMap& d_ins);
  Status ApplyDRed(TupleListMap& d_del, TupleListMap& d_ins);

  // Applies the net EDB change to the materialized db for predicates that
  // are not IDB heads (head predicates are handled by their stratum).
  void ApplyEdbToDbForNonHeads(const TupleListMap& d_del,
                               const TupleListMap& d_ins);

  // Recomputes one stratum from its EDB base via Engine::RunStrata.  When
  // `diffs` is true (DRed negation fallback) the set-level differences of
  // each head predicate are written back into d_del / d_ins for downstream
  // strata.
  Status RecomputeStratum(int stratum, const StratumInfo& info, bool diffs,
                          TupleListMap* d_del, TupleListMap* d_ins);

  Status DRedStratum(const StratumInfo& info, DeltaEvaluator& dev,
                     TupleListMap* d_del, TupleListMap* d_ins);
};

Status IncrementalView::State::NormalizeAndApplyEdb(const EdbDelta& delta,
                                                    TupleListMap* d_del,
                                                    TupleListMap* d_ins) {
  std::set<std::string> preds;
  for (const auto& [p, ts] : delta.deletes) {
    if (!ts.empty()) preds.insert(p);
  }
  for (const auto& [p, ts] : delta.inserts) {
    if (!ts.empty()) preds.insert(p);
  }
  for (const std::string& pred : preds) {
    // Arity validation: against the program first, then against any
    // existing relation, then internal consistency of the delta itself.
    size_t arity = 0;
    bool have_arity = false;
    if (auto it = pred_arity.find(pred); it != pred_arity.end()) {
      arity = it->second;
      have_arity = true;
    } else if (const Relation* rel = edb.Get(pred); rel != nullptr) {
      arity = rel->arity();
      have_arity = true;
    }
    auto check = [&](const std::vector<Tuple>& ts) -> Status {
      for (const Tuple& t : ts) {
        if (!have_arity) {
          arity = t.size();
          have_arity = true;
        }
        if (t.size() != arity) {
          return InvalidArgument("delta tuple for predicate " + pred +
                                 " has arity " + std::to_string(t.size()) +
                                 " but " + std::to_string(arity) +
                                 " was expected");
        }
      }
      return OkStatus();
    };
    if (auto it = delta.deletes.find(pred); it != delta.deletes.end()) {
      KGM_RETURN_IF_ERROR(check(it->second));
    }
    if (auto it = delta.inserts.find(pred); it != delta.inserts.end()) {
      KGM_RETURN_IF_ERROR(check(it->second));
    }

    const Relation* existing = edb.Get(pred);
    TupleSet del_set;
    std::vector<Tuple> dels;
    if (auto it = delta.deletes.find(pred); it != delta.deletes.end()) {
      for (const Tuple& t : it->second) {
        if (existing == nullptr || !existing->Contains(t)) continue;
        if (!del_set.insert(t).second) continue;
        dels.push_back(t);
      }
    }
    TupleSet ins_set;
    std::vector<Tuple> inss;
    if (auto it = delta.inserts.find(pred); it != delta.inserts.end()) {
      for (const Tuple& t : it->second) {
        bool present =
            existing != nullptr && existing->Contains(t) && del_set.count(t) == 0;
        if (present) continue;
        if (!ins_set.insert(t).second) continue;
        inss.push_back(t);
      }
    }
    // Cancel delete+reinsert pairs: net effect on the EDB is none.
    std::vector<Tuple> net_del;
    for (Tuple& t : dels) {
      if (ins_set.count(t) == 0) net_del.push_back(std::move(t));
    }
    std::vector<Tuple> net_ins;
    for (Tuple& t : inss) {
      if (del_set.count(t) == 0) net_ins.push_back(std::move(t));
    }
    if (net_del.empty() && net_ins.empty()) continue;
    Relation& rel = edb.GetOrCreate(pred, ArityOf(pred, net_del.empty()
                                                            ? net_ins[0].size()
                                                            : net_del[0].size()));
    size_t erased = rel.EraseTuples(net_del);
    KGM_CHECK(erased == net_del.size());
    for (const Tuple& t : net_ins) rel.Insert(t);
    last_stats.edb_deleted += net_del.size();
    last_stats.edb_inserted += net_ins.size();
    if (!net_del.empty()) (*d_del)[pred] = std::move(net_del);
    if (!net_ins.empty()) (*d_ins)[pred] = std::move(net_ins);
  }
  return OkStatus();
}

void IncrementalView::State::ApplyEdbToDbForNonHeads(
    const TupleListMap& d_del, const TupleListMap& d_ins) {
  for (const auto& [pred, ts] : d_del) {
    if (all_heads.count(pred) > 0) continue;
    Relation* rel = db.GetMutable(pred);
    if (rel != nullptr) rel->EraseTuples(ts);
    last_changed.insert(pred);
  }
  for (const auto& [pred, ts] : d_ins) {
    if (all_heads.count(pred) > 0) continue;
    Relation& rel = db.GetOrCreate(pred, ts[0].size());
    for (const Tuple& t : ts) rel.Insert(t);
    last_changed.insert(pred);
  }
}

Status IncrementalView::State::RecomputeStratum(int stratum,
                                                const StratumInfo& info,
                                                bool diffs,
                                                TupleListMap* d_del,
                                                TupleListMap* d_ins) {
  std::map<std::string, Relation> old;
  for (const std::string& pred : info.heads) {
    Relation& rel = db.GetOrCreate(pred, ArityOf(pred, 0));
    size_t arity = rel.arity();
    old.emplace(pred, std::move(rel));
    const Relation* base = edb.Get(pred);
    rel = base != nullptr ? base->Clone() : Relation(arity);
  }
  KGM_RETURN_IF_ERROR(engine.RunStrata(&db, {stratum}));
  for (const std::string& pred : info.heads) {
    const Relation& now = *db.Get(pred);
    const Relation& was = old.at(pred);
    bool same_ordered = was.size() == now.size() &&
                        was.content_hash() == now.content_hash() &&
                        was.tuples() == now.tuples();
    if (!same_ordered) last_changed.insert(pred);
    if (!diffs) continue;
    // Set-level differences feed the DRed deltas of downstream strata.
    std::vector<Tuple> added;
    for (const Tuple& t : now.tuples()) {
      if (!was.Contains(t)) added.push_back(t);
    }
    std::vector<Tuple> removed;
    for (const Tuple& t : was.tuples()) {
      if (!now.Contains(t)) removed.push_back(t);
    }
    last_stats.idb_inserted += added.size();
    last_stats.idb_deleted += removed.size();
    if (!added.empty()) {
      (*d_ins)[pred] = std::move(added);
    } else {
      d_ins->erase(pred);
    }
    if (!removed.empty()) {
      (*d_del)[pred] = std::move(removed);
    } else {
      d_del->erase(pred);
    }
  }
  return OkStatus();
}

Status IncrementalView::State::ApplyRecompute(TupleListMap& d_del,
                                              TupleListMap& d_ins) {
  ApplyEdbToDbForNonHeads(d_del, d_ins);
  for (const auto& [stratum, info] : strata) {
    bool head_delta = false;
    for (const std::string& p : info.heads) {
      if (NonEmpty(d_del, p) || NonEmpty(d_ins, p)) head_delta = true;
    }
    bool inputs_changed = false;
    for (const std::string& p : info.pos_body) {
      if (last_changed.count(p) > 0) inputs_changed = true;
    }
    for (const std::string& p : info.neg_body) {
      if (last_changed.count(p) > 0) inputs_changed = true;
    }
    if (!head_delta && !inputs_changed) {
      ++last_stats.strata_skipped;
      continue;
    }
    KGM_RETURN_IF_ERROR(
        RecomputeStratum(stratum, info, /*diffs=*/false, &d_del, &d_ins));
    ++last_stats.strata_recomputed;
    ++last_stats.strata_processed;
  }
  return OkStatus();
}

Status IncrementalView::State::DRedStratum(const StratumInfo& info,
                                           DeltaEvaluator& dev,
                                           TupleListMap* d_del,
                                           TupleListMap* d_ins) {
  using PhaseClock = std::chrono::steady_clock;
  auto phase_start = PhaseClock::now();
  auto take_phase = [&phase_start]() {
    auto now = PhaseClock::now();
    double s = std::chrono::duration<double>(now - phase_start).count();
    phase_start = now;
    return s;
  };
  auto make_delta_rels = [&](const TupleListMap& frontier) {
    std::map<std::string, Relation> rels;
    for (const auto& [pred, ts] : frontier) {
      Relation rel(ts[0].size());
      for (const Tuple& t : ts) rel.Insert(t);
      rels.emplace(pred, std::move(rel));
    }
    return rels;
  };

  // --- overdeletion ----------------------------------------------------------
  // Deleted upstream tuples were already erased from db when their stratum
  // (or the EDB application) ran; re-insert them for the duration of the
  // overdeletion evaluation so every invalidated derivation — including
  // ones that used several deleted facts at once — is still joinable.
  TupleListMap tmp_inserted;
  for (const std::string& pred : info.pos_body) {
    if (info.heads.count(pred) > 0) continue;
    auto it = d_del->find(pred);
    if (it == d_del->end() || it->second.empty()) continue;
    Relation& rel = db.GetOrCreate(pred, it->second[0].size());
    for (const Tuple& t : it->second) {
      if (rel.Insert(t)) tmp_inserted[pred].push_back(t);
    }
  }

  TupleListMap over;             // overdeleted tuples per head pred, in order
  std::map<std::string, TupleSet> over_sets;
  TupleListMap frontier;
  for (const std::string& pred : info.pos_body) {
    auto it = d_del->find(pred);
    if (it != d_del->end() && !it->second.empty()) frontier[pred] = it->second;
  }
  for (const std::string& pred : info.heads) {
    auto it = d_del->find(pred);
    if (it == d_del->end() || it->second.empty()) continue;
    // EDB deletions of an IDB predicate: the tuples lose their base support
    // and enter overdeletion; rederivation decides whether a rule still
    // proves them.  They also seed rule firings (handled via `frontier`
    // when the predicate occurs in a body).
    for (const Tuple& t : it->second) {
      if (over_sets[pred].insert(t).second) over[pred].push_back(t);
    }
    if (info.pos_body.count(pred) == 0) frontier[pred] = it->second;
  }
  while (!frontier.empty()) {
    std::map<std::string, Relation> delta_rels = make_delta_rels(frontier);
    TupleListMap next;
    for (size_t ri : info.rules) {
      const std::vector<std::string>& pos = rule_positives[ri];
      for (size_t li = 0; li < pos.size(); ++li) {
        if (frontier.find(pos[li]) == frontier.end()) continue;
        KGM_RETURN_IF_ERROR(dev.EvalRuleDelta(
            ri, li, delta_rels, [&](const std::string& hp, Tuple t) {
              if (over_sets[hp].count(t) > 0) return;
              const Relation* cur = db.Get(hp);
              if (cur == nullptr || !cur->Contains(t)) return;
              over_sets[hp].insert(t);
              over[hp].push_back(t);
              next[hp].push_back(std::move(t));
            }));
      }
    }
    frontier = std::move(next);
  }

  // Erase the overdeletions and drop the temporary re-inserts: from here on
  // the database reflects the post-deletion world.
  for (auto& [pred, ts] : over) {
    db.GetMutable(pred)->EraseTuples(ts);
    last_stats.overdeleted += ts.size();
  }
  for (auto& [pred, ts] : tmp_inserted) {
    db.GetMutable(pred)->EraseTuples(ts);
  }
  last_stats.overdelete_seconds += take_phase();

  // --- rederivation ----------------------------------------------------------
  // A tuple comes back when the post-delta EDB still supports it or some
  // rule still derives it from surviving facts.  Each rescue can enable
  // another, so iterate to a fixpoint.
  std::map<std::string, std::vector<char>> alive;
  for (const auto& [pred, ts] : over) alive[pred].assign(ts.size(), 0);
  bool again = true;
  while (again) {
    again = false;
    for (const auto& [pred, ts] : over) {
      std::vector<char>& flags = alive[pred];
      const Relation* base = edb.Get(pred);
      for (size_t i = 0; i < ts.size(); ++i) {
        if (flags[i]) continue;
        const Tuple& t = ts[i];
        bool derivable = base != nullptr && base->Contains(t);
        for (size_t ri : info.rules) {
          if (derivable) break;
          const std::vector<std::string>& heads = rule_heads[ri];
          for (size_t hi = 0; hi < heads.size() && !derivable; ++hi) {
            if (heads[hi] != pred) continue;
            bool found = false;
            ++last_stats.seeded_calls;
            KGM_RETURN_IF_ERROR(dev.EvalRuleSeeded(
                ri, hi, t, [&](const std::string& ep, Tuple et) {
                  if (!found && ep == pred && et == t) found = true;
                }));
            derivable = found;
          }
        }
        if (derivable) {
          db.GetMutable(pred)->Insert(t);
          flags[i] = 1;
          ++last_stats.rederived;
          again = true;
        }
      }
    }
  }

  last_stats.rederive_seconds += take_phase();

  // Permanent deletions of this stratum's head predicates.
  TupleListMap perm;
  for (auto& [pred, ts] : over) {
    const std::vector<char>& flags = alive[pred];
    for (size_t i = 0; i < ts.size(); ++i) {
      if (!flags[i]) perm[pred].push_back(std::move(ts[i]));
    }
  }

  // --- insertion -------------------------------------------------------------
  TupleListMap new_ins;
  frontier.clear();
  for (const std::string& pred : info.pos_body) {
    if (info.heads.count(pred) > 0) continue;
    auto it = d_ins->find(pred);
    if (it != d_ins->end() && !it->second.empty()) frontier[pred] = it->second;
  }
  for (const std::string& pred : info.heads) {
    auto it = d_ins->find(pred);
    if (it == d_ins->end() || it->second.empty()) continue;
    Relation& rel = db.GetOrCreate(pred, it->second[0].size());
    for (const Tuple& t : it->second) {
      // May already be derived, in which case the EDB insert changes
      // nothing.
      if (rel.Insert(t)) {
        new_ins[pred].push_back(t);
        frontier[pred].push_back(t);
      }
    }
  }
  // Each call hands its emissions over after its join returns, so these
  // inserts land between calls; `next` carries them into the next round.
  while (!frontier.empty()) {
    std::map<std::string, Relation> delta_rels = make_delta_rels(frontier);
    TupleListMap next;
    for (size_t ri : info.rules) {
      const std::vector<std::string>& pos = rule_positives[ri];
      for (size_t li = 0; li < pos.size(); ++li) {
        if (frontier.find(pos[li]) == frontier.end()) continue;
        KGM_RETURN_IF_ERROR(dev.EvalRuleDelta(
            ri, li, delta_rels, [&](const std::string& hp, Tuple t) {
              if (db.GetOrCreate(hp, t.size()).Insert(t)) {
                next[hp].push_back(t);
                new_ins[hp].push_back(std::move(t));
              }
            }));
      }
    }
    frontier = std::move(next);
  }

  // Publish this stratum's net change for downstream strata, cancelling
  // tuples that were deleted and then re-derived within the stratum (their
  // net effect is nil).
  for (const std::string& pred : info.heads) {
    TupleSet perm_set;
    if (auto it = perm.find(pred); it != perm.end()) {
      for (const Tuple& t : it->second) perm_set.insert(t);
    }
    TupleSet ins_set;
    if (auto it = new_ins.find(pred); it != new_ins.end()) {
      for (const Tuple& t : it->second) ins_set.insert(t);
    }
    std::vector<Tuple> net_del;
    if (auto it = perm.find(pred); it != perm.end()) {
      for (Tuple& t : it->second) {
        if (ins_set.count(t) == 0) net_del.push_back(std::move(t));
      }
    }
    std::vector<Tuple> net_ins;
    if (auto it = new_ins.find(pred); it != new_ins.end()) {
      for (Tuple& t : it->second) {
        if (perm_set.count(t) == 0) net_ins.push_back(std::move(t));
      }
    }
    // Order may have churned even when the pair cancelled; be conservative
    // for the serving layer.
    if (NonEmpty(over, pred) || NonEmpty(new_ins, pred)) {
      last_changed.insert(pred);
    }
    last_stats.idb_deleted += net_del.size();
    last_stats.idb_inserted += net_ins.size();
    if (!net_del.empty()) {
      (*d_del)[pred] = std::move(net_del);
    } else {
      d_del->erase(pred);
    }
    if (!net_ins.empty()) {
      (*d_ins)[pred] = std::move(net_ins);
    } else {
      d_ins->erase(pred);
    }
  }
  last_stats.insert_seconds += take_phase();
  return OkStatus();
}

Status IncrementalView::State::ApplyDRed(TupleListMap& d_del,
                                         TupleListMap& d_ins) {
  ApplyEdbToDbForNonHeads(d_del, d_ins);
  DeltaEvaluator dev(&engine, &db);
  KGM_RETURN_IF_ERROR(dev.status());
  for (const auto& [stratum, info] : strata) {
    bool relevant = false;
    auto touched = [&](const std::string& p) {
      return NonEmpty(d_del, p) || NonEmpty(d_ins, p);
    };
    for (const std::string& p : info.pos_body) relevant = relevant || touched(p);
    for (const std::string& p : info.heads) relevant = relevant || touched(p);
    bool neg_changed = false;
    for (const std::string& p : info.neg_body) {
      if (touched(p)) neg_changed = true;
    }
    if (!relevant && !neg_changed) {
      ++last_stats.strata_skipped;
      continue;
    }
    if (neg_changed) {
      // Negation is not monotone under deletion; recompute the stratum from
      // its base instead of trying to patch it.
      KGM_RETURN_IF_ERROR(
          RecomputeStratum(stratum, info, /*diffs=*/true, &d_del, &d_ins));
      ++last_stats.strata_recomputed;
      ++last_stats.strata_processed;
      continue;
    }
    KGM_RETURN_IF_ERROR(DRedStratum(info, dev, &d_del, &d_ins));
    ++last_stats.strata_processed;
  }
  last_stats.join_probes = dev.join_probes();
  return OkStatus();
}

// --- IncrementalView ---------------------------------------------------------

IncrementalView::IncrementalView(Program program, EngineOptions options)
    : state_(std::make_unique<State>(std::move(program), options)) {}

IncrementalView::~IncrementalView() = default;

const Status& IncrementalView::status() const { return state_->init; }

Status IncrementalView::Initialize(FactDb edb) {
  KGM_RETURN_IF_ERROR(state_->init);
  state_->edb = std::move(edb);
  // Fold program facts into the EDB base so that rederivation's base-
  // support check sees them; Engine::Run re-inserts them idempotently.
  for (const FactDecl& f : state_->engine.program().facts) {
    state_->edb.Add(f.predicate, Tuple(f.values.begin(), f.values.end()));
  }
  state_->db = state_->edb.Clone();
  KGM_RETURN_IF_ERROR(state_->engine.Run(&state_->db));
  state_->initialized = true;
  return OkStatus();
}

Status IncrementalView::Apply(const EdbDelta& delta) {
  KGM_RETURN_IF_ERROR(state_->init);
  if (!state_->initialized) {
    return FailedPrecondition("IncrementalView::Apply before Initialize");
  }
  auto t0 = std::chrono::steady_clock::now();
  state_->last_changed.clear();
  state_->last_stats = IncrementalStats{};
  state_->last_stats.mode = state_->mode;

  TupleListMap d_del;
  TupleListMap d_ins;
  Status status = state_->NormalizeAndApplyEdb(delta, &d_del, &d_ins);
  if (status.ok() && !(d_del.empty() && d_ins.empty())) {
    switch (state_->mode) {
      case MaintenanceMode::kRecomputeStrata:
        status = state_->ApplyRecompute(d_del, d_ins);
        break;
      case MaintenanceMode::kDRed:
        status = state_->ApplyDRed(d_del, d_ins);
        break;
    }
  }
  state_->last_stats.apply_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!status.ok()) state_->initialized = false;
  return status;
}

MaintenanceMode IncrementalView::mode() const { return state_->mode; }

const FactDb& IncrementalView::db() const { return state_->db; }

const FactDb& IncrementalView::edb() const { return state_->edb; }

const std::set<std::string>& IncrementalView::last_changed() const {
  return state_->last_changed;
}

const IncrementalStats& IncrementalView::last_stats() const {
  return state_->last_stats;
}

// --- database comparison helpers ---------------------------------------------

namespace {

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ",";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

bool CompareDatabases(const FactDb& a, const FactDb& b, bool ordered,
                      std::string* out) {
  std::set<std::string> preds;
  for (const std::string& p : a.Predicates()) preds.insert(p);
  for (const std::string& p : b.Predicates()) preds.insert(p);
  for (const std::string& pred : preds) {
    const Relation* ra = a.Get(pred);
    const Relation* rb = b.Get(pred);
    size_t na = ra != nullptr ? ra->size() : 0;
    size_t nb = rb != nullptr ? rb->size() : 0;
    if (na != nb) {
      if (out != nullptr) {
        *out += pred + ": " + std::to_string(na) + " vs " +
                std::to_string(nb) + " rows";
      }
      return false;
    }
    if (na == 0) continue;
    if (ordered) {
      for (size_t i = 0; i < na; ++i) {
        if (!(ra->tuple(i) == rb->tuple(i))) {
          if (out != nullptr) {
            *out += pred + " row " + std::to_string(i) + ": " +
                    TupleToString(ra->tuple(i)) + " vs " +
                    TupleToString(rb->tuple(i));
          }
          return false;
        }
      }
    } else {
      // Relations are deduplicated, so equal sizes plus containment one way
      // is set equality.
      for (const Tuple& t : ra->tuples()) {
        if (!rb->Contains(t)) {
          if (out != nullptr) {
            *out += pred + ": " + TupleToString(t) + " missing from second";
          }
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

bool DatabasesEqualOrdered(const FactDb& a, const FactDb& b) {
  return CompareDatabases(a, b, /*ordered=*/true, nullptr);
}

bool DatabasesEqualAsSets(const FactDb& a, const FactDb& b) {
  return CompareDatabases(a, b, /*ordered=*/false, nullptr);
}

bool DescribeFirstDifference(const FactDb& a, const FactDb& b, bool ordered,
                             std::string* out) {
  return !CompareDatabases(a, b, ordered, out);
}

}  // namespace kgm::vadalog
