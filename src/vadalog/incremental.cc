#include "vadalog/incremental.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <unordered_set>
#include <utility>

#include "base/check.h"

namespace kgm::vadalog {

namespace {

using TupleSet = std::unordered_set<Tuple, TupleHashFn>;
using TupleListMap = std::map<std::string, std::vector<Tuple>>;
// A semi-naive frontier: per predicate, the tuples one round joins as the
// delta.
using DeltaRels = std::map<std::string, Relation>;

bool NonEmpty(const TupleListMap& m, const std::string& pred) {
  auto it = m.find(pred);
  return it != m.end() && !it->second.empty();
}

void AddToFrontier(DeltaRels* frontier, const std::string& pred,
                   const std::vector<Tuple>& ts) {
  if (ts.empty()) return;
  Relation& rel = frontier->try_emplace(pred, ts[0].size()).first->second;
  for (const Tuple& t : ts) rel.Insert(t);
}

// Removes every tuple listed in both `dels` and `ins` from both, keeping
// the order of the rest: a tuple deleted and re-inserted has no net
// effect.  Neither list may hold a duplicate.
void CancelPairs(std::vector<Tuple>* dels, std::vector<Tuple>* ins) {
  if (dels->empty() || ins->empty()) return;
  const TupleSet del_set(dels->begin(), dels->end());
  const TupleSet ins_set(ins->begin(), ins->end());
  auto drop = [](std::vector<Tuple>* ts, const TupleSet& other) {
    ts->erase(std::remove_if(ts->begin(), ts->end(),
                             [&other](const Tuple& t) {
                               return other.count(t) > 0;
                             }),
              ts->end());
  };
  drop(dels, ins_set);
  drop(ins, del_set);
}

// Sets m[pred] to `ts`, or removes the entry when `ts` is empty.
void SetOrErase(TupleListMap* m, const std::string& pred,
                std::vector<Tuple> ts) {
  if (ts.empty()) {
    m->erase(pred);
  } else {
    (*m)[pred] = std::move(ts);
  }
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
    case MaintenanceMode::kRerun:
      return "rerun";
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
  // matching Engine::EvalRuleDelta's positive indexing) and of each head
  // atom.
  std::vector<std::vector<std::string>> rule_positives;
  std::vector<std::vector<std::string>> rule_heads;

  State(Program program, EngineOptions opts)
      : engine(std::move(program), opts) {
    init = engine.status();
    if (!init.ok()) return;
    const Program& p = engine.program();
    const Stratification& strat = engine.stratification();
    pred_arity = PredicateArities(p, nullptr);
    rule_positives.resize(p.rules.size());
    rule_heads.resize(p.rules.size());
    bool has_aggregates = false;
    for (size_t i = 0; i < p.rules.size(); ++i) {
      const Rule& r = p.rules[i];
      StratumInfo& info = strata[strat.rule_stratum[i]];
      info.rules.push_back(i);
      for (const Literal& l : r.body) {
        if (l.negated) {
          info.neg_body.insert(l.atom.predicate);
        } else {
          info.pos_body.insert(l.atom.predicate);
          rule_positives[i].push_back(l.atom.predicate);
        }
      }
      for (const Atom& h : r.head) {
        info.heads.insert(h.predicate);
        all_heads.insert(h.predicate);
        rule_heads[i].push_back(h.predicate);
      }
      if (!r.aggregates.empty()) has_aggregates = true;
    }
    // A folded accumulator cannot un-fold a deleted contribution.
    mode = has_aggregates ? MaintenanceMode::kRerun : MaintenanceMode::kDRed;
  }

  size_t ArityOf(const std::string& pred, size_t fallback) const {
    auto it = pred_arity.find(pred);
    return it != pred_arity.end() ? it->second : fallback;
  }

  // InvalidArgument when a tuple of `delta` does not have its predicate's
  // arity: the program's, else the EDB relation's, else that of the
  // predicate's first tuple in the delta.
  Status ValidateDelta(const EdbDelta& delta) const;

  // Normalizes a validated `delta` against the current EDB and applies the
  // net change to it: d_del gets the deletions that removed a present
  // tuple, d_ins the insertions that added an absent one, with
  // delete+reinsert pairs of present tuples cancelled (deletes apply
  // before inserts).  After the call d_del[p] and d_ins[p] are disjoint and
  // exactly describe how edb[p] changed.
  void NormalizeAndApplyEdb(const EdbDelta& delta, TupleListMap* d_del,
                            TupleListMap* d_ins);

  // Applies the net EDB change to the materialized db for predicates that
  // are not IDB heads (head predicates are handled by their stratum), so
  // those relations stay equal to the EDB's row for row.
  void ApplyEdbToDbForNonHeads(const TupleListMap& d_del,
                               const TupleListMap& d_ins);

  // Resets every head relation of db to its EDB base and runs the program
  // over db: the from-scratch materialization, bit for bit.
  Status Rerun();

  // Patches db stratum by stratum; reruns the program when a stratum's
  // negated input changed.
  Status ApplyDRed(TupleListMap& d_del, TupleListMap& d_ins);

  Status DRedStratum(const StratumInfo& info, TupleListMap* d_del,
                     TupleListMap* d_ins);

  // The semi-naive rounds every DRed phase runs: each round fires the
  // stratum's rules once per positive body literal whose predicate is in
  // `frontier`, with that literal restricted to the frontier's tuples.
  // Every emission `accept` returns true for joins the next round's
  // frontier; the rounds end when one accepts nothing.  `accept` may
  // change db: a call sees the changes of the calls before it.
  using AcceptFn = std::function<bool(const std::string& pred, const Tuple& t)>;
  Status Propagate(const StratumInfo& info, DeltaRels frontier,
                   const AcceptFn& accept);
};

Status IncrementalView::State::ValidateDelta(const EdbDelta& delta) const {
  for (const std::string& pred : delta.TouchedPredicates()) {
    size_t arity = 0;
    bool have_arity = false;
    if (auto it = pred_arity.find(pred); it != pred_arity.end()) {
      arity = it->second;
      have_arity = true;
    } else if (const Relation* rel = edb.Get(pred); rel != nullptr) {
      arity = rel->arity();
      have_arity = true;
    }
    for (const TupleListMap* part : {&delta.deletes, &delta.inserts}) {
      auto it = part->find(pred);
      if (it == part->end()) continue;
      for (const Tuple& t : it->second) {
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
    }
  }
  return OkStatus();
}

void IncrementalView::State::NormalizeAndApplyEdb(const EdbDelta& delta,
                                                  TupleListMap* d_del,
                                                  TupleListMap* d_ins) {
  for (const std::string& pred : delta.TouchedPredicates()) {
    const Relation* existing = edb.Get(pred);
    TupleSet del_set;
    std::vector<Tuple> net_del;
    if (auto it = delta.deletes.find(pred); it != delta.deletes.end()) {
      for (const Tuple& t : it->second) {
        if (existing == nullptr || !existing->Contains(t)) continue;
        if (del_set.insert(t).second) net_del.push_back(t);
      }
    }
    TupleSet ins_set;
    std::vector<Tuple> net_ins;
    if (auto it = delta.inserts.find(pred); it != delta.inserts.end()) {
      for (const Tuple& t : it->second) {
        bool present = existing != nullptr && existing->Contains(t) &&
                       del_set.count(t) == 0;
        if (present) continue;
        if (ins_set.insert(t).second) net_ins.push_back(t);
      }
    }
    // Delete+reinsert pairs leave the EDB as it was.
    CancelPairs(&net_del, &net_ins);
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
}

void IncrementalView::State::ApplyEdbToDbForNonHeads(
    const TupleListMap& d_del, const TupleListMap& d_ins) {
  for (const auto& [pred, ts] : d_del) {
    if (all_heads.count(pred) > 0) continue;
    Relation* rel = db.GetMutable(pred);
    if (rel != nullptr) rel->EraseTuples(ts);
  }
  for (const auto& [pred, ts] : d_ins) {
    if (all_heads.count(pred) > 0) continue;
    Relation& rel = db.GetOrCreate(pred, ts[0].size());
    for (const Tuple& t : ts) rel.Insert(t);
  }
}

Status IncrementalView::State::Rerun() {
  last_stats.mode = MaintenanceMode::kRerun;
  for (const std::string& pred : all_heads) {
    Relation& rel = db.GetOrCreate(pred, ArityOf(pred, 0));
    const Relation* base = edb.Get(pred);
    rel = base != nullptr ? base->Clone() : Relation(rel.arity());
  }
  return engine.Run(&db);
}

Status IncrementalView::State::Propagate(const StratumInfo& info,
                                         DeltaRels frontier,
                                         const AcceptFn& accept) {
  while (!frontier.empty()) {
    DeltaRels next;
    for (size_t ri : info.rules) {
      const std::vector<std::string>& pos = rule_positives[ri];
      for (size_t li = 0; li < pos.size(); ++li) {
        if (frontier.count(pos[li]) == 0) continue;
        KGM_RETURN_IF_ERROR(engine.EvalRuleDelta(
            &db, ri, li, frontier, [&](const std::string& hp, Tuple t) {
              if (!accept(hp, t)) return;
              next.try_emplace(hp, t.size()).first->second.Insert(std::move(t));
            }));
      }
    }
    frontier = std::move(next);
  }
  return OkStatus();
}

Status IncrementalView::State::DRedStratum(const StratumInfo& info,
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

  TupleListMap over;  // overdeleted tuples per head pred, in order
  // Per head pred: each overdeleted tuple's position in over[pred].
  std::map<std::string, std::unordered_map<Tuple, size_t, TupleHashFn>>
      over_index;
  auto overdelete = [&](const std::string& pred, const Tuple& t) {
    std::vector<Tuple>& ts = over[pred];
    if (!over_index[pred].emplace(t, ts.size()).second) return false;
    ts.push_back(t);
    return true;
  };
  DeltaRels frontier;
  for (const std::string& pred : info.pos_body) {
    if (auto it = d_del->find(pred); it != d_del->end()) {
      AddToFrontier(&frontier, pred, it->second);
    }
  }
  // EDB deletions of an IDB predicate: the tuples lose their base support
  // and enter overdeletion; rederivation decides whether a rule still
  // proves them.
  for (const std::string& pred : info.heads) {
    if (auto it = d_del->find(pred); it != d_del->end()) {
      for (const Tuple& t : it->second) overdelete(pred, t);
    }
  }
  KGM_RETURN_IF_ERROR(Propagate(
      info, std::move(frontier), [&](const std::string& hp, const Tuple& t) {
        const Relation* cur = db.Get(hp);
        return cur != nullptr && cur->Contains(t) && overdelete(hp, t);
      }));

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
  // rule still derives it from surviving facts.  One seeded pass checks
  // each overdeleted tuple once, seeing the rescues before it.  A rescue
  // can enable a tuple the pass already checked, so the rescues then spread
  // semi-naively: each round joins the last round's rescues as the delta
  // and rescues every emission still overdeleted.  A derivation whose
  // rescued body facts all came back before its head was checked was
  // found by the pass; any other has a last-rescued body fact, and the
  // round that carries it finds the derivation.
  std::map<std::string, std::vector<char>> alive;
  for (const auto& [pred, ts] : over) alive[pred].assign(ts.size(), 0);
  auto rescue = [&](const std::string& pred, size_t i) {
    db.GetMutable(pred)->Insert(over[pred][i]);
    alive[pred][i] = 1;
    ++last_stats.rederived;
  };
  DeltaRels rescued;
  for (const auto& [pred, ts] : over) {
    const Relation* base = edb.Get(pred);
    for (size_t i = 0; i < ts.size(); ++i) {
      const Tuple& t = ts[i];
      bool derivable = base != nullptr && base->Contains(t);
      for (size_t ri : info.rules) {
        if (derivable) break;
        const std::vector<std::string>& heads = rule_heads[ri];
        for (size_t hi = 0; hi < heads.size() && !derivable; ++hi) {
          if (heads[hi] != pred) continue;
          ++last_stats.seeded_calls;
          KGM_RETURN_IF_ERROR(engine.EvalRuleSeeded(
              &db, ri, hi, t, [&](const std::string& ep, const Tuple& et) {
                if (ep == pred && et == t) derivable = true;
              }));
        }
      }
      if (!derivable) continue;
      rescue(pred, i);
      rescued.try_emplace(pred, t.size()).first->second.Insert(t);
    }
  }
  KGM_RETURN_IF_ERROR(Propagate(
      info, std::move(rescued), [&](const std::string& hp, const Tuple& t) {
        auto pit = over_index.find(hp);
        if (pit == over_index.end()) return false;
        auto tit = pit->second.find(t);
        if (tit == pit->second.end() || alive[hp][tit->second]) return false;
        rescue(hp, tit->second);
        return true;
      }));
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
  DeltaRels ins_frontier;
  for (const std::string& pred : info.pos_body) {
    if (info.heads.count(pred) > 0) continue;
    if (auto it = d_ins->find(pred); it != d_ins->end()) {
      AddToFrontier(&ins_frontier, pred, it->second);
    }
  }
  for (const std::string& pred : info.heads) {
    auto it = d_ins->find(pred);
    if (it == d_ins->end() || it->second.empty()) continue;
    Relation& rel = db.GetOrCreate(pred, it->second[0].size());
    // A tuple may already be derived, and then its EDB insert changes
    // nothing.
    for (const Tuple& t : it->second) {
      if (rel.Insert(t)) new_ins[pred].push_back(t);
    }
    AddToFrontier(&ins_frontier, pred, new_ins[pred]);
  }
  // Each call hands its emissions over after its join returns, so these
  // inserts land between calls.
  KGM_RETURN_IF_ERROR(Propagate(
      info, std::move(ins_frontier),
      [&](const std::string& hp, const Tuple& t) {
        if (!db.GetOrCreate(hp, t.size()).Insert(t)) return false;
        new_ins[hp].push_back(t);
        return true;
      }));

  // Publish this stratum's net change for downstream strata, cancelling
  // tuples that were deleted and then re-derived within the stratum.
  for (const std::string& pred : info.heads) {
    std::vector<Tuple>& net_del = perm[pred];
    std::vector<Tuple>& net_ins = new_ins[pred];
    CancelPairs(&net_del, &net_ins);
    last_stats.idb_deleted += net_del.size();
    last_stats.idb_inserted += net_ins.size();
    SetOrErase(d_del, pred, std::move(net_del));
    SetOrErase(d_ins, pred, std::move(net_ins));
  }
  last_stats.insert_seconds += take_phase();
  return OkStatus();
}

Status IncrementalView::State::ApplyDRed(TupleListMap& d_del,
                                         TupleListMap& d_ins) {
  // The engine's stats count the calls since its last run; the batch's
  // share is taken before any rerun resets them.
  const size_t probes_before = engine.stats().join_probes;
  auto touched = [&](const std::string& p) {
    return NonEmpty(d_del, p) || NonEmpty(d_ins, p);
  };
  auto any_touched = [&](const std::set<std::string>& preds) {
    return std::any_of(preds.begin(), preds.end(), touched);
  };
  bool rerun = false;
  for (const auto& [stratum, info] : strata) {
    if (any_touched(info.neg_body)) {
      // Negation is not monotone under deletion: rerun the program instead
      // of patching this stratum.
      rerun = true;
      break;
    }
    if (!any_touched(info.pos_body) && !any_touched(info.heads)) {
      ++last_stats.strata_skipped;
      continue;
    }
    KGM_RETURN_IF_ERROR(DRedStratum(info, &d_del, &d_ins));
    ++last_stats.strata_processed;
  }
  last_stats.join_probes = engine.stats().join_probes - probes_before;
  return rerun ? Rerun() : OkStatus();
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
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  // A rejected delta changes nothing, so the view stays usable.
  KGM_RETURN_IF_ERROR(state_->ValidateDelta(delta));
  IncrementalStats& stats = state_->last_stats;
  stats = IncrementalStats{};
  stats.mode = state_->mode;

  TupleListMap d_del;
  TupleListMap d_ins;
  state_->NormalizeAndApplyEdb(delta, &d_del, &d_ins);
  const bool changed = !(d_del.empty() && d_ins.empty());
  if (changed) state_->ApplyEdbToDbForNonHeads(d_del, d_ins);
  stats.edb_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  Status status = OkStatus();
  if (changed) {
    status = state_->mode == MaintenanceMode::kDRed
                 ? state_->ApplyDRed(d_del, d_ins)
                 : state_->Rerun();
  }
  stats.apply_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (!status.ok()) state_->initialized = false;
  return status;
}

MaintenanceMode IncrementalView::mode() const { return state_->mode; }

const FactDb& IncrementalView::db() const { return state_->db; }

const FactDb& IncrementalView::edb() const { return state_->edb; }

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
      // Live rows in order: dead rows of either side do not count.
      const Relation::LiveTuples la = ra->tuples();
      const Relation::LiveTuples lb = rb->tuples();
      size_t i = 0;
      for (auto ia = la.begin(), ib = lb.begin(); ia != la.end();
           ++ia, ++ib, ++i) {
        if (!(*ia == *ib)) {
          if (out != nullptr) {
            *out += pred + " row " + std::to_string(i) + ": " +
                    TupleToString(*ia) + " vs " + TupleToString(*ib);
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
