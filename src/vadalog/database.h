// Fact storage for the Vadalog engine.
//
// A FactDb maps predicate names to relations, each owned or shared
// copy-on-write; a Relation is a deduplicated append-only tuple store with
// hash indexes over arbitrary position masks, built on request before the
// joins of the semi-naive evaluator probe them.
//
// Sharding & concurrent staging.  Each Relation is internally sharded:
// full-tuple hashes route dedup entries to one of N shards (N a power of
// two), and every shard owns its slice of the dedup table, a mutex, and a
// staging area for concurrent inserts.  The canonical tuple store — the
// `tuples()` vector, row ids, and the secondary hash indexes — stays
// unsharded and is only written single-threaded.  During a parallel engine
// phase the canonical store is frozen; work items call StageInsert, which
// dedups against the canonical store under only that shard's lock.  Every
// staged tuple carries a (work-item, sequence) tag.  At the barrier a
// two-phase drain (PrepareStagedShard per shard, then DrainPrepared)
// appends the staged tuples to the canonical store in ascending tag order,
// dropping same-barrier duplicates — so the minimum-tag copy of every
// tuple survives regardless of thread scheduling, which makes canonical
// row order — and therefore everything downstream of it — deterministic
// for any worker count.

#ifndef KGM_VADALOG_DATABASE_H_
#define KGM_VADALOG_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/value.h"

namespace kgm::vadalog {

using Tuple = std::vector<Value>;

size_t HashTuple(const Tuple& t);

// Hashes only positions selected by `mask` (bit i set = position i).
size_t HashTupleMasked(const Tuple& t, uint64_t mask);

// Caches the per-position value hashes of one tuple so that the full hash
// and any number of masked hashes can be derived without rehashing the
// values (string hashing dominates Insert otherwise).  Produces exactly the
// same hashes as HashTuple / HashTupleMasked.
class TupleHasher {
 public:
  explicit TupleHasher(const Tuple& t);

  size_t full() const { return full_; }
  size_t Masked(uint64_t mask) const;

 private:
  static constexpr size_t kInline = 16;
  size_t n_;
  size_t full_;
  const size_t* hashes_;
  size_t inline_[kInline];
  std::vector<size_t> heap_;
};

// Deterministic ordering tag for one staged insert: the submitting work
// item's submission index plus a per-item sequence number.
struct StageTag {
  uint32_t item = 0;
  uint32_t seq = 0;

  friend bool operator<(const StageTag& a, const StageTag& b) {
    return a.item != b.item ? a.item < b.item : a.seq < b.seq;
  }
};

// Per-shard insert counters, accumulated into EngineStats after a run.
struct ShardCounters {
  size_t accepted = 0;     // staged inserts that were new tuples
  size_t duplicates = 0;   // staged inserts dropped as duplicates
  size_t contentions = 0;  // lock acquisitions that had to wait
};

class Relation {
 public:
  explicit Relation(size_t arity, size_t shard_count = 1);

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  // Deep copy: canonical tuples, dedup shards, and built indexes.  Much
  // cheaper than re-inserting (no value is rehashed).  Must not be called
  // with staged tuples pending.  FactDb uses this to copy a shared
  // relation on its first write.
  Relation Clone() const;

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  // Inserts (deduplicated); returns true if the tuple is new.  Not
  // thread-safe; must not run while staged tuples are pending.
  bool Insert(Tuple t);

  // Removes every listed tuple that is present; returns the number actually
  // removed (duplicates in `ts` and absent tuples are ignored).  Surviving
  // rows keep their relative order — row ids compact downwards — and the
  // dedup table plus every built index are rebuilt.  Not thread-safe; must
  // not run while staged tuples are pending.  Erasure is the one mutation
  // that invalidates previously observed row ids; it exists for incremental
  // maintenance (DRed overdeletion), not for the engine's fixpoint loop,
  // which remains append-only.
  size_t EraseTuples(const std::vector<Tuple>& ts);

  bool Contains(const Tuple& t) const;

  // Monotonic mutation counter: bumped every time the canonical store gains
  // or loses rows (an Insert that was new, a drain that appended, an erase
  // that removed).  Lets callers detect "relation unchanged" without
  // comparing contents.  Clone preserves the counter.
  uint64_t version() const { return version_; }

  // Order-independent content fingerprint: XOR of the full-tuple hashes of
  // the canonical rows, maintained incrementally by Insert / drains /
  // EraseTuples.  Two relations holding the same set of tuples have equal
  // fingerprints regardless of insertion order; unequal fingerprints imply
  // different contents (equal fingerprints can collide and callers needing
  // certainty must compare tuples).
  uint64_t content_hash() const { return fingerprint_; }

  // Row index of `t`, or kNoRow if absent.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  size_t RowOf(const Tuple& t) const { return FindRow(t); }

  bool HasIndex(uint64_t mask) const { return indexes_.count(mask) > 0; }

  // Builds the hash index for `mask` (non-zero, within the arity; no-op if
  // built).  Insert, DrainPrepared and EraseTuples keep built indexes
  // current, so the engine builds every index a join probes before the
  // join starts and probes with LookupBuilt.
  void EnsureIndex(uint64_t mask);

  // Candidate rows for `probe` under `mask` (those sharing its masked hash;
  // confirm with MatchesMasked).  Requires EnsureIndex(mask).  Read-only:
  // safe to call concurrently with other const methods.
  const std::vector<uint32_t>& LookupBuilt(uint64_t mask,
                                           const Tuple& probe) const;

  // Read-only probe that tolerates a missing index: returns nullptr when
  // no index has been built for `mask` (the caller falls back to a masked
  // scan) instead of CHECK-failing like LookupBuilt.  Safe to call
  // concurrently with other const methods.
  const std::vector<uint32_t>* TryLookupBuilt(uint64_t mask,
                                              const Tuple& probe) const;

  // True if row `i`'s masked positions equal those of `probe`.  Inline:
  // this is the verification step of every index probe, one of the
  // hottest paths of the join and the chase head-satisfaction screen.
  bool MatchesMasked(size_t i, uint64_t mask, const Tuple& probe) const {
    const Tuple& t = tuples_[i];
    for (size_t p = 0; mask != 0; ++p, mask >>= 1) {
      if ((mask & 1) && !(t[p] == probe[p])) return false;
    }
    return true;
  }

  // --- sharded concurrent staging -------------------------------------------

  size_t shard_count() const { return shards_.size(); }

  // Redistributes the dedup table over `shard_count` shards (rounded up to
  // a power of two).  Buckets move by hash; tuples are not rehashed.  Must
  // not be called with staged tuples pending.  Resets the shard counters.
  void Reshard(size_t shard_count);

  // Thread-safe dedup-on-insert into the staging area.  Returns true if
  // the tuple was staged (i.e. absent from the canonical store); tuples
  // staged more than once within a barrier are resolved at the drain
  // (PrepareStagedShard), where the minimum-tag copy wins, so canonical
  // order stays schedule-independent.  The caller must keep the canonical
  // store frozen (no Insert / EnsureIndex / drain) while stagings are in
  // flight.
  bool StageInsert(StageTag tag, Tuple t);

  // Number of staged tuples.  Driver-only: not safe while StageInsert
  // calls are in flight.
  size_t StagedCount() const;

  // Staged tuples in one shard.  Driver-only.
  size_t StagedCountShard(size_t shard_index) const {
    return shards_[shard_index]->staged.size();
  }

  // Phase 1 of a two-phase drain, parallelizable per shard: sorts shard
  // `shard_index`'s staged tuples by tag, drops same-barrier duplicates
  // (equal tuples share a full hash, so every copy routes to the same
  // shard — dedup is shard-local and the minimum-tag copy survives), and
  // precomputes the hash every built index will need.  Reclassifies the
  // dropped duplicates in the shard counters.  Tasks for distinct shards
  // of one relation may run concurrently; the canonical store must stay
  // frozen until DrainPrepared.
  void PrepareStagedShard(size_t shard_index);

  // Phase 2: merges the prepared shards into the canonical store in
  // ascending tag order, maintaining the dedup table and every built
  // index.  After PrepareStagedShard every surviving tuple is globally
  // unique and absent from the canonical store, so this is a pure
  // merge-append — no hashing, no tuple comparisons.  Driver-only (one
  // caller per relation); returns the number of rows appended (their row
  // ids are [old size, new size)).
  size_t DrainPrepared();

  // Drops all staged tuples (used on error paths).  Driver-only.
  void DiscardStaged();

  // Adds this relation's per-shard counters into `by_shard` (resized as
  // needed) and the totals into `total`.  Driver-only.
  void AccumulateShardCounters(std::vector<ShardCounters>* by_shard,
                               ShardCounters* total) const;

 private:
  struct Bucket {
    std::vector<uint32_t> rows;
  };
  using HashIndex = std::unordered_map<size_t, Bucket>;

  // One staged (not yet canonical) tuple.
  struct Staged {
    StageTag tag;
    size_t hash = 0;
    Tuple tuple;
    // Filled by PrepareStagedShard: per-built-index masked hashes (in
    // indexes_ iteration order), and whether the entry lost a same-barrier
    // dedup race to a smaller-tag copy.
    std::vector<size_t> index_hashes;
    bool duplicate = false;
  };

  struct Shard {
    std::mutex mu;
    HashIndex dedup;  // full-tuple hash -> canonical rows (this shard's keys)
    std::vector<Staged> staged;
    ShardCounters counters;
  };

  Shard& ShardFor(size_t hash) const { return *shards_[hash & shard_mask_]; }
  size_t FindRow(const Tuple& t) const;
  // Canonical-store membership by precomputed hash.  Read-only.
  bool CanonicalContains(const Shard& shard, size_t hash,
                         const Tuple& t) const;

  size_t arity_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<Tuple> tuples_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  std::map<uint64_t, HashIndex> indexes_;  // mask -> index
  static const std::vector<uint32_t> kEmptyRows;
};

// Relations published for sharing between databases, one immutable
// relation per predicate (see FactDb::Share).
using SharedRelations = std::map<std::string, std::shared_ptr<const Relation>>;

// A FactDb holds each relation either *owned* or *shared*.  A shared
// relation (std::shared_ptr<const Relation>, e.g. a published snapshot's
// encoding) is read in place and never mutated: the first write access to
// it — GetMutable, GetOrCreate, or GetIndexed for an index it lacks —
// swaps in a private copy of that one relation (copy-on-write).  The
// shared original stays referenced until the database is destroyed, so a
// pointer read through Get before the copy stays valid.
//
// Write access is a map update when it copies, so concurrent readers (the
// engine's parallel phases) require it to be taken beforehand; on an owned
// relation it is a pure map lookup.
class FactDb {
 public:
  FactDb() = default;
  // Shares every relation of `relations`; nothing is copied until written.
  explicit FactDb(const SharedRelations& relations);
  FactDb(FactDb&&) = default;
  FactDb& operator=(FactDb&&) = default;
  FactDb(const FactDb&) = delete;
  FactDb& operator=(const FactDb&) = delete;

  // Deep copy of every owned relation (see Relation::Clone); shared
  // relations stay shared.
  FactDb Clone() const;

  // Consumes the database into per-predicate shared relations: owned
  // relations move into new shared_ptrs, shared ones pass through.
  SharedRelations Share() &&;

  // The relation for `pred`, created with `arity` if absent.  Write
  // access.  Aborts on an arity conflict (callers validate programs
  // first).
  Relation& GetOrCreate(const std::string& pred, size_t arity);

  // nullptr if the predicate has no facts.  Never copies.
  const Relation* Get(const std::string& pred) const;
  // Write access; nullptr if the predicate has no facts.
  Relation* GetMutable(const std::string& pred);

  // The relation for `pred` with the hash index for `mask` built (nullptr
  // if the predicate has no facts).  An owned relation builds a missing
  // index in place; a shared one is copied only when it lacks the index.
  const Relation* GetIndexed(const std::string& pred, uint64_t mask);

  // Convenience: insert one fact.
  bool Add(const std::string& pred, Tuple t);

  std::vector<std::string> Predicates() const;
  size_t TotalFacts() const;

  // Shared relations this database has copied on write.
  size_t relations_copied() const { return relations_copied_; }

  // Reshards every owned relation to `shard_count` (see Relation::Reshard)
  // and makes it the default for relations created afterwards.  Shared
  // relations are never staged into, so they keep their layout.
  void ReshardAll(size_t shard_count);
  size_t default_shard_count() const { return default_shard_count_; }

  // Visits every owned relation in predicate order.  Driver-only.
  template <typename Fn>
  void ForEachRelation(Fn&& fn) {
    for (auto& [pred, slot] : relations_) {
      if (slot.owned != nullptr) fn(pred, *slot.owned);
    }
  }

  std::string DebugString() const;

 private:
  struct Slot {
    std::unique_ptr<Relation> owned;
    // The shared relation; kept after a copy-on-write (see class comment).
    std::shared_ptr<const Relation> shared;

    const Relation* get() const {
      return owned != nullptr ? owned.get() : shared.get();
    }
  };

  // Write access to `slot`: copies its shared relation on first use.
  Relation& Own(Slot& slot);

  std::map<std::string, Slot> relations_;
  size_t default_shard_count_ = 1;
  size_t relations_copied_ = 0;
};

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_DATABASE_H_
