// Fact storage for the Vadalog engine.
//
// A FactDb maps predicate names to relations, each owned or shared
// copy-on-write; a Relation is a deduplicated tuple store — appended to by
// Insert, tombstoned by EraseTuples — with flat hash indexes (RowIndex) over
// arbitrary position masks, built on request before the joins of the
// semi-naive evaluator probe them.
//
// A Relation is written by one thread at a time.  During a parallel engine
// phase every relation is frozen and read only through its const methods
// (Contains, LookupBuilt, ...); work items record their derived facts, and
// at the barrier the driver inserts them in work-item order (see
// EngineOptions::num_threads), so canonical row order — and everything
// downstream of it — is the same for any worker count.

#ifndef KGM_VADALOG_DATABASE_H_
#define KGM_VADALOG_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/value.h"

namespace kgm::vadalog {

using Tuple = std::vector<Value>;

size_t HashTuple(const Tuple& t);

// HashTuple as a hash functor, for unordered containers keyed by Tuple.
struct TupleHashFn {
  size_t operator()(const Tuple& t) const { return HashTuple(t); }
};

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

// A hash index over the rows of one relation.  Every row has a key hash
// (of the whole tuple, or of the positions of one mask), and Lookup(h)
// yields exactly the linked rows whose key hash is h, in ascending row
// order.  A row can be appended unlinked (a dead row of its relation) or
// unlinked later; either way no lookup yields it again.
//
// Layout: an open-addressing table with one (hash, first row, last row)
// entry per distinct hash — linear probing from a multiplicative mix of the
// hash, load at most 1/2, doubled on growth — and one `next` link per row
// that chains the rows of one hash in ascending order.  Growth moves table
// entries and leaves the chains alone; no tuple is rehashed after it is
// appended.  An entry whose chain Unlink emptied keeps its slot until the
// next Compact, and an Append of its hash starts the chain again.  Memory
// is 4 bytes per row plus 16 bytes per table slot, i.e. 32–64 bytes per
// distinct hash, in two vectors, so freeing or copying an index is a few
// array operations.
class RowIndex {
 public:
  static constexpr uint32_t kEnd = static_cast<uint32_t>(-1);

  // The rows of one hash, walked through the `next` links.  A view into the
  // index: valid until the next Append, Unlink or Compact.
  class Rows {
   public:
    class iterator {
     public:
      iterator(const uint32_t* next, uint32_t row) : next_(next), row_(row) {}
      uint32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = next_[row_];
        return *this;
      }
      bool operator!=(const iterator& o) const { return row_ != o.row_; }

     private:
      const uint32_t* next_;
      uint32_t row_;
    };

    Rows(const uint32_t* next, uint32_t first) : next_(next), first_(first) {}
    iterator begin() const { return iterator(next_, first_); }
    iterator end() const { return iterator(next_, kEnd); }
    bool empty() const { return first_ == kEnd; }
    // Walks the chain.
    size_t size() const;

   private:
    const uint32_t* next_;
    uint32_t first_;
  };

  // Number of rows appended, linked or not (and not compacted away).
  size_t rows() const { return next_.size(); }

  Rows Lookup(size_t hash) const;

  // Appends row rows() with key hash `hash` at the end of its chain.
  void Append(size_t hash);

  // Appends row rows() in no chain.
  void AppendUnlinked();

  // Removes `row`, linked under `hash`, from its chain.  Walks the chain
  // from its head to find the row's predecessor.
  void Unlink(size_t hash, uint32_t row);

  // Renumbers every linked row by `remap` (an order-preserving compaction:
  // remap[row] is the row's new id, and `kept` rows remain) and drops the
  // unlinked rows and the emptied entries.  Chains are relinked in place of
  // the old ones and the table is rebuilt from the surviving entries; no
  // key is rehashed.
  void Compact(const std::vector<uint32_t>& remap, size_t kept);

 private:
  // Entry::first of a free slot; an entry whose chain Unlink emptied has
  // first == kEnd.
  static constexpr uint32_t kFree = kEnd - 1;

  struct Entry {
    size_t hash;
    uint32_t first;
    uint32_t last;
  };

  // Home slot of `hash` in a table of 2^(64 - shift_) slots.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  // The entry of `hash`, or nullptr.
  Entry* Find(size_t hash);
  // Sizes the table for `entries` distinct hashes and places the entries
  // of `live` in it.
  void Rebuild(size_t entries, const std::vector<Entry>& live);

  std::vector<Entry> table_;  // empty until the first Append
  std::vector<uint32_t> next_;  // per row: the next row of its chain
  size_t entries_ = 0;
  unsigned shift_ = 64;
};

// A deduplicated tuple store.  Insert appends row row_bound(); EraseTuples
// tombstones rows.  One RowIndex over the full-tuple hash deduplicates; one
// more per built mask serves the joins.  Insert appends to every index, so
// a built index never needs rebuilding.
//
// Tombstones: an erased row stays in place as a dead row.  Its tuple is
// released and it is unlinked from every index, so no lookup, Contains,
// RowOf or LookupBuilt ever yields it; full scans walk row ids
// [0, row_bound()) and skip the rows live() rejects.  Once dead rows make
// up half of the row ids, EraseTuples compacts the relation in order.  So
// the live rows always enumerate in ascending row order, and a re-inserted
// tuple appends: a relation enumerates exactly as one that compacted on
// every erase would.
class Relation {
 public:
  explicit Relation(size_t arity);

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  // Deep copy: tuples, tombstones, dedup index, and built indexes.  Much
  // cheaper than re-inserting (no value is rehashed; each index is two
  // vector copies).  Row ids carry over.  FactDb uses this to copy a shared
  // relation on its first write.
  Relation Clone() const;

  size_t arity() const { return arity_; }
  // Number of live rows.
  size_t size() const { return tuples_.size() - dead_count_; }
  // One past the highest row id: rows [0, row_bound()) include the dead
  // ones.  Scans and partitions range over row ids.
  size_t row_bound() const { return tuples_.size(); }
  bool live(size_t row) const { return dead_.empty() || dead_[row] == 0; }
  // The tuple of row `row` < row_bound(); empty for a dead row.
  const Tuple& tuple(size_t row) const { return tuples_[row]; }

  // The live tuples in ascending row order.  A view: valid until the next
  // Insert or EraseTuples on this relation.
  class LiveTuples {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Tuple;
      using difference_type = std::ptrdiff_t;
      using pointer = const Tuple*;
      using reference = const Tuple&;

      iterator(const Relation* rel, size_t row) : rel_(rel), row_(row) {
        Skip();
      }
      const Tuple& operator*() const { return rel_->tuples_[row_]; }
      iterator& operator++() {
        ++row_;
        Skip();
        return *this;
      }
      bool operator==(const iterator& o) const { return row_ == o.row_; }
      bool operator!=(const iterator& o) const { return row_ != o.row_; }

     private:
      void Skip() {
        while (row_ < rel_->tuples_.size() && !rel_->live(row_)) ++row_;
      }
      const Relation* rel_;
      size_t row_;
    };

    explicit LiveTuples(const Relation* rel) : rel_(rel) {}
    iterator begin() const { return iterator(rel_, 0); }
    iterator end() const { return iterator(rel_, rel_->tuples_.size()); }

   private:
    const Relation* rel_;
  };
  LiveTuples tuples() const { return LiveTuples(this); }

  // Inserts (deduplicated); returns true if the tuple is new.  A new tuple
  // appends row row_bound(), even when an equal tuple was erased before.
  // Not thread-safe.
  bool Insert(Tuple t);

  // Removes every listed tuple that is present; returns the number actually
  // removed (duplicates in `ts` and absent tuples are ignored).  Each
  // removed row becomes a dead row: its tuple is released and it is
  // unlinked from the dedup index and every built index by its own hashes,
  // so a call costs O(removed rows), not O(relation).  When dead rows then
  // reach half of row_bound(), the relation compacts: live rows keep their
  // order and move down to ids [0, size()), and every index relinks its
  // chains through the remap (RowIndex::Compact: no tuple rehashed).  Row
  // ids observed before a call stay valid for the live rows unless the
  // call compacted.  Not thread-safe.  Erasure exists for incremental
  // maintenance (DRed overdeletion) and snapshot deltas, not for the
  // engine's fixpoint loop, which remains append-only.
  size_t EraseTuples(const std::vector<Tuple>& ts);

  bool Contains(const Tuple& t) const;

  // Monotonic mutation counter: bumped every time the relation gains or
  // loses rows (an Insert that was new, an erase that removed).  Lets
  // callers detect "relation unchanged" without comparing contents.  Clone
  // preserves the counter.
  uint64_t version() const { return version_; }

  // Order-independent content fingerprint: XOR of the full-tuple hashes of
  // the live rows, maintained incrementally by Insert and EraseTuples.  Two
  // relations holding the same set of tuples have equal fingerprints
  // regardless of insertion order; unequal fingerprints imply different
  // contents (equal fingerprints can collide and callers needing certainty
  // must compare tuples).
  uint64_t content_hash() const { return fingerprint_; }

  // Row index of `t`, or kNoRow if absent.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  size_t RowOf(const Tuple& t) const { return FindRow(t, HashTuple(t)); }

  bool HasIndex(uint64_t mask) const { return FindIndex(mask) != nullptr; }

  // Builds the hash index for `mask` (non-zero, within the arity; no-op if
  // built).  Insert and EraseTuples keep built indexes current, so the
  // engine builds every index a join probes before the join starts and
  // probes with LookupBuilt.
  void EnsureIndex(uint64_t mask);

  // Candidate live rows for `probe` under `mask`, ascending: those sharing
  // its masked hash (confirm with MatchesMasked).  Requires
  // EnsureIndex(mask).  Read-only: safe to call concurrently with other
  // const methods.  The range stays valid until the next Insert or
  // EraseTuples on this relation.
  RowIndex::Rows LookupBuilt(uint64_t mask, const Tuple& probe) const;

  // True if live row `i`'s masked positions equal those of `probe`.
  // Inline: this is the verification step of every index probe, one of the
  // hottest paths of the join.
  bool MatchesMasked(size_t i, uint64_t mask, const Tuple& probe) const {
    const Tuple& t = tuples_[i];
    for (size_t p = 0; mask != 0; ++p, mask >>= 1) {
      if ((mask & 1) && !(t[p] == probe[p])) return false;
    }
    return true;
  }

 private:
  struct MaskIndex {
    uint64_t mask;
    RowIndex rows;
  };

  size_t FindRow(const Tuple& t, size_t hash) const;
  const RowIndex* FindIndex(uint64_t mask) const;
  // Drops the dead rows: live rows keep their order.
  void Compact();

  size_t arity_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<Tuple> tuples_;
  // Per row: 1 when dead.  Empty while the relation has no dead row, so a
  // relation that never erased pays one predictable branch in live().
  std::vector<char> dead_;
  size_t dead_count_ = 0;
  RowIndex dedup_;                  // full-tuple hash -> rows
  std::vector<MaskIndex> indexes_;  // one per built mask, in build order
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
  size_t relations_copied_ = 0;
};

}  // namespace kgm::vadalog

#endif  // KGM_VADALOG_DATABASE_H_
