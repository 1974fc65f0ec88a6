// Fact storage for the Vadalog engine.
//
// A FactDb maps predicate names to relations, each owned or shared
// copy-on-write; a Relation is a deduplicated append-only tuple store with
// flat hash indexes (RowIndex) over arbitrary position masks, built on
// request before the joins of the semi-naive evaluator probe them.
//
// A Relation is written by one thread at a time.  During a parallel engine
// phase every relation is frozen and read only through its const methods
// (Contains, LookupBuilt, ...); work items record their derived facts, and
// at the barrier the driver inserts them in work-item order (see
// EngineOptions::num_threads), so canonical row order — and everything
// downstream of it — is the same for any worker count.

#ifndef KGM_VADALOG_DATABASE_H_
#define KGM_VADALOG_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
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

// A hash index over the rows of one relation.  Every row has a key hash
// (of the whole tuple, or of the positions of one mask), and Lookup(h)
// yields exactly the rows whose key hash is h, in ascending row order.
//
// Layout: an open-addressing table with one (hash, first row, last row)
// entry per distinct hash — linear probing from a multiplicative mix of the
// hash, load at most 1/2, doubled on growth — and one `next` link per row
// that chains the rows of one hash in ascending order.  Growth moves table
// entries and leaves the chains alone; no tuple is rehashed after it is
// appended.  Memory is 4 bytes per row plus 16 bytes per table slot, i.e.
// 32–64 bytes per distinct hash, in two vectors, so freeing or copying an
// index is a few array operations.
class RowIndex {
 public:
  static constexpr uint32_t kEnd = static_cast<uint32_t>(-1);

  // The rows of one hash, walked through the `next` links.  A view into the
  // index: valid until the next Append or Compact.
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

  // Number of rows appended (and not compacted away).
  size_t rows() const { return next_.size(); }

  Rows Lookup(size_t hash) const;

  // Appends row rows() with key hash `hash` at the end of its chain.
  void Append(size_t hash);

  // Drops every row with dead[row] set and renumbers the rest by `remap`
  // (an order-preserving compaction: remap[row] is the number of live rows
  // before `row`).  Chains are relinked in place of the old ones and the
  // table is rebuilt from the surviving entries; no key is rehashed.
  void Compact(const std::vector<char>& dead,
               const std::vector<uint32_t>& remap);

 private:
  struct Entry {
    size_t hash;
    uint32_t first;  // kEnd marks a free slot
    uint32_t last;
  };

  // Home slot of `hash` in a table of 2^(64 - shift_) slots.
  size_t Home(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  // Sizes the table for `entries` distinct hashes and places the used
  // entries of `live` in it.
  void Rebuild(size_t entries, const std::vector<Entry>& live);

  std::vector<Entry> table_;  // empty until the first Append
  std::vector<uint32_t> next_;  // per row: the next row of its chain
  size_t entries_ = 0;
  unsigned shift_ = 64;
};

// A deduplicated, append-only (apart from EraseTuples) tuple store.  Row i
// is tuples()[i].  One RowIndex over the full-tuple hash deduplicates; one
// more per built mask serves the joins.  Insert appends to every index, so
// a built index never needs rebuilding.
class Relation {
 public:
  explicit Relation(size_t arity);

  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  // Deep copy: tuples, dedup index, and built indexes.  Much cheaper than
  // re-inserting (no value is rehashed; each index is two vector copies).
  // FactDb uses this to copy a shared relation on its first write.
  Relation Clone() const;

  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  // Inserts (deduplicated); returns true if the tuple is new.  Not
  // thread-safe.
  bool Insert(Tuple t);

  // Removes every listed tuple that is present; returns the number actually
  // removed (duplicates in `ts` and absent tuples are ignored).  Surviving
  // rows keep their relative order — row ids compact downwards — and the
  // dedup index plus every built index are compacted with them
  // (RowIndex::Compact: chains relinked, no tuple rehashed).  Not
  // thread-safe.  Erasure is the one mutation that invalidates previously
  // observed row ids; it exists for incremental maintenance (DRed
  // overdeletion), not for the engine's fixpoint loop, which remains
  // append-only.
  size_t EraseTuples(const std::vector<Tuple>& ts);

  bool Contains(const Tuple& t) const;

  // Monotonic mutation counter: bumped every time the relation gains or
  // loses rows (an Insert that was new, an erase that removed).  Lets
  // callers detect "relation unchanged" without comparing contents.  Clone
  // preserves the counter.
  uint64_t version() const { return version_; }

  // Order-independent content fingerprint: XOR of the full-tuple hashes of
  // the rows, maintained incrementally by Insert and EraseTuples.  Two
  // relations holding the same set of tuples have equal fingerprints
  // regardless of insertion order; unequal fingerprints imply different
  // contents (equal fingerprints can collide and callers needing certainty
  // must compare tuples).
  uint64_t content_hash() const { return fingerprint_; }

  // Row index of `t`, or kNoRow if absent.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  size_t RowOf(const Tuple& t) const { return FindRow(t); }

  bool HasIndex(uint64_t mask) const { return FindIndex(mask) != nullptr; }

  // Builds the hash index for `mask` (non-zero, within the arity; no-op if
  // built).  Insert and EraseTuples keep built indexes current, so the
  // engine builds every index a join probes before the join starts and
  // probes with LookupBuilt.
  void EnsureIndex(uint64_t mask);

  // Candidate rows for `probe` under `mask`, ascending: those sharing its
  // masked hash (confirm with MatchesMasked).  Requires EnsureIndex(mask).
  // Read-only: safe to call concurrently with other const methods.  The
  // range stays valid until the next Insert or EraseTuples on this
  // relation.
  RowIndex::Rows LookupBuilt(uint64_t mask, const Tuple& probe) const;

  // True if row `i`'s masked positions equal those of `probe`.  Inline:
  // this is the verification step of every index probe, one of the
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

  size_t FindRow(const Tuple& t) const;
  const RowIndex* FindIndex(uint64_t mask) const;

  size_t arity_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;
  std::vector<Tuple> tuples_;
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
