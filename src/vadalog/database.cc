#include "vadalog/database.h"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "base/check.h"

namespace kgm::vadalog {

namespace {

size_t RoundUpPow2(size_t n) {
  if (n <= 1) return 1;
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const std::vector<uint32_t> Relation::kEmptyRows;

size_t HashTuple(const Tuple& t) {
  size_t h = 0x8f3a7b12;
  for (const Value& v : t) h = HashCombine(h, v.Hash());
  return h;
}

size_t HashTupleMasked(const Tuple& t, uint64_t mask) {
  size_t h = 0x51ab03c7;
  for (size_t i = 0; i < t.size(); ++i) {
    if (mask & (1ULL << i)) h = HashCombine(h, t[i].Hash());
  }
  return h;
}

TupleHasher::TupleHasher(const Tuple& t) : n_(t.size()) {
  size_t* hs = inline_;
  if (n_ > kInline) {
    heap_.resize(n_);
    hs = heap_.data();
  }
  size_t h = 0x8f3a7b12;
  for (size_t i = 0; i < n_; ++i) {
    hs[i] = t[i].Hash();
    h = HashCombine(h, hs[i]);
  }
  hashes_ = hs;
  full_ = h;
}

size_t TupleHasher::Masked(uint64_t mask) const {
  size_t h = 0x51ab03c7;
  for (size_t i = 0; i < n_; ++i) {
    if (mask & (1ULL << i)) h = HashCombine(h, hashes_[i]);
  }
  return h;
}

Relation::Relation(size_t arity, size_t shard_count) : arity_(arity) {
  shard_count = RoundUpPow2(shard_count);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shard_count - 1;
}

Relation Relation::Clone() const {
  KGM_CHECK(StagedCount() == 0);
  Relation out(arity_, shards_.size());
  out.version_ = version_;
  out.fingerprint_ = fingerprint_;
  out.tuples_ = tuples_;
  // Dedup buckets are keyed by full-tuple hash and the shard layout is
  // identical, so they copy wholesale — nothing is rehashed.
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.shards_[i]->dedup = shards_[i]->dedup;
  }
  out.indexes_ = indexes_;
  return out;
}

bool Relation::CanonicalContains(const Shard& shard, size_t hash,
                                 const Tuple& t) const {
  auto it = shard.dedup.find(hash);
  if (it == shard.dedup.end()) return false;
  for (uint32_t row : it->second.rows) {
    if (tuples_[row] == t) return true;
  }
  return false;
}

size_t Relation::FindRow(const Tuple& t) const {
  size_t h = HashTuple(t);
  const Shard& shard = ShardFor(h);
  auto it = shard.dedup.find(h);
  if (it == shard.dedup.end()) return kNoRow;
  for (uint32_t row : it->second.rows) {
    if (tuples_[row] == t) return row;
  }
  return kNoRow;
}

bool Relation::Insert(Tuple t) {
  KGM_CHECK(t.size() == arity_);
  // Position hashes are computed once and reused for the dedup hash and
  // every maintained index mask.
  TupleHasher hasher(t);
  size_t h = hasher.full();
  Shard& shard = ShardFor(h);
  Bucket& bucket = shard.dedup[h];
  for (uint32_t row : bucket.rows) {
    if (tuples_[row] == t) return false;
  }
  uint32_t row = static_cast<uint32_t>(tuples_.size());
  bucket.rows.push_back(row);
  for (auto& [mask, index] : indexes_) {
    index[hasher.Masked(mask)].rows.push_back(row);
  }
  tuples_.push_back(std::move(t));
  ++version_;
  fingerprint_ ^= h;
  return true;
}

size_t Relation::EraseTuples(const std::vector<Tuple>& ts) {
  KGM_CHECK(StagedCount() == 0);
  std::vector<char> dead(tuples_.size(), 0);
  size_t erased = 0;
  for (const Tuple& t : ts) {
    if (t.size() != arity_) continue;
    size_t row = FindRow(t);
    if (row == kNoRow || dead[row]) continue;
    dead[row] = 1;
    fingerprint_ ^= HashTuple(t);
    ++erased;
  }
  if (erased == 0) return 0;
  // Order-preserving compaction shifts the surviving row ids, but every
  // content hash stays the same, so the dedup shards and built indexes are
  // patched in place: drop dead entries, remap the rest.  This keeps a
  // deletion at O(entries) integer work instead of rehashing every tuple —
  // the difference dominates incremental maintenance, which erases from
  // large relations on every delta batch.
  std::vector<uint32_t> remap(tuples_.size());
  uint32_t next = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    remap[i] = next;
    if (!dead[i]) ++next;
  }
  std::vector<Tuple> kept;
  kept.reserve(tuples_.size() - erased);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(tuples_[i]));
  }
  tuples_ = std::move(kept);
  auto patch_rows = [&](std::vector<uint32_t>& rows) {
    size_t w = 0;
    for (uint32_t row : rows) {
      if (!dead[row]) rows[w++] = remap[row];
    }
    rows.resize(w);
  };
  for (auto& shard : shards_) {
    for (auto it = shard->dedup.begin(); it != shard->dedup.end();) {
      patch_rows(it->second.rows);
      it = it->second.rows.empty() ? shard->dedup.erase(it) : std::next(it);
    }
  }
  for (auto& [mask, index] : indexes_) {
    (void)mask;
    for (auto it = index.begin(); it != index.end();) {
      patch_rows(it->second.rows);
      it = it->second.rows.empty() ? index.erase(it) : std::next(it);
    }
  }
  ++version_;
  return erased;
}

bool Relation::Contains(const Tuple& t) const {
  return FindRow(t) != kNoRow;
}

void Relation::EnsureIndex(uint64_t mask) {
  KGM_CHECK(mask != 0);
  if (indexes_.count(mask) > 0) return;
  HashIndex index;
  for (size_t row = 0; row < tuples_.size(); ++row) {
    index[HashTupleMasked(tuples_[row], mask)].rows.push_back(
        static_cast<uint32_t>(row));
  }
  indexes_.emplace(mask, std::move(index));
}

const std::vector<uint32_t>& Relation::LookupBuilt(uint64_t mask,
                                                   const Tuple& probe) const {
  auto it = indexes_.find(mask);
  KGM_CHECK(it != indexes_.end());
  auto bucket = it->second.find(HashTupleMasked(probe, mask));
  if (bucket == it->second.end()) return kEmptyRows;
  return bucket->second.rows;
}

const std::vector<uint32_t>* Relation::TryLookupBuilt(
    uint64_t mask, const Tuple& probe) const {
  auto it = indexes_.find(mask);
  if (it == indexes_.end()) return nullptr;
  auto bucket = it->second.find(HashTupleMasked(probe, mask));
  if (bucket == it->second.end()) return &kEmptyRows;
  return &bucket->second.rows;
}

void Relation::Reshard(size_t shard_count) {
  shard_count = RoundUpPow2(shard_count);
  KGM_CHECK(StagedCount() == 0);
  std::vector<std::unique_ptr<Shard>> fresh;
  fresh.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    fresh.push_back(std::make_unique<Shard>());
  }
  size_t mask = shard_count - 1;
  // Buckets are keyed by full-tuple hash, so they move wholesale; no tuple
  // is rehashed.
  for (auto& shard : shards_) {
    for (auto& [h, bucket] : shard->dedup) {
      fresh[h & mask]->dedup.emplace(h, std::move(bucket));
    }
  }
  shards_ = std::move(fresh);
  shard_mask_ = mask;
}

bool Relation::StageInsert(StageTag tag, Tuple t) {
  KGM_CHECK(t.size() == arity_);
  TupleHasher hasher(t);
  size_t h = hasher.full();
  Shard& shard = ShardFor(h);
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++shard.counters.contentions;
  }
  // The canonical store is frozen while stagings are in flight, so reading
  // the shard's dedup slice under the shard lock is race-free.
  if (CanonicalContains(shard, h, t)) {
    ++shard.counters.duplicates;
    return false;
  }
  // Duplicates *within* the barrier are not chased here: the drain sorts
  // each shard by tag and drops every copy after the first, so the
  // minimum-tag occurrence survives without a staging-side index.
  // That keeps this hot path to one hash, one lock, and one push.
  shard.staged.push_back(Staged{tag, h, std::move(t), {}, false});
  ++shard.counters.accepted;
  return true;
}

size_t Relation::StagedCount() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->staged.size();
  return n;
}

void Relation::PrepareStagedShard(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  if (shard.staged.empty()) return;
  std::sort(
      shard.staged.begin(), shard.staged.end(),
      [](const Staged& a, const Staged& b) { return a.tag < b.tag; });
  // Same-barrier duplicates are shard-local (equal tuples share a full
  // hash), so after the sort the first — minimum-tag — copy of every
  // tuple survives and later copies are flagged.  StageInsert already
  // rejected tuples present in the (frozen) canonical store.
  std::unordered_map<size_t, std::vector<const Staged*>> firsts_by_hash;
  firsts_by_hash.reserve(shard.staged.size());
  for (Staged& e : shard.staged) {
    e.duplicate = false;
    std::vector<const Staged*>& firsts = firsts_by_hash[e.hash];
    for (const Staged* f : firsts) {
      if (f->tuple == e.tuple) {
        e.duplicate = true;
        break;
      }
    }
    if (e.duplicate) {
      ++shard.counters.duplicates;
      --shard.counters.accepted;
      continue;
    }
    firsts.push_back(&e);
    // Precompute the masked hashes the merge will need, so DrainPrepared
    // never rehashes a value: this is the expensive part of a drain, and
    // it now runs per shard in parallel.
    if (!indexes_.empty()) {
      TupleHasher hasher(e.tuple);
      e.index_hashes.clear();
      e.index_hashes.reserve(indexes_.size());
      for (const auto& [mask, index] : indexes_) {
        (void)index;
        e.index_hashes.push_back(hasher.Masked(mask));
      }
    }
  }
}

size_t Relation::DrainPrepared() {
  size_t total = StagedCount();
  if (total == 0) return 0;
  // K-way merge of the per-shard tag-sorted runs.
  struct Cursor {
    std::vector<Staged>* run;
    size_t pos;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(shards_.size());
  for (auto& shard : shards_) {
    if (!shard->staged.empty()) cursors.push_back(Cursor{&shard->staged, 0});
  }
  auto greater = [](const Cursor& a, const Cursor& b) {
    return (*b.run)[b.pos].tag < (*a.run)[a.pos].tag;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater, std::move(cursors));
  tuples_.reserve(tuples_.size() + total);
  size_t appended = 0;
  while (!heap.empty()) {
    Cursor cur = heap.top();
    heap.pop();
    Staged& e = (*cur.run)[cur.pos];
    if (++cur.pos < cur.run->size()) heap.push(cur);
    if (e.duplicate) continue;
    uint32_t row = static_cast<uint32_t>(tuples_.size());
    ShardFor(e.hash).dedup[e.hash].rows.push_back(row);
    size_t ii = 0;
    for (auto& [mask, index] : indexes_) {
      (void)mask;
      index[e.index_hashes[ii++]].rows.push_back(row);
    }
    tuples_.push_back(std::move(e.tuple));
    fingerprint_ ^= e.hash;
    ++appended;
  }
  for (auto& shard : shards_) {
    shard->staged.clear();
  }
  if (appended > 0) ++version_;
  return appended;
}

void Relation::DiscardStaged() {
  for (auto& shard : shards_) shard->staged.clear();
}

void Relation::AccumulateShardCounters(std::vector<ShardCounters>* by_shard,
                                       ShardCounters* total) const {
  if (by_shard->size() < shards_.size()) by_shard->resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardCounters& c = shards_[i]->counters;
    (*by_shard)[i].accepted += c.accepted;
    (*by_shard)[i].duplicates += c.duplicates;
    (*by_shard)[i].contentions += c.contentions;
    total->accepted += c.accepted;
    total->duplicates += c.duplicates;
    total->contentions += c.contentions;
  }
}

FactDb::FactDb(const SharedRelations& relations) {
  for (const auto& [pred, rel] : relations) relations_[pred].shared = rel;
}

FactDb FactDb::Clone() const {
  FactDb out;
  out.default_shard_count_ = default_shard_count_;
  for (const auto& [pred, slot] : relations_) {
    Slot& copy = out.relations_[pred];
    if (slot.owned != nullptr) {
      copy.owned = std::make_unique<Relation>(slot.owned->Clone());
    } else {
      copy.shared = slot.shared;
    }
  }
  return out;
}

SharedRelations FactDb::Share() && {
  SharedRelations out;
  for (auto& [pred, slot] : relations_) {
    if (slot.owned != nullptr) {
      out.emplace(pred, std::shared_ptr<const Relation>(std::move(slot.owned)));
    } else {
      out.emplace(pred, std::move(slot.shared));
    }
  }
  relations_.clear();
  return out;
}

Relation& FactDb::Own(Slot& slot) {
  if (slot.owned == nullptr) {
    slot.owned = std::make_unique<Relation>(slot.shared->Clone());
    ++relations_copied_;
  }
  return *slot.owned;
}

Relation& FactDb::GetOrCreate(const std::string& pred, size_t arity) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_.emplace(pred, Slot{}).first;
    it->second.owned = std::make_unique<Relation>(arity, default_shard_count_);
  }
  Relation& rel = Own(it->second);
  KGM_CHECK_MSG(rel.arity() == arity,
                ("arity conflict for predicate " + pred).c_str());
  return rel;
}

const Relation* FactDb::Get(const std::string& pred) const {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  return it->second.get();
}

Relation* FactDb::GetMutable(const std::string& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  return &Own(it->second);
}

const Relation* FactDb::GetIndexed(const std::string& pred, uint64_t mask) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  Slot& slot = it->second;
  if (slot.owned == nullptr && slot.shared->HasIndex(mask)) {
    return slot.shared.get();
  }
  Relation& rel = Own(slot);
  rel.EnsureIndex(mask);
  return &rel;
}

bool FactDb::Add(const std::string& pred, Tuple t) {
  return GetOrCreate(pred, t.size()).Insert(std::move(t));
}

std::vector<std::string> FactDb::Predicates() const {
  std::vector<std::string> out;
  out.reserve(relations_.size());
  for (const auto& [pred, slot] : relations_) out.push_back(pred);
  return out;
}

size_t FactDb::TotalFacts() const {
  size_t n = 0;
  for (const auto& [pred, slot] : relations_) n += slot.get()->size();
  return n;
}

void FactDb::ReshardAll(size_t shard_count) {
  default_shard_count_ = shard_count;
  ForEachRelation(
      [&](const std::string&, Relation& rel) { rel.Reshard(shard_count); });
}

std::string FactDb::DebugString() const {
  std::ostringstream os;
  for (const auto& [pred, slot] : relations_) {
    for (const Tuple& t : slot.get()->tuples()) {
      os << pred << "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) os << ",";
        os << t[i].ToString();
      }
      os << ")\n";
    }
  }
  return os.str();
}

}  // namespace kgm::vadalog
