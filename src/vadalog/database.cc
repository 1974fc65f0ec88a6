#include "vadalog/database.h"

#include <sstream>
#include <utility>

#include "base/check.h"

namespace kgm::vadalog {

size_t HashTuple(const Tuple& t) {
  size_t h = 0x8f3a7b12;
  for (const Value& v : t) h = HashCombine(h, v.Hash());
  return h;
}

size_t HashTupleMasked(const Tuple& t, uint64_t mask) {
  size_t h = 0x51ab03c7;
  for (size_t i = 0; mask != 0 && i < t.size(); ++i, mask >>= 1) {
    if (mask & 1) h = HashCombine(h, t[i].Hash());
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
  for (size_t i = 0; mask != 0 && i < n_; ++i, mask >>= 1) {
    if (mask & 1) h = HashCombine(h, hashes_[i]);
  }
  return h;
}

size_t RowIndex::Rows::size() const {
  size_t n = 0;
  for (uint32_t row = first_; row != kEnd; row = next_[row]) ++n;
  return n;
}

RowIndex::Rows RowIndex::Lookup(size_t hash) const {
  if (entries_ > 0) {
    const size_t wrap = table_.size() - 1;
    for (size_t s = Home(hash);; s = (s + 1) & wrap) {
      const Entry& e = table_[s];
      if (e.first == kEnd) break;
      if (e.hash == hash) return Rows(next_.data(), e.first);
    }
  }
  return Rows(next_.data(), kEnd);
}

void RowIndex::Append(size_t hash) {
  KGM_CHECK(next_.size() < kEnd);
  const uint32_t row = static_cast<uint32_t>(next_.size());
  next_.push_back(kEnd);
  if (2 * (entries_ + 1) > table_.size()) {
    std::vector<Entry> old = std::move(table_);
    Rebuild(entries_ + 1, old);
  }
  const size_t wrap = table_.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & wrap) {
    Entry& e = table_[s];
    if (e.first == kEnd) {
      e = Entry{hash, row, row};
      ++entries_;
      return;
    }
    if (e.hash == hash) {
      next_[e.last] = row;
      e.last = row;
      return;
    }
  }
}

void RowIndex::Compact(const std::vector<char>& dead,
                       const std::vector<uint32_t>& remap) {
  // remap[n - 1] counts the live rows before the last one.
  const size_t n = next_.size();
  const size_t kept = n == 0 ? 0 : remap[n - 1] + (dead[n - 1] ? 0 : 1);
  std::vector<uint32_t> next(kept, kEnd);
  std::vector<Entry> live;
  live.reserve(entries_);
  for (const Entry& e : table_) {
    if (e.first == kEnd) continue;
    uint32_t first = kEnd;
    uint32_t last = kEnd;
    for (uint32_t row = e.first; row != kEnd; row = next_[row]) {
      if (dead[row]) continue;
      const uint32_t moved = remap[row];
      if (first == kEnd) {
        first = moved;
      } else {
        next[last] = moved;
      }
      last = moved;
    }
    if (first != kEnd) live.push_back(Entry{e.hash, first, last});
  }
  next_ = std::move(next);
  Rebuild(live.size(), live);
}

void RowIndex::Rebuild(size_t entries, const std::vector<Entry>& live) {
  size_t slots = 16;
  unsigned shift = 60;
  while (slots < 2 * entries) {
    slots *= 2;
    --shift;
  }
  table_.assign(slots, Entry{0, kEnd, kEnd});
  shift_ = shift;
  entries_ = 0;
  const size_t wrap = slots - 1;
  for (const Entry& e : live) {
    if (e.first == kEnd) continue;
    ++entries_;
    size_t s = Home(e.hash);
    while (table_[s].first != kEnd) s = (s + 1) & wrap;
    table_[s] = e;
  }
}

Relation::Relation(size_t arity) : arity_(arity) {}

Relation Relation::Clone() const {
  Relation out(arity_);
  out.version_ = version_;
  out.fingerprint_ = fingerprint_;
  out.tuples_ = tuples_;
  out.dedup_ = dedup_;
  out.indexes_ = indexes_;
  return out;
}

size_t Relation::FindRow(const Tuple& t) const {
  for (uint32_t row : dedup_.Lookup(HashTuple(t))) {
    if (tuples_[row] == t) return row;
  }
  return kNoRow;
}

const RowIndex* Relation::FindIndex(uint64_t mask) const {
  for (const MaskIndex& index : indexes_) {
    if (index.mask == mask) return &index.rows;
  }
  return nullptr;
}

bool Relation::Insert(Tuple t) {
  KGM_CHECK(t.size() == arity_);
  // Position hashes are computed once and reused for the dedup hash and
  // every maintained index mask.
  TupleHasher hasher(t);
  const size_t h = hasher.full();
  for (uint32_t row : dedup_.Lookup(h)) {
    if (tuples_[row] == t) return false;
  }
  dedup_.Append(h);
  for (MaskIndex& index : indexes_) index.rows.Append(hasher.Masked(index.mask));
  tuples_.push_back(std::move(t));
  ++version_;
  fingerprint_ ^= h;
  return true;
}

size_t Relation::EraseTuples(const std::vector<Tuple>& ts) {
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
  // content hash stays the same, so each index relinks its chains through
  // the remap instead of rehashing every tuple — the difference dominates
  // incremental maintenance, which erases from large relations on every
  // delta batch.
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
  dedup_.Compact(dead, remap);
  for (MaskIndex& index : indexes_) index.rows.Compact(dead, remap);
  ++version_;
  return erased;
}

bool Relation::Contains(const Tuple& t) const {
  return FindRow(t) != kNoRow;
}

void Relation::EnsureIndex(uint64_t mask) {
  KGM_CHECK(mask != 0);
  if (HasIndex(mask)) return;
  RowIndex index;
  for (const Tuple& t : tuples_) index.Append(HashTupleMasked(t, mask));
  indexes_.push_back(MaskIndex{mask, std::move(index)});
}

RowIndex::Rows Relation::LookupBuilt(uint64_t mask, const Tuple& probe) const {
  const RowIndex* index = FindIndex(mask);
  KGM_CHECK(index != nullptr);
  return index->Lookup(HashTupleMasked(probe, mask));
}

FactDb::FactDb(const SharedRelations& relations) {
  for (const auto& [pred, rel] : relations) relations_[pred].shared = rel;
}

FactDb FactDb::Clone() const {
  FactDb out;
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
    it->second.owned = std::make_unique<Relation>(arity);
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
