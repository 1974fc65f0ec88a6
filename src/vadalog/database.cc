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
      if (e.first == kFree) break;
      if (e.hash == hash) return Rows(next_.data(), e.first);
    }
  }
  return Rows(next_.data(), kEnd);
}

RowIndex::Entry* RowIndex::Find(size_t hash) {
  if (entries_ == 0) return nullptr;
  const size_t wrap = table_.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & wrap) {
    Entry& e = table_[s];
    if (e.first == kFree) return nullptr;
    if (e.hash == hash) return &e;
  }
}

void RowIndex::Append(size_t hash) {
  KGM_CHECK(next_.size() < kFree);
  const uint32_t row = static_cast<uint32_t>(next_.size());
  next_.push_back(kEnd);
  if (2 * (entries_ + 1) > table_.size()) {
    std::vector<Entry> old = std::move(table_);
    Rebuild(entries_ + 1, old);
  }
  const size_t wrap = table_.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & wrap) {
    Entry& e = table_[s];
    if (e.first == kFree) {
      e = Entry{hash, row, row};
      ++entries_;
      return;
    }
    if (e.hash == hash) {
      if (e.first == kEnd) {
        e.first = row;
      } else {
        next_[e.last] = row;
      }
      e.last = row;
      return;
    }
  }
}

void RowIndex::AppendUnlinked() {
  KGM_CHECK(next_.size() < kFree);
  next_.push_back(kEnd);
}

void RowIndex::Unlink(size_t hash, uint32_t row) {
  Entry* e = Find(hash);
  KGM_CHECK(e != nullptr && e->first != kEnd);
  const uint32_t after = next_[row];
  if (e->first == row) {
    e->first = after;
    if (after == kEnd) e->last = kEnd;
  } else {
    uint32_t prev = e->first;
    while (next_[prev] != row) {
      prev = next_[prev];
      KGM_CHECK(prev != kEnd);
    }
    next_[prev] = after;
    if (e->last == row) e->last = prev;
  }
  next_[row] = kEnd;
}

void RowIndex::Compact(const std::vector<uint32_t>& remap, size_t kept) {
  std::vector<uint32_t> next(kept, kEnd);
  std::vector<Entry> live;
  live.reserve(entries_);
  for (const Entry& e : table_) {
    if (e.first == kFree || e.first == kEnd) continue;
    uint32_t last = remap[e.first];
    for (uint32_t row = next_[e.first]; row != kEnd; row = next_[row]) {
      next[last] = remap[row];
      last = remap[row];
    }
    live.push_back(Entry{e.hash, remap[e.first], last});
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
  table_.assign(slots, Entry{0, kFree, kFree});
  shift_ = shift;
  entries_ = 0;
  const size_t wrap = slots - 1;
  for (const Entry& e : live) {
    if (e.first == kFree) continue;
    ++entries_;
    size_t s = Home(e.hash);
    while (table_[s].first != kFree) s = (s + 1) & wrap;
    table_[s] = e;
  }
}

Relation::Relation(size_t arity) : arity_(arity) {}

Relation Relation::Clone() const {
  Relation out(arity_);
  out.version_ = version_;
  out.fingerprint_ = fingerprint_;
  out.tuples_ = tuples_;
  out.dead_ = dead_;
  out.dead_count_ = dead_count_;
  out.dedup_ = dedup_;
  out.indexes_ = indexes_;
  return out;
}

size_t Relation::FindRow(const Tuple& t, size_t hash) const {
  for (uint32_t row : dedup_.Lookup(hash)) {
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
  if (FindRow(t, h) != kNoRow) return false;
  dedup_.Append(h);
  for (MaskIndex& index : indexes_) index.rows.Append(hasher.Masked(index.mask));
  tuples_.push_back(std::move(t));
  if (!dead_.empty()) dead_.push_back(0);
  ++version_;
  fingerprint_ ^= h;
  return true;
}

size_t Relation::EraseTuples(const std::vector<Tuple>& ts) {
  size_t erased = 0;
  for (const Tuple& t : ts) {
    if (t.size() != arity_) continue;
    TupleHasher hasher(t);
    const size_t row = FindRow(t, hasher.full());
    if (row == kNoRow) continue;  // absent, or erased earlier in `ts`
    const uint32_t id = static_cast<uint32_t>(row);
    dedup_.Unlink(hasher.full(), id);
    for (MaskIndex& index : indexes_) {
      index.rows.Unlink(hasher.Masked(index.mask), id);
    }
    if (dead_.empty()) dead_.assign(tuples_.size(), 0);
    dead_[row] = 1;
    ++dead_count_;
    Tuple().swap(tuples_[row]);  // releases the values
    fingerprint_ ^= hasher.full();
    ++erased;
  }
  if (erased == 0) return 0;
  ++version_;
  if (2 * dead_count_ >= tuples_.size()) Compact();
  return erased;
}

void Relation::Compact() {
  std::vector<uint32_t> remap(tuples_.size(), RowIndex::kEnd);
  size_t kept = 0;
  for (size_t row = 0; row < tuples_.size(); ++row) {
    if (dead_[row]) continue;
    remap[row] = static_cast<uint32_t>(kept);
    if (kept != row) tuples_[kept] = std::move(tuples_[row]);
    ++kept;
  }
  tuples_.resize(kept);
  dedup_.Compact(remap, kept);
  for (MaskIndex& index : indexes_) index.rows.Compact(remap, kept);
  dead_.clear();
  dead_count_ = 0;
}

bool Relation::Contains(const Tuple& t) const {
  return RowOf(t) != kNoRow;
}

void Relation::EnsureIndex(uint64_t mask) {
  KGM_CHECK(mask != 0);
  if (HasIndex(mask)) return;
  RowIndex index;
  for (size_t row = 0; row < tuples_.size(); ++row) {
    if (live(row)) {
      index.Append(HashTupleMasked(tuples_[row], mask));
    } else {
      index.AppendUnlinked();
    }
  }
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
