#include "vadalog/database.h"

#include <iterator>
#include <sstream>
#include <utility>

#include "base/check.h"

namespace kgm::vadalog {

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
  auto it = dedup_.find(HashTuple(t));
  if (it == dedup_.end()) return kNoRow;
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
  Bucket& bucket = dedup_[h];
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
  // content hash stays the same, so the dedup table and built indexes are
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
  auto patch_index = [&](HashIndex& index) {
    for (auto it = index.begin(); it != index.end();) {
      patch_rows(it->second.rows);
      it = it->second.rows.empty() ? index.erase(it) : std::next(it);
    }
  };
  patch_index(dedup_);
  for (auto& [mask, index] : indexes_) patch_index(index);
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
