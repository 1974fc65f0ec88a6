#include "base/value.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "base/check.h"

namespace kgm {

double Value::AsDouble() const {
  KGM_CHECK(is_numeric());
  if (is_int()) return static_cast<double>(AsInt());
  return AsDoubleExact();
}

bool Value::RecordEquals(const Value& other) const {
  const Record& a = *AsRecord();
  const Record& b = *other.AsRecord();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
  }
  return true;
}

bool Value::operator<(const Value& other) const {
  if (kind() != other.kind()) {
    return static_cast<int>(kind()) < static_cast<int>(other.kind());
  }
  switch (kind()) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kBool:
      return AsBool() < other.AsBool();
    case ValueKind::kInt:
      return AsInt() < other.AsInt();
    case ValueKind::kDouble:
      return AsDoubleExact() < other.AsDoubleExact();
    case ValueKind::kString:
      return AsString() < other.AsString();
    case ValueKind::kSkolem:
      return AsSkolem() < other.AsSkolem();
    case ValueKind::kRecord: {
      const Record& a = *AsRecord();
      const Record& b = *other.AsRecord();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        if (a[i].first != b[i].first) return a[i].first < b[i].first;
        if (a[i].second != b[i].second) return a[i].second < b[i].second;
      }
      return a.size() < b.size();
    }
  }
  return false;
}

size_t Value::RecordHash(size_t seed) const {
  size_t h = seed;
  for (const auto& [name, value] : *AsRecord()) {
    h = HashCombine(h, std::hash<std::string>{}(name));
    h = HashCombine(h, value.Hash());
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << AsDoubleExact();
      return os.str();
    }
    case ValueKind::kString:
      return "\"" + AsString() + "\"";
    case ValueKind::kSkolem: {
      const SkolemTable& table = SkolemTable::Global();
      std::string out = table.FunctorOf(AsSkolem());
      out += "(";
      const std::vector<Value>& args = table.ArgsOf(AsSkolem());
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ",";
        out += args[i].ToString();
      }
      out += ")";
      return out;
    }
    case ValueKind::kRecord: {
      std::string out = "{";
      bool first = true;
      for (const auto& [name, value] : *AsRecord()) {
        if (!first) out += ", ";
        first = false;
        out += name + ": " + value.ToString();
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

Value MakeRecord(Record fields) {
  std::sort(fields.begin(), fields.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return Value(std::make_shared<const Record>(std::move(fields)));
}

// --- SkolemTable -------------------------------------------------------------

namespace {
struct SkolemKey {
  std::string functor;
  std::vector<Value> args;
  bool operator==(const SkolemKey& o) const {
    return functor == o.functor && args == o.args;
  }
};
struct SkolemKeyHash {
  size_t operator()(const SkolemKey& k) const {
    size_t h = std::hash<std::string>{}(k.functor);
    for (const Value& v : k.args) h = HashCombine(h, v.Hash());
    return h;
  }
};
}  // namespace

struct SkolemTable::Index {
  std::unordered_map<SkolemKey, uint64_t, SkolemKeyHash> map;
};

SkolemTable::SkolemTable() : index_(std::make_shared<Index>()) {}

SkolemTable& SkolemTable::Global() {
  static SkolemTable& table = *new SkolemTable();
  return table;
}

Value SkolemTable::Intern(const std::string& functor,
                          const std::vector<Value>& args) {
  SkolemKey key{functor, args};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_->map.find(key);
  if (it != index_->map.end()) return Value(SkolemRef{it->second});
  uint64_t id = terms_.size();
  terms_.push_back(Term{functor, args});
  index_->map.emplace(std::move(key), id);
  return Value(SkolemRef{id});
}

const std::string& SkolemTable::FunctorOf(SkolemRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  KGM_CHECK(ref.id < terms_.size());
  return terms_[ref.id].functor;
}

const std::vector<Value>& SkolemTable::ArgsOf(SkolemRef ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  KGM_CHECK(ref.id < terms_.size());
  return terms_[ref.id].args;
}

size_t SkolemTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return terms_.size();
}

}  // namespace kgm
