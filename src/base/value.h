// The universal runtime value of KGModel.
//
// A Value is a constant of the domain C, a Skolem term of the identifier
// set I (Section 4 of the paper, "Linker Skolem Functors"),
// or a record produced by the pack() aggregate (Section 6, input views).
//
// Values are cheap to copy (strings by value, records by shared pointer) and
// provide a total order and a hash so they can serve as tuple components in
// the relational engine and as property values in the property-graph store.

#ifndef KGM_BASE_VALUE_H_
#define KGM_BASE_VALUE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace kgm {

class Value;

// A named-field record, kept sorted by field name.  Used by the pack()
// aggregate and by instance views.
using Record = std::vector<std::pair<std::string, Value>>;
using RecordPtr = std::shared_ptr<const Record>;

// A Skolem term of I: an interned (functor, arguments) pair.  Injectivity,
// determinism and range-disjointness between functors follow from interning.
struct SkolemRef {
  uint64_t id;
  bool operator==(const SkolemRef& o) const { return id == o.id; }
  bool operator<(const SkolemRef& o) const { return id < o.id; }
};

enum class ValueKind {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kSkolem,
  kRecord,
};

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(int64_t i) : data_(i) {}
  explicit Value(int i) : data_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(const char* s) : data_(std::string(s)) {}
  explicit Value(SkolemRef s) : data_(s) {}
  explicit Value(RecordPtr r) : data_(std::move(r)) {}

  ValueKind kind() const { return static_cast<ValueKind>(data_.index()); }

  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_skolem() const { return kind() == ValueKind::kSkolem; }
  bool is_record() const { return kind() == ValueKind::kRecord; }
  bool is_numeric() const { return is_int() || is_double(); }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDoubleExact() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  SkolemRef AsSkolem() const { return std::get<SkolemRef>(data_); }
  const RecordPtr& AsRecord() const { return std::get<RecordPtr>(data_); }

  // Numeric coercion: kInt and kDouble widen to double.  Requires
  // is_numeric().
  double AsDouble() const;

  // Equality and hashing are the engine's hottest operations (every join
  // probe, index lookup and dedup goes through them), so the scalar cases
  // inline here; records defer to the out-of-line slow path.
  bool operator==(const Value& other) const {
    if (data_.index() != other.data_.index()) return false;
    switch (kind()) {
      case ValueKind::kNull:
        return true;
      case ValueKind::kBool:
        return *std::get_if<bool>(&data_) == *std::get_if<bool>(&other.data_);
      case ValueKind::kInt:
        return *std::get_if<int64_t>(&data_) ==
               *std::get_if<int64_t>(&other.data_);
      case ValueKind::kDouble:
        return *std::get_if<double>(&data_) ==
               *std::get_if<double>(&other.data_);
      case ValueKind::kString:
        return *std::get_if<std::string>(&data_) ==
               *std::get_if<std::string>(&other.data_);
      case ValueKind::kSkolem:
        return std::get_if<SkolemRef>(&data_)->id ==
               std::get_if<SkolemRef>(&other.data_)->id;
      case ValueKind::kRecord:
        return RecordEquals(other);
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  // Total order: by kind, then by value within the kind.
  bool operator<(const Value& other) const;

  size_t Hash() const {
    size_t seed = static_cast<size_t>(kind()) * 0x9e3779b97f4a7c15ULL;
    switch (kind()) {
      case ValueKind::kNull:
        return seed;
      case ValueKind::kBool:
        return seed ^ (*std::get_if<bool>(&data_) + 0x9e3779b97f4a7c15ULL +
                       (seed << 6) + (seed >> 2));
      case ValueKind::kInt:
        return seed ^ (std::hash<int64_t>{}(*std::get_if<int64_t>(&data_)) +
                       0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
      case ValueKind::kDouble:
        return seed ^ (std::hash<double>{}(*std::get_if<double>(&data_)) +
                       0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
      case ValueKind::kString:
        return seed ^
               (std::hash<std::string>{}(*std::get_if<std::string>(&data_)) +
                0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
      case ValueKind::kSkolem:
        return seed ^
               (std::hash<uint64_t>{}(std::get_if<SkolemRef>(&data_)->id) +
                0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
      case ValueKind::kRecord:
        return RecordHash(seed);
    }
    return seed;
  }

  // Debug/display rendering: strings are quoted, null prints as null,
  // Skolem terms as their functor applied to arguments.
  std::string ToString() const;

 private:
  // Record (pack()) comparisons and hashes, out of line.
  bool RecordEquals(const Value& other) const;
  size_t RecordHash(size_t seed) const;

  std::variant<std::monostate, bool, int64_t, double, std::string, SkolemRef,
               RecordPtr>
      data_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

// Combines `h` into `seed` (boost-style).
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

// Makes a record value from (name, value) pairs; sorts fields by name.
Value MakeRecord(Record fields);

// --- Skolem table -----------------------------------------------------------

// Interns Skolem terms.  A process-wide table, safe for concurrent use:
// Intern() is content-addressed (same (functor, args) always yields the
// same ref) and the accessors return references to immutable interned
// terms whose addresses are stable for the lifetime of the process.
class SkolemTable {
 public:
  // Returns the process-wide table.
  static SkolemTable& Global();

  // Interns sk_functor(args) and returns its Value (kind kSkolem).
  // Thread-safe; idempotent per (functor, args).  Fresh ids are assigned
  // in call order, so concurrent callers may number new terms differently
  // from run to run; the term each (functor, args) names does not change.
  Value Intern(const std::string& functor, const std::vector<Value>& args);

  // Returns the functor of an interned term.
  const std::string& FunctorOf(SkolemRef ref) const;
  // Returns the arguments of an interned term.
  const std::vector<Value>& ArgsOf(SkolemRef ref) const;
  size_t size() const;

 private:
  struct Term {
    std::string functor;
    std::vector<Value> args;
  };
  struct TermKeyHash {
    size_t operator()(const std::pair<std::string, std::vector<Value>>& k)
        const;
  };

  mutable std::mutex mu_;
  // deque: element addresses survive growth, so FunctorOf/ArgsOf can hand
  // out references without holding mu_.
  std::deque<Term> terms_;
  // Maps (functor, args) to index in terms_.  Kept as a parallel structure
  // to avoid storing keys twice; see value.cc.
  struct Index;
  std::shared_ptr<Index> index_;

 public:
  SkolemTable();
};

}  // namespace kgm

#endif  // KGM_BASE_VALUE_H_
