// Instance validation against a translated PG schema.
//
// Graph databases are schema-less; the paper (Sections 2.2 and 5) notes
// that schemas "can be enforced with ad-hoc methodologies" citing the
// schema-validation literature.  This module is that methodology: it
// checks a data property graph against a PgSchema produced by SSST —
// label sets, required/typed/unique properties, undeclared properties,
// endpoint labels of relationships, and the cardinality bounds recorded in
// the super-schema.

#ifndef KGM_TRANSLATE_VALIDATE_H_
#define KGM_TRANSLATE_VALIDATE_H_

#include <string>
#include <vector>

#include "core/models.h"
#include "core/superschema.h"
#include "pg/property_graph.h"

namespace kgm::translate {

struct Violation {
  enum class Kind {
    kUnknownLabel,         // node label not in the schema
    kMissingLabel,         // node lacks an inherited (accumulated) label
    kMissingRequired,      // required property absent
    kWrongType,            // property value has the wrong type
    kUndeclaredProperty,   // property not declared for the label
    kUniqueViolated,       // two nodes share a unique property value
    kUnknownRelationship,  // edge label not in the schema
    kBadEndpoint,          // edge endpoints don't carry the expected labels
    kCardinality,          // edge count violates a (min,max) bound
    kEnumViolated,         // value outside an SM_EnumAttributeModifier list
    kRangeViolated,        // value outside an SM_RangeAttributeModifier
  };
  Kind kind;
  std::string message;  // human-readable, names the offending element
};

const char* ViolationKindName(Violation::Kind kind);

struct ValidationReport {
  std::vector<Violation> violations;
  size_t checked_nodes = 0;
  size_t checked_edges = 0;

  bool ok() const { return violations.empty(); }
  // Count of violations of one kind.
  size_t Count(Violation::Kind kind) const;
  std::string ToString() const;
};

struct ValidateOptions {
  // Stop collecting after this many violations (0 = unlimited).
  size_t max_violations = 1000;
  // Skip intensional constructs: before materialization, derived labels,
  // edges and properties are legitimately absent.
  bool ignore_intensional = true;
};

// Validates `data` against the PG schema and the cardinalities of the
// originating super-schema.  Each node is checked as its primary type
// (core::NodeTypeIndex).
ValidationReport ValidateInstance(const core::SuperSchema& schema,
                                  const core::PgSchema& pg_schema,
                                  const pg::PropertyGraph& data,
                                  const ValidateOptions& options = {});

}  // namespace kgm::translate

#endif  // KGM_TRANSLATE_VALIDATE_H_
