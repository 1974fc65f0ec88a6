// Structured, source-located diagnostics for program analysis.
//
// A Diagnostic is one finding of one lint pass: a severity, the pass name,
// an anchor in the user's source (SourceLoc + rule index) and a message.
// LintResult collects the findings of a pipeline run; renderers produce the
// compiler-style text form ("file:line:col: severity [pass] message") and a
// machine-readable JSON form.  Both are deterministic: diagnostics are
// sorted by source position before rendering.
//
// This header is deliberately free of parser/engine dependencies so that
// any layer (metalog's prepared cache, the serving layer, tools) can hold a
// LintResult without pulling in the lint passes themselves.

#ifndef KGM_LINT_DIAGNOSTIC_H_
#define KGM_LINT_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "base/source_loc.h"

namespace kgm::lint {

enum class Severity {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};

// "note", "warning" or "error".
const char* SeverityName(Severity s);

// True for the passes whose findings the engine or the MetaLog compiler
// rejects anyway: parse, translate, safety, stratification, aggregate and
// arity.  A LintConfig cannot switch them off or demote them, and only
// their findings gate the analysis passes, so lint and the engine agree
// on which programs run.
bool IsEnforcedPass(std::string_view pass);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  // Pass identifier, e.g. "safety", "wardedness", "unused-predicate".
  std::string pass;
  // Anchor in the user's source; unknown for programs built
  // programmatically (rendered as "?").
  SourceLoc loc;
  // 0-based index of the offending rule in the *source* program (for
  // compiled MetaLog, the MetaLog rule via MTV provenance); -1 for
  // program-wide findings such as an undefined output predicate.
  int rule_index = -1;
  std::string message;
  // Machine-applicable fix (kgmctl lint --fix): replace the first
  // whole-token occurrence of `fix_original` at/after `loc` with
  // `fix_replacement`.  Empty `fix_original` means no fix is attached.
  std::string fix_original;
  std::string fix_replacement;

  bool has_fix() const { return !fix_original.empty(); }

  // "<line>:<col>: <severity> [<pass>] <message>".
  std::string ToString() const;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  // Passes that did not run because findings of an enforced pass make
  // their preconditions unreliable (e.g. magic-futility and the typeflow
  // passes skip on a program that failed safety).  Recorded so CI
  // artifacts show why a pass produced no findings.
  std::vector<std::string> skipped_passes;

  void Add(Severity severity, std::string pass, SourceLoc loc, int rule_index,
           std::string message);

  bool has_errors() const { return count(Severity::kError) > 0; }
  bool empty() const { return diagnostics.empty(); }
  size_t count(Severity s) const;
  // Highest severity present; kNote when empty.
  Severity max_severity() const;
  // Message of the first error-severity diagnostic (after sorting), empty
  // string when clean.
  std::string FirstError() const;

  // Deterministic order: source position, then severity (errors first),
  // then pass name, then message.
  void Sort();
};

// Compiler-style text rendering, one line per diagnostic plus a summary
// line.  `file` prefixes each location when non-empty.
std::string RenderText(const LintResult& result, std::string_view file = "");

// JSON rendering: {"file":..., "diagnostics":[{...}], "errors":N,
// "warnings":N, "notes":N}.
std::string RenderJson(const LintResult& result, std::string_view file = "");

// Escapes a string for embedding in a JSON string literal (no quotes).
std::string JsonEscape(std::string_view s);

}  // namespace kgm::lint

#endif  // KGM_LINT_DIAGNOSTIC_H_
