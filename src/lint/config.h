// Per-pass severity overrides from a `.kgmlint` config file.
//
// The file is a flat list of `pass = error|warning|note|off` lines
// (comments start with `#`); it is discovered by walking upward from the
// directory holding the program being linted, nearest file wins.  An
// `off` entry drops the pass's findings entirely; any other entry remaps
// their severity.  Both `kgmctl lint` exit codes and `KgService`
// admission apply the overrides, so teams can promote a warning-grade
// pass to an admission blocker (or silence a pass) without touching the
// binaries.  The enforced passes (IsEnforcedPass: those whose findings the
// engine rejects anyway) cannot be configured.

#ifndef KGM_LINT_CONFIG_H_
#define KGM_LINT_CONFIG_H_

#include <map>
#include <optional>
#include <string>

#include "lint/diagnostic.h"

namespace kgm::lint {

struct LintConfig {
  // Pass name -> overridden severity; nullopt = pass is off.
  std::map<std::string, std::optional<Severity>> overrides;

  bool empty() const { return overrides.empty(); }

  // Applies the overrides to `result` in place: drops findings of passes
  // configured off, remaps the severity of the rest, and re-sorts.  An
  // override of an enforced pass is ignored.
  // skipped_passes entries of passes configured off are dropped too (a
  // disabled pass not running is not worth a note).
  void Apply(LintResult* result) const;
};

// Parses `.kgmlint` content.  Unknown severities, lines naming an enforced
// pass and malformed lines are reported through `error` (first problem
// only) and skipped; the valid lines still take effect, so one typo does
// not silently disable the whole file.
LintConfig ParseLintConfig(const std::string& content, std::string* error);

// Walks upward from `start_dir` (a directory; "." for relative paths)
// looking for a `.kgmlint` file; returns its path or "" when no ancestor
// holds one.
std::string FindLintConfigFile(const std::string& start_dir);

// Convenience: FindLintConfigFile + read + parse.  Returns an empty
// config when no file exists; parse problems land in `error`.
LintConfig LoadLintConfigFor(const std::string& program_path,
                             std::string* error);

}  // namespace kgm::lint

#endif  // KGM_LINT_CONFIG_H_
