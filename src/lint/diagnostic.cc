#include "lint/diagnostic.h"

#include <algorithm>
#include <cstdio>

namespace kgm::lint {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

bool IsEnforcedPass(std::string_view pass) {
  return pass == "parse" || pass == "translate" || pass == "safety" ||
         pass == "stratification" || pass == "aggregate" || pass == "arity";
}

std::string Diagnostic::ToString() const {
  return loc.ToString() + ": " + SeverityName(severity) + " [" + pass + "] " +
         message;
}

void LintResult::Add(Severity severity, std::string pass, SourceLoc loc,
                     int rule_index, std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.pass = std::move(pass);
  d.loc = loc;
  d.rule_index = rule_index;
  d.message = std::move(message);
  diagnostics.push_back(std::move(d));
}

size_t LintResult::count(Severity s) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

Severity LintResult::max_severity() const {
  Severity max = Severity::kNote;
  for (const Diagnostic& d : diagnostics) {
    if (static_cast<int>(d.severity) > static_cast<int>(max)) {
      max = d.severity;
    }
  }
  return max;
}

std::string LintResult::FirstError() const {
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity != Severity::kError) continue;
    if (first == nullptr || d.loc < first->loc) first = &d;
  }
  return first == nullptr ? "" : first->ToString();
}

void LintResult::Sort() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (!(a.loc == b.loc)) return a.loc < b.loc;
                     if (a.severity != b.severity) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     }
                     if (a.pass != b.pass) return a.pass < b.pass;
                     return a.message < b.message;
                   });
}

std::string RenderText(const LintResult& result, std::string_view file) {
  std::string prefix = file.empty() ? "" : std::string(file) + ":";
  std::string out;
  for (const Diagnostic& d : result.diagnostics) {
    out += prefix + d.ToString() + "\n";
  }
  size_t errors = result.count(Severity::kError);
  size_t warnings = result.count(Severity::kWarning);
  if (result.diagnostics.empty()) {
    out += prefix.empty() ? "clean\n" : prefix + " clean\n";
  } else {
    out += std::to_string(errors) + " error(s), " +
           std::to_string(warnings) + " warning(s), " +
           std::to_string(result.count(Severity::kNote)) + " note(s)\n";
  }
  if (!result.skipped_passes.empty()) {
    out += "note: skipped due to earlier errors:";
    for (const std::string& pass : result.skipped_passes) out += " " + pass;
    out += "\n";
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderJson(const LintResult& result, std::string_view file) {
  std::string out = "{\"file\":\"" + JsonEscape(file) + "\",\"diagnostics\":[";
  for (size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    if (i > 0) out += ",";
    out += "{\"severity\":\"" + std::string(SeverityName(d.severity)) +
           "\",\"pass\":\"" + JsonEscape(d.pass) + "\"";
    if (d.loc.valid()) {
      out += ",\"line\":" + std::to_string(d.loc.line) +
             ",\"column\":" + std::to_string(d.loc.column);
    }
    if (d.rule_index >= 0) {
      out += ",\"rule\":" + std::to_string(d.rule_index);
    }
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"";
    if (d.has_fix()) {
      out += ",\"fix\":{\"original\":\"" + JsonEscape(d.fix_original) +
             "\",\"replacement\":\"" + JsonEscape(d.fix_replacement) + "\"}";
    }
    out += "}";
  }
  out += "],\"skipped_passes\":[";
  for (size_t i = 0; i < result.skipped_passes.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(result.skipped_passes[i]) + "\"";
  }
  out += "],\"errors\":" + std::to_string(result.count(Severity::kError)) +
         ",\"warnings\":" + std::to_string(result.count(Severity::kWarning)) +
         ",\"notes\":" + std::to_string(result.count(Severity::kNote)) + "}";
  return out;
}

}  // namespace kgm::lint
