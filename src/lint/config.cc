#include "lint/config.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace kgm::lint {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Parent directory of `dir` with "" meaning "no parent left".  Handles
// the relative walk ("." -> "..", ".." -> "../..") so discovery works on
// paths relative to the working directory too.
std::string ParentDir(const std::string& dir) {
  if (dir.empty() || dir == "/") return "";
  if (dir == ".") return "..";
  // A chain of ".." components keeps climbing; cap it so the walk ends.
  bool dotdots = true;
  for (size_t i = 0; i < dir.size(); i += 3) {
    if (dir.compare(i, 2, "..") != 0 ||
        (i + 2 < dir.size() && dir[i + 2] != '/')) {
      dotdots = false;
      break;
    }
  }
  if (dotdots) {
    return dir.size() >= 30 ? "" : dir + "/..";  // ~10 levels is plenty
  }
  size_t slash = dir.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return dir.substr(0, slash);
}

}  // namespace

void LintConfig::Apply(LintResult* result) const {
  if (empty() || result == nullptr) return;
  std::vector<Diagnostic> kept;
  kept.reserve(result->diagnostics.size());
  for (Diagnostic& d : result->diagnostics) {
    auto it = overrides.find(d.pass);
    if (it == overrides.end() || IsEnforcedPass(d.pass)) {
      kept.push_back(std::move(d));
      continue;
    }
    if (!it->second.has_value()) continue;  // pass is off
    d.severity = *it->second;
    kept.push_back(std::move(d));
  }
  result->diagnostics = std::move(kept);
  auto off = [&](const std::string& pass) {
    auto it = overrides.find(pass);
    return it != overrides.end() && !it->second.has_value();
  };
  result->skipped_passes.erase(
      std::remove_if(result->skipped_passes.begin(),
                     result->skipped_passes.end(), off),
      result->skipped_passes.end());
  result->Sort();
}

LintConfig ParseLintConfig(const std::string& content, std::string* error) {
  LintConfig config;
  std::istringstream in(content);
  std::string line;
  int lineno = 0;
  auto report = [&](const std::string& what) {
    if (error != nullptr && error->empty()) {
      *error = ".kgmlint:" + std::to_string(lineno) + ": " + what;
    }
  };
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      report("expected 'pass = severity', got '" + line + "'");
      continue;
    }
    std::string pass = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    if (pass.empty()) {
      report("missing pass name before '='");
      continue;
    }
    if (IsEnforcedPass(pass)) {
      report("pass '" + pass +
             "' cannot be configured: the engine rejects its findings");
      continue;
    }
    if (value == "off") {
      config.overrides[pass] = std::nullopt;
    } else if (value == "error") {
      config.overrides[pass] = Severity::kError;
    } else if (value == "warning") {
      config.overrides[pass] = Severity::kWarning;
    } else if (value == "note") {
      config.overrides[pass] = Severity::kNote;
    } else {
      report("unknown severity '" + value +
             "' (want error, warning, note or off)");
    }
  }
  return config;
}

std::string FindLintConfigFile(const std::string& start_dir) {
  std::string dir = start_dir.empty() ? "." : start_dir;
  for (int depth = 0; depth < 64 && !dir.empty(); ++depth) {
    std::string candidate = dir + "/.kgmlint";
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
    dir = ParentDir(dir);
  }
  return "";
}

LintConfig LoadLintConfigFor(const std::string& program_path,
                             std::string* error) {
  size_t slash = program_path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? "." : program_path.substr(0, slash);
  if (dir.empty()) dir = "/";
  std::string path = FindLintConfigFile(dir);
  if (path.empty()) return LintConfig{};
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return ParseLintConfig(content.str(), error);
}

}  // namespace kgm::lint
