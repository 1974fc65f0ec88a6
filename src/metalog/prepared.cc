#include "metalog/prepared.h"

#include <utility>

#include "metalog/parser.h"
#include "vadalog/parser.h"

namespace kgm::metalog {

Result<CompiledMeta> CompileMeta(MetaProgram meta, const GraphCatalog& catalog,
                                 const MtvOptions& options) {
  CompiledMeta compiled;
  compiled.meta = std::move(meta);
  compiled.catalog = catalog;
  KGM_RETURN_IF_ERROR(compiled.catalog.AbsorbProgram(compiled.meta));
  KGM_ASSIGN_OR_RETURN(
      MtvResult mtv,
      TranslateMetaProgram(compiled.meta, compiled.catalog, options));
  compiled.program = std::move(mtv.program);
  compiled.engine = std::make_shared<const vadalog::Engine>(compiled.program);
  compiled.helper_predicates = std::move(mtv.helper_predicates);
  compiled.rule_origin = std::move(mtv.rule_origin);
  return compiled;
}

PreparedCache::PreparedCache(size_t capacity) : cache_(capacity) {}

std::string PreparedCache::CanonicalKey(std::string_view source,
                                        const GraphCatalog& catalog,
                                        QueryLanguage language) {
  // '\x1f' (unit separator) cannot appear in label/property identifiers or
  // meaningfully in program text, so the concatenation is unambiguous.
  std::string key(1, language == QueryLanguage::kVadalog ? 'V' : 'M');
  key += '\x1f';
  key += source;
  for (const std::string& label : catalog.NodeLabels()) {
    key += '\x1f';
    key += 'N';
    key += label;
    for (const std::string& p : catalog.NodeProps(label)) {
      key += '\x1e';
      key += p;
    }
  }
  for (const std::string& label : catalog.EdgeLabels()) {
    key += '\x1f';
    key += 'E';
    key += label;
    for (const std::string& p : catalog.EdgeProps(label)) {
      key += '\x1e';
      key += p;
    }
  }
  return key;
}

Result<std::shared_ptr<const CompiledMeta>> PreparedCache::Compile(
    std::string_view source, const GraphCatalog& catalog,
    QueryLanguage language) {
  Key key;
  key.material = CanonicalKey(source, catalog, language);
  key.hash = std::hash<std::string>{}(key.material);
  if (std::shared_ptr<const CompiledMeta> hit = cache_.Get(key)) return hit;

  // Compile outside the cache lock: concurrent misses may duplicate work
  // but never serialize all callers behind one compilation.  The first
  // result stored wins, so racing callers share one entry.
  CompiledMeta compiled;
  if (language == QueryLanguage::kVadalog) {
    KGM_ASSIGN_OR_RETURN(compiled.program, vadalog::ParseProgram(source));
    compiled.engine = std::make_shared<const vadalog::Engine>(compiled.program);
    compiled.language = language;
    compiled.catalog = catalog;
  } else {
    KGM_ASSIGN_OR_RETURN(MetaProgram meta, ParseMetaProgram(source));
    KGM_ASSIGN_OR_RETURN(compiled, CompileMeta(std::move(meta), catalog));
  }
  if (lint_hook_) compiled.lint = lint_hook_(compiled, catalog);

  return cache_.PutIfAbsent(
      std::move(key), std::make_shared<const CompiledMeta>(std::move(compiled)));
}

}  // namespace kgm::metalog
