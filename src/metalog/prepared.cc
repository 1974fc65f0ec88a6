#include "metalog/prepared.h"

#include <utility>

#include "base/value.h"
#include "metalog/parser.h"

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
  compiled.helper_predicates = std::move(mtv.helper_predicates);
  compiled.rule_origin = std::move(mtv.rule_origin);
  return compiled;
}

PreparedCache::PreparedCache(size_t capacity) : capacity_(capacity) {}

uint64_t PreparedCache::KeyOf(std::string_view source,
                              const GraphCatalog& catalog,
                              const MtvOptions& options) {
  uint64_t key = std::hash<std::string_view>{}(source);
  key = HashCombine(key, catalog.Fingerprint());
  key = HashCombine(key, options.reflexive_star ? 0x7265666cULL : 0ULL);
  key = HashCombine(key, static_cast<uint64_t>(options.max_stars_per_rule));
  return key;
}

std::string PreparedCache::CanonicalKey(std::string_view source,
                                        const GraphCatalog& catalog,
                                        const MtvOptions& options) {
  // '\x1f' (unit separator) cannot appear in label/property identifiers or
  // meaningfully in program text, so the concatenation is unambiguous.
  std::string key(source);
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
  key += '\x1f';
  key += options.reflexive_star ? '1' : '0';
  key += '\x1f';
  key += std::to_string(options.max_stars_per_rule);
  return key;
}

Result<std::shared_ptr<const CompiledMeta>> PreparedCache::Compile(
    std::string_view source, const GraphCatalog& catalog,
    const MtvOptions& options) {
  const uint64_t key = KeyOf(source, catalog, options);
  std::string full_key = CanonicalKey(source, catalog, options);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      if (it->second->full_key == full_key) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++counters_.hits;
        return it->second->value;
      }
      // Hash collision between distinct key material: a miss, never the
      // other key's program.
      ++counters_.key_collisions;
    }
    ++counters_.misses;
  }

  // Compile outside the lock: concurrent misses may duplicate work but
  // never serialize all callers behind one compilation.
  KGM_ASSIGN_OR_RETURN(MetaProgram meta, ParseMetaProgram(source));
  KGM_ASSIGN_OR_RETURN(CompiledMeta compiled,
                       CompileMeta(std::move(meta), catalog, options));
  if (lint_hook_) compiled.lint = lint_hook_(compiled, catalog);

  auto result = std::make_shared<const CompiledMeta>(std::move(compiled));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    if (it->second->full_key == full_key) {
      // Another thread compiled the same key first; keep its copy.
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->value;
    }
    // Colliding entry for different key material: the newcomer displaces
    // it (the cache holds at most one entry per hash value).
    it->second->full_key = std::move(full_key);
    it->second->value = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return result;
  }
  lru_.push_front(Entry{key, std::move(full_key), result});
  by_key_[key] = lru_.begin();
  while (capacity_ > 0 && lru_.size() > capacity_) {
    by_key_.erase(lru_.back().hash);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return result;
}

PreparedCache::Counters PreparedCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

size_t PreparedCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PreparedCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_key_.clear();
}

}  // namespace kgm::metalog
