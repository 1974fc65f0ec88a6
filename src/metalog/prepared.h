// Prepared-program cache: parse a query program once — a MetaLog program
// also compiled through MTV — then reuse the result for every execution
// against a compatible catalog.
//
// Compilation output depends only on (language, source text, catalog
// contents), so entries are keyed by that full key material — a program
// prepared for one epoch of a served knowledge graph stays valid across
// publications as long as the label catalog is unchanged, while a schema
// change naturally misses and recompiles.  The cache is one bounded
// LruCache and thread-safe; concurrent misses for the same key may compile
// twice, but every caller gets the first result stored.

#ifndef KGM_METALOG_PREPARED_H_
#define KGM_METALOG_PREPARED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/lru_cache.h"
#include "base/status.h"
#include "lint/diagnostic.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "vadalog/ast.h"
#include "vadalog/engine.h"

namespace kgm::metalog {

enum class QueryLanguage {
  kMetaLog,  // compiled via MTV against the catalog
  kVadalog,  // parsed directly; runs over the relational encoding
};

// One prepared program, immutable once cached.  A MetaLog entry is one
// parse+MTV compilation.  A Vadalog entry holds only `program` (the parsed
// source), `engine`, `catalog` (the base catalog, unchanged) and `lint`;
// its `meta`, `helper_predicates` and `rule_origin` stay empty.
struct CompiledMeta {
  QueryLanguage language = QueryLanguage::kMetaLog;
  MetaProgram meta;        // the parsed source
  GraphCatalog catalog;    // base catalog after AbsorbProgram
  vadalog::Program program;
  // `program` compiled once, for every run of the entry (Engine::Run is
  // const and safe to call concurrently).  A program the engine rejects
  // is still cached, for its lint; running it returns its status().
  std::shared_ptr<const vadalog::Engine> engine;
  std::vector<std::string> helper_predicates;
  // MTV provenance: originating MetaLog rule per compiled rule.
  std::vector<int> rule_origin;
  // Diagnostics produced by the lint hook (empty without a hook).  Cached
  // with the entry, so admission checks on cache hits are free.
  lint::LintResult lint;
};

// The compile step every MetaLog run goes through (RunMetaLog and
// PreparedCache::Compile): copies `catalog` — which must NOT yet have the
// program absorbed — absorbs `meta`'s labels into the copy, and
// translates through MTV, and compiles the result into
// CompiledMeta::engine.  Leaves CompiledMeta::lint empty.  `options` is for
// callers that compile outside the cache (the non-reflexive star ablation);
// the cache and the runner always use the defaults.
Result<CompiledMeta> CompileMeta(MetaProgram meta, const GraphCatalog& catalog,
                                 const MtvOptions& options = {});

class PreparedCache {
 public:
  explicit PreparedCache(size_t capacity = 128);

  // Runs after every successful compilation, outside the cache lock; the
  // result is stored in CompiledMeta::lint.  `base` is the catalog handed
  // to Compile (before AbsorbProgram); CompiledMeta::language says which
  // lint applies.  Set once before concurrent use — typically by the
  // owning service at construction.
  using LintHook =
      std::function<lint::LintResult(const CompiledMeta&, const GraphCatalog& base)>;
  void set_lint_hook(LintHook hook) { lint_hook_ = std::move(hook); }

  // Returns the prepared form of `source` against `catalog` (which must
  // NOT yet have the program absorbed — Compile copies it and absorbs a
  // MetaLog program into the copy), compiling on a miss.  Parse and
  // translation failures are returned as-is and are not cached.
  Result<std::shared_ptr<const CompiledMeta>> Compile(
      std::string_view source, const GraphCatalog& catalog,
      QueryLanguage language = QueryLanguage::kMetaLog);

  using Counters = LruCounters;
  Counters counters() const { return cache_.counters(); }
  size_t size() const { return cache_.size(); }
  void Clear() { cache_.Clear(); }

  // The full key material of an entry: a canonical string of the language,
  // the source text and the catalog's labels with their property lists.
  // Entries store it and verify it on every hit, so a 64-bit hash
  // collision between two distinct key materials is counted in
  // `key_collisions` and served as a miss — never as the wrong compiled
  // program.
  static std::string CanonicalKey(
      std::string_view source, const GraphCatalog& catalog,
      QueryLanguage language = QueryLanguage::kMetaLog);

 private:
  struct Key {
    std::string material;  // CanonicalKey(...)
    uint64_t hash = 0;     // std::hash of material

    uint64_t Hash() const { return hash; }
    bool operator==(const Key& other) const {
      return material == other.material;
    }
  };

  LruCache<Key, CompiledMeta> cache_;
  LintHook lint_hook_;  // immutable after setup; called without a lock held
};

}  // namespace kgm::metalog

#endif  // KGM_METALOG_PREPARED_H_
