// Prepared-program cache: parse a MetaLog program and compile it through
// MTV once, then reuse the compiled Vadalog program for every execution
// against a compatible catalog.
//
// Compilation output depends only on (source text, catalog contents, MTV
// options), so entries are keyed by the source hash combined with the
// catalog fingerprint — a program prepared for one epoch of a served
// knowledge graph stays valid across publications as long as the label
// catalog is unchanged, while a schema change naturally misses and
// recompiles.  The cache is bounded (LRU) and thread-safe; concurrent
// misses for the same key may compile twice, but only one result is
// retained.

#ifndef KGM_METALOG_PREPARED_H_
#define KGM_METALOG_PREPARED_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "lint/diagnostic.h"
#include "metalog/ast.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "vadalog/ast.h"

namespace kgm::metalog {

// One parse+MTV compilation, immutable once cached.
struct CompiledMeta {
  MetaProgram meta;        // the parsed source
  GraphCatalog catalog;    // base catalog after AbsorbProgram
  vadalog::Program program;
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
// translates through MTV.  Leaves CompiledMeta::lint empty.
Result<CompiledMeta> CompileMeta(MetaProgram meta, const GraphCatalog& catalog,
                                 const MtvOptions& options = {});

class PreparedCache {
 public:
  explicit PreparedCache(size_t capacity = 128);

  // Runs after every successful compilation, outside the cache lock; the
  // result is stored in CompiledMeta::lint.  `base` is the catalog handed
  // to Compile (before AbsorbProgram).  Set once before concurrent use —
  // typically by the owning service at construction.
  using LintHook =
      std::function<lint::LintResult(const CompiledMeta&, const GraphCatalog& base)>;
  void set_lint_hook(LintHook hook) { lint_hook_ = std::move(hook); }

  // Returns the compiled form of `source` against `catalog` (which must
  // NOT yet have the program absorbed — Compile copies and absorbs it),
  // compiling on a miss.  Parse/translation failures are returned as-is
  // and are not cached.
  Result<std::shared_ptr<const CompiledMeta>> Compile(
      std::string_view source, const GraphCatalog& catalog,
      const MtvOptions& options = {});

  struct Counters {
    size_t hits = 0;
    size_t misses = 0;          // includes collision misses
    size_t key_collisions = 0;  // hash matched, full key material did not
    size_t evictions = 0;       // capacity evictions only
  };
  Counters counters() const;
  size_t size() const;
  void Clear();

  // Stable key for (source, catalog, options); exposed so callers (e.g.
  // the serving layer's result cache) can key on the same identity.
  static uint64_t KeyOf(std::string_view source, const GraphCatalog& catalog,
                        const MtvOptions& options);

  // The full key material behind KeyOf: a canonical string of the source
  // text, the catalog's labels with their property lists, and the options.
  // Entries store it and verify it on every hit, so a 64-bit hash
  // collision between two distinct (source, catalog, options) triples is
  // counted in `key_collisions` and served as a miss — never as the wrong
  // compiled program.
  static std::string CanonicalKey(std::string_view source,
                                  const GraphCatalog& catalog,
                                  const MtvOptions& options);

 private:
  struct Entry {
    uint64_t hash = 0;
    std::string full_key;  // CanonicalKey(...); verified on hit
    std::shared_ptr<const CompiledMeta> value;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> by_key_;
  Counters counters_;
  LintHook lint_hook_;  // immutable after setup; called without mu_ held
};

}  // namespace kgm::metalog

#endif  // KGM_METALOG_PREPARED_H_
