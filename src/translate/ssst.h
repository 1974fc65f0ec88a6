// SSST — the Super-Schema to Schema Translator (Algorithm 1).
//
// Given a super-schema S and a target model M, SSST selects candidate
// mappings from the repository, applies the chosen implementation strategy,
// compiles the MetaLog mapping to Vadalog through MTV, and produces the
// schema S' of M (plus, for relational targets, enforceable DDL).
//
// The PG translation runs the published MetaLog Eliminate/Copy programs on
// the dictionary graph (the paper's mechanism); native.h holds the
// equivalent procedural translator.  The two must agree — tests and the
// E10 ablation bench rely on it.  The relational and CSV translators,
// TranslateToRelational (Figure 8) and TranslateToCsv, are native only and
// declared in native.h together with the layouts they translate to; the
// declarative relational mapping is listed as an extension in DESIGN.md.

#ifndef KGM_TRANSLATE_SSST_H_
#define KGM_TRANSLATE_SSST_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "core/models.h"
#include "core/superschema.h"
#include "rel/relational.h"
#include "translate/native.h"
#include "translate/pg_mapping.h"

namespace kgm::translate {

// Super-schema -> PG model schema (Figure 6), through the declarative
// type-accumulation mapping.
Result<core::PgSchema> TranslateToPropertyGraph(
    const core::SuperSchema& schema);

}  // namespace kgm::translate

#endif  // KGM_TRANSLATE_SSST_H_
