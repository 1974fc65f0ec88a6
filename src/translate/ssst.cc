#include "translate/ssst.h"

namespace kgm::translate {

Result<core::PgSchema> TranslateToPropertyGraph(
    const core::SuperSchema& schema) {
  return TranslateToPgDeclarative(schema);
}

}  // namespace kgm::translate
