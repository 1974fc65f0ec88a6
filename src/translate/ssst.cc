#include "translate/ssst.h"

namespace kgm::translate {

Result<core::PgSchema> TranslateToPropertyGraph(
    const core::SuperSchema& schema) {
  return TranslateToPgDeclarative(schema);
}

Result<std::vector<rel::TableSchema>> TranslateToRelational(
    const core::SuperSchema& schema) {
  return TranslateToRelationalNative(schema);
}

std::vector<CsvFileSchema> TranslateToCsv(const core::SuperSchema& schema) {
  return TranslateToCsvNative(schema);
}

}  // namespace kgm::translate
