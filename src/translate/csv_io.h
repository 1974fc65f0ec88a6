// CSV serialization of instances (the plain-file model of Section 2.2).
//
// ExportCsv writes a property-graph instance as the files TranslateToCsv
// describes (native.h): one per node type, holding the nodes whose primary
// type it is (core::NodeTypeIndex), and one per edge type.  ImportCsv
// reads such files back into a property graph whose nodes carry the
// type-accumulated labels of the Figure 6 schema.  CSV files are
// untrusted input: every defect comes back as a Status.

#ifndef KGM_TRANSLATE_CSV_IO_H_
#define KGM_TRANSLATE_CSV_IO_H_

#include <map>
#include <string>

#include "base/status.h"
#include "core/superschema.h"
#include "pg/property_graph.h"

namespace kgm::translate {

// RFC-4180-style quoting: fields containing ',', '"' or newlines are
// quoted, with '"' doubled.
std::string CsvEscape(const std::string& field);

// Splits one CSV line honoring quotes.
Result<std::vector<std::string>> CsvSplitLine(const std::string& line);

// Splits a CSV document into records, honoring quotes: a newline inside a
// quoted field belongs to the field, not the record separator.  CRLF line
// endings are accepted; trailing empty records are dropped.
Result<std::vector<std::string>> CsvSplitRecords(const std::string& doc);

// file name -> document (header line + one line per node/edge).
Result<std::map<std::string, std::string>> ExportCsv(
    const core::SuperSchema& schema, const pg::PropertyGraph& data);

// Inverse of ExportCsv.  A file's header must start with the file's key
// columns; the columns after them are matched to the layout's attributes
// by name (unknown ones are skipped) and parsed per the attribute types,
// empty fields becoming absent properties.  A malformed, duplicate or
// dangling key, a field count unlike the header's, or a value that does
// not parse is an error.
Result<pg::PropertyGraph> ImportCsv(
    const core::SuperSchema& schema,
    const std::map<std::string, std::string>& files);

}  // namespace kgm::translate

#endif  // KGM_TRANSLATE_CSV_IO_H_
