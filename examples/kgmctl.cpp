// kgmctl — a command-line workflow around the Company KG.
//
//   kgmctl stats [companies persons seed]
//       Generate a synthetic shareholding network and print the
//       Section 2.1 statistics table.
//   kgmctl schema <gsl|dot|ddl|cypher|rdfs|csv|pg>
//       Render the Figure 4 super-schema in the requested target form.
//   kgmctl export <dir> [companies persons seed]
//       Generate an instance and write it as CSV files into <dir>.
//   kgmctl materialize <dir> <owns|control|stakeholders|family|closelinks|all>
//       Import the CSV instance from <dir>, validate it, materialize the
//       requested intensional component(s) through Algorithm 2, and write
//       the enriched instance back.
//   kgmctl serve [--port N]
//       Run a KgService over a line-oriented protocol (stdin, or a TCP
//       socket with --port; one thread per connection).  Commands:
//         publish [companies persons seed]   generate + publish an epoch
//         apply-delta [batch] [seed]         stream a shareholding-update
//                                            batch into a delta epoch
//         query <output> <m|v> <program>     MetaLog (m) or Vadalog (v)
//         pquery <output> <m|v> <bound> <program>
//                                            point query: <bound> is a CSV
//                                            binding (`_` = free position)
//                                            routed through magic sets
//         stats | epoch | quit
//   kgmctl lint [--json] [--fix] [--vadalog|--metalog] [--schema company|none] <file>...
//       Run the static-analysis pipeline over MetaLog/Vadalog programs and
//       print source-located diagnostics.  Exit code is the worst severity:
//       0 clean/notes, 1 warnings, 2 errors.  A .kgmlint file discovered
//       upward from each program's directory overrides per-pass severities
//       (`pass = error|warning|note|off`).  --fix applies machine-attached
//       fixes (singleton '_' prefixes, nearest-catalog-label renames) in
//       place and re-lints the rewritten file.
//   kgmctl analyze [--json] [--vadalog|--metalog] [--schema company|none] <file>...
//       Print the typeflow abstract interpretation's inferred signatures —
//       per predicate position a value-kind set narrowed by intervals and
//       constants — plus any typeflow findings.
//   kgmctl explain [--json] [--threads N] <program>...
//       Evaluate each program once against a demo Company-KG instance and
//       print two fingerprints of the materialized output — `fingerprint`
//       over it in row order, `content_fingerprint` over its sorted lines,
//       so a change that only reorders rows moves the first alone — plus
//       the join probes and firings of every rule.  Programs run in the
//       given order against one shared instance, so prerequisites compose
//       (e.g. `explain owns.mlog closelinks.mlog`).  The output is the same
//       at every thread count, so fingerprints taken at different
//       --threads must match.
//   kgmctl query [--json] [--threads N] [--output PRED] --bound a1,a2,... <program>
//       Answer a point query against the same demo instance `explain`
//       uses: the binding (CSV of constants, `_` = free position) routes
//       the evaluation through the magic-sets point-query dispatcher.
//       Prints the chosen route, the rewrite summary (adorned and magic
//       predicates, full-evaluation predicates) and the probe cost next
//       to the materialize-then-filter baseline.
//
// Run: build/examples/kgmctl <command> ...

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analytics/graph_stats.h"
#include "core/gsl.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "instance/pipeline.h"
#include "lint/config.h"
#include "lint/fix.h"
#include "lint/lint.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "metalog/prepared.h"
#include "rel/relational.h"
#include "service/service.h"
#include "service/wire.h"
#include "translate/csv_io.h"
#include "translate/enforce.h"
#include "translate/ssst.h"
#include "translate/validate.h"
#include "vadalog/magic/point_query.h"
#include "vadalog/parser.h"
#include "vadalog/typeflow.h"

namespace {

using namespace kgm;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  kgmctl stats [companies persons seed]\n"
               "  kgmctl schema <gsl|dot|ddl|cypher|rdfs|csv|pg>\n"
               "  kgmctl export <dir> [companies persons seed]\n"
               "  kgmctl materialize <dir> "
               "<owns|control|stakeholders|family|closelinks|all>\n"
               "  kgmctl serve [--port N]\n"
               "  kgmctl lint [--json] [--fix] [--vadalog|--metalog] "
               "[--schema company|none] <file>...\n"
               "  kgmctl analyze [--json] [--vadalog|--metalog] "
               "[--schema company|none] <file>...\n"
               "  kgmctl explain [--json] [--threads N] <program>...\n"
               "  kgmctl query [--json] [--threads N] [--output PRED] "
               "--bound a1,a2,... <program>\n");
  return 2;
}

finkg::GeneratorConfig ConfigFromArgs(int argc, char** argv, int base) {
  finkg::GeneratorConfig config;
  config.num_companies = 300;
  config.num_persons = 500;
  if (argc > base) config.num_companies = std::strtoul(argv[base], nullptr, 10);
  if (argc > base + 1) {
    config.num_persons = std::strtoul(argv[base + 1], nullptr, 10);
  }
  if (argc > base + 2) config.seed = std::strtoul(argv[base + 2], nullptr, 10);
  return config;
}

int CmdStats(int argc, char** argv) {
  finkg::GeneratorConfig config = ConfigFromArgs(argc, argv, 2);
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  analytics::GraphStatsReport report =
      analytics::ComputeGraphStats(net.ToDigraph());
  std::printf("%s", analytics::RenderStatsTable(report).c_str());
  return 0;
}

int CmdSchema(const std::string& format) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  if (format == "gsl") {
    std::printf("%s", core::RenderGslAscii(schema).c_str());
  } else if (format == "dot") {
    std::printf("%s", core::RenderGslDot(schema).c_str());
  } else if (format == "ddl") {
    auto tables = translate::TranslateToRelational(schema);
    if (!tables.ok()) return 1;
    std::printf("%s", rel::RenderSqlDdl(*tables).c_str());
  } else if (format == "cypher") {
    auto pg_schema = translate::TranslateToPropertyGraph(schema);
    if (!pg_schema.ok()) return 1;
    std::printf("%s", translate::RenderCypherConstraints(*pg_schema).c_str());
  } else if (format == "rdfs") {
    std::printf("%s", translate::RenderRdfs(schema).c_str());
  } else if (format == "csv") {
    std::printf("%s", translate::RenderCsvHeaders(
                          translate::TranslateToCsv(schema)).c_str());
  } else if (format == "pg") {
    auto pg_schema = translate::TranslateToPropertyGraph(schema);
    if (!pg_schema.ok()) {
      std::fprintf(stderr, "%s\n",
                   pg_schema.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", pg_schema->ToString().c_str());
  } else {
    return Usage();
  }
  return 0;
}

Status WriteCsvDir(const core::SuperSchema& schema,
                   const pg::PropertyGraph& data, const std::string& dir) {
  KGM_ASSIGN_OR_RETURN(auto files, translate::ExportCsv(schema, data));
  for (const auto& [name, content] : files) {
    std::ofstream out(dir + "/" + name);
    if (!out) return Internal("cannot write " + dir + "/" + name);
    out << content;
  }
  return OkStatus();
}

Result<pg::PropertyGraph> ReadCsvDir(const core::SuperSchema& schema,
                                     const std::string& dir) {
  std::map<std::string, std::string> files;
  auto slurp = [&dir, &files](const std::string& name) {
    std::ifstream in(dir + "/" + name);
    if (!in) return;  // file absent: that type has no instances
    std::ostringstream content;
    content << in.rdbuf();
    files[name] = content.str();
  };
  for (const auto& file : translate::TranslateToCsv(schema)) {
    slurp(file.file_name);
  }
  if (files.empty()) {
    return NotFound("no CSV files found in " + dir);
  }
  return translate::ImportCsv(schema, files);
}

int CmdExport(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string dir = argv[2];
  finkg::GeneratorConfig config = ConfigFromArgs(argc, argv, 3);
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  core::SuperSchema schema = finkg::CompanyKgSchema();
  Status s = WriteCsvDir(schema, net.ToInstanceGraph(), dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu entities / %zu holdings as CSV into %s\n",
              net.num_entities(), net.holdings().size(), dir.c_str());
  return 0;
}

int CmdMaterialize(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string dir = argv[2];
  std::string component = argv[3];
  core::SuperSchema schema = finkg::CompanyKgSchema();

  auto data = ReadCsvDir(schema, dir);
  if (!data.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }
  std::printf("imported %zu nodes / %zu edges from %s\n",
              data->num_nodes(), data->num_edges(), dir.c_str());

  // Validate before reasoning (Section 2.2 enforcement).
  auto pg_schema = translate::TranslateToPropertyGraph(schema);
  if (!pg_schema.ok()) return 1;
  translate::ValidationReport report =
      translate::ValidateInstance(schema, *pg_schema, *data);
  std::printf("%s", report.ToString().c_str());
  if (!report.ok()) {
    std::fprintf(stderr, "instance does not conform; aborting\n");
    return 1;
  }

  struct Step {
    const char* key;
    const char* program;
  };
  const Step steps[] = {
      {"owns", finkg::kOwnsProgram},
      {"control", finkg::kControlProgram},
      {"stakeholders", finkg::kStakeholdersProgram},
      {"family", finkg::kFamilyProgram},
      {"closelinks", finkg::kCloseLinksProgram},
  };
  // One prepared cache across components: repeated materializations of the
  // same component (and the shared view structure) compile once.
  metalog::PreparedCache prepared(64);
  instance::MaterializeOptions mat_options;
  mat_options.prepared = &prepared;

  bool ran = false;
  for (const Step& step : steps) {
    if (component != "all" && component != step.key) continue;
    ran = true;
    auto stats = instance::Materialize(schema, step.program, &*data,
                                       mat_options);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", step.key,
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%-14s load %.3fs reason %.3fs flush %.3fs  (+%zu edges, +%zu "
        "nodes, %zu updates)\n",
        step.key, stats->load_seconds, stats->reason_seconds,
        stats->flush_seconds, stats->new_edges, stats->new_nodes,
        stats->updated_properties);
  }
  if (!ran) return Usage();

  Status s = WriteCsvDir(schema, *data, dir);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("enriched instance written back to %s\n", dir.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// serve: a KgService behind a line-oriented protocol.

// Handles one protocol line; returns false on `quit`.  Thread-safe: the
// service does its own synchronization, and each connection has its own
// output string.
bool HandleServeLine(service::KgService& svc, const std::string& line,
                     std::string* out) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) {
    return true;
  } else if (cmd == "quit") {
    *out = "bye\n";
    return false;
  } else if (cmd == "epoch") {
    *out = "epoch " + std::to_string(svc.CurrentEpoch()) + "\n";
  } else if (cmd == "stats") {
    *out = svc.Stats().ToJson() + "\n";
  } else if (cmd == "publish") {
    finkg::GeneratorConfig config;
    config.num_companies = 300;
    config.num_persons = 500;
    if (in >> config.num_companies) {
      in >> config.num_persons;
      size_t seed;
      if (in >> seed) config.seed = seed;
    }
    finkg::ShareholdingNetwork net =
        finkg::ShareholdingNetwork::Generate(config);
    uint64_t epoch = svc.Publish(net.ToInstanceGraph());
    *out = "published epoch " + std::to_string(epoch) + "\n";
  } else if (cmd == "apply-delta") {
    // Streams one synthetic shareholding-update batch against the served
    // encoding: deletes live HOLDS rows, inserts fresh ones, publishes a
    // delta epoch that shares every untouched relation with the previous
    // snapshot.
    finkg::UpdateFeedConfig config;
    config.edge_pred = "HOLDS";
    config.seed = svc.CurrentEpoch() + 1;
    in >> config.batch_size;
    in >> config.seed;
    std::shared_ptr<const service::Snapshot> snap = svc.CurrentSnapshot();
    if (snap == nullptr) {
      *out = "error no graph published yet\n";
      return true;
    }
    auto rel = snap->facts.find(config.edge_pred);
    finkg::UpdateFeed feed(
        rel == snap->facts.end() ? nullptr : rel->second.get(), config);
    vadalog::EdbDelta delta = feed.NextBatch();
    size_t dels = 0, inss = 0;
    for (const auto& [pred, ts] : delta.deletes) dels += ts.size();
    for (const auto& [pred, ts] : delta.inserts) inss += ts.size();
    auto epoch = svc.ApplyDelta(delta);
    if (!epoch.ok()) {
      *out = "error " + epoch.status().ToString() + "\n";
      return true;
    }
    *out = "delta epoch " + std::to_string(*epoch) + " (-" +
           std::to_string(dels) + " +" + std::to_string(inss) + " " +
           config.edge_pred + ")\n";
  } else if (cmd == "query") {
    std::string output, lang;
    in >> output >> lang;
    std::string program;
    std::getline(in, program);
    if (output.empty() || (lang != "m" && lang != "v") || program.empty()) {
      *out = "error usage: query <output> <m|v> <program>\n";
      return true;
    }
    service::QueryRequest request;
    request.program = program;
    request.language = lang == "m" ? service::QueryLanguage::kMetaLog
                                   : service::QueryLanguage::kVadalog;
    request.output = output;
    auto result = svc.Query(request);
    if (!result.ok()) {
      *out = "error " + result.status().ToString() + "\n";
      return true;
    }
    std::ostringstream reply;
    reply << "ok epoch=" << result->epoch << " rows=" << result->rows->size()
          << " cache=" << (result->result_cache_hit ? "hit" : "miss")
          << " eval=" << result->eval_seconds << "\n";
    constexpr size_t kMaxRows = 20;
    for (size_t i = 0; i < result->rows->size() && i < kMaxRows; ++i) {
      const vadalog::Tuple& t = (*result->rows)[i];
      for (size_t j = 0; j < t.size(); ++j) {
        reply << (j == 0 ? "" : "\t") << t[j].ToString();
      }
      reply << "\n";
    }
    if (result->rows->size() > kMaxRows) {
      reply << "... (" << result->rows->size() - kMaxRows << " more)\n";
    }
    *out = reply.str();
  } else if (cmd == "pquery") {
    // Point query: like `query`, but with an argument binding routed
    // through the magic-sets dispatcher.  The binding is a CSV of
    // constants with `_` for free positions (no spaces inside values over
    // this whitespace-split protocol; use `kgmctl query` for those).
    std::string output, lang, bound;
    in >> output >> lang >> bound;
    std::string program;
    std::getline(in, program);
    if (output.empty() || (lang != "m" && lang != "v") || bound.empty() ||
        program.empty()) {
      *out = "error usage: pquery <output> <m|v> <bound-csv> <program>\n";
      return true;
    }
    auto args = vadalog::magic::ParseBoundArgs(bound);
    if (!args.ok()) {
      *out = "error " + args.status().ToString() + "\n";
      return true;
    }
    service::QueryRequest request;
    request.program = program;
    request.language = lang == "m" ? service::QueryLanguage::kMetaLog
                                   : service::QueryLanguage::kVadalog;
    request.output = output;
    request.bound_args = std::move(*args);
    auto result = svc.Query(request);
    if (!result.ok()) {
      *out = "error " + result.status().ToString() + "\n";
      return true;
    }
    std::ostringstream reply;
    reply << "ok epoch=" << result->epoch << " rows=" << result->rows->size()
          << " mode=" << vadalog::magic::PointQueryModeName(result->point_mode)
          << (result->point_fallback.empty()
                  ? ""
                  : " fallback=" + result->point_fallback)
          << " probes=" << result->join_probes
          << " cache=" << (result->result_cache_hit ? "hit" : "miss")
          << " eval=" << result->eval_seconds << "\n";
    constexpr size_t kMaxRows = 20;
    for (size_t i = 0; i < result->rows->size() && i < kMaxRows; ++i) {
      const vadalog::Tuple& t = (*result->rows)[i];
      for (size_t j = 0; j < t.size(); ++j) {
        reply << (j == 0 ? "" : "\t") << t[j].ToString();
      }
      reply << "\n";
    }
    if (result->rows->size() > kMaxRows) {
      reply << "... (" << result->rows->size() - kMaxRows << " more)\n";
    }
    *out = reply.str();
  } else {
    *out = "error unknown command: " + cmd + "\n";
  }
  return true;
}

void ServeConnection(service::KgService& svc, int fd) {
  // Raw IO through the wire helpers: reads retry on EINTR instead of
  // treating an interrupted call as connection close, and replies are
  // written to completion across short writes.
  auto do_read = [fd](void* buf, size_t len) { return read(fd, buf, len); };
  auto do_write = [fd](const void* buf, size_t len) {
    return write(fd, buf, len);
  };
  std::string buffer;
  char chunk[4096];
  for (;;) {
    ssize_t n = service::ReadSomeWith(do_read, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      std::string out;
      bool keep_going = HandleServeLine(svc, line, &out);
      if (!out.empty() &&
          !service::WriteAllWith(do_write, out.data(), out.size())) {
        keep_going = false;
      }
      if (!keep_going) {
        close(fd);
        return;
      }
    }
  }
  close(fd);
}

int CmdServe(int argc, char** argv) {
  int port = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      if (!service::ParsePort(text, &port)) {
        std::fprintf(stderr, "kgmctl serve: invalid --port '%s' (want 1-65535)\n",
                     text);
        return 2;
      }
    }
  }

  service::KgService svc;
  if (port == 0) {
    std::string line;
    while (std::getline(std::cin, line)) {
      std::string out;
      bool keep_going = HandleServeLine(svc, line, &out);
      std::fputs(out.c_str(), stdout);
      std::fflush(stdout);
      if (!keep_going) break;
    }
    return 0;
  }

  int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listener, 16) < 0) {
    std::perror("bind/listen");
    close(listener);
    return 1;
  }
  std::fprintf(stderr, "kgmctl serving on 127.0.0.1:%d\n", port);
  for (;;) {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    std::thread(&ServeConnection, std::ref(svc), fd).detach();
  }
  close(listener);
  return 0;
}

// kgmctl lint [--json] [--vadalog|--metalog] [--schema company|none] <file>...
//
// Lints each program and prints its diagnostics (text by default, one JSON
// object per file with --json).  Language is picked per file from the
// extension (.vlog/.vdl → Vadalog, anything else → MetaLog) unless forced
// by a flag.  --schema company checks label/property names against the
// Company KG super-schema catalog.  Exit code is the worst severity seen:
// 0 clean (or notes only), 1 warnings, 2 errors.
int CmdLint(int argc, char** argv) {
  bool json = false;
  bool fix = false;
  int forced_language = 0;  // 0 = by extension, 1 = vadalog, 2 = metalog
  std::string schema = "none";
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--vadalog") {
      forced_language = 1;
    } else if (arg == "--metalog") {
      forced_language = 2;
    } else if (arg == "--schema") {
      if (i + 1 >= argc) return Usage();
      schema = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "kgmctl lint: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();
  if (schema != "none" && schema != "company") {
    std::fprintf(stderr, "kgmctl lint: unknown schema %s\n", schema.c_str());
    return Usage();
  }

  metalog::GraphCatalog company_catalog;
  const metalog::GraphCatalog* base_catalog = nullptr;
  if (schema == "company") {
    company_catalog = instance::SchemaCatalog(finkg::CompanyKgSchema());
    base_catalog = &company_catalog;
  }

  lint::Severity worst = lint::Severity::kNote;
  bool any = false;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "kgmctl lint: cannot read %s\n", path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    const bool vadalog =
        forced_language == 1 ||
        (forced_language == 0 &&
         (path.ends_with(".vlog") || path.ends_with(".vdl")));
    auto lint_source = [&](const std::string& text) {
      return vadalog ? lint::LintVadalogSource(text)
                     : lint::LintMetaLogSource(text, base_catalog);
    };
    // Per-pass severity overrides from the nearest .kgmlint up the tree.
    std::string config_error;
    lint::LintConfig config = lint::LoadLintConfigFor(path, &config_error);
    if (!config_error.empty()) {
      std::fprintf(stderr, "kgmctl lint: %s\n", config_error.c_str());
    }
    lint::LintResult result = lint_source(source);
    config.Apply(&result);
    if (fix) {
      size_t applied = 0;
      std::string fixed = lint::ApplyFixes(source, result, &applied);
      if (applied > 0) {
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
          std::fprintf(stderr, "kgmctl lint: cannot write %s\n",
                       path.c_str());
          return 2;
        }
        out << fixed;
        out.close();
        if (!json) {
          std::printf("%s: applied %zu fix(es)\n", path.c_str(), applied);
        }
        // Exit codes and output reflect the file as it now stands.
        result = lint_source(fixed);
        config.Apply(&result);
      }
    }
    std::cout << (json ? lint::RenderJson(result, path)
                       : lint::RenderText(result, path));
    if (!result.empty()) {
      any = true;
      worst = std::max(worst, result.max_severity());
    }
  }
  if (!any) return 0;
  if (worst == lint::Severity::kError) return 2;
  if (worst == lint::Severity::kWarning) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// analyze: run the typeflow abstract interpretation (vadalog/typeflow.h)
// and print the inferred per-position signature of every predicate —
// value-kind sets narrowed by intervals and constants, e.g.
// "stakeholder(string, string, double[0,1])".  MetaLog programs are
// compiled through MTV first, so the signatures describe the program the
// engine actually runs.  Exit 2 on parse/translate failure, 0 otherwise.

int CmdAnalyze(int argc, char** argv) {
  bool json = false;
  int forced_language = 0;
  std::string schema = "none";
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--vadalog") {
      forced_language = 1;
    } else if (arg == "--metalog") {
      forced_language = 2;
    } else if (arg == "--schema") {
      if (i + 1 >= argc) return Usage();
      schema = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "kgmctl analyze: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();
  if (schema != "none" && schema != "company") {
    std::fprintf(stderr, "kgmctl analyze: unknown schema %s\n",
                 schema.c_str());
    return Usage();
  }

  metalog::GraphCatalog company_catalog;
  bool have_catalog = false;
  if (schema == "company") {
    company_catalog = instance::SchemaCatalog(finkg::CompanyKgSchema());
    have_catalog = true;
  }

  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "kgmctl analyze: cannot read %s\n", path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    const bool vadalog =
        forced_language == 1 ||
        (forced_language == 0 &&
         (path.ends_with(".vlog") || path.ends_with(".vdl")));
    vadalog::Program program;
    std::vector<std::string> external_predicates;
    if (vadalog) {
      Result<vadalog::Program> parsed = vadalog::ParseProgram(source);
      if (!parsed.ok()) {
        std::fprintf(stderr, "kgmctl analyze: %s: %s\n", path.c_str(),
                     parsed.status().message().c_str());
        return 2;
      }
      program = std::move(*parsed);
    } else {
      Result<metalog::MetaProgram> meta = metalog::ParseMetaProgram(source);
      if (!meta.ok()) {
        std::fprintf(stderr, "kgmctl analyze: %s: %s\n", path.c_str(),
                     meta.status().message().c_str());
        return 2;
      }
      metalog::GraphCatalog catalog;
      if (have_catalog) catalog = company_catalog;
      Status absorbed = catalog.AbsorbProgram(*meta);
      if (!absorbed.ok()) {
        std::fprintf(stderr, "kgmctl analyze: %s: %s\n", path.c_str(),
                     absorbed.message().c_str());
        return 2;
      }
      Result<metalog::MtvResult> mtv =
          metalog::TranslateMetaProgram(*meta, catalog, {});
      if (!mtv.ok()) {
        std::fprintf(stderr, "kgmctl analyze: %s: %s\n", path.c_str(),
                     mtv.status().message().c_str());
        return 2;
      }
      program = std::move(mtv->program);
      // Catalog labels are EDB-fed at serving time even when the program
      // also derives into them — seed them top like @input predicates.
      for (const std::string& label : catalog.NodeLabels())
        external_predicates.push_back(label);
      for (const std::string& label : catalog.EdgeLabels())
        external_predicates.push_back(label);
    }

    vadalog::TypeflowResult flow =
        vadalog::AnalyzeTypeflow(program, external_predicates);
    std::set<std::string> output_preds(program.outputs.begin(),
                                       program.outputs.end());
    if (json) {
      std::string out = "{\"file\":\"" + lint::JsonEscape(path) +
                        "\",\"signatures\":{";
      bool first = true;
      for (const auto& [pred, positions] : flow.signatures) {
        if (!first) out += ",";
        first = false;
        out += "\"" + lint::JsonEscape(pred) + "\":[";
        for (size_t i = 0; i < positions.size(); ++i) {
          if (i > 0) out += ",";
          out += "\"" + lint::JsonEscape(positions[i].ToString()) + "\"";
        }
        out += "]";
      }
      out += "},\"findings\":[";
      for (size_t i = 0; i < flow.findings.size(); ++i) {
        const vadalog::TypeflowFinding& f = flow.findings[i];
        if (i > 0) out += ",";
        out += std::string("{\"kind\":\"") + TypeflowFindingKindName(f.kind) +
               "\",\"rule\":" + std::to_string(f.rule_index) +
               ",\"message\":\"" + lint::JsonEscape(f.message) + "\"}";
      }
      out += "]}";
      std::printf("%s\n", out.c_str());
    } else {
      std::printf("%s:\n", path.c_str());
      for (const auto& [pred, positions] : flow.signatures) {
        (void)positions;
        const char* marker = output_preds.count(pred) > 0 ? "  @output " : "  ";
        std::printf("%s%s\n", marker, flow.RenderSignature(pred).c_str());
      }
      for (const vadalog::TypeflowFinding& f : flow.findings) {
        std::printf("  finding [%s] %s\n", TypeflowFindingKindName(f.kind),
                    f.message.c_str());
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// explain: evaluate each program once against a demo Company-KG instance
// and print fingerprints of the materialized result next to the engine's
// per-rule probe and firing counters.

uint64_t Fnv1a(std::string_view text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Fnv1a over the lines of `text` in sorted order, each with its newline:
// the same for every order of the same lines.
uint64_t Fnv1aSortedLines(std::string_view text, uint64_t hash) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    size_t end = text.find('\n');
    lines.push_back(text.substr(0, end));
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
  }
  std::sort(lines.begin(), lines.end());
  for (std::string_view line : lines) hash = Fnv1a("\n", Fnv1a(line, hash));
  return hash;
}

std::string HashHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// One evaluation of a program: the engine counters plus two fingerprints
// of the materialized result (CSV export for MetaLog, FactDb dump for
// Vadalog).  Equal `fingerprint`s mean bit-identical output; equal
// `content_fingerprint`s mean the same lines in some order.
struct ExplainRun {
  vadalog::EngineStats stats;
  std::string fingerprint;
  std::string content_fingerprint;
};

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

Status ExplainMetaLog(const core::SuperSchema& schema,
                      const std::string& source, size_t threads,
                      pg::PropertyGraph* graph, ExplainRun* out) {
  instance::MaterializeOptions options;
  options.engine.num_threads = threads;
  KGM_ASSIGN_OR_RETURN(auto stats,
                       instance::Materialize(schema, source, graph, options));
  out->stats = stats.engine_stats;
  KGM_ASSIGN_OR_RETURN(auto files, translate::ExportCsv(schema, *graph));
  uint64_t hash = kFnvBasis;
  uint64_t content_hash = kFnvBasis;
  for (const auto& [name, content] : files) {
    hash = Fnv1a(content, Fnv1a(name, hash));
    content_hash = Fnv1aSortedLines(content, Fnv1a(name, content_hash));
  }
  out->fingerprint = HashHex(hash);
  out->content_fingerprint = HashHex(content_hash);
  return OkStatus();
}

Status ExplainVadalog(const std::string& source, size_t threads,
                      vadalog::FactDb db, ExplainRun* out) {
  KGM_ASSIGN_OR_RETURN(vadalog::Program program,
                       vadalog::ParseProgram(source));
  vadalog::EngineOptions options;
  options.num_threads = threads;
  vadalog::Engine engine(std::move(program), options);
  KGM_RETURN_IF_ERROR(engine.status());
  KGM_RETURN_IF_ERROR(engine.Run(&db));
  out->stats = engine.stats();
  out->fingerprint = HashHex(Fnv1a(db.DebugString(), kFnvBasis));
  // Content covers the derived relations only: the input encoding numbers
  // edges in insertion order, which an earlier MetaLog program may change
  // without changing what it derived.
  std::set<std::string> derived;
  for (const vadalog::Rule& rule : engine.program().rules) {
    for (const vadalog::Atom& head : rule.head) derived.insert(head.predicate);
  }
  std::string rows;
  for (const std::string& pred : derived) {
    for (const vadalog::Tuple& t : db.Get(pred)->tuples()) {
      rows += pred + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) rows += ",";
        rows += t[i].ToString();
      }
      rows += ")\n";
    }
  }
  out->content_fingerprint = HashHex(Fnv1aSortedLines(rows, kFnvBasis));
  return OkStatus();
}

void PrintExplainText(const std::string& path, const char* language,
                      size_t threads, const ExplainRun& run) {
  const vadalog::EngineStats& st = run.stats;
  std::printf("== %s  %s  threads=%zu ==\n", path.c_str(), language, threads);
  std::printf("fingerprint: fnv1a %s\n", run.fingerprint.c_str());
  std::printf("content_fingerprint: fnv1a %s\n",
              run.content_fingerprint.c_str());
  std::printf("probes=%zu firings=%zu facts_derived=%zu\n", st.join_probes,
              st.rule_firings, st.facts_derived);
  for (size_t r = 0; r < st.rule_probes_by_rule.size(); ++r) {
    std::printf("  rule %-3zu probes=%zu firings=%zu\n", r,
                st.rule_probes_by_rule[r], st.rule_firings_by_rule[r]);
  }
}

void AppendCounts(std::ostringstream& out, const std::vector<size_t>& counts) {
  out << "[";
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out << ",";
    out << counts[i];
  }
  out << "]";
}

void AppendExplainJson(std::ostringstream& out, const std::string& path,
                       const char* language, size_t threads,
                       const ExplainRun& run) {
  const vadalog::EngineStats& st = run.stats;
  out << "{\"file\":\"" << lint::JsonEscape(path) << "\"";
  out << ",\"language\":\"" << language << "\"";
  out << ",\"threads\":" << threads;
  out << ",\"fingerprint\":\"" << run.fingerprint << "\"";
  out << ",\"content_fingerprint\":\"" << run.content_fingerprint << "\"";
  out << ",\"join_probes\":" << st.join_probes;
  out << ",\"rule_firings\":" << st.rule_firings;
  out << ",\"facts_derived\":" << st.facts_derived;
  out << ",\"rule_probes_by_rule\":";
  AppendCounts(out, st.rule_probes_by_rule);
  out << ",\"rule_firings_by_rule\":";
  AppendCounts(out, st.rule_firings_by_rule);
  out << "}";
}

int CmdExplain(int argc, char** argv) {
  bool json = false;
  size_t threads = 2;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return Usage();
      threads = std::strtoul(argv[++i], nullptr, 10);
      if (threads == 0) threads = 1;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "kgmctl explain: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  // A small deterministic instance, big enough that every shipped program
  // derives something, small enough that each runs in well under a second.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = 100;
  config.num_persons = 150;
  config.seed = 2022;
  // MetaLog programs enrich the graph, so later programs see their
  // prerequisites.
  pg::PropertyGraph graph =
      finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();

  std::ostringstream json_out;
  json_out << "[";
  bool first = true;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "kgmctl explain: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();
    const bool vlog = path.ends_with(".vlog") || path.ends_with(".vdl");

    ExplainRun run;
    // Vadalog programs run read-only over the relational encoding of the
    // current instance; they do not advance the shared graph.
    Status status =
        vlog ? ExplainVadalog(source, threads,
                              metalog::EncodeGraph(
                                  graph, metalog::GraphCatalog::FromGraph(graph)),
                              &run)
             : ExplainMetaLog(schema, source, threads, &graph, &run);
    if (!status.ok()) {
      std::fprintf(stderr, "kgmctl explain: %s failed: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    const char* language = vlog ? "vadalog" : "metalog";
    if (json) {
      if (!first) json_out << ",";
      AppendExplainJson(json_out, path, language, threads, run);
    } else {
      PrintExplainText(path, language, threads, run);
      std::printf("\n");
    }
    first = false;
  }
  if (json) {
    json_out << "]";
    std::printf("%s\n", json_out.str().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// query: answer one bound-argument (point) query against a demo instance,
// showing which route the dispatcher picked and — when the magic-sets
// rewrite ran — an explain-style summary of the rewrite (adorned
// predicates, magic predicates, predicates forced to full evaluation) and
// the probe cost next to the materialize-then-filter baseline.

int CmdQuery(int argc, char** argv) {
  bool json = false;
  size_t threads = 1;
  std::string bound;
  std::string output;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--bound") {
      if (i + 1 >= argc) return Usage();
      bound = argv[++i];
    } else if (arg == "--output") {
      if (i + 1 >= argc) return Usage();
      output = argv[++i];
    } else if (arg == "--threads") {
      if (i + 1 >= argc) return Usage();
      threads = std::strtoul(argv[++i], nullptr, 10);
      if (threads == 0) threads = 1;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "kgmctl query: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 1 || bound.empty()) return Usage();
  const std::string& path = files[0];

  auto bound_args = vadalog::magic::ParseBoundArgs(bound);
  if (!bound_args.ok()) {
    std::fprintf(stderr, "kgmctl query: bad --bound: %s\n",
                 bound_args.status().ToString().c_str());
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "kgmctl query: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();
  const bool vlog = path.ends_with(".vlog") || path.ends_with(".vdl");

  // The same demo instance `kgmctl explain` uses, with the aggregated
  // OWNS layer merged in so ownership-closure programs (reach.vlog,
  // control, close links) have their extensional input without a prior
  // owns materialization.
  finkg::GeneratorConfig config;
  config.num_companies = 100;
  config.num_persons = 150;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  pg::PropertyGraph graph = net.ToInstanceGraph();
  pg::PropertyGraph owns_graph = net.ToOwnershipGraph(/*include_persons=*/true);
  auto merge_owns = [&owns_graph](vadalog::FactDb db,
                                  const metalog::GraphCatalog& catalog) {
    vadalog::FactDb owns = metalog::EncodeGraph(owns_graph, catalog);
    for (const std::string& pred : owns.Predicates()) {
      const vadalog::Relation* rel = owns.Get(pred);
      vadalog::Relation& dst = db.GetOrCreate(pred, rel->arity());
      for (const vadalog::Tuple& t : rel->tuples()) dst.Insert(t);
    }
    return db;
  };

  vadalog::Program program;
  vadalog::FactDb db;
  if (vlog) {
    auto parsed = vadalog::ParseProgram(source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "kgmctl query: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    program = std::move(*parsed);
    metalog::GraphCatalog catalog =
        instance::SchemaCatalog(finkg::CompanyKgSchema());
    db = merge_owns(metalog::EncodeGraph(graph, catalog), catalog);
  } else {
    auto meta = metalog::ParseMetaProgram(source);
    if (!meta.ok()) {
      std::fprintf(stderr, "kgmctl query: %s\n",
                   meta.status().ToString().c_str());
      return 1;
    }
    metalog::GraphCatalog catalog =
        instance::SchemaCatalog(finkg::CompanyKgSchema());
    Status absorbed = catalog.AbsorbProgram(*meta);
    if (!absorbed.ok()) {
      std::fprintf(stderr, "kgmctl query: %s\n", absorbed.ToString().c_str());
      return 1;
    }
    auto mtv = metalog::TranslateMetaProgram(*meta, catalog);
    if (!mtv.ok()) {
      std::fprintf(stderr, "kgmctl query: %s\n",
                   mtv.status().ToString().c_str());
      return 1;
    }
    program = std::move(mtv->program);
    db = merge_owns(metalog::EncodeGraph(graph, catalog), catalog);
  }

  if (output.empty()) {
    if (!program.outputs.empty()) {
      output = program.outputs[0];
    } else if (!program.rules.empty() && !program.rules.back().head.empty()) {
      output = program.rules.back().head.back().predicate;
    } else {
      std::fprintf(stderr,
                   "kgmctl query: no @output and no rules; use --output\n");
      return 2;
    }
  }

  vadalog::magic::QueryBinding query{output, *bound_args};
  vadalog::magic::PointQueryOptions pq_options;
  pq_options.engine.num_threads = threads;

  // The dispatcher's pick, then the materialize-then-filter baseline on a
  // fresh clone for the probe comparison.
  vadalog::FactDb point_db = db.Clone();
  vadalog::magic::PointQueryStats stats;
  auto answers = vadalog::magic::EvalPointQuery(program, query, &point_db,
                                                pq_options, &stats);
  if (!answers.ok()) {
    std::fprintf(stderr, "kgmctl query: %s\n",
                 answers.status().ToString().c_str());
    return 1;
  }
  vadalog::magic::PointQueryOptions base_options = pq_options;
  base_options.force_materialize = true;
  vadalog::magic::PointQueryStats base_stats;
  auto baseline = vadalog::magic::EvalPointQuery(program, query, &db,
                                                 base_options, &base_stats);
  if (!baseline.ok()) {
    std::fprintf(stderr, "kgmctl query: baseline failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  const double ratio =
      stats.engine.join_probes > 0
          ? static_cast<double>(base_stats.engine.join_probes) /
                static_cast<double>(stats.engine.join_probes)
          : 0;

  if (json) {
    std::ostringstream out;
    out << "{\"file\":\"" << lint::JsonEscape(path) << "\"";
    out << ",\"query\":\"" << lint::JsonEscape(query.Render()) << "\"";
    out << ",\"mode\":\""
        << vadalog::magic::PointQueryModeName(stats.mode) << "\"";
    out << ",\"fallback\":\""
        << vadalog::magic::FallbackReasonName(stats.fallback) << "\"";
    if (!stats.fallback_detail.empty()) {
      out << ",\"fallback_detail\":\""
          << lint::JsonEscape(stats.fallback_detail) << "\"";
    }
    out << ",\"answers\":" << stats.answers;
    out << ",\"adorned\":[";
    for (size_t i = 0; i < stats.adorned.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"pred\":\"" << lint::JsonEscape(stats.adorned[i].pred)
          << "\",\"adornment\":\"" << stats.adorned[i].adornment
          << "\",\"magic\":\"" << lint::JsonEscape(stats.adorned[i].magic_pred)
          << "\"}";
    }
    out << "]";
    out << ",\"full_required\":[";
    for (size_t i = 0; i < stats.full_required.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << lint::JsonEscape(stats.full_required[i]) << "\"";
    }
    out << "]";
    out << ",\"rewrites\":" << stats.magic_rewrites;
    out << ",\"subqueries\":"
        << (stats.mode == vadalog::magic::PointQueryMode::kMagic
                ? stats.adorned.size()
                : 0);
    out << ",\"magic_rules\":" << stats.magic_rules;
    out << ",\"probes\":{\"point\":" << stats.engine.join_probes
        << ",\"materialize\":" << base_stats.engine.join_probes
        << ",\"reduction_factor\":" << ratio << "}";
    out << "}";
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("== %s  %s ==\n", path.c_str(), query.Render().c_str());
    std::printf("mode: %s", vadalog::magic::PointQueryModeName(stats.mode));
    if (stats.fallback != vadalog::magic::FallbackReason::kNone) {
      std::printf("  (fallback: %s — %s)",
                  vadalog::magic::FallbackReasonName(stats.fallback),
                  stats.fallback_detail.c_str());
    }
    std::printf("\n");
    if (!stats.adorned.empty()) {
      std::printf("rewrite: %zu adorned predicate(s), %zu rewritten rule(s)\n",
                  stats.adorned.size(), stats.magic_rules);
      for (const auto& a : stats.adorned) {
        std::printf("  %s@%s   seeded by %s\n", a.pred.c_str(),
                    a.adornment.c_str(), a.magic_pred.c_str());
      }
      for (const auto& p : stats.full_required) {
        std::printf("  %s   (full evaluation required)\n", p.c_str());
      }
    }
    std::printf("probes: point=%zu materialize=%zu (%.1fx fewer)\n",
                stats.engine.join_probes, base_stats.engine.join_probes,
                ratio);
    std::printf("answers: %zu\n", stats.answers);
    constexpr size_t kMaxRows = 20;
    for (size_t i = 0; i < answers->size() && i < kMaxRows; ++i) {
      const vadalog::Tuple& t = (*answers)[i];
      for (size_t j = 0; j < t.size(); ++j) {
        std::printf("%s%s", j == 0 ? "  " : "\t", t[j].ToString().c_str());
      }
      std::printf("\n");
    }
    if (answers->size() > kMaxRows) {
      std::printf("  ... (%zu more)\n", answers->size() - kMaxRows);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "schema") {
    return argc >= 3 ? CmdSchema(argv[2]) : Usage();
  }
  if (command == "export") return CmdExport(argc, argv);
  if (command == "materialize") return CmdMaterialize(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "lint") return CmdLint(argc, argv);
  if (command == "analyze") return CmdAnalyze(argc, argv);
  if (command == "explain") return CmdExplain(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  return Usage();
}
