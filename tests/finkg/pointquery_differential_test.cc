// Differential correctness of point queries over the Company KG and every
// shipped example program: for each program, a full materialization is the
// oracle, and EvalPointQuery — whatever route it picks (EDB lookup, magic
// rewrite, or the materialize fallback) — must return exactly the
// oracle's output filtered by the binding.  Bindings cover bound-first,
// all-bound boolean (both a hit and a miss), and a constant absent from
// the data (empty answer), at 1 and 4 engine threads.  Deadline expiry
// and cooperative cancellation must surface as DeadlineExceeded from the
// point-query entry too.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "vadalog/engine.h"
#include "vadalog/magic/point_query.h"
#include "vadalog/parser.h"

namespace kgm::finkg {
namespace {

namespace magic = vadalog::magic;

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ProgramUnderTest {
  std::string name;
  vadalog::Program program;
  metalog::GraphCatalog catalog;
};

ProgramUnderTest CompileMeta(const std::string& name,
                             const std::string& source) {
  ProgramUnderTest p;
  p.name = name;
  auto parsed = metalog::ParseMetaProgram(source);
  EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
  p.catalog = instance::SchemaCatalog(CompanyKgSchema());
  EXPECT_TRUE(p.catalog.AbsorbProgram(*parsed).ok());
  auto mtv = metalog::TranslateMetaProgram(*parsed, p.catalog);
  EXPECT_TRUE(mtv.ok()) << name << ": " << mtv.status().ToString();
  p.program = std::move(mtv->program);
  return p;
}

ProgramUnderTest CompileVadalog(const std::string& name,
                                const std::string& source) {
  ProgramUnderTest p;
  p.name = name;
  auto parsed = vadalog::ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
  p.program = std::move(*parsed);
  p.catalog = instance::SchemaCatalog(CompanyKgSchema());
  return p;
}

// The in-tree finkg programs plus every file under examples/programs/.
std::vector<ProgramUnderTest> AllPrograms() {
  std::vector<ProgramUnderTest> out;
  out.push_back(CompileMeta("finkg_control", kControlProgram));
  out.push_back(CompileMeta("finkg_close_links", kCloseLinksProgram));
  const std::string dir = KGM_EXAMPLES_DIR;
  for (const char* mlog :
       {"closelinks.mlog", "control.mlog", "family.mlog", "owns.mlog",
        "stakeholders.mlog"}) {
    out.push_back(CompileMeta(mlog, ReadFileOrDie(dir + "/" + mlog)));
  }
  out.push_back(
      CompileVadalog("reach.vlog", ReadFileOrDie(dir + "/reach.vlog")));
  return out;
}

// Union of the instance encoding (HOLDS/BELONGS_TO shares) and the
// ownership encoding (aggregated OWNS edges): every shipped program finds
// its extensional inputs populated, whichever of the two layers it reads.
vadalog::FactDb MakeEdb(const metalog::GraphCatalog& catalog) {
  GeneratorConfig config;
  config.num_companies = 50;
  config.num_persons = 60;
  config.seed = 29;
  ShareholdingNetwork net = ShareholdingNetwork::Generate(config);
  vadalog::FactDb db = metalog::EncodeGraph(net.ToInstanceGraph(), catalog);
  vadalog::FactDb owns = metalog::EncodeGraph(
      net.ToOwnershipGraph(/*include_persons=*/true), catalog);
  for (const std::string& pred : owns.Predicates()) {
    const vadalog::Relation* rel = owns.Get(pred);
    vadalog::Relation& dst = db.GetOrCreate(pred, rel->arity());
    for (const vadalog::Tuple& t : rel->tuples()) dst.Insert(t);
  }
  return db;
}

std::vector<vadalog::Tuple> Sorted(std::vector<vadalog::Tuple> ts) {
  std::sort(ts.begin(), ts.end(),
            [](const vadalog::Tuple& a, const vadalog::Tuple& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  return ts;
}

std::vector<vadalog::Tuple> Filter(const vadalog::Relation* rel,
                                   const magic::QueryBinding& query) {
  std::vector<vadalog::Tuple> out;
  if (rel == nullptr) return out;
  for (const vadalog::Tuple& t : rel->tuples()) {
    if (query.Matches(t)) out.push_back(t);
  }
  return out;
}

// Predicates a program is "about": its declared outputs, else every head.
std::vector<std::string> QueryPredicates(const vadalog::Program& program) {
  std::vector<std::string> preds = program.outputs;
  if (preds.empty()) {
    std::set<std::string> seen;
    for (const vadalog::Rule& r : program.rules) {
      for (const vadalog::Atom& h : r.head) {
        if (seen.insert(h.predicate).second) preds.push_back(h.predicate);
      }
    }
  }
  if (preds.size() > 3) preds.resize(3);
  return preds;
}

struct SuiteCounters {
  size_t queries = 0;
  size_t magic_mode = 0;
  size_t edb_mode = 0;
  size_t fallbacks = 0;
};

void RunDifferential(const ProgramUnderTest& put, size_t threads,
                     SuiteCounters* counters) {
  SCOPED_TRACE(put.name + " @" + std::to_string(threads) + "t");
  vadalog::FactDb edb = MakeEdb(put.catalog);

  vadalog::EngineOptions engine_options;
  engine_options.num_threads = threads;

  // Oracle: full materialization on a clone of the same EDB.
  vadalog::FactDb oracle = edb.Clone();
  {
    vadalog::Engine engine(put.program, engine_options);
    ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
    ASSERT_TRUE(engine.Run(&oracle).ok());
  }

  for (const std::string& pred : QueryPredicates(put.program)) {
    const vadalog::Relation* rel = oracle.Get(pred);
    if (rel == nullptr || rel->size() == 0 || rel->arity() == 0) continue;
    const vadalog::Tuple sample = rel->tuple(0);

    std::vector<magic::QueryBinding> bindings;
    // Bound first argument.
    {
      magic::QueryBinding q{pred, {}};
      q.args.assign(rel->arity(), std::nullopt);
      q.args[0] = sample[0];
      bindings.push_back(std::move(q));
    }
    // All bound: a tuple that is in the answer (boolean yes).
    {
      magic::QueryBinding q{pred, {}};
      for (const Value& v : sample) q.args.push_back(v);
      bindings.push_back(std::move(q));
    }
    // A constant that appears nowhere: empty answer.
    {
      magic::QueryBinding q{pred, {}};
      q.args.assign(rel->arity(), std::nullopt);
      q.args[0] = Value("__no_such_constant__");
      bindings.push_back(std::move(q));
    }

    for (const magic::QueryBinding& q : bindings) {
      SCOPED_TRACE(pred + "(" + q.Adornment() + ")");
      vadalog::FactDb scratch = edb.Clone();
      magic::PointQueryOptions options;
      options.engine = engine_options;
      magic::PointQueryStats stats;
      auto got = magic::EvalPointQuery(put.program, q, &scratch, options,
                                       &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Sorted(*got), Sorted(Filter(rel, q)))
          << "mode=" << magic::PointQueryModeName(stats.mode) << " fallback="
          << magic::FallbackReasonName(stats.fallback) << " "
          << stats.fallback_detail;
      ++counters->queries;
      switch (stats.mode) {
        case magic::PointQueryMode::kMagic:
          ++counters->magic_mode;
          break;
        case magic::PointQueryMode::kEdbLookup:
          ++counters->edb_mode;
          break;
        case magic::PointQueryMode::kMaterialize:
          ++counters->fallbacks;
          // Routing away from magic must always carry a reason.
          EXPECT_NE(stats.fallback, magic::FallbackReason::kNone);
          break;
        case magic::PointQueryMode::kOff:
          ADD_FAILURE() << "query did not run";
          break;
      }
    }
  }
}

class PointQueryDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(PointQueryDifferential, AllProgramsMatchOracle) {
  SuiteCounters counters;
  for (const ProgramUnderTest& put : AllPrograms()) {
    RunDifferential(put, GetParam(), &counters);
  }
  // The suite exercised real work in each routing mode: reach.vlog's
  // bound closure queries go through magic, and the aggregate programs
  // must have recorded reasons on their materialize fallbacks.
  EXPECT_GT(counters.queries, 20u);
  EXPECT_GT(counters.magic_mode, 0u);
  EXPECT_GT(counters.fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, PointQueryDifferential,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "_threads";
                         });

TEST(PointQueryDeadlineTest, ExpiredDeadlineSurfaces) {
  ProgramUnderTest put = CompileMeta("finkg_control", kControlProgram);
  vadalog::FactDb edb = MakeEdb(put.catalog);
  magic::PointQueryOptions options;
  options.engine.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  magic::QueryBinding q{"CONTROLS", {}};
  const vadalog::Relation* base = edb.Get("OWNS");
  ASSERT_NE(base, nullptr);
  // Arity of CONTROLS is unknown before the run; an all-free query on a
  // deadline-expired engine must fail before it could matter.
  q.args.assign(3, std::nullopt);
  q.args[1] = Value("c1");
  vadalog::FactDb scratch = edb.Clone();
  magic::PointQueryStats stats;
  auto r = magic::EvalPointQuery(put.program, q, &scratch, options, &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

TEST(PointQueryDeadlineTest, CancelFlagSurfaces) {
  ProgramUnderTest put =
      CompileVadalog("reach.vlog",
                     ReadFileOrDie(std::string(KGM_EXAMPLES_DIR) +
                                   "/reach.vlog"));
  vadalog::FactDb edb = MakeEdb(put.catalog);
  magic::PointQueryOptions options;
  auto flag = std::make_shared<std::atomic<bool>>(true);
  options.engine.cancel = flag;
  magic::QueryBinding q{"reach", {Value("c1"), std::nullopt}};
  vadalog::FactDb scratch = edb.Clone();
  magic::PointQueryStats stats;
  auto r = magic::EvalPointQuery(put.program, q, &scratch, options, &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

}  // namespace
}  // namespace kgm::finkg
