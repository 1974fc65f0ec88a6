// Differential correctness of incremental materialization over the Company
// KG: randomized shareholding-update batches (mixed inserts and deletes,
// deletes cascading into rederivation) are streamed through
// IncrementalView::Apply for the `control` and `close_links` programs, and
// after every batch the maintained database is compared against a
// from-scratch materialization on the same post-delta EDB.
//
// `control` aggregates, so the maintainer reruns the program and the
// comparison is bit-identical (row order and float bits included);
// `close_links` is Skolem-existential and maintained by DRed, where the
// contract is set-level equality.  Both are exercised at 1 and 4 engine
// threads — the result must not depend on the worker count.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "vadalog/engine.h"
#include "vadalog/incremental.h"

namespace kgm::finkg {
namespace {

struct Compiled {
  metalog::MetaProgram meta;
  metalog::GraphCatalog catalog;
};

Compiled CompileMeta(const char* source) {
  Compiled c;
  auto parsed = metalog::ParseMetaProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  c.meta = std::move(*parsed);
  c.catalog = instance::SchemaCatalog(CompanyKgSchema());
  EXPECT_TRUE(c.catalog.AbsorbProgram(c.meta).ok());
  return c;
}

vadalog::Program Translate(const Compiled& c) {
  auto mtv = metalog::TranslateMetaProgram(c.meta, c.catalog);
  EXPECT_TRUE(mtv.ok()) << mtv.status().ToString();
  return std::move(mtv->program);
}

struct DifferentialCase {
  const char* name;
  const char* source;
  vadalog::MaintenanceMode expected_mode;
  size_t threads;
};

class IncrementalDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(IncrementalDifferential, MatchesFromScratchAfterEveryBatch) {
  const DifferentialCase& tc = GetParam();
  GeneratorConfig config;
  config.num_companies = 60;
  config.num_persons = 80;
  config.seed = 17;
  ShareholdingNetwork net = ShareholdingNetwork::Generate(config);

  Compiled compiled = CompileMeta(tc.source);
  vadalog::FactDb edb = metalog::EncodeGraph(
      net.ToOwnershipGraph(/*include_persons=*/true), compiled.catalog);
  const vadalog::Relation* owns = edb.Get("OWNS");
  ASSERT_NE(owns, nullptr);
  ASSERT_GT(owns->size(), 0u);

  vadalog::EngineOptions options;
  options.num_threads = tc.threads;
  vadalog::IncrementalView view(Translate(compiled), options);
  ASSERT_TRUE(view.status().ok()) << view.status().ToString();
  EXPECT_EQ(view.mode(), tc.expected_mode);
  ASSERT_TRUE(view.Initialize(edb.Clone()).ok());

  UpdateFeedConfig feed_config;
  feed_config.edge_pred = "OWNS";
  feed_config.batch_size = 6;
  feed_config.delete_fraction = 0.5;  // every batch mixes deletes + inserts
  feed_config.seed = 23;
  UpdateFeed feed(owns, feed_config);

  const bool ordered = tc.expected_mode != vadalog::MaintenanceMode::kDRed;
  size_t total_deleted = 0;
  size_t total_overdeleted = 0;
  for (int batch = 0; batch < 4; ++batch) {
    vadalog::EdbDelta delta = feed.NextBatch();
    ASSERT_TRUE(view.Apply(delta).ok());
    total_deleted += view.last_stats().edb_deleted;
    total_overdeleted += view.last_stats().overdeleted;

    // From-scratch baseline on the same post-delta EDB, same thread count.
    vadalog::FactDb rebuilt = view.edb().Clone();
    vadalog::Engine engine(Translate(compiled), options);
    ASSERT_TRUE(engine.status().ok());
    ASSERT_TRUE(engine.Run(&rebuilt).ok());

    std::string diff;
    EXPECT_FALSE(
        vadalog::DescribeFirstDifference(view.db(), rebuilt, ordered, &diff))
        << tc.name << " batch " << batch << " at " << tc.threads
        << " threads: " << diff;
  }
  // The feed really deleted EDB tuples (not just no-op deletes), so the
  // comparison covered the deletion path end to end.
  EXPECT_GT(total_deleted, 0u);
  if (tc.expected_mode == vadalog::MaintenanceMode::kDRed) {
    // Deleted OWNS edges support derived IO chains, so DRed's overdeletion
    // phase must have fired.
    EXPECT_GT(total_overdeleted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompanyKg, IncrementalDifferential,
    ::testing::Values(
        DifferentialCase{"control_1t", kControlProgram,
                         vadalog::MaintenanceMode::kRerun, 1},
        DifferentialCase{"control_4t", kControlProgram,
                         vadalog::MaintenanceMode::kRerun, 4},
        DifferentialCase{"close_links_1t", kCloseLinksProgram,
                         vadalog::MaintenanceMode::kDRed, 1},
        DifferentialCase{"close_links_4t", kCloseLinksProgram,
                         vadalog::MaintenanceMode::kDRed, 4}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      return info.param.name;
    });

TEST(UpdateFeedTest, BatchesRespectConfigAndRelationShape) {
  GeneratorConfig config;
  config.num_companies = 30;
  config.num_persons = 40;
  config.seed = 3;
  ShareholdingNetwork net = ShareholdingNetwork::Generate(config);
  Compiled compiled = CompileMeta(kCloseLinksProgram);
  vadalog::FactDb edb = metalog::EncodeGraph(
      net.ToOwnershipGraph(/*include_persons=*/true), compiled.catalog);
  const vadalog::Relation* owns = edb.Get("OWNS");
  ASSERT_NE(owns, nullptr);

  UpdateFeedConfig feed_config;
  feed_config.edge_pred = "OWNS";
  feed_config.batch_size = 10;
  feed_config.delete_fraction = 0.3;
  feed_config.seed = 5;
  UpdateFeed feed(owns, feed_config);
  const size_t initial_live = feed.live_edges();
  EXPECT_EQ(initial_live, owns->size());

  vadalog::EdbDelta delta = feed.NextBatch();
  size_t deletes = 0, inserts = 0;
  for (const auto& [pred, ts] : delta.deletes) {
    EXPECT_EQ(pred, "OWNS");
    for (const auto& t : ts) {
      EXPECT_EQ(t.size(), owns->arity());
      EXPECT_TRUE(owns->Contains(t));  // deletes name real tuples
      ++deletes;
    }
  }
  for (const auto& [pred, ts] : delta.inserts) {
    EXPECT_EQ(pred, "OWNS");
    for (const auto& t : ts) {
      EXPECT_EQ(t.size(), owns->arity());
      EXPECT_FALSE(owns->Contains(t));  // inserts are fresh rows
      ++inserts;
    }
  }
  EXPECT_EQ(deletes, 3u);  // floor(10 * 0.3)
  EXPECT_EQ(inserts, 7u);
  EXPECT_EQ(feed.live_edges(), initial_live - deletes + inserts);
}

}  // namespace
}  // namespace kgm::finkg
