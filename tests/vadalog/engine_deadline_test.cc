// Per-run deadline (EngineOptions::deadline), the serving layer's defense
// against runaway recursive queries.

#include <chrono>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

using Clock = std::chrono::steady_clock;

// Transitive closure over an n-cycle: derives n^2 path facts, far more
// work than a millisecond-scale deadline allows for the sizes used here.
std::string CycleClosure(int n) {
  std::ostringstream src;
  for (int i = 0; i < n; ++i) {
    src << "@fact edge(" << i << ", " << (i + 1) % n << ").\n";
  }
  src << "edge(x, y) -> path(x, y).\n";
  src << "path(x, y), edge(y, z) -> path(x, z).\n";
  return src.str();
}

TEST(EngineDeadlineTest, ExpiredDeadlineFailsFast) {
  auto program = ParseProgram(CycleClosure(10));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineOptions options;
  options.deadline = Clock::now() - std::chrono::seconds(1);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  Status s = engine.Run(&db);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(EngineDeadlineTest, ShortDeadlineStopsRecursiveProgram) {
  // 400^2 = 160k derived facts: comfortably slower than 1ms.
  auto program = ParseProgram(CycleClosure(400));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineOptions options;
  options.deadline = Clock::now() + std::chrono::milliseconds(1);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  Status s = engine.Run(&db);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  // The run was cut off mid-fixpoint: partial progress, not the full
  // closure.
  const Relation* path = db.Get("path");
  const size_t derived = path == nullptr ? 0 : path->size();
  EXPECT_LT(derived, 400u * 400u);
}

TEST(EngineDeadlineTest, ShortDeadlineStopsParallelRun) {
  auto program = ParseProgram(CycleClosure(400));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineOptions options;
  options.num_threads = 4;
  options.deadline = Clock::now() + std::chrono::milliseconds(1);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  Status s = engine.Run(&db);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(EngineDeadlineTest, ShortDeadlineStopsAggregateFinalization) {
  // One stratified aggregation over many groups: the bulk of the run is
  // the group fold + finalize loop between barriers, which polls the
  // deadline every ~16k group emissions like the join loops do.
  std::ostringstream src;
  src << "w(g, v), t = sum(v, <g>) -> total(g, t).\n";
  auto program = ParseProgram(src.str());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  FactDb db;
  for (int64_t i = 0; i < 400000; ++i) {
    db.Add("w", {Value(i), Value(0.5)});
  }
  EngineOptions options;
  options.deadline = Clock::now() + std::chrono::milliseconds(1);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  Status s = engine.Run(&db);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(EngineDeadlineTest, ShortDeadlineStopsExistentialChase) {
  // The ordered replay between barriers polls the deadline too, so
  // existential programs stay cancellable at every thread count.
  std::ostringstream src;
  for (int i = 0; i < 400; ++i) {
    src << "@fact edge(" << i << ", " << (i + 1) % 400 << ").\n";
  }
  src << "edge(x, y) -> exists w rel(x, y, w).\n";
  src << "rel(x, y, w), edge(y, z) -> exists v rel(x, z, v).\n";
  auto program = ParseProgram(src.str());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineOptions options;
  options.num_threads = 4;
  options.deadline = Clock::now() + std::chrono::milliseconds(1);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  Status s = engine.Run(&db);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(EngineDeadlineTest, NoDeadlineRunsToFixpoint) {
  FactDb db;
  Status s = RunProgram(CycleClosure(20), &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_NE(db.Get("path"), nullptr);
  EXPECT_EQ(db.Get("path")->size(), 400u);
}

TEST(EngineDeadlineTest, FutureDeadlineDoesNotInterfere) {
  auto program = ParseProgram(CycleClosure(20));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EngineOptions options;
  options.deadline = Clock::now() + std::chrono::minutes(5);
  Engine engine(std::move(*program), options);
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  Status s = engine.Run(&db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.Get("path")->size(), 400u);
}

}  // namespace
}  // namespace kgm::vadalog
