// Property-based tests: the engine's results are compared against
// independent C++ oracles over randomized inputs (parameterized sweeps).

#include <gtest/gtest.h>

#include <map>
#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "vadalog/engine.h"

namespace kgm::vadalog {
namespace {

using Edge = std::pair<int64_t, int64_t>;

std::vector<Edge> RandomEdges(size_t nodes, size_t edges, uint64_t seed) {
  Rng rng(seed);
  // A small graph cannot host more distinct edges than nodes^2.
  edges = std::min(edges, nodes * nodes / 2);
  std::set<Edge> out;
  while (out.size() < edges) {
    out.emplace(static_cast<int64_t>(rng.NextBelow(nodes)),
                static_cast<int64_t>(rng.NextBelow(nodes)));
  }
  return {out.begin(), out.end()};
}

// Oracle: transitive closure by iterated BFS.
std::set<Edge> ClosureOracle(size_t nodes, const std::vector<Edge>& edges) {
  std::vector<std::vector<int64_t>> adj(nodes);
  for (const Edge& e : edges) adj[e.first].push_back(e.second);
  std::set<Edge> closure;
  for (size_t start = 0; start < nodes; ++start) {
    std::vector<char> seen(nodes, 0);
    std::vector<int64_t> frontier{static_cast<int64_t>(start)};
    while (!frontier.empty()) {
      int64_t v = frontier.back();
      frontier.pop_back();
      for (int64_t w : adj[v]) {
        if (!seen[w]) {
          seen[w] = 1;
          closure.emplace(start, w);
          frontier.push_back(w);
        }
      }
    }
  }
  return closure;
}

class ClosureProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(ClosureProperty, EngineMatchesBfsOracle) {
  auto [nodes, edges, seed] = GetParam();
  std::vector<Edge> input = RandomEdges(nodes, edges, seed);
  FactDb db;
  for (const Edge& e : input) {
    db.Add("edge", {Value(e.first), Value(e.second)});
  }
  ASSERT_TRUE(RunProgram(R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )", &db).ok());
  std::set<Edge> oracle = ClosureOracle(nodes, input);
  const Relation* path = db.Get("path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->size(), oracle.size());
  for (const Tuple& t : path->tuples()) {
    EXPECT_TRUE(oracle.count({t[0].AsInt(), t[1].AsInt()}) > 0)
        << t[0].AsInt() << "->" << t[1].AsInt();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosureProperty,
    ::testing::Combine(::testing::Values(size_t{8}, size_t{20}, size_t{50}),
                       ::testing::Values(size_t{10}, size_t{40}, size_t{90}),
                       ::testing::Values(uint64_t{1}, uint64_t{7},
                                         uint64_t{42})));

// Oracle for the company-control fixpoint (Example 4.2): for each company
// x grow the controlled set S from {x}, adding y when the companies of S
// jointly own > 50% of y.
std::set<Edge> ControlOracle(
    size_t companies, const std::map<Edge, double>& own) {
  std::set<Edge> result;
  for (size_t x = 0; x < companies; ++x) {
    std::set<int64_t> controlled{static_cast<int64_t>(x)};
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t y = 0; y < companies; ++y) {
        if (controlled.count(y) > 0) continue;
        double total = 0;
        for (int64_t z : controlled) {
          auto it = own.find({z, static_cast<int64_t>(y)});
          if (it != own.end()) total += it->second;
        }
        if (total > 0.5) {
          controlled.insert(y);
          changed = true;
        }
      }
    }
    for (int64_t y : controlled) result.emplace(x, y);
  }
  return result;
}

class ControlProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ControlProperty, EngineMatchesFixpointOracle) {
  auto [companies, seed] = GetParam();
  Rng rng(seed);
  std::map<Edge, double> own;
  // Random ownership with per-company totals <= 1.
  for (size_t y = 0; y < companies; ++y) {
    double budget = 1.0;
    size_t holders = 1 + rng.NextBelow(4);
    for (size_t k = 0; k < holders && budget > 0.05; ++k) {
      int64_t z = static_cast<int64_t>(rng.NextBelow(companies));
      if (z == static_cast<int64_t>(y)) continue;
      double w = budget * (0.2 + 0.6 * rng.NextDouble());
      own[{z, static_cast<int64_t>(y)}] += w;
      budget -= w;
    }
  }
  FactDb db;
  for (size_t c = 0; c < companies; ++c) {
    db.Add("company", {Value(static_cast<int64_t>(c))});
  }
  for (const auto& [edge, w] : own) {
    db.Add("own", {Value(edge.first), Value(edge.second), Value(w)});
  }
  ASSERT_TRUE(RunProgram(R"(
    company(x) -> controls(x, x).
    controls(x, z), own(z, y, w), v = msum(w, <z>), v > 0.5
      -> controls(x, y).
  )", &db).ok());
  std::set<Edge> oracle = ControlOracle(companies, own);
  const Relation* controls = db.Get("controls");
  ASSERT_NE(controls, nullptr);
  std::set<Edge> engine;
  for (const Tuple& t : controls->tuples()) {
    engine.emplace(t[0].AsInt(), t[1].AsInt());
  }
  EXPECT_EQ(engine, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ControlProperty,
    ::testing::Combine(::testing::Values(size_t{5}, size_t{15}, size_t{40},
                                         size_t{80}),
                       ::testing::Values(uint64_t{3}, uint64_t{11},
                                         uint64_t{2022})));

// Oracle for stratified sum group-by.
class AggregationProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(AggregationProperty, SumMatchesGroupByOracle) {
  auto [rows, seed] = GetParam();
  Rng rng(seed);
  FactDb db;
  std::map<int64_t, double> oracle;
  for (size_t i = 0; i < rows; ++i) {
    int64_t p = static_cast<int64_t>(rng.NextBelow(rows / 2 + 1));
    int64_t c = static_cast<int64_t>(rng.NextBelow(rows / 4 + 1));
    double w = rng.NextDouble();
    if (db.Add("holds", {Value(p), Value(c), Value(w)})) {
      // A contribution is identified by (contributors, value): every
      // distinct (p, c, w) fact contributes once (see DESIGN.md).
      oracle[c] += w;
    }
  }
  ASSERT_TRUE(RunProgram(
      "holds(p, c, w), v = sum(w, <p>) -> total(c, v).", &db).ok());
  const Relation* total = db.Get("total");
  ASSERT_NE(total, nullptr);
  ASSERT_EQ(total->size(), oracle.size());
  for (const Tuple& t : total->tuples()) {
    auto it = oracle.find(t[0].AsInt());
    ASSERT_NE(it, oracle.end());
    EXPECT_NEAR(t[1].AsDouble(), it->second, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationProperty,
    ::testing::Combine(::testing::Values(size_t{10}, size_t{100},
                                         size_t{1000}),
                       ::testing::Values(uint64_t{5}, uint64_t{77})));

// The same group-by oracle must hold under parallel evaluation, and the
// monotonic count's final prefix must match the set size regardless of the
// order work items fold contributions.
TEST_P(AggregationProperty, AggregatesMatchOracleInParallel) {
  auto [rows, seed] = GetParam();
  Rng rng(seed);
  FactDb db;
  std::map<int64_t, double> sum_oracle;
  std::map<int64_t, std::set<int64_t>> holders;
  for (size_t i = 0; i < rows; ++i) {
    int64_t p = static_cast<int64_t>(rng.NextBelow(rows / 2 + 1));
    int64_t c = static_cast<int64_t>(rng.NextBelow(rows / 4 + 1));
    double w = rng.NextDouble();
    if (db.Add("holds", {Value(p), Value(c), Value(w)})) {
      sum_oracle[c] += w;
      holders[c].insert(p);
    }
  }
  EngineOptions options;
  options.num_threads = 8;
  ASSERT_TRUE(RunProgram(R"(
    holds(p, c, w), v = sum(w, <p>) -> total(c, v).
    holds(p, c, _), n = mcount(<p>) -> stakeholders(c, n).
  )", &db, options).ok());
  const Relation* total = db.Get("total");
  ASSERT_NE(total, nullptr);
  ASSERT_EQ(total->size(), sum_oracle.size());
  for (const Tuple& t : total->tuples()) {
    auto it = sum_oracle.find(t[0].AsInt());
    ASSERT_NE(it, sum_oracle.end());
    EXPECT_NEAR(t[1].AsDouble(), it->second, 1e-9);
  }
  // mcount emits every prefix 1..N; the maximum per group is the count.
  const Relation* stakeholders = db.Get("stakeholders");
  ASSERT_NE(stakeholders, nullptr);
  std::map<int64_t, int64_t> max_count;
  for (const Tuple& t : stakeholders->tuples()) {
    max_count[t[0].AsInt()] =
        std::max(max_count[t[0].AsInt()], t[1].AsInt());
  }
  ASSERT_EQ(max_count.size(), holders.size());
  for (const auto& [c, members] : holders) {
    EXPECT_EQ(max_count[c], static_cast<int64_t>(members.size()))
        << "group " << c;
  }
}

TEST(NullSemanticsTest, OrderingWithNullIsFalse) {
  FactDb db;
  db.Add("p", {Value(int64_t{1}), Value()});
  db.Add("p", {Value(int64_t{2}), Value(0.9)});
  ASSERT_TRUE(RunProgram("p(x, w), w > 0.5 -> big(x).", &db).ok());
  const Relation* big = db.Get("big");
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->size(), 1u);
  EXPECT_TRUE(big->Contains({Value(int64_t{2})}));
}

}  // namespace
}  // namespace kgm::vadalog
