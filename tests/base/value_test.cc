#include "base/value.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace kgm {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_TRUE(Value(int64_t{5}).is_numeric());
  EXPECT_TRUE(Value(1.5).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(0.25).AsDouble(), 0.25);
}

TEST(ValueTest, EqualityIsKindStrict) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int != double
  EXPECT_NE(Value("1"), Value(int64_t{1}));
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, TotalOrder) {
  // Across kinds: ordered by kind index.
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{99}), Value(0.0));
  EXPECT_LT(Value(0.5), Value("a"));
  // Within kinds.
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a(std::string("hello"));
  Value b(std::string("hello"));
  EXPECT_EQ(a.Hash(), b.Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
  set.insert(Value(int64_t{1}));
  set.insert(Value(1.0));
  EXPECT_EQ(set.size(), 3u);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
}

TEST(SkolemTableTest, InterningIsDeterministicAndInjective) {
  SkolemTable& table = SkolemTable::Global();
  Value a = table.Intern("skN", {Value(int64_t{1})});
  Value b = table.Intern("skN", {Value(int64_t{1})});
  Value c = table.Intern("skN", {Value(int64_t{2})});
  Value d = table.Intern("skM", {Value(int64_t{1})});
  EXPECT_EQ(a, b);  // deterministic
  EXPECT_NE(a, c);  // injective in arguments
  EXPECT_NE(a, d);  // range-disjoint across functors
  EXPECT_TRUE(a.is_skolem());
  EXPECT_EQ(table.FunctorOf(a.AsSkolem()), "skN");
  ASSERT_EQ(table.ArgsOf(a.AsSkolem()).size(), 1u);
  EXPECT_EQ(table.ArgsOf(a.AsSkolem())[0], Value(int64_t{1}));
}

TEST(SkolemTableTest, NestedSkolemArguments) {
  SkolemTable& table = SkolemTable::Global();
  Value inner = table.Intern("skIn", {Value("x")});
  Value outer1 = table.Intern("skOut", {inner});
  Value outer2 = table.Intern("skOut", {inner});
  EXPECT_EQ(outer1, outer2);
  EXPECT_NE(outer1, inner);
}

TEST(RecordTest, SortedFieldsAndEquality) {
  Value r1 = MakeRecord({{"b", Value(int64_t{2})}, {"a", Value(int64_t{1})}});
  Value r2 = MakeRecord({{"a", Value(int64_t{1})}, {"b", Value(int64_t{2})}});
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1.Hash(), r2.Hash());
  EXPECT_EQ(r1.ToString(), "{a: 1, b: 2}");
  Value r3 = MakeRecord({{"a", Value(int64_t{1})}});
  EXPECT_NE(r1, r3);
  EXPECT_LT(r3, r1);
}

TEST(RecordTest, SkolemToStringShowsArgs) {
  SkolemTable& table = SkolemTable::Global();
  Value v = table.Intern("skT", {Value("n"), Value(int64_t{3})});
  EXPECT_EQ(v.ToString(), "skT(\"n\",3)");
}

}  // namespace
}  // namespace kgm
