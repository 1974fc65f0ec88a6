// Typeflow abstract interpretation: the value-kind lattice, fixpoint
// signatures over recursive programs, and the three finding classes.

#include "vadalog/typeflow.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

TypeflowResult Analyze(const char* source,
                       const std::vector<std::string>& externals = {}) {
  auto parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return AnalyzeTypeflow(*parsed, externals);
}

const TypeflowFinding* FindKind(const TypeflowResult& r,
                                TypeflowFindingKind kind) {
  for (const TypeflowFinding& f : r.findings) {
    if (f.kind == kind) return &f;
  }
  return nullptr;
}

// ------------------------------------------------------------- lattice

TEST(TypeflowLatticeTest, KindSetNames) {
  EXPECT_EQ(KindSetName(kKindNone), "none");
  EXPECT_EQ(KindSetName(kKindAny), "any");
  EXPECT_EQ(KindSetName(kKindInt), "int");
  EXPECT_EQ(KindSetName(kKindNumeric), "int|double");
  EXPECT_EQ(KindSetName(kKindString | kKindNull), "string|null");
}

TEST(TypeflowLatticeTest, JoinUnionsKindsAndHullsRanges) {
  AbstractValue a = AbstractValue::OfValue(Value(int64_t{2}));
  AbstractValue b = AbstractValue::OfValue(Value(int64_t{9}));
  EXPECT_TRUE(a.JoinWith(b));
  EXPECT_EQ(a.kinds, kKindInt);
  EXPECT_TRUE(a.has_range);
  EXPECT_EQ(a.lo, 2);
  EXPECT_EQ(a.hi, 9);
  EXPECT_FALSE(a.has_const);  // two different constants merge away
  // Joining the same value back changes nothing: join is idempotent.
  EXPECT_FALSE(a.JoinWith(b));

  AbstractValue s = AbstractValue::OfValue(Value(std::string("x")));
  EXPECT_TRUE(a.JoinWith(s));
  EXPECT_EQ(a.kinds, kKindInt | kKindString);
  EXPECT_FALSE(a.has_range);  // the string contribution has no interval
}

TEST(TypeflowLatticeTest, JoinWithBottomIsIdentity) {
  AbstractValue a = AbstractValue::OfValue(Value(true));
  AbstractValue bottom;
  EXPECT_FALSE(a.JoinWith(bottom));
  EXPECT_EQ(a.kinds, kKindBool);
  AbstractValue other;
  EXPECT_TRUE(other.JoinWith(a));
  EXPECT_EQ(other.kinds, kKindBool);
}

TEST(TypeflowLatticeTest, MeetIntersectsAndDetectsConflicts) {
  AbstractValue i = AbstractValue::OfValue(Value(int64_t{5}));
  AbstractValue s = AbstractValue::OfValue(Value(std::string("a")));
  EXPECT_TRUE(i.MeetWith(s).is_bottom());  // disjoint kinds

  AbstractValue lo = AbstractValue::OfValue(Value(int64_t{0}));
  AbstractValue hi = AbstractValue::OfValue(Value(int64_t{10}));
  lo.JoinWith(hi);  // int[0,10], no constant
  AbstractValue seven = AbstractValue::OfValue(Value(int64_t{7}));
  AbstractValue met = lo.MeetWith(seven);
  EXPECT_FALSE(met.is_bottom());
  EXPECT_TRUE(met.has_const);

  // A constant outside the surviving interval is unsatisfiable.
  AbstractValue fifty = AbstractValue::OfValue(Value(int64_t{50}));
  EXPECT_TRUE(lo.MeetWith(fifty).is_bottom());
}

TEST(TypeflowLatticeTest, ToStringRendersRefinements) {
  EXPECT_EQ(AbstractValue::Top().ToString(), "any");
  EXPECT_EQ(AbstractValue{}.ToString(), "none");
  AbstractValue c = AbstractValue::OfValue(Value(int64_t{3}));
  EXPECT_EQ(c.ToString(), "int=3");
}

// ----------------------------------------------------------- signatures

TEST(TypeflowSignatureTest, FactsSeedConstantsAndInputsSeedTop) {
  TypeflowResult r = Analyze(
      "@fact price(\"widget\", 42).\n"
      "@input(\"edge\").\n"
      "price(n, p) -> out(n, p).\n"
      "edge(x, y) -> reach(x, y).\n"
      "@output(\"out\").\n"
      "@output(\"reach\").\n");
  ASSERT_TRUE(r.findings.empty());
  const std::vector<AbstractValue>* price = r.SignatureOf("price");
  ASSERT_NE(price, nullptr);
  ASSERT_EQ(price->size(), 2u);
  EXPECT_TRUE((*price)[0].certainly(kKindString));
  EXPECT_TRUE((*price)[1].certainly(kKindInt));
  EXPECT_TRUE((*price)[1].has_const);

  const std::vector<AbstractValue>* out = r.SignatureOf("out");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE((*out)[0].certainly(kKindString));
  EXPECT_TRUE((*out)[1].certainly(kKindInt));

  // @input content is data, not text: top at every position, and so is
  // anything derived from it.
  const std::vector<AbstractValue>* edge = r.SignatureOf("edge");
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ((*edge)[0].kinds, kKindAny);
  const std::vector<AbstractValue>* reach = r.SignatureOf("reach");
  ASSERT_NE(reach, nullptr);
  EXPECT_EQ((*reach)[1].kinds, kKindAny);
}

TEST(TypeflowSignatureTest, RecursiveArithmeticConvergesViaWidening) {
  // Without widening the interval of `c` would grow one step per pass for
  // a million passes; the analysis must converge to plain int instead.
  TypeflowResult r = Analyze(
      "@fact c(0).\n"
      "c(x), x < 1000000, y = x + 1 -> c(y).\n"
      "@output(\"c\").\n");
  EXPECT_EQ(FindKind(r, TypeflowFindingKind::kTypeConflict), nullptr);
  const std::vector<AbstractValue>* c = r.SignatureOf("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE((*c)[0].certainly(kKindInt));
}

TEST(TypeflowSignatureTest, DerivedWithoutSeedsStaysBottom) {
  // Mutual recursion with no extensional seed: nothing ever fires.
  TypeflowResult r = Analyze(
      "a(x) -> b(x).\n"
      "b(x) -> a(x).\n"
      "@output(\"b\").\n");
  const std::vector<AbstractValue>* b = r.SignatureOf("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE((*b)[0].is_bottom());
}

TEST(TypeflowSignatureTest, ExternalPredicatesSeedTopEvenWhenDerived) {
  // The MetaLog shape: a catalog label is EDB-fed by the graph encoding
  // AND derived into by compiled rules.  Declaring it external breaks the
  // bottom deadlock.
  const char* source =
      "lbl(x) -> lbl2(x).\n"
      "lbl2(x) -> lbl(x).\n"
      "@output(\"lbl2\").\n";
  TypeflowResult plain = Analyze(source);
  ASSERT_NE(plain.SignatureOf("lbl2"), nullptr);
  EXPECT_TRUE((*plain.SignatureOf("lbl2"))[0].is_bottom());

  TypeflowResult seeded = Analyze(source, {"lbl"});
  ASSERT_NE(seeded.SignatureOf("lbl2"), nullptr);
  EXPECT_EQ((*seeded.SignatureOf("lbl2"))[0].kinds, kKindAny);
}

TEST(TypeflowSignatureTest, RenderSignatureIsStable) {
  TypeflowResult r = Analyze("@fact p(1, \"a\").\n@output(\"p\").\n");
  EXPECT_EQ(r.RenderSignature("p"), "p(int=1, string=\"a\")");
  EXPECT_EQ(r.RenderSignature("missing"), "missing()");
}

// ------------------------------------------------------------- findings

TEST(TypeflowFindingTest, JoinOfDisjointKindsIsTypeConflict) {
  TypeflowResult r = Analyze(
      "@fact p(\"a\").\n"
      "@fact q(1).\n"
      "p(x), q(x) -> r(x).\n"
      "@output(\"r\").\n");
  const TypeflowFinding* f = FindKind(r, TypeflowFindingKind::kTypeConflict);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rule_index, 0);
  EXPECT_NE(f->message.find("incompatible"), std::string::npos) << f->message;
  // The dead join also makes the derived predicate bottom.
  ASSERT_NE(r.SignatureOf("r"), nullptr);
  EXPECT_TRUE((*r.SignatureOf("r"))[0].is_bottom());
}

TEST(TypeflowFindingTest, NonNumericAggregateIsTypeConflict) {
  TypeflowResult r = Analyze(
      "@fact p(\"k\", \"v\").\n"
      "p(x, w), m = msum(w, <x>) -> q(m).\n"
      "@output(\"q\").\n");
  const TypeflowFinding* f = FindKind(r, TypeflowFindingKind::kTypeConflict);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("msum"), std::string::npos) << f->message;
}

TEST(TypeflowFindingTest, StaticallyFalseConditionIsUnsatRule) {
  TypeflowResult r = Analyze(
      "@fact p(1).\n"
      "@fact p(3).\n"
      "p(x), x > 5 -> q(x).\n"
      "@output(\"q\").\n");
  const TypeflowFinding* f = FindKind(r, TypeflowFindingKind::kUnsatRule);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rule_index, 0);
  EXPECT_NE(f->message.find("always false"), std::string::npos) << f->message;
}

TEST(TypeflowFindingTest, NullIntoScalarOutputIsNullFlow) {
  TypeflowResult r = Analyze(
      "@fact src(1).\n"
      "src(x) -> exists n out(x, n).\n"
      "src(x) -> out(x, x).\n"
      "@output(\"out\").\n");
  const TypeflowFinding* f = FindKind(r, TypeflowFindingKind::kNullFlow);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rule_index, -1);
  EXPECT_EQ(f->output_index, 0);
  EXPECT_NE(f->message.find("position 1"), std::string::npos) << f->message;
}

TEST(TypeflowFindingTest, NullBesideStringsOrTopDoesNotWarn) {
  // Skolem ids next to string ids are the normal MetaLog shape; and top
  // positions (fed from @input) must never be read as "nulls proven".
  TypeflowResult ids = Analyze(
      "@fact src(\"a\").\n"
      "src(x) -> exists n out(x, n).\n"
      "src(x) -> out(x, x).\n"
      "@output(\"out\").\n");
  EXPECT_EQ(FindKind(ids, TypeflowFindingKind::kNullFlow), nullptr);

  TypeflowResult top = Analyze(
      "@input(\"src\").\n"
      "src(x, y) -> out(x, y).\n"
      "@output(\"out\").\n");
  EXPECT_EQ(FindKind(top, TypeflowFindingKind::kNullFlow), nullptr);
}

TEST(TypeflowFindingTest, FindingOrderIsDeterministic) {
  const char* source =
      "@fact p(\"a\").\n"
      "@fact q(1).\n"
      "p(x), q(x) -> r(x).\n"
      "q(y), y > 99 -> s(y).\n"
      "@output(\"r\").\n"
      "@output(\"s\").\n";
  auto parsed = ParseProgram(source);
  ASSERT_TRUE(parsed.ok());
  TypeflowResult a = AnalyzeTypeflow(*parsed);
  TypeflowResult b = AnalyzeTypeflow(*parsed);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  ASSERT_EQ(a.findings.size(), 2u);
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
  }
  EXPECT_LE(a.findings[0].rule_index, a.findings[1].rule_index);
}

}  // namespace
}  // namespace kgm::vadalog
