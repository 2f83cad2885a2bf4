#include "query/parser.h"

#include <gtest/gtest.h>

#include "query/ast.h"

namespace scube {
namespace query {
namespace {

Query MustParse(const std::string& text) {
  auto q = Parse(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status();
  return q.ok() ? std::move(q).value() : Query{};
}

TEST(ParserTest, TopKWithWhere) {
  Query q = MustParse("TOPK 5 BY dissimilarity WHERE T >= 30 AND M >= 5");
  EXPECT_EQ(q.verb, Verb::kTopK);
  EXPECT_EQ(q.k, 5u);
  EXPECT_EQ(q.by, indexes::IndexKind::kDissimilarity);
  ASSERT_TRUE(q.min_t.has_value());
  EXPECT_EQ(*q.min_t, 30u);
  ASSERT_TRUE(q.min_m.has_value());
  EXPECT_EQ(*q.min_m, 5u);
}

TEST(ParserTest, SliceBothAxes) {
  Query q = MustParse("SLICE sa=sex=F & age=young | ca=region=north");
  EXPECT_EQ(q.verb, Verb::kSlice);
  ASSERT_EQ(q.sa.size(), 2u);
  // Constraints are normalised into sorted order.
  EXPECT_EQ(q.sa[0], (AttrValue{"age", "young"}));
  EXPECT_EQ(q.sa[1], (AttrValue{"sex", "F"}));
  ASSERT_EQ(q.ca.size(), 1u);
  EXPECT_EQ(q.ca[0], (AttrValue{"region", "north"}));
}

TEST(ParserTest, KeywordsCaseInsensitiveValuesNot) {
  Query q = MustParse("topk 3 by GINI where t >= 10");
  EXPECT_EQ(q.verb, Verb::kTopK);
  EXPECT_EQ(q.by, indexes::IndexKind::kGini);
  Query v = MustParse("slice sa=sex=F");
  EXPECT_EQ(v.sa[0].value, "F");  // value case preserved
}

TEST(ParserTest, QuotedValuesAndClauses) {
  Query q = MustParse(
      "DICE ca=sector='real estate' FROM italy_2012 ORDER BY T ASC LIMIT 7");
  EXPECT_EQ(q.verb, Verb::kDice);
  EXPECT_EQ(q.ca[0].value, "real estate");
  EXPECT_EQ(q.cube, "italy_2012");
  ASSERT_TRUE(q.order.has_value());
  EXPECT_EQ(q.order->key, OrderBy::Key::kContextSize);
  EXPECT_FALSE(q.order->descending);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 7u);
}

TEST(ParserTest, ExplorerVerbsWithThresholds) {
  Query s = MustParse("SURPRISES BY information MINDELTA 0.25");
  EXPECT_EQ(s.verb, Verb::kSurprises);
  EXPECT_EQ(s.by, indexes::IndexKind::kInformation);
  EXPECT_DOUBLE_EQ(s.threshold, 0.25);

  Query r = MustParse("REVERSALS MINGAP 0.4");
  EXPECT_EQ(r.verb, Verb::kReversals);
  EXPECT_DOUBLE_EQ(r.threshold, 0.4);
  // BY defaults to dissimilarity.
  EXPECT_EQ(r.by, indexes::IndexKind::kDissimilarity);
}

TEST(ParserTest, RollupAndDrilldownCoordsOptional) {
  Query root = MustParse("DRILLDOWN");
  EXPECT_EQ(root.verb, Verb::kDrilldown);
  EXPECT_TRUE(root.sa.empty());
  EXPECT_TRUE(root.ca.empty());

  Query up = MustParse("ROLLUP sa=sex=F | ca=region=north");
  EXPECT_EQ(up.verb, Verb::kRollup);
  EXPECT_EQ(up.sa.size(), 1u);
  EXPECT_EQ(up.ca.size(), 1u);
}

TEST(ParserTest, FromVersionPin) {
  Query q = MustParse("TOPK 5 BY gini FROM italy@3");
  EXPECT_EQ(q.cube, "italy");
  ASSERT_TRUE(q.cube_version.has_value());
  EXPECT_EQ(*q.cube_version, 3u);
  EXPECT_EQ(Canonical(q), "TOPK 5 BY gini FROM italy@3");

  // Unpinned FROM leaves the version unset (latest).
  Query latest = MustParse("TOPK 5 BY gini FROM italy");
  EXPECT_FALSE(latest.cube_version.has_value());
  EXPECT_FALSE(latest == q);
}

TEST(ParserTest, LimitOffsetPagination) {
  Query q = MustParse("DICE sa=sex=F LIMIT 10 OFFSET 20");
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10u);
  ASSERT_TRUE(q.offset.has_value());
  EXPECT_EQ(*q.offset, 20u);
  EXPECT_EQ(Canonical(q), "DICE sa=sex=F LIMIT 10 OFFSET 20");

  // OFFSET stands alone too (skip a prefix, unbounded tail).
  Query skip = MustParse("SLICE sa=sex=F OFFSET 5");
  EXPECT_FALSE(skip.limit.has_value());
  ASSERT_TRUE(skip.offset.has_value());
  EXPECT_EQ(*skip.offset, 5u);

  // An unset OFFSET is not the same query as OFFSET 0 (distinct canonical
  // forms), and a bare LIMIT parses as before.
  Query plain = MustParse("DICE sa=sex=F LIMIT 10");
  EXPECT_FALSE(plain.offset.has_value());
  EXPECT_FALSE(plain == q);
}

TEST(ParserTest, DuplicateConstraintsDeduplicated) {
  Query q = MustParse("DICE sa=sex=F & sex=F");
  EXPECT_EQ(q.sa.size(), 1u);
}

TEST(ParserTest, CanonicalRoundTrip) {
  const char* inputs[] = {
      "TOPK 5 BY dissimilarity WHERE T >= 30",
      "topk 10 by atkinson where m >= 5 and t >= 100 order by gini asc",
      "SLICE sa=sex=F & age=young | ca=region=north",
      "slice ca=region=south",
      "DICE sa=age=young LIMIT 3",
      "DICE sa=age=young LIMIT 3 OFFSET 6",
      "SLICE sa=sex=F OFFSET 2",
      "ROLLUP sa=sex=F | ca=region=north FROM cube_b",
      "DRILLDOWN",
      "SURPRISES BY isolation MINDELTA 0.2 ORDER BY M DESC",
      "REVERSALS MINGAP 0.15 FROM sectors LIMIT 4",
      "DICE ca=sector='real estate'",
      "TOPK 3 BY gini FROM italy_2012@2",
  };
  for (const char* text : inputs) {
    Query first = MustParse(text);
    std::string canonical = Canonical(first);
    Query second = MustParse(canonical);
    EXPECT_TRUE(first == second) << text << " vs " << canonical;
    EXPECT_EQ(canonical, Canonical(second)) << text;
  }
}

TEST(ParserTest, CanonicalNormalisesEquivalentSpellings) {
  Query a = MustParse("topk 5 by gini where t >= 30");
  Query b = MustParse("TOPK 5 BY gini WHERE T >= 30");
  EXPECT_EQ(Canonical(a), Canonical(b));

  // Coordinate order does not matter.
  Query c = MustParse("DICE sa=sex=F & age=young");
  Query d = MustParse("DICE sa=age=young & sex=F");
  EXPECT_EQ(Canonical(c), Canonical(d));
}

struct ErrorCase {
  const char* text;
  const char* expect_substring;
};

TEST(ParserTest, ErrorsCarryColumnAndContext) {
  const ErrorCase cases[] = {
      {"FROBNICATE sa=sex=F", "unknown verb"},
      {"", "expected a query verb"},
      {"SLICE", "expected coordinates"},
      {"SLICE sex=F", "expected 'sa=' or 'ca='"},
      {"SLICE sa=sex", "expected '=' after attribute 'sex'"},
      {"TOPK BY gini", "expected an integer for TOPK count"},
      {"TOPK 5 gini", "expected BY"},
      {"TOPK 5 BY fairness", "unknown index 'fairness'"},
      {"TOPK 0 BY gini", "must be positive"},
      {"TOPK 5 BY gini WHERE T > 30", "only '>=' comparisons"},
      {"TOPK 5 BY gini WHERE T >= -1", "non-negative integer"},
      {"TOPK -5 BY gini", "non-negative integer"},
      {"TOPK 5 BY gini LIMIT -1", "non-negative integer"},
      {"TOPK 5 BY gini LIMIT 0", "LIMIT must be positive"},
      {"TOPK 5 BY gini OFFSET -2", "non-negative integer"},
      {"TOPK 5 BY gini OFFSET", "expected an integer for OFFSET"},
      {"TOPK 5 BY gini WHERE units >= 3", "WHERE supports T >="},
      {"TOPK 5 BY gini ORDER BY size", "unknown ORDER BY key"},
      {"DICE ca=sector='real estate", "unterminated quoted value"},
      {"DRILLDOWN sa=sex=F garbage", "unexpected trailing input"},
      {"SLICE sa=sex=F ^", "unexpected character"},
      {"TOPK 5 BY gini FROM italy@", "expected an integer for FROM version"},
      {"TOPK 5 BY gini FROM italy@v2", "expected an integer for FROM version"},
      {"TOPK 5 BY gini FROM italy@0", "versions start at 1"},
      // Thresholds are finite: every comparison against NaN is false.
      {"SURPRISES MINDELTA nan", "expected a finite number for mindelta"},
      {"SURPRISES MINDELTA NaN", "expected a finite number for mindelta"},
      {"REVERSALS MINGAP inf", "expected a finite number for mingap"},
      {"REVERSALS MINGAP infinity", "expected a finite number for mingap"},
      {"REVERSALS MINGAP 1e999", "expected a finite number for mingap"},
      {"SURPRISES MINDELTA 0.1x", "expected a finite number for mindelta"},
  };
  for (const ErrorCase& c : cases) {
    auto q = Parse(c.text);
    ASSERT_FALSE(q.ok()) << c.text;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << c.text;
    EXPECT_NE(q.status().message().find("col "), std::string::npos)
        << c.text << " -> " << q.status().message();
    EXPECT_NE(q.status().message().find(c.expect_substring),
              std::string::npos)
        << c.text << " -> " << q.status().message();
  }
}

}  // namespace
}  // namespace query
}  // namespace scube
