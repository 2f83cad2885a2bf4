// Miner tests: hand-checked anchors on a tiny database for FP-growth and
// the brute-force reference, plus randomized equivalence sweeps of
// FP-growth against the reference, in every mode.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "cube/builder.h"
#include "fpm/brute_force.h"
#include "fpm/fpgrowth.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {
namespace {

TransactionDb TextbookDb() {
  // Han's textbook example (items recoded: f=0,c=1,a=2,b=3,m=4,p=5,i=6,...).
  TransactionDb db;
  db.AddTransaction({0, 2, 1, 4, 5});  // f a c m p (+dropped infrequent)
  db.AddTransaction({0, 1, 2, 3, 4});  // f c a b m
  db.AddTransaction({0, 3});           // f b
  db.AddTransaction({1, 3, 5});        // c b p
  db.AddTransaction({0, 1, 2, 4, 5});  // f c a m p
  return db;
}

std::map<Itemset, uint64_t> AsMap(const std::vector<FrequentItemset>& sets) {
  std::map<Itemset, uint64_t> m;
  for (const auto& fs : sets) m[fs.items] = fs.support;
  return m;
}

TEST(MinerOptionsTest, Validation) {
  MinerOptions bad;
  bad.min_support = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
  bad.min_support = 1;
  bad.max_length = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
}

using MineFn = Result<std::vector<FrequentItemset>> (*)(
    const TransactionDb&, const MinerOptions&);

// The anchors hold for the engine and for the reference it is checked
// against.
class MinerTest : public ::testing::TestWithParam<MineFn> {
 protected:
  Result<std::vector<FrequentItemset>> Mine(const TransactionDb& db,
                                            const MinerOptions& opts) const {
    return GetParam()(db, opts);
  }
};

TEST_P(MinerTest, TextbookSupports) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());

  // Hand-checked supports at minsup 3.
  EXPECT_EQ(m.at(Itemset({0})), 4u);        // f
  EXPECT_EQ(m.at(Itemset({1})), 4u);        // c
  EXPECT_EQ(m.at(Itemset({2})), 3u);        // a
  EXPECT_EQ(m.at(Itemset({3})), 3u);        // b
  EXPECT_EQ(m.at(Itemset({4})), 3u);        // m
  EXPECT_EQ(m.at(Itemset({5})), 3u);        // p
  EXPECT_EQ(m.at(Itemset({0, 1})), 3u);     // fc
  EXPECT_EQ(m.at(Itemset({0, 2})), 3u);     // fa
  EXPECT_EQ(m.at(Itemset({1, 2})), 3u);     // ca
  EXPECT_EQ(m.at(Itemset({0, 4})), 3u);     // fm
  EXPECT_EQ(m.at(Itemset({1, 4})), 3u);     // cm
  EXPECT_EQ(m.at(Itemset({2, 4})), 3u);     // am
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);     // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2})), 3u);  // fca
  EXPECT_EQ(m.at(Itemset({0, 1, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
  // b pairs are all below minsup.
  EXPECT_EQ(m.count(Itemset({0, 3})), 0u);
  EXPECT_EQ(m.count(Itemset({1, 3})), 0u);
  EXPECT_EQ(m.size(), 18u);
}

TEST_P(MinerTest, ClosedModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kClosed;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  // Closed sets at minsup 3: {f}:4, {c}:4, {b}:3, {cp}:3, {fcam}:3, {fc}...
  // {fc} support 3 == {fcam} support -> not closed. {f}:4 closed, {c}:4
  // closed, {fcam}:3 closed, {cp}:3 closed, {b}:3 closed.
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.at(Itemset({0})), 4u);
  EXPECT_EQ(m.at(Itemset({1})), 4u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);
}

TEST_P(MinerTest, MaximalModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kMaximal;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);           // b
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);        // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
}

TEST_P(MinerTest, MaxLengthCap) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.max_length = 2;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& fs : result.value()) {
    EXPECT_LE(fs.items.size(), 2u);
  }
  // All 6 singletons + 7 pairs.
  EXPECT_EQ(result.value().size(), 13u);
}

TEST_P(MinerTest, MinSupportOneFindsEverything) {
  TransactionDb db;
  db.AddTransaction({0, 1});
  db.AddTransaction({1, 2});
  MinerOptions opts;
  opts.min_support = 1;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 5u);  // {0},{1},{2},{01},{12}
  EXPECT_EQ(m.at(Itemset({1})), 2u);
}

TEST_P(MinerTest, NoFrequentItems) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({1});
  MinerOptions opts;
  opts.min_support = 2;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST_P(MinerTest, IncludeEmptyItemset) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({0, 1});
  MinerOptions opts;
  opts.min_support = 1;
  opts.include_empty = true;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.at(Itemset()), 2u);
}

TEST_P(MinerTest, EmptyDatabase) {
  TransactionDb db;
  MinerOptions opts;
  opts.min_support = 1;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, MinerTest,
                         ::testing::Values(&MineFpGrowth, &MineBruteForce),
                         [](const ::testing::TestParamInfo<MineFn>& info) {
                           return info.param == &MineFpGrowth ? "FpGrowth"
                                                              : "BruteForce";
                         });

// ---------------------------------------------------------------------------
// Randomized equivalence sweep: FP-growth in every mode must match the
// brute-force reference exactly on random databases.
// ---------------------------------------------------------------------------

struct SweepParams {
  uint64_t seed;
  size_t num_transactions;
  size_t num_items;
  double item_prob;
  uint64_t min_support;
  uint32_t max_length;
  bool include_empty = false;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(EquivalenceSweep, FpGrowthMatchesBruteForce) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  TransactionDb db;
  for (size_t t = 0; t < p.num_transactions; ++t) {
    std::vector<ItemId> items;
    for (size_t i = 0; i < p.num_items; ++i) {
      if (rng.NextBool(p.item_prob)) items.push_back(static_cast<ItemId>(i));
    }
    db.AddTransaction(std::move(items));
  }

  for (MineMode mode : {MineMode::kAll, MineMode::kClosed, MineMode::kMaximal}) {
    MinerOptions opts;
    opts.min_support = p.min_support;
    opts.max_length = p.max_length;
    opts.mode = mode;
    opts.include_empty = p.include_empty;
    auto expected = MineBruteForce(db, opts);
    ASSERT_TRUE(expected.ok());
    auto actual = MineFpGrowth(db, opts);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(actual.value().size(), expected.value().size())
        << "mode=" << static_cast<int>(mode);
    ASSERT_EQ(actual.value(), expected.value())
        << "mode=" << static_cast<int>(mode);
  }
}

// The random databases, each mined as given and again the way
// BuildSegregationCube mines: the empty itemset included (the all-* root)
// and the length capped at max_sa_items + max_ca_items.
std::vector<SweepParams> SweepCases() {
  const std::vector<SweepParams> dbs = {
      {101, 30, 8, 0.4, 2, 32},
      {102, 50, 6, 0.5, 3, 32},
      {103, 20, 10, 0.3, 2, 4},   // length-capped
      {104, 80, 5, 0.6, 5, 32},   // dense
      {105, 40, 12, 0.15, 2, 3},  // sparse, capped
      {106, 10, 4, 0.9, 2, 32},   // tiny and very dense
      {107, 60, 7, 0.45, 6, 32},
      {108, 25, 9, 0.35, 1, 32},  // minsup 1
  };
  const cube::CubeBuilderOptions builder;
  std::vector<SweepParams> cases = dbs;
  for (SweepParams p : dbs) {
    p.max_length = builder.max_sa_items + builder.max_ca_items;
    p.include_empty = true;
    cases.push_back(p);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomDbs, EquivalenceSweep,
                         ::testing::ValuesIn(SweepCases()));

}  // namespace
}  // namespace fpm
}  // namespace scube
