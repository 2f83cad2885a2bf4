#include "scube/config.h"

#include <gtest/gtest.h>

namespace scube {
namespace pipeline {
namespace {

TEST(ConfigTest, EmptyTextYieldsDefaults) {
  auto config = ParsePipelineConfig("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->unit_source, UnitSource::kGroupClusters);
  EXPECT_EQ(config->method, ClusterMethod::kThreshold);
  EXPECT_EQ(config->cube.min_support, 1u);
}

TEST(ConfigTest, ParsesAllKeys) {
  auto config = ParsePipelineConfig(R"(
# SCube analysis configuration
unit_source = group-attribute
group_unit_attribute = hq_province
date = 2010
method = stoc
threshold.min_weight = 3.5
threshold.giant_only = false
stoc.tau = 0.4
stoc.alpha = 0.7
stoc.max_radius = 3
projection.hub_cap = 25
projection.min_weight = 2
cube.min_support = 42
cube.min_support_fraction = 0.01
cube.max_sa_items = 3
cube.max_ca_items = 2
cube.mode = all
cube.atkinson_b = 0.25
cube.num_threads = 4
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->unit_source, UnitSource::kGroupAttribute);
  EXPECT_EQ(config->group_unit_attribute, "hq_province");
  EXPECT_EQ(config->date, 2010);
  EXPECT_EQ(config->method, ClusterMethod::kStoc);
  EXPECT_DOUBLE_EQ(config->threshold.min_weight, 3.5);
  EXPECT_FALSE(config->threshold.giant_only);
  EXPECT_DOUBLE_EQ(config->stoc.tau, 0.4);
  EXPECT_DOUBLE_EQ(config->stoc.alpha, 0.7);
  EXPECT_EQ(config->stoc.max_radius, 3u);
  EXPECT_EQ(config->projection.hub_cap, 25u);
  EXPECT_DOUBLE_EQ(config->projection.min_weight, 2.0);
  EXPECT_EQ(config->cube.min_support, 42u);
  EXPECT_DOUBLE_EQ(config->cube.min_support_fraction, 0.01);
  EXPECT_EQ(config->cube.max_sa_items, 3u);
  EXPECT_EQ(config->cube.max_ca_items, 2u);
  EXPECT_EQ(config->cube.mode, fpm::MineMode::kAll);
  EXPECT_DOUBLE_EQ(config->cube.index_params.atkinson_b, 0.25);
  EXPECT_EQ(config->cube.num_threads, 4u);
}

TEST(ConfigTest, RejectsUnknownKey) {
  auto config = ParsePipelineConfig("frobnicate = 7\n");
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(ConfigTest, RejectsMalformedLine) {
  auto config = ParsePipelineConfig("unit_source group-clusters\n");
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ConfigTest, RejectsBadValues) {
  EXPECT_FALSE(ParsePipelineConfig("unit_source = galaxy\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("method = k-means\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.mode = some\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.min_support = 0\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.min_support = banana\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("threshold.giant_only = maybe\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("stoc.max_radius = -1\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.num_threads = -2\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.num_threads = many\n").ok());
  // uint32 keys reject values they would otherwise truncate.
  EXPECT_FALSE(ParsePipelineConfig("cube.max_sa_items = 4294967297\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("stoc.max_radius = 4294967296\n").ok());
  EXPECT_TRUE(ParsePipelineConfig("stoc.max_radius = 4294967295\n").ok());
  // Atkinson's b is checked at parse time, not after mining.
  auto atkinson = ParsePipelineConfig("cube.atkinson_b = 1.5\n");
  EXPECT_EQ(atkinson.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(atkinson.status().message().find(
                "Atkinson parameter b must be in (0,1)"),
            std::string::npos);
  // So are SToC's tau and alpha, with the message SToC itself would give.
  for (const char* text : {"stoc.tau = 5\n", "stoc.tau = -0.1\n",
                           "stoc.alpha = 1.5\n", "stoc.alpha = -1\n"}) {
    auto stoc = ParsePipelineConfig(text);
    EXPECT_EQ(stoc.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(stoc.status().message().find("must be in [0,1]"),
              std::string::npos)
        << text << " -> " << stoc.status();
  }
  EXPECT_TRUE(ParsePipelineConfig("stoc.tau = 0\nstoc.alpha = 1\n").ok());
}

TEST(ConfigTest, RejectsNonFiniteDoubles) {
  // Every comparison against NaN is false, so a nan threshold would run
  // to the end and quietly change the answer.
  for (const char* text :
       {"threshold.min_weight = nan\n", "threshold.min_weight = inf\n",
        "threshold.min_weight = -inf\n", "threshold.min_weight = 1e999\n",
        "stoc.tau = nan\n", "stoc.alpha = NAN\n",
        "cube.atkinson_b = nan\n"}) {
    auto config = ParsePipelineConfig(text);
    EXPECT_FALSE(config.ok()) << text;
    EXPECT_EQ(config.status().code(), StatusCode::kParseError)
        << text << " -> " << config.status();
  }
}

TEST(ConfigTest, ErrorsCarryLineNumbers) {
  auto config = ParsePipelineConfig("date = 2000\nbad_key = 1\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, RoundTripThroughToString) {
  PipelineConfig original;
  original.unit_source = UnitSource::kIndividualClusters;
  original.method = ClusterMethod::kLouvain;
  original.date = 1999;
  original.cube.min_support = 77;
  original.cube.mode = fpm::MineMode::kMaximal;
  original.cube.num_threads = 8;
  original.stoc.tau = 0.3333;
  original.stoc.alpha = 0.1 + 0.2;  // 0.30000000000000004: all 17 digits
  original.threshold.min_weight = 2.0 / 3.0;
  original.projection.min_weight = 1e300;
  original.cube.min_support_fraction = 1e-7;
  original.cube.index_params.atkinson_b = 0.123456789;
  original.cube.max_sa_items = 4294967295u;

  auto parsed = ParsePipelineConfig(PipelineConfigToString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->unit_source, original.unit_source);
  EXPECT_EQ(parsed->method, original.method);
  EXPECT_EQ(parsed->date, original.date);
  EXPECT_EQ(parsed->cube.min_support, original.cube.min_support);
  EXPECT_EQ(parsed->cube.mode, original.cube.mode);
  EXPECT_EQ(parsed->cube.num_threads, original.cube.num_threads);
  // Exact equality: the text form must lose no digits.
  EXPECT_EQ(parsed->stoc.tau, original.stoc.tau);
  EXPECT_EQ(parsed->stoc.alpha, original.stoc.alpha);
  EXPECT_EQ(parsed->threshold.min_weight, original.threshold.min_weight);
  EXPECT_EQ(parsed->projection.min_weight, original.projection.min_weight);
  EXPECT_EQ(parsed->cube.min_support_fraction,
            original.cube.min_support_fraction);
  EXPECT_EQ(parsed->cube.index_params.atkinson_b,
            original.cube.index_params.atkinson_b);
  EXPECT_EQ(parsed->cube.max_sa_items, original.cube.max_sa_items);
  EXPECT_EQ(PipelineConfigToString(parsed.value()),
            PipelineConfigToString(original));
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  auto config = ParsePipelineConfig(
      "# comment\n\n   \n# another\ndate = 5\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->date, 5);
}

}  // namespace
}  // namespace pipeline
}  // namespace scube
