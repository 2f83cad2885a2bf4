#include "graph/stoc.h"

#include <gtest/gtest.h>

#include <cmath>

namespace scube {
namespace graph {
namespace {

Graph MustBuild(uint32_t n, const std::vector<WeightedEdge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

// Two 4-cliques joined by one bridge; attribute tokens aligned with cliques.
struct TwoCliqueFixture {
  Graph graph;
  NodeAttributes attrs;

  TwoCliqueFixture()
      : graph(MustBuild(8, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1},
                            {1, 3, 1}, {2, 3, 1},
                            {4, 5, 1}, {4, 6, 1}, {4, 7, 1}, {5, 6, 1},
                            {5, 7, 1}, {6, 7, 1},
                            {3, 4, 1}})),  // bridge
        attrs(8) {
    for (NodeId u = 0; u < 4; ++u) attrs.SetTokens(u, {100, 101});
    for (NodeId u = 4; u < 8; ++u) attrs.SetTokens(u, {200, 201});
  }
};

TEST(StocSimilarityTest, CombinedMix) {
  TwoCliqueFixture f;
  // Same clique: high topological overlap, identical attributes.
  double same = StocSimilarity(f.graph, f.attrs, 0, 1, 0.5);
  // Across the bridge: no attribute overlap, low topology overlap.
  double cross = StocSimilarity(f.graph, f.attrs, 0, 4, 0.5);
  EXPECT_GT(same, 0.8);
  EXPECT_LT(cross, 0.2);

  // alpha = 0: pure attributes.
  EXPECT_DOUBLE_EQ(StocSimilarity(f.graph, f.attrs, 0, 1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(StocSimilarity(f.graph, f.attrs, 0, 4, 0.0), 0.0);

  // alpha = 1: pure topology. Nodes 0,1 share {0,1,2,3}; union adds nothing
  // else -> J = 4/4 = 1.
  EXPECT_DOUBLE_EQ(StocSimilarity(f.graph, f.attrs, 0, 1, 1.0), 1.0);
}

TEST(StocClusteringTest, SeparatesAttributedCliques) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.tau = 0.5;
  auto c = StocClustering(f.graph, f.attrs, opts);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->num_clusters, 2u);
  EXPECT_EQ(c->labels[0], c->labels[1]);
  EXPECT_EQ(c->labels[0], c->labels[2]);
  EXPECT_EQ(c->labels[0], c->labels[3]);
  EXPECT_EQ(c->labels[4], c->labels[5]);
  EXPECT_EQ(c->labels[4], c->labels[7]);
  EXPECT_NE(c->labels[0], c->labels[4]);
}

TEST(StocClusteringTest, TauOneYieldsFinePartition) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.tau = 1.0;
  auto c = StocClustering(f.graph, f.attrs, opts);
  ASSERT_TRUE(c.ok());
  // Only pairs with perfect combined similarity can merge — with the bridge
  // present no cross-clique merge is possible; the partition is fine-grained.
  EXPECT_GE(c->num_clusters, 2u);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 4; v < 8; ++v) {
      EXPECT_NE(c->labels[u], c->labels[v]);
    }
  }
}

TEST(StocClusteringTest, TauZeroMergesNeighbourhoods) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.tau = 0.0;
  opts.max_radius = 8;
  auto c = StocClustering(f.graph, f.attrs, opts);
  ASSERT_TRUE(c.ok());
  // Everything reachable joins the first seed's cluster.
  EXPECT_EQ(c->num_clusters, 1u);
}

TEST(StocClusteringTest, DeterministicGivenSeed) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.rng_seed = 77;
  auto a = StocClustering(f.graph, f.attrs, opts);
  auto b = StocClustering(f.graph, f.attrs, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(StocClusteringTest, RadiusLimitsBallGrowth) {
  // Path graph with identical attributes: tau 0 would merge everything,
  // but radius 1 creates balls of limited reach.
  Graph path = MustBuild(6, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1},
                             {4, 5, 1}});
  NodeAttributes attrs(6);
  for (NodeId u = 0; u < 6; ++u) attrs.SetTokens(u, {1});
  StocOptions opts;
  opts.tau = 0.0;
  opts.max_radius = 1;
  auto c = StocClustering(path, attrs, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->num_clusters, 1u);
}

TEST(StocClusteringTest, ValidatesParameters) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.tau = 1.5;
  EXPECT_FALSE(StocClustering(f.graph, f.attrs, opts).ok());
  opts.tau = 0.5;
  opts.alpha = -0.1;
  EXPECT_FALSE(StocClustering(f.graph, f.attrs, opts).ok());

  opts.alpha = std::nan("");
  EXPECT_FALSE(StocClustering(f.graph, f.attrs, opts).ok());

  NodeAttributes short_attrs(2);
  opts.alpha = 0.5;
  EXPECT_FALSE(StocClustering(f.graph, short_attrs, opts).ok());

  EXPECT_TRUE(CheckStocFraction("tau", 0.0).ok());
  EXPECT_TRUE(CheckStocFraction("tau", 1.0).ok());
  Status bad = CheckStocFraction("alpha", std::nan(""));
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "alpha must be in [0,1]");
}

TEST(StocClusteringTest, EveryNodeAssigned) {
  TwoCliqueFixture f;
  StocOptions opts;
  opts.tau = 0.9;
  auto c = StocClustering(f.graph, f.attrs, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->labels.size(), 8u);
  for (uint32_t label : c->labels) {
    EXPECT_LT(label, c->num_clusters);
  }
}

}  // namespace
}  // namespace graph
}  // namespace scube
