#include "query/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace scube {
namespace query {
namespace {

// Small hand-built cube: sex=F (SA), region=north/south (CA).
cube::SegregationCube MakeCube(double f_north_dissimilarity) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);     // id 0
  catalog.GetOrAdd(1, "region", "north", AttributeKind::kContext);  // id 1
  catalog.GetOrAdd(2, "region", "south", AttributeKind::kContext);  // id 2

  auto make_cell = [](std::vector<fpm::ItemId> sa,
                      std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                      double d) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                        fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(make_cell({0}, {}, 100, 40, 0.10));
  cube.Insert(make_cell({0}, {1}, 60, 25, f_north_dissimilarity));
  cube.Insert(make_cell({0}, {2}, 40, 15, 0.20));
  return cube;
}

TEST(QueryServiceTest, ExecutesAndCaches) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  auto first =
      service.ExecuteOne("TOPK 2 BY dissimilarity WHERE T >= 1 AND M >= 1");
  ASSERT_TRUE(first.status.ok()) << first.status;
  ASSERT_EQ(first.result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(first.result.rows[0].value, 0.5);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.cube, "default");
  EXPECT_EQ(first.cube_version, 1u);

  // Equivalent spelling: same canonical form, answered from the cache.
  auto second =
      service.ExecuteOne("topk 2 by dissimilarity where m >= 1 and t >= 1");
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(ToJson(second.result), ToJson(first.result));
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

TEST(QueryServiceTest, ErrorsAreReportedPerQuery) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  auto responses = service.ExecuteBatch({
      "TOPK 1 BY dissimilarity WHERE M >= 1",
      "TOPK 1 BY",                   // parse error
      "SLICE sa=sex=X",              // resolution error
      "TOPK 1 BY gini FROM nowhere"  // unknown cube
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kParseError);
  EXPECT_EQ(responses[2].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(responses[3].status.code(), StatusCode::kNotFound);
  EXPECT_NE(responses[3].status.message().find("no cube published"),
            std::string::npos);
}

TEST(QueryServiceTest, PublishingInvalidatesByVersion) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  auto before = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(
      before.result.rows[0].indexes[static_cast<size_t>(
          indexes::IndexKind::kDissimilarity)],
      0.5);

  // Publish a new version of the cube: the same query must not be served
  // from the now-stale cache entry.
  store.Publish("default", MakeCube(0.9));
  auto after = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.cube_version, 2u);
  EXPECT_DOUBLE_EQ(
      after.result.rows[0].indexes[static_cast<size_t>(
          indexes::IndexKind::kDissimilarity)],
      0.9);
}

TEST(QueryServiceTest, ResultHeaderNamesTheResolvedVersion) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  store.Publish("default", MakeCube(0.9));
  QueryService service(&store, ServiceOptions{});
  const std::string text = "DICE sa=sex=F";

  // A batch answer, then the same text streamed from its cache entry.
  auto batch = service.ExecuteOne(text);
  ASSERT_TRUE(batch.status.ok()) << batch.status;
  EXPECT_EQ(batch.result.cube_version, 2u);
  VectorSink replayed;
  auto replay = service.ExecuteStreaming(text, replayed, {}, "");
  ASSERT_TRUE(replay.status.ok()) << replay.status;
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(replayed.result().cube_version, 2u);

  // A FROM pin, and a cursor that outlives the next publish.
  VectorSink pinned;
  ASSERT_TRUE(
      service.ExecuteStreaming(text + " FROM default@1", pinned, {}, "")
          .status.ok());
  EXPECT_EQ(pinned.result().cube_version, 1u);
  VectorSink page1;
  auto first = service.ExecuteStreaming(text + " LIMIT 1", page1, {}, "");
  ASSERT_FALSE(first.next_cursor.empty());
  store.Publish("default", MakeCube(0.7));
  VectorSink page2;
  ASSERT_TRUE(service
                  .ExecuteStreaming(text + " LIMIT 1", page2, {},
                                    first.next_cursor)
                  .status.ok());
  EXPECT_EQ(page2.result().cube_version, 2u);
}

TEST(QueryServiceTest, FromVersionPinServesRetainedVersions) {
  CubeStore store(/*max_versions=*/2);
  store.Publish("default", MakeCube(0.5));  // v1
  store.Publish("default", MakeCube(0.9));  // v2
  QueryService service(&store, ServiceOptions{});

  // Pinned to v1: the pre-update value, even though v2 is latest.
  auto v1 = service.ExecuteOne("SLICE sa=sex=F | ca=region=north FROM default@1");
  ASSERT_TRUE(v1.status.ok()) << v1.status;
  EXPECT_EQ(v1.cube_version, 1u);
  ASSERT_EQ(v1.result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(v1.result.rows[0].indexes[static_cast<size_t>(
                       indexes::IndexKind::kDissimilarity)],
                   0.5);

  // Unpinned: the latest version answers.
  auto latest = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(latest.status.ok());
  EXPECT_EQ(latest.cube_version, 2u);
  EXPECT_DOUBLE_EQ(latest.result.rows[0].indexes[static_cast<size_t>(
                       indexes::IndexKind::kDissimilarity)],
                   0.9);

  // Publishing a third version evicts v1 (K = 2): the pin now fails.
  store.Publish("default", MakeCube(0.7));  // v3, retained {2, 3}
  auto evicted =
      service.ExecuteOne("SLICE sa=sex=F | ca=region=north FROM default@1");
  EXPECT_EQ(evicted.status.code(), StatusCode::kNotFound);
  EXPECT_NE(evicted.status.message().find("evicted or never published"),
            std::string::npos);
  auto unknown =
      service.ExecuteOne("TOPK 1 BY gini FROM default@99");
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, BatchFansOutAcrossWorkersAndCubes) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  store.Publish("other", MakeCube(0.8));
  ServiceOptions options;
  options.num_workers = 4;
  QueryService service(&store, options);

  // 40 queries, duplicates included, across two cubes.
  std::vector<std::string> texts;
  for (int i = 0; i < 10; ++i) {
    texts.push_back("TOPK 2 BY dissimilarity WHERE M >= 1");
    texts.push_back("SLICE sa=sex=F | ca=region=north");
    texts.push_back("SLICE sa=sex=F | ca=region=north FROM other");
    texts.push_back("DICE sa=sex=F FROM other WHERE T >= 50");
  }
  auto responses = service.ExecuteBatch(texts);
  ASSERT_EQ(responses.size(), texts.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << texts[i] << " -> " << responses[i].status;
  }
  // Positional integrity: every 4th response answers the "other" point
  // query with the other cube's value.
  EXPECT_DOUBLE_EQ(
      responses[2].result.rows[0].indexes[static_cast<size_t>(
          indexes::IndexKind::kDissimilarity)],
      0.8);
  EXPECT_EQ(responses[2].cube, "other");
  // In-batch duplicates execute once but all respond.
  EXPECT_EQ(ToJson(responses[1].result), ToJson(responses[5].result));
}

TEST(QueryServiceTest, CsvAndJsonSerialisationsStayStable) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});
  auto resp = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(ToCsv(resp.result),
            "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
            "interaction,atkinson\n"
            "sex=F,region=north,60,25,2,0.5,0,0,0,0,0\n");
  EXPECT_NE(ToJson(resp.result).find("\"T\":60"), std::string::npos);
}

}  // namespace
}  // namespace query
}  // namespace scube
