/// The batch contract of the TPA core: a batch of seeds served through
/// QueryEngine::QueryBatch over a TpaMethod — one job per seed, fanned out
/// across the engine's pool, each drawing its own workspace from the Tpa's
/// pool — is bitwise the sequential Tpa::Query of every seed, on either
/// propagation flavor, and a bad seed fails its own slot only.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/tpa.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "method/tpa_method.h"
#include "util/check.h"

namespace tpa {
namespace {

Graph TestGraph(uint64_t seed = 31) {
  DcsbmOptions options;
  options.nodes = 400;
  options.edges = 4000;
  options.blocks = 8;
  options.seed = seed;
  auto graph = GenerateDcsbm(options);
  TPA_CHECK(graph.ok());
  return std::move(graph).value();
}

void ExpectVectorBitwiseEq(const std::vector<double>& got,
                           const std::vector<double>& expected,
                           const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " node " << i;
  }
}

/// Serves `seeds` as one QueryBatch on a three-thread engine and checks
/// every slot against the sequential Tpa::Query of its seed.
void ExpectBatchMatchesSequentialQuery(const Graph& graph,
                                       const TpaOptions& options,
                                       const std::vector<NodeId>& seeds) {
  auto tpa = Tpa::Preprocess(graph, options);
  ASSERT_TRUE(tpa.ok());
  QueryEngineOptions engine_options;
  engine_options.num_threads = 3;
  auto engine = QueryEngine::Create(
      graph, std::make_unique<TpaMethod>(options), engine_options);
  ASSERT_TRUE(engine.ok());

  const std::vector<QueryResult> batch = engine->QueryBatch(seeds);
  ASSERT_EQ(batch.size(), seeds.size());
  for (size_t b = 0; b < seeds.size(); ++b) {
    ASSERT_TRUE(batch[b].status.ok()) << batch[b].status;
    EXPECT_EQ(batch[b].seed, seeds[b]);
    ExpectVectorBitwiseEq(batch[b].scores, tpa->Query(seeds[b]),
                          "seed " + std::to_string(seeds[b]));
  }
}

TEST(TpaQueryBatchTest, BitwiseMatchesSequentialQuery) {
  Graph graph = TestGraph();
  ExpectBatchMatchesSequentialQuery(graph, {}, {0, 13, 250, 399, 13, 77});
}

TEST(TpaQueryBatchTest, PullFlavorAlsoBitwise) {
  Graph graph = TestGraph(91);
  TpaOptions options;
  options.use_pull = true;
  ExpectBatchMatchesSequentialQuery(graph, options, {3, 42, 333});
}

TEST(TpaQueryBatchTest, RejectsBadSeeds) {
  Graph graph = TestGraph();
  auto tpa = Tpa::Preprocess(graph, {});
  ASSERT_TRUE(tpa.ok());
  auto engine = QueryEngine::Create(graph, std::make_unique<TpaMethod>(), {});
  ASSERT_TRUE(engine.ok());

  EXPECT_TRUE(engine->QueryBatch({}).empty());
  const std::vector<NodeId> seeds = {0, graph.num_nodes(), 5};
  const std::vector<QueryResult> batch = engine->QueryBatch(seeds);
  ASSERT_EQ(batch.size(), seeds.size());
  EXPECT_EQ(batch[1].status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(batch[1].scores.empty());
  for (size_t b : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(batch[b].status.ok()) << batch[b].status;
    ExpectVectorBitwiseEq(batch[b].scores, tpa->Query(seeds[b]),
                          "seed " + std::to_string(seeds[b]));
  }
}

}  // namespace
}  // namespace tpa
