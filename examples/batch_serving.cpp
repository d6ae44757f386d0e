/// Batch serving: the paper's client–server scenario.  Preprocess TPA once,
/// then serve many concurrent seed queries through the QueryEngine — top-k
/// results, a fixed thread pool, and an LRU cache for repeated seeds.
///
///   $ ./example_batch_serving

#include <cstdio>
#include <memory>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "method/tpa_method.h"

int main() {
  // A mid-size community-structured graph standing in for the shared
  // production graph.
  tpa::DcsbmOptions graph_options;
  graph_options.nodes = 20'000;
  graph_options.edges = 200'000;
  graph_options.blocks = 40;
  graph_options.seed = 7;
  auto graph = tpa::GenerateDcsbm(graph_options);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %u nodes, %llu edges\n", graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()));

  // The engine owns the method: Create runs TPA's one-time preprocessing
  // (Algorithm 2) and spins up the worker pool.  Every batch afterwards
  // reuses the shared immutable preprocessed state.
  tpa::QueryEngineOptions options;
  options.num_threads = 4;
  options.top_k = 5;          // clients want ranked recommendations, not
                              // 20k-entry dense vectors
  options.cache_capacity = 100;
  auto engine = tpa::QueryEngine::Create(
      *graph, std::make_unique<tpa::TpaMethod>(), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("engine: %s, %d worker threads, top-%d, cache %zu entries\n\n",
              std::string(engine->method().name()).c_str(),
              engine->num_threads(), options.top_k, options.cache_capacity);

  // One incoming batch of user queries (note user 123 appears twice — the
  // second occurrence is a cache candidate).
  const std::vector<tpa::NodeId> batch = {123, 4567, 8910, 15000, 123, 19999};
  auto results = engine->QueryBatch(batch);

  for (const tpa::QueryResult& result : results) {
    if (!result.status.ok()) {
      std::printf("seed %u: error %s\n", result.seed,
                  result.status.ToString().c_str());
      continue;
    }
    std::printf("seed %u%s → top-%zu:", result.seed,
                result.from_cache ? " (cached)" : "", result.top.size());
    for (const tpa::ScoredNode& entry : result.top) {
      std::printf("  %u:%.5f", entry.node, entry.score);
    }
    std::printf("\n");
  }

  // A repeat batch is served from the LRU cache without touching the solver.
  auto repeat = engine->QueryBatch(batch);
  int cached = 0;
  for (const auto& result : repeat) cached += result.from_cache ? 1 : 0;
  const auto stats = engine->cache_stats();
  std::printf("\nrepeat batch: %d/%zu served from cache "
              "(engine totals: %llu hits, %llu misses)\n",
              cached, repeat.size(),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  return 0;
}
