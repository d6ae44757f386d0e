#include "engine/query_engine.h"

#include <algorithm>
#include <latch>
#include <thread>
#include <type_traits>
#include <utility>

#include "la/vector_ops.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/memory_budget.h"

namespace tpa {

namespace {

/// Every method invocation runs inside this guard: the serving contract is
/// Status-based, so a method (or anything it calls) that throws must fail
/// only its own query with INTERNAL — never unwind into the thread pool or
/// the async scheduler, where an escaped exception would terminate the
/// process.  The failpoint sits inside the try so injected throws exercise
/// the same containment as real ones.
template <typename Fn>
auto InvokeMethodGuarded(Fn&& fn) -> decltype(fn()) {
  try {
    TPA_FAILPOINT("engine.serve_query");
    return fn();
  } catch (const std::exception& e) {
    return InternalError(std::string("method threw: ") + e.what());
  } catch (...) {
    return InternalError("method threw a non-exception object");
  }
}

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

template <typename V>
std::vector<ScoredNode> TopKScoresImpl(const std::vector<V>& scores, int k) {
  // la::TopKIndices already clamps k and breaks ties toward smaller index.
  std::vector<ScoredNode> top;
  const size_t clamped = static_cast<size_t>(std::max(k, 0));
  for (size_t i : la::TopKIndices(scores, clamped)) {
    top.push_back({static_cast<NodeId>(i), static_cast<double>(scores[i])});
  }
  return top;
}

}  // namespace

std::vector<ScoredNode> TopKScores(const std::vector<double>& scores, int k) {
  return TopKScoresImpl(scores, k);
}

std::vector<ScoredNode> TopKScores(const std::vector<float>& scores, int k) {
  return TopKScoresImpl(scores, k);
}

QueryEngine::QueryEngine(const Graph& graph, std::unique_ptr<RwrMethod> method,
                         const QueryEngineOptions& options, int num_threads)
    : graph_(&graph),
      options_(options),
      precision_(graph.value_precision()),
      method_(std::move(method)),
      pool_(std::make_unique<ThreadPool>(num_threads)),
      cache_(options.cache_capacity > 0 || options.cache_capacity_bytes > 0
                 ? std::make_unique<ResultCache>(options.cache_capacity,
                                                 options.cache_capacity_bytes)
                 : nullptr),
      method_mu_(std::make_unique<std::mutex>()) {}

StatusOr<QueryEngine> QueryEngine::Create(const Graph& graph,
                                          std::unique_ptr<RwrMethod> method,
                                          const QueryEngineOptions& options) {
  if (method == nullptr) {
    return InvalidArgumentError("method must be non-null");
  }
  if (options.num_threads < 0) {
    return InvalidArgumentError("num_threads must be non-negative");
  }
  if (options.top_k < 0) {
    return InvalidArgumentError("top_k must be non-negative");
  }
  if (!method->SupportsPrecision(graph.value_precision())) {
    return InvalidArgumentError(
        "method does not support the graph's value precision tier");
  }
  MemoryBudget unlimited;
  TPA_RETURN_IF_ERROR(method->Preprocess(graph, unlimited));
  return QueryEngine(graph, std::move(method), options,
                     ResolveThreadCount(options.num_threads));
}

StatusOr<QueryEngine> QueryEngine::CreateFromRegistry(
    const Graph& graph, std::string_view method_name,
    const MethodConfig& config, const QueryEngineOptions& options) {
  TPA_ASSIGN_OR_RETURN(std::unique_ptr<RwrMethod> method,
                       CreateMethod(method_name, config));
  return Create(graph, std::move(method), options);
}

bool QueryEngine::EntryCompatible(const CachedResult& entry) const {
  // The tiers never serve each other's entries: an fp32 engine's clients
  // expect fp32-rounded scores and vice versa — a mismatch silently mixing
  // tiers would make results depend on cache history.
  if (entry.precision != precision_) return false;
  if (entry.topk_only) {
    // A top-k-only entry serves only top-k requests it fully covers; a
    // dense-requesting query must recompute (and refresh the entry).
    if (options_.top_k <= 0) return false;
    const size_t need = std::min<size_t>(static_cast<size_t>(options_.top_k),
                                         graph_->num_nodes());
    return entry.topk.size() >= need;
  }
  return true;
}

bool QueryEngine::UseNativeTopKPath() const {
  return options_.top_k > 0 && method_->SupportsTopKQuery() &&
         graph_->permutation() == nullptr &&
         (cache_ == nullptr || options_.cache_topk_only);
}

void QueryEngine::ServeTopKInto(NodeId seed, QueryResult& result,
                                QueryContext* context) {
  result.seed = seed;
  TopKQueryOptions topk_options;
  // Serving stays score-exact: results must be bitwise-identical to the
  // dense path (and to what a dense-caching engine would serve), so the
  // engine never trades certified-lower-bound scores for the last few
  // iterations.  The win is skipping the dense merge and full-vector sort.
  topk_options.allow_early_termination = false;
  StatusOr<TopKQueryResult> top = InvokeMethodGuarded([&] {
    if (method_->SupportsConcurrentQuery()) {
      return method_->QueryTopK(seed, options_.top_k, topk_options, context);
    }
    std::lock_guard<std::mutex> lock(*method_mu_);
    return method_->QueryTopK(seed, options_.top_k, topk_options, context);
  });
  if (!top.ok()) {
    result.status = top.status();
    return;
  }
  result.top = std::move(top->top);
  if (cache_ != nullptr) {
    cache_->Put(seed, std::make_shared<const CachedResult>(
                          CachedResult::TopKOnly(precision_, result.top)));
  }
}

bool QueryEngine::TryServeFromCache(NodeId seed, QueryResult& result) {
  if (cache_ == nullptr) return false;
  ResultCache::Entry hit = cache_->GetMatching(
      seed, [this](const CachedResult& entry) {
        return EntryCompatible(entry);
      });
  if (hit == nullptr) return false;
  result.from_cache = true;
  if (options_.top_k > 0) {
    if (hit->topk_only) {
      const size_t k = std::min<size_t>(static_cast<size_t>(options_.top_k),
                                        hit->topk.size());
      result.top.assign(hit->topk.begin(),
                        hit->topk.begin() + static_cast<long>(k));
    } else if (precision_ == la::Precision::kFloat64) {
      result.top = TopKScores(hit->dense64, options_.top_k);
    } else {
      result.top = TopKScores(hit->dense32, options_.top_k);
    }
  } else if (precision_ == la::Precision::kFloat64) {
    result.scores = hit->dense64;
  } else {
    result.scores_f32 = hit->dense32;
  }
  return true;
}

namespace {

/// The dense payload of a cached entry / query result at tier V.
template <typename V>
const std::vector<V>& EntryDense(const CachedResult& entry) {
  if constexpr (std::is_same_v<V, double>) {
    return entry.dense64;
  } else {
    return entry.dense32;
  }
}
template <typename V>
std::vector<V>& ResultDense(QueryResult& result) {
  if constexpr (std::is_same_v<V, double>) {
    return result.scores;
  } else {
    return result.scores_f32;
  }
}

}  // namespace

bool QueryEngine::FinalizeAbort(QueryContext* context, QueryResult& result) {
  if (context == nullptr || !context->aborted) return true;
  if (!context->degrade_to_partial) {
    // Abort without a degradation contract: the partial iterate is
    // discarded and the query fails with the abort's own code.
    result.status = context->AbortStatus();
    result.scores.clear();
    result.scores_f32.clear();
    result.top.clear();
    return false;
  }
  result.degraded = true;
  result.degrade_reason = context->abort_code;
  result.error_bound = context->error_bound;
  return false;
}

template <typename V>
void QueryEngine::ShapeAndCacheT(NodeId seed, std::vector<V> dense,
                                 QueryResult& result, bool cacheable) {
  if (options_.top_k > 0) {
    result.top = TopKScores(dense, options_.top_k);
    if (cacheable && cache_ != nullptr) {
      if (options_.cache_topk_only) {
        cache_->Put(seed, std::make_shared<const CachedResult>(
                              CachedResult::TopKOnly(precision_, result.top)));
      } else {
        cache_->Put(seed, std::make_shared<const CachedResult>(
                              CachedResult::Dense(std::move(dense))));
      }
    }
  } else if (cacheable && cache_ != nullptr) {
    // The client owns its result vector, so the cached copy is the one
    // unavoidable duplication on a dense-mode miss.
    auto entry = std::make_shared<const CachedResult>(
        CachedResult::Dense(std::move(dense)));
    ResultDense<V>(result) = EntryDense<V>(*entry);
    cache_->Put(seed, std::move(entry));
  } else {
    ResultDense<V>(result) = std::move(dense);
  }
}

void QueryEngine::ServeInto(NodeId seed, QueryResult& result,
                            QueryContext* context) {
  result.seed = seed;
  if (seed >= graph_->num_nodes()) {
    result.status = OutOfRangeError("seed node out of range");
    return;
  }
  // A cache hit beats any deadline: serving it is a copy, so an expired or
  // cancelled context still gets the exact answer for free.
  if (TryServeFromCache(seed, result)) return;
  if (UseNativeTopKPath()) {
    ServeTopKInto(seed, result, context);
    return;
  }

  // The method speaks the graph's internal storage order; translate the
  // seed in and the dense vector back out (see Permutation).
  const Permutation* permutation = graph_->permutation();
  const NodeId internal =
      permutation != nullptr ? permutation->ToInternal(seed) : seed;

  if (precision_ == la::Precision::kFloat32) {
    StatusOr<std::vector<float>> scores = InvokeMethodGuarded([&] {
      if (method_->SupportsConcurrentQuery()) {
        return method_->QueryF32(internal, context);
      }
      std::lock_guard<std::mutex> lock(*method_mu_);
      return method_->QueryF32(internal, context);
    });
    if (!scores.ok()) {
      result.status = scores.status();
      return;
    }
    std::vector<float> dense = std::move(scores).value();
    const bool cacheable = FinalizeAbort(context, result);
    if (!result.status.ok()) return;
    if (permutation != nullptr) dense = permutation->ScoresToExternal(dense);
    ShapeAndCacheT<float>(seed, std::move(dense), result, cacheable);
    return;
  }

  StatusOr<std::vector<double>> scores = InvokeMethodGuarded([&] {
    if (method_->SupportsConcurrentQuery()) {
      return method_->Query(internal, context);
    }
    std::lock_guard<std::mutex> lock(*method_mu_);
    return method_->Query(internal, context);
  });
  if (!scores.ok()) {
    result.status = scores.status();
    return;
  }
  std::vector<double> dense = std::move(scores).value();
  const bool cacheable = FinalizeAbort(context, result);
  if (!result.status.ok()) return;
  if (permutation != nullptr) dense = permutation->ScoresToExternal(dense);
  ShapeAndCacheT<double>(seed, std::move(dense), result, cacheable);
}

QueryResult QueryEngine::Query(NodeId seed) {
  QueryResult result;
  ServeInto(seed, result);
  return result;
}

std::vector<QueryResult> QueryEngine::QueryBatch(
    const std::vector<NodeId>& seeds) {
  std::vector<QueryResult> results(seeds.size());
  if (seeds.empty()) return results;

  std::latch pending(static_cast<ptrdiff_t>(seeds.size()));
  for (size_t i = 0; i < seeds.size(); ++i) {
    pool_->Submit([this, &seeds, &results, &pending, i] {
      ServeInto(seeds[i], results[i]);
      pending.count_down();
    });
  }
  pending.wait();
  return results;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  if (cache_ != nullptr) {
    stats.hits = cache_->hits();
    stats.misses = cache_->misses();
    stats.entries = cache_->size();
    stats.bytes = cache_->bytes();
  }
  return stats;
}

}  // namespace tpa
