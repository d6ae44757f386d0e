#include "method/rwr_method.h"

#include "la/vector_ops.h"

namespace tpa {

StatusOr<TopKQueryResult> RwrMethod::QueryTopK(NodeId seed, int k,
                                               const TopKQueryOptions&,
                                               QueryContext* context) {
  if (k < 0) return InvalidArgumentError("k must be non-negative");
  // Full-vector fallback: no bounds to terminate on, so the options'
  // early-termination flag is moot — the ranking and scores are exactly the
  // dense path's either way.  An abort mid-query fails the call: top-k
  // never returns a partial ranking.
  TPA_ASSIGN_OR_RETURN(std::vector<double> scores, Query(seed, context));
  if (context != nullptr && context->aborted) return context->AbortStatus();
  TopKQueryResult result;
  const std::vector<size_t> idx =
      la::TopKIndices(scores, static_cast<size_t>(k));
  result.top.reserve(idx.size());
  for (size_t i : idx) {
    result.top.push_back({static_cast<NodeId>(i), scores[i]});
  }
  return result;
}

StatusOr<std::vector<float>> RwrMethod::QueryF32(NodeId seed,
                                                 QueryContext* context) {
  (void)seed;
  (void)context;
  return UnimplementedError("method has no fp32 query path");
}

}  // namespace tpa
