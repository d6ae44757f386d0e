#include "la/csr_matrix.h"

#include <algorithm>

#include "util/check.h"

namespace tpa::la {

CsrStructure MakeCsrStructure(uint32_t rows, uint32_t cols,
                              std::vector<uint64_t> row_offsets,
                              std::vector<uint32_t> col_indices) {
  TPA_CHECK_EQ(row_offsets.size(), static_cast<size_t>(rows) + 1);
  TPA_CHECK_EQ(row_offsets.front(), 0u);
  TPA_CHECK_EQ(row_offsets.back(), col_indices.size());
  for (uint32_t r = 0; r < rows; ++r) {
    TPA_CHECK_LE(row_offsets[r], row_offsets[r + 1]);
  }
  for (uint32_t c : col_indices) TPA_CHECK_LT(c, cols);
  CsrStructure structure;
  structure.rows = rows;
  structure.cols = cols;
  structure.row_offsets = SharedArray<uint64_t>(std::move(row_offsets));
  structure.col_indices = SharedArray<uint32_t>(std::move(col_indices));
  return structure;
}

StatusOr<CsrStructure> MakeCsrStructureChecked(
    uint32_t rows, uint32_t cols, std::vector<uint64_t> row_offsets,
    std::vector<uint32_t> col_indices) {
  if (row_offsets.size() != static_cast<size_t>(rows) + 1) {
    return InvalidArgumentError(
        "row_offsets has " + std::to_string(row_offsets.size()) +
        " entries, want rows+1 = " +
        std::to_string(static_cast<size_t>(rows) + 1));
  }
  if (row_offsets.front() != 0) {
    return InvalidArgumentError("row_offsets[0] = " +
                                std::to_string(row_offsets.front()) +
                                ", want 0");
  }
  if (row_offsets.back() != col_indices.size()) {
    return InvalidArgumentError(
        "row_offsets[rows] = " + std::to_string(row_offsets.back()) +
        " does not match col_indices.size() = " +
        std::to_string(col_indices.size()));
  }
  for (uint32_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      return InvalidArgumentError(
          "row_offsets not monotone at row " + std::to_string(r) + ": " +
          std::to_string(row_offsets[r]) + " > " +
          std::to_string(row_offsets[r + 1]));
    }
  }
  for (size_t i = 0; i < col_indices.size(); ++i) {
    if (col_indices[i] >= cols) {
      return InvalidArgumentError("col_indices[" + std::to_string(i) + "] = " +
                                  std::to_string(col_indices[i]) +
                                  " out of range for " + std::to_string(cols) +
                                  " columns");
    }
  }
  CsrStructure structure;
  structure.rows = rows;
  structure.cols = cols;
  structure.row_offsets = SharedArray<uint64_t>(std::move(row_offsets));
  structure.col_indices = SharedArray<uint32_t>(std::move(col_indices));
  return structure;
}

size_t CsrStructureBytes(const CsrStructure& structure) {
  return structure.row_offsets.size() * sizeof(uint64_t) +
         structure.col_indices.size() * sizeof(uint32_t);
}

namespace {

/// Value policies: how a kernel obtains the weight of an edge.  Each kernel
/// loop is templated on one of these, so the value-free modes compile to
/// loops with no value load at all — kRowConstant additionally advertises
/// itself via kRowConstantWeight so the loop can hoist the per-row product
/// out of the edge sweep (the hoisted product is computed by the identical
/// multiplication the explicit kernel performs per edge, so every
/// destination accumulates bitwise-identical contributions in the identical
/// order).
template <typename V>
struct ExplicitVals {
  static constexpr bool kRowConstantWeight = false;
  const V* values;
  V Row(uint32_t) const { return V{}; }  // unused
  V Edge(uint64_t e, uint32_t) const { return values[e]; }
};

/// Synthesized 1/row-nnz — no array.  The expression matches the one that
/// materializes explicit normalized weights (fp64 reciprocal, one rounding
/// to V), so the synthesized weight is bitwise-equal to the stored one.
/// Row() must not be called on an empty row (1/0); the loops guard.
template <typename V>
struct SynthRowVals {
  static constexpr bool kRowConstantWeight = true;
  const uint64_t* offsets;
  V Row(uint32_t r) const {
    return static_cast<V>(1.0 /
                          static_cast<double>(offsets[r + 1] - offsets[r]));
  }
  V Edge(uint64_t, uint32_t) const { return V{}; }  // unused
};

template <typename V>
struct RowScaleVals {
  static constexpr bool kRowConstantWeight = true;
  const V* scales;  // size rows
  V Row(uint32_t r) const { return scales[r]; }
  V Edge(uint64_t, uint32_t) const { return V{}; }  // unused
};

template <typename V>
struct ColScaleVals {
  static constexpr bool kRowConstantWeight = false;
  const V* scales;  // size cols
  V Row(uint32_t) const { return V{}; }  // unused
  V Edge(uint64_t, uint32_t col) const { return scales[col]; }
};

/// Invokes f with the value policy matching `mode` — the single runtime
/// branch per kernel call; everything inside is mode-specialized code.
template <typename V, typename F>
void DispatchVals(CsrValueMode mode, const SharedArray<V>& values,
                  const SharedArray<V>& scales, const uint64_t* offsets,
                  F&& f) {
  switch (mode) {
    case CsrValueMode::kExplicit:
      f(ExplicitVals<V>{values.data()});
      return;
    case CsrValueMode::kRowConstant:
      if (scales.empty()) {
        f(SynthRowVals<V>{offsets});
      } else {
        f(RowScaleVals<V>{scales.data()});
      }
      return;
    case CsrValueMode::kColumnScale:
      f(ColScaleVals<V>{scales.data()});
      return;
  }
}

/// Prefetch distance for the dense kernels' random-access operand (the
/// gathered x entry / scattered y entry).  The column-index stream names each
/// destination this many edges in advance; issuing the prefetch there hides
/// the L2-missing latency that otherwise dominates once the vector operand
/// outgrows L2 — and is what the kernels' per-edge cost is mostly made of on
/// large graphs (the streamed CSR bytes are the smaller part, which is also
/// why value-free storage only pays off once this latency is hidden).
constexpr uint64_t kPrefetchDistance = 16;

/// Full gather of one row in SpMv's accumulation order: fp64 sum over the
/// row's edges.  Shared by the dense gather and the frontier gather head
/// (whose bitwise contract is exactly "this row, computed as the dense
/// kernel computes it").  `prefetch_nnz` bounds a look-ahead prefetch of
/// x[indices[e + kPrefetchDistance]] — the dense caller passes the matrix
/// nnz (the global edge stream is contiguous across rows, so the look-ahead
/// lands in rows about to be gathered); the frontier caller passes 0
/// (disabled: its candidate rows are sparse, so edges past the row end
/// belong to rows that may never be visited).
template <typename V, typename Vals>
double GatherRow(const uint64_t* offsets, const uint32_t* indices, Vals vals,
                 const V* x, uint32_t r, uint64_t prefetch_nnz = 0) {
  const uint64_t begin = offsets[r];
  const uint64_t end = offsets[r + 1];
  double sum = 0.0;
  if constexpr (Vals::kRowConstantWeight) {
    if (begin == end) return 0.0;
    const double w = static_cast<double>(vals.Row(r));
    for (uint64_t e = begin; e < end; ++e) {
      if (e + kPrefetchDistance < prefetch_nnz) {
        __builtin_prefetch(&x[indices[e + kPrefetchDistance]], 0);
      }
      sum += w * static_cast<double>(x[indices[e]]);
    }
  } else {
    for (uint64_t e = begin; e < end; ++e) {
      if (e + kPrefetchDistance < prefetch_nnz) {
        __builtin_prefetch(&x[indices[e + kPrefetchDistance]], 0);
      }
      sum += static_cast<double>(vals.Edge(e, indices[e])) *
             static_cast<double>(x[indices[e]]);
    }
  }
  return sum;
}

/// Dense gather: each row is an fp64 sum over its edges, rounded to V once
/// on store.
template <typename V, typename Vals>
void SpMvLoop(const uint64_t* offsets, const uint32_t* indices, Vals vals,
              uint32_t rows, uint64_t nnz, const V* x, V* y) {
  for (uint32_t r = 0; r < rows; ++r) {
    y[r] = static_cast<V>(GatherRow(offsets, indices, vals, x, r, nnz));
  }
}

template <typename V, typename Vals>
void SpMvTransposeLoop(const uint64_t* offsets, const uint32_t* indices,
                       Vals vals, uint32_t rows, uint64_t nnz, const V* x,
                       V* y) {
  // The upcoming y lines are named by the index stream; prefetching them
  // is what keeps the loop bandwidth-bound instead of latency-bound.
  for (uint32_t r = 0; r < rows; ++r) {
    const V xr = x[r];
    if (xr == V{0}) continue;
    const uint64_t begin = offsets[r];
    const uint64_t end = offsets[r + 1];
    if constexpr (Vals::kRowConstantWeight) {
      if (begin == end) continue;
      const V p = vals.Row(r) * xr;
      for (uint64_t e = begin; e < end; ++e) {
        if (e + kPrefetchDistance < nnz) {
          __builtin_prefetch(&y[indices[e + kPrefetchDistance]], 1);
        }
        y[indices[e]] += p;
      }
    } else {
      for (uint64_t e = begin; e < end; ++e) {
        if (e + kPrefetchDistance < nnz) {
          __builtin_prefetch(&y[indices[e + kPrefetchDistance]], 1);
        }
        y[indices[e]] += vals.Edge(e, indices[e]) * xr;
      }
    }
  }
}

}  // namespace

template <typename V>
CsrMatrixT<V>::CsrMatrixT(uint32_t rows, uint32_t cols,
                          std::vector<uint64_t> row_offsets,
                          std::vector<uint32_t> col_indices,
                          std::vector<V> values)
    : structure_(MakeCsrStructure(rows, cols, std::move(row_offsets),
                                  std::move(col_indices))),
      mode_(CsrValueMode::kExplicit),
      values_(std::move(values)) {
  TPA_CHECK_EQ(structure_.nnz(), values_.size());
}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(uint32_t rows, uint32_t cols,
                          std::vector<uint64_t> row_offsets,
                          std::vector<uint32_t> col_indices, CsrValueMode mode,
                          std::vector<V> scales)
    : CsrMatrixT(MakeCsrStructure(rows, cols, std::move(row_offsets),
                                  std::move(col_indices)),
                 mode, std::move(scales)) {}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(CsrStructure structure, SharedArray<V> values)
    : structure_(std::move(structure)),
      mode_(CsrValueMode::kExplicit),
      values_(std::move(values)) {
  TPA_CHECK(structure_.row_offsets.data() != nullptr);
  TPA_CHECK_EQ(structure_.nnz(), values_.size());
}

template <typename V>
CsrMatrixT<V>::CsrMatrixT(CsrStructure structure, CsrValueMode mode,
                          SharedArray<V> scales)
    : structure_(std::move(structure)), mode_(mode) {
  TPA_CHECK(structure_.row_offsets.data() != nullptr);
  if (mode_ == CsrValueMode::kExplicit) {
    // Overload resolution lands here from the legacy (rows, cols, offsets,
    // indices, values) shape when `values` is spelled `{}`: an empty braced
    // list value-initializes CsrValueMode to kExplicit.  Treat the trailing
    // vector as the per-edge value array so that spelling keeps working.
    values_ = std::move(scales);
    TPA_CHECK_EQ(structure_.nnz(), values_.size());
    return;
  }
  scales_ = std::move(scales);
  if (mode_ == CsrValueMode::kRowConstant) {
    TPA_CHECK(scales_.empty() ||
              scales_.size() == static_cast<size_t>(structure_.rows));
  } else {
    TPA_CHECK_EQ(scales_.size(), static_cast<size_t>(structure_.cols));
  }
}

template <typename V>
std::span<const V> CsrMatrixT<V>::RowValues(uint32_t r) const {
  TPA_CHECK(mode_ == CsrValueMode::kExplicit);
  const uint64_t* offsets = structure_.row_offsets.data();
  return {values_.data() + offsets[r], values_.data() + offsets[r + 1]};
}

template <typename V>
V CsrMatrixT<V>::EdgeWeight(uint32_t r, uint64_t e) const {
  switch (mode_) {
    case CsrValueMode::kExplicit:
      return values_[e];
    case CsrValueMode::kRowConstant:
      return scales_.empty()
                 ? static_cast<V>(1.0 / static_cast<double>(RowNnz(r)))
                 : scales_[r];
    case CsrValueMode::kColumnScale:
      return scales_[structure_.col_indices[e]];
  }
  return V{};  // unreachable
}

template <typename V>
void CsrMatrixT<V>::SpMv(const std::vector<V>& x, std::vector<V>& y) const {
  TPA_DCHECK(x.size() == cols());
  y.resize(rows());
  if (rows() == 0) return;
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    SpMvLoop(offsets, indices, vals, rows(), nnz(), x.data(), y.data());
  });
}

template <typename V>
void CsrMatrixT<V>::SpMvTranspose(const std::vector<V>& x,
                                  std::vector<V>& y) const {
  TPA_DCHECK(x.size() == rows());
  y.assign(cols(), V{0});
  if (rows() == 0) return;
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    SpMvTransposeLoop(offsets, indices, vals, rows(), nnz(), x.data(),
                      y.data());
  });
}

template <typename V>
bool CsrMatrixT<V>::SpMvTransposeFrontier(const std::vector<V>& x,
                                          std::span<const uint32_t> frontier,
                                          double density_threshold,
                                          std::vector<V>& y,
                                          std::vector<uint32_t>& next_frontier,
                                          FrontierScratch& scratch) const {
  TPA_DCHECK(x.size() == rows());
  if (static_cast<double>(frontier.size()) >
      density_threshold * static_cast<double>(rows())) {
    SpMvTranspose(x, y);
    next_frontier.clear();
    return false;
  }
  TPA_DCHECK(y.size() == cols());
  scratch.BeginEpoch(cols());
  next_frontier.clear();
  if (rows() == 0) return true;
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    for (uint32_t r : frontier) {
      const V xr = x[r];
      if (xr == V{0}) continue;
      const uint64_t begin = offsets[r];
      const uint64_t end = offsets[r + 1];
      if constexpr (decltype(vals)::kRowConstantWeight) {
        if (begin == end) continue;
        const V p = vals.Row(r) * xr;
        for (uint64_t e = begin; e < end; ++e) {
          const uint32_t dest = indices[e];
          y[dest] += p;
          if (scratch.touched_epoch[dest] != scratch.epoch) {
            scratch.touched_epoch[dest] = scratch.epoch;
            next_frontier.push_back(dest);
          }
        }
      } else {
        for (uint64_t e = begin; e < end; ++e) {
          const uint32_t dest = indices[e];
          y[dest] += vals.Edge(e, dest) * xr;
          if (scratch.touched_epoch[dest] != scratch.epoch) {
            scratch.touched_epoch[dest] = scratch.epoch;
            next_frontier.push_back(dest);
          }
        }
      }
    }
  });
  std::sort(next_frontier.begin(), next_frontier.end());
  return true;
}

template <typename V>
bool CsrMatrixT<V>::SpMvFrontier(const std::vector<V>& x,
                                 std::span<const uint32_t> candidates,
                                 double density_threshold, std::vector<V>& y,
                                 std::vector<uint32_t>& nonzero_rows) const {
  TPA_DCHECK(x.size() == cols());
  if (static_cast<double>(candidates.size()) >
      density_threshold * static_cast<double>(rows())) {
    SpMv(x, y);
    nonzero_rows.clear();
    return false;
  }
  TPA_DCHECK(y.size() == rows());
  nonzero_rows.clear();
  if (rows() == 0) return true;
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  DispatchVals<V>(mode_, values_, scales_, offsets, [&](auto vals) {
    for (uint32_t r : candidates) {
      y[r] = static_cast<V>(GatherRow(offsets, indices, vals, x.data(), r));
      if (y[r] != V{0}) nonzero_rows.push_back(r);
    }
  });
  return true;
}

template <typename V>
void CsrMatrixT<V>::ExpandFrontier(std::span<const uint32_t> rows_list,
                                   std::vector<uint32_t>& expanded,
                                   FrontierScratch& scratch) const {
  scratch.BeginEpoch(cols());
  expanded.clear();
  if (rows() == 0) return;
  const uint64_t* offsets = structure_.row_offsets.data();
  const uint32_t* indices = structure_.col_indices.data();
  for (uint32_t r : rows_list) {
    const uint64_t end = offsets[r + 1];
    for (uint64_t e = offsets[r]; e < end; ++e) {
      const uint32_t c = indices[e];
      if (scratch.touched_epoch[c] != scratch.epoch) {
        scratch.touched_epoch[c] = scratch.epoch;
        expanded.push_back(c);
      }
    }
  }
  std::sort(expanded.begin(), expanded.end());
}

template <typename V>
size_t CsrMatrixT<V>::SizeBytes() const {
  return StructureBytes() + ValueBytes();
}

template class CsrMatrixT<double>;
template class CsrMatrixT<float>;

}  // namespace tpa::la
