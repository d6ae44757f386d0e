/// Pull-flavor (gather) kernel coverage: SpMv — the non-transpose
/// direction CPI's use_pull ablation runs — and its frontier-sparse head,
/// pinned bitwise against a reference triple-loop on random and
/// adversarial CSRs, mirroring la_frontier_test.cc's rigor on the scatter
/// side.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "la/csr_matrix.h"
#include "util/check.h"
#include "util/random.h"

namespace tpa {
namespace {

/// Reference y = A x: plain triple loop over (row, edge, vector) in storage
/// order — the exact accumulation order the kernels promise, so the
/// comparison below is bitwise, not approximate.
std::vector<double> ReferenceSpMv(const la::CsrMatrix& a,
                                  const std::vector<double>& x) {
  std::vector<double> y(a.rows());
  for (uint32_t r = 0; r < a.rows(); ++r) {
    const auto indices = a.RowIndices(r);
    const auto values = a.RowValues(r);
    double sum = 0.0;
    for (size_t e = 0; e < indices.size(); ++e) {
      sum += values[e] * x[indices[e]];
    }
    y[r] = sum;
  }
  return y;
}

void ExpectBitwiseEq(const std::vector<double>& got,
                     const std::vector<double>& expected,
                     const std::string& label) {
  ASSERT_EQ(got.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << label << " entry " << i;
  }
}

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextDouble() - 0.5;
  return x;
}

/// Checks SpMv against the reference, bitwise.
void CheckGatherKernels(const la::CsrMatrix& a, uint64_t seed,
                        const std::string& label) {
  const std::vector<double> x = RandomVector(a.cols(), seed);
  std::vector<double> y;
  a.SpMv(x, y);
  ExpectBitwiseEq(y, ReferenceSpMv(a, x), label + " SpMv");
}

TEST(GatherKernelTest, AdversarialCsrWithEmptyRows) {
  // 6×5 rectangular CSR: rows 1, 3, and 5 are empty; row 4 gathers from
  // repeated and boundary columns.  Column indices sorted within each row.
  la::CsrMatrix a(
      6, 5, /*row_offsets=*/{0, 2, 2, 3, 3, 6, 6},
      /*col_indices=*/{1, 3, 0, 0, 2, 4},
      /*values=*/{0.5, 0.25, 1.0, 0.125, -0.75, 2.0});

  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y;
  a.SpMv(x, y);
  // Hand-computed gathers; empty rows must come out exactly zero.
  ExpectBitwiseEq(y, {0.5 * 2.0 + 0.25 * 4.0, 0.0, 1.0,
                      0.0, 0.125 * 1.0 + -0.75 * 3.0 + 2.0 * 5.0, 0.0},
                  "hand-computed");

  CheckGatherKernels(a, 11, "empty-rows");
}

TEST(GatherKernelTest, SingleRowMatrix) {
  la::CsrMatrix a(1, 4, {0, 3}, {0, 1, 3}, {0.25, 0.5, 0.125});
  const std::vector<double> x = {8.0, 4.0, 99.0, 16.0};
  std::vector<double> y;
  a.SpMv(x, y);
  ExpectBitwiseEq(y, {0.25 * 8.0 + 0.5 * 4.0 + 0.125 * 16.0}, "single-row");
  CheckGatherKernels(a, 17, "single-row");
}

TEST(GatherKernelTest, AllRowsEmpty) {
  la::CsrMatrix a(4, 3, {0, 0, 0, 0, 0}, {}, {});
  CheckGatherKernels(a, 23, "all-empty");
  std::vector<double> y(3, 99.0);  // must be overwritten to exact zeros
  a.SpMv({1.0, 2.0, 3.0}, y);
  ExpectBitwiseEq(y, {0.0, 0.0, 0.0, 0.0}, "all-empty overwrite");
}

TEST(GatherKernelTest, DanglingNodesYieldEmptyTransitionRows) {
  // Nodes 2 and 4 are dangling (no out-edges): their Ã rows are empty and
  // the kernels must leave exact zeros there.  Node 3 has no in-edges, so
  // the transposed CSR has an empty row too — both directions covered.
  GraphBuilder builder(5);
  builder.AddEdges({{0, 1}, {0, 2}, {1, 2}, {1, 4}, {3, 0}, {3, 4}});
  BuildOptions build_options;
  // The default policy patches dangling nodes with self-loops; keep them to
  // exercise genuinely empty CSR rows.
  build_options.dangling_policy = DanglingPolicy::kKeep;
  auto graph = builder.Build(build_options);
  ASSERT_TRUE(graph.ok());
  ASSERT_GT(graph->CountDangling(), 0u);

  CheckGatherKernels(graph->Transition(), 31, "dangling out-CSR");
  CheckGatherKernels(graph->TransitionTranspose(), 37, "dangling in-CSR");

  const std::vector<double> x = RandomVector(5, 41);
  std::vector<double> y;
  graph->Transition().SpMv(x, y);
  EXPECT_EQ(y[2], 0.0);
  EXPECT_EQ(y[4], 0.0);
}

class GatherGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GatherGraphTest, RandomGraphGatherMatchesReference) {
  RmatOptions options;
  options.scale = 9;
  options.edges = 6000;
  options.seed = GetParam();
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());

  CheckGatherKernels(graph->Transition(), GetParam() + 3, "rmat out-CSR");
  CheckGatherKernels(graph->TransitionTranspose(), GetParam() + 5,
                     "rmat in-CSR");
}

TEST_P(GatherGraphTest, PullGatherAgreesWithPushScatter) {
  // The pull flavor computes Ã^T·x by gathering over the in-CSR; the push
  // flavor scatters over the out-CSR.  Different accumulation orders, same
  // math — agreement is numerical, not bitwise.
  RmatOptions options;
  options.scale = 8;
  options.edges = 3000;
  options.seed = GetParam();
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());

  const std::vector<double> x = RandomVector(graph->num_nodes(), GetParam());
  std::vector<double> pulled;
  graph->TransitionTranspose().SpMv(x, pulled);
  std::vector<double> pushed;
  graph->Transition().SpMvTranspose(x, pushed);
  ASSERT_EQ(pulled.size(), pushed.size());
  for (size_t i = 0; i < pulled.size(); ++i) {
    EXPECT_NEAR(pulled[i], pushed[i], 1e-12) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatherGraphTest,
                         ::testing::Values(1u, 7u, 42u));

// ---------------------------------------------------------------------------
// Frontier-sparse gather head (SpMvFrontier / ExpandFrontier) — the
// pull-side mirror of la_frontier_test.cc's scatter coverage.
// ---------------------------------------------------------------------------

/// The adversarial 6×5 CSR shared by the dense gather tests above: rows 1,
/// 3, and 5 empty, boundary and repeated columns in row 4.
la::CsrMatrix AdversarialCsr() {
  return la::CsrMatrix(6, 5, {0, 2, 2, 3, 3, 6, 6}, {1, 3, 0, 0, 2, 4},
                       {0.5, 0.25, 1.0, 0.125, -0.75, 2.0});
}

TEST(GatherFrontierTest, AllRowsAsCandidatesMatchesDenseBitwise) {
  const la::CsrMatrix a = AdversarialCsr();
  const std::vector<double> x = RandomVector(a.cols(), 3);
  std::vector<double> dense;
  a.SpMv(x, dense);

  const std::vector<uint32_t> candidates = {0, 1, 2, 3, 4, 5};
  std::vector<double> y(a.rows(), 0.0);
  std::vector<uint32_t> nonzero_rows;
  // Threshold above 1.0 keeps even the full candidate list on the sparse
  // path.
  ASSERT_TRUE(a.SpMvFrontier(x, candidates, 1.5, y, nonzero_rows));
  ExpectBitwiseEq(y, dense, "all-candidates gather");

  // nonzero_rows collects exactly the candidates with nonzero results,
  // ascending (the empty rows 1, 3, 5 gather to exact zero).
  std::vector<uint32_t> expected;
  for (uint32_t r = 0; r < a.rows(); ++r) {
    if (dense[r] != 0.0) expected.push_back(r);
  }
  EXPECT_EQ(nonzero_rows, expected);
}

TEST(GatherFrontierTest, SubsetCandidatesComputeOnlyListedRows) {
  const la::CsrMatrix a = AdversarialCsr();
  const std::vector<double> x = RandomVector(a.cols(), 5);
  std::vector<double> dense;
  a.SpMv(x, dense);

  const std::vector<uint32_t> candidates = {0, 4};
  std::vector<double> y(a.rows(), 0.0);
  std::vector<uint32_t> nonzero_rows;
  ASSERT_TRUE(a.SpMvFrontier(x, candidates, 0.5, y, nonzero_rows));
  // Listed rows bitwise match the dense gather; unlisted rows are untouched.
  EXPECT_EQ(y[0], dense[0]);
  EXPECT_EQ(y[4], dense[4]);
  for (uint32_t r : {1u, 2u, 3u, 5u}) EXPECT_EQ(y[r], 0.0) << "row " << r;
  EXPECT_EQ(nonzero_rows, (std::vector<uint32_t>{0, 4}));
}

TEST(GatherFrontierTest, EmptyCandidateListTouchesNothing) {
  const la::CsrMatrix a = AdversarialCsr();
  const std::vector<double> x = RandomVector(a.cols(), 7);
  std::vector<double> y(a.rows(), 0.0);
  std::vector<uint32_t> nonzero_rows = {99};  // must be cleared
  ASSERT_TRUE(a.SpMvFrontier(x, {}, 0.5, y, nonzero_rows));
  ExpectBitwiseEq(y, std::vector<double>(a.rows(), 0.0), "empty candidates");
  EXPECT_TRUE(nonzero_rows.empty());
}

TEST(GatherFrontierTest, DenseCandidateListFallsThroughToSpMv) {
  const la::CsrMatrix a = AdversarialCsr();
  const std::vector<double> x = RandomVector(a.cols(), 9);
  std::vector<double> dense;
  a.SpMv(x, dense);

  const std::vector<uint32_t> candidates = {0, 1, 2, 3, 4, 5};
  std::vector<double> y(a.rows(), 0.0);
  std::vector<uint32_t> nonzero_rows = {99};
  // Threshold 0 forces the dense fallthrough: full overwrite, empty
  // nonzero_rows, and `false` telling the caller to stay dense.
  ASSERT_FALSE(a.SpMvFrontier(x, candidates, 0.0, y, nonzero_rows));
  ExpectBitwiseEq(y, dense, "dense fallthrough");
  EXPECT_TRUE(nonzero_rows.empty());
}

TEST(GatherFrontierTest, ExpandFrontierIsSortedUnionOfRowIndices) {
  const la::CsrMatrix a = AdversarialCsr();
  la::FrontierScratch scratch;
  std::vector<uint32_t> expanded;
  // Rows 0 and 4 index columns {1, 3} and {0, 2, 4}: union is everything.
  a.ExpandFrontier(std::vector<uint32_t>{0, 4}, expanded, scratch);
  EXPECT_EQ(expanded, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  // Rows 2 and 4 share column 0 — the duplicate must collapse.
  a.ExpandFrontier(std::vector<uint32_t>{2, 4}, expanded, scratch);
  EXPECT_EQ(expanded, (std::vector<uint32_t>{0, 2, 4}));
  // Empty rows expand to nothing; the scratch is reusable across calls.
  a.ExpandFrontier(std::vector<uint32_t>{1, 3, 5}, expanded, scratch);
  EXPECT_TRUE(expanded.empty());
}

TEST(GatherFrontierTest, PullFrontierPipelineMatchesDenseOnGraph) {
  // End-to-end pull head: support(x) expanded over the out-CSR gives the
  // candidate outputs of the in-CSR gather, and the sparse gather matches
  // the dense one bitwise everywhere (rows off the candidate list can only
  // be exact zeros in the dense result).
  RmatOptions options;
  options.scale = 8;
  options.edges = 2500;
  options.seed = 13;
  auto graph = GenerateRmat(options);
  ASSERT_TRUE(graph.ok());
  const la::CsrMatrix& out_csr = graph->Transition();
  const la::CsrMatrix& in_csr = graph->TransitionTranspose();

  std::vector<uint32_t> support = {1, 5, 17, 100};
  std::vector<double> x(graph->num_nodes(), 0.0);
  for (uint32_t s : support) x[s] = 0.5 + 0.01 * s;

  la::FrontierScratch scratch;
  std::vector<uint32_t> candidates;
  out_csr.ExpandFrontier(support, candidates, scratch);

  std::vector<double> dense;
  in_csr.SpMv(x, dense);
  std::vector<double> y(graph->num_nodes(), 0.0);
  std::vector<uint32_t> nonzero_rows;
  ASSERT_TRUE(in_csr.SpMvFrontier(x, candidates, 0.9, y, nonzero_rows));
  ExpectBitwiseEq(y, dense, "pull pipeline");

  // Iterating: the nonzero rows are the next support.  One more hop still
  // matches dense.
  std::vector<double> x2 = y;
  out_csr.ExpandFrontier(nonzero_rows, candidates, scratch);
  in_csr.SpMv(x2, dense);
  std::fill(y.begin(), y.end(), 0.0);
  ASSERT_TRUE(in_csr.SpMvFrontier(x2, candidates, 0.9, y, nonzero_rows));
  ExpectBitwiseEq(y, dense, "pull pipeline hop 2");
}

}  // namespace
}  // namespace tpa
