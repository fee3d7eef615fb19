#include <gtest/gtest.h>

#include "sparse/bsr.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

/// Random matrix with approximately `sparsity` zero fraction.
MatrixF random_sparse(std::size_t rows, std::size_t cols, double sparsity,
                      std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  for (float& v : m.flat())
    v = (rng.uniform() < sparsity) ? 0.0f : rng.normal();
  return m;
}

TEST(Csr, RoundTripExact) {
  const MatrixF dense = random_sparse(17, 23, 0.7, 1);
  const Csr csr = csr_from_dense(dense);
  const MatrixF back = csr_to_dense(csr);
  EXPECT_FLOAT_EQ(max_abs_diff(dense, back), 0.0f);
}

TEST(Csr, NnzMatchesCount) {
  const MatrixF dense = random_sparse(20, 20, 0.5, 2);
  const Csr csr = csr_from_dense(dense);
  EXPECT_EQ(csr.nnz(), count_nonzero(dense));
  EXPECT_EQ(csr.row_ptr.size(), 21u);
  EXPECT_EQ(csr.row_ptr.back(), static_cast<std::int64_t>(csr.nnz()));
}

TEST(Csr, ColumnIndicesAscendingWithinRows) {
  const MatrixF dense = random_sparse(10, 30, 0.6, 3);
  const Csr csr = csr_from_dense(dense);
  for (std::size_t r = 0; r < csr.rows; ++r)
    for (auto i = csr.row_ptr[r] + 1; i < csr.row_ptr[r + 1]; ++i)
      EXPECT_LT(csr.col_idx[i - 1], csr.col_idx[i]);
}

TEST(Csr, ToleranceDropsSmallValues) {
  MatrixF dense(1, 3);
  dense(0, 0) = 0.01f;
  dense(0, 1) = 0.5f;
  dense(0, 2) = -0.02f;
  const Csr csr = csr_from_dense(dense, 0.1f);
  EXPECT_EQ(csr.nnz(), 1u);
}

TEST(Csr, DensityAndBytes) {
  const MatrixF dense = random_sparse(10, 10, 0.75, 4);
  const Csr csr = csr_from_dense(dense);
  EXPECT_NEAR(csr.density(), 1.0 - sparsity(dense), 1e-12);
  EXPECT_GT(csr_bytes(csr), 0u);
}

TEST(Csc, RoundTripExact) {
  const MatrixF dense = random_sparse(13, 19, 0.8, 5);
  const Csc csc = csc_from_dense(dense);
  const MatrixF back = csc_to_dense(csc);
  EXPECT_FLOAT_EQ(max_abs_diff(dense, back), 0.0f);
}

TEST(Csc, GemmAccumulateMatchesDense) {
  Rng rng(6);
  MatrixF a(9, 13);
  fill_normal(a, rng);
  const MatrixF w = random_sparse(13, 7, 0.6, 7);
  MatrixF c(9, 7);
  c.fill(0.5f);
  const Csc csc = csc_from_dense(w);
  csc_gemm_accumulate(a, csc.ref(), c);
  const MatrixF ref = matmul_reference(a, w);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 0.5f, 1e-4f);
}

TEST(Bsr, RoundTripExact) {
  const MatrixF dense = random_sparse(16, 24, 0.9, 8);
  const Bsr bsr = bsr_from_dense(dense, 4);
  const MatrixF back = bsr_to_dense(bsr);
  EXPECT_FLOAT_EQ(max_abs_diff(dense, back), 0.0f);
}

TEST(Bsr, RejectsIndivisibleShapes) {
  const MatrixF dense(10, 10);
  EXPECT_THROW(bsr_from_dense(dense, 3), std::invalid_argument);
  EXPECT_THROW(bsr_from_dense(dense, 0), std::invalid_argument);
}

TEST(Bsr, BlockDensityCountsStoredBlocks) {
  MatrixF dense(8, 8);
  dense(0, 0) = 1.0f;  // exactly one non-zero block of 4x4
  const Bsr bsr = bsr_from_dense(dense, 4);
  EXPECT_EQ(bsr.stored_blocks(), 1u);
  EXPECT_DOUBLE_EQ(bsr.block_density(), 0.25);
}

TEST(Bsr, GemmAccumulateMatchesDense) {
  Rng rng(9);
  MatrixF a(11, 16);
  fill_normal(a, rng);
  const MatrixF w = random_sparse(16, 12, 0.7, 10);
  const Bsr bsr = bsr_from_dense(w, 4);
  MatrixF c(11, 12);
  bsr_gemm_accumulate(a, bsr, c);
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, w)), 1e-4f);
}

TEST(Bsr, AllZeroMatrixStoresNothing) {
  const MatrixF dense(8, 8);
  const Bsr bsr = bsr_from_dense(dense, 4);
  EXPECT_EQ(bsr.stored_blocks(), 0u);
  EXPECT_EQ(bsr.values.size(), 0u);
}

}  // namespace
}  // namespace tilesparse
