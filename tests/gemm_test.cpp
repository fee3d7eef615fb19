#include <gtest/gtest.h>

#include <tuple>

#include "gemm/dense_gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

TEST(DenseGemm, MatchesReferenceSmall) {
  const MatrixF a = random_matrix(7, 11, 1);
  const MatrixF b = random_matrix(11, 5, 2);
  const MatrixF c = matmul(a, b);
  const MatrixF ref = matmul_reference(a, b);
  EXPECT_LT(max_abs_diff(c, ref), 1e-4f);
}

TEST(DenseGemm, AlphaBetaSemantics) {
  const MatrixF a = random_matrix(4, 6, 3);
  const MatrixF b = random_matrix(6, 3, 4);
  MatrixF c = random_matrix(4, 3, 5);
  const MatrixF c0 = c;
  dense_gemm(a, b, c, 2.0f, 0.5f);
  const MatrixF ab = matmul_reference(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], 2.0f * ab.data()[i] + 0.5f * c0.data()[i], 1e-4f);
  }
}

TEST(DenseGemm, ZeroAlphaLeavesScaledC) {
  const MatrixF a = random_matrix(3, 3, 6);
  const MatrixF b = random_matrix(3, 3, 7);
  MatrixF c(3, 3);
  c.fill(4.0f);
  dense_gemm(a, b, c, 0.0f, 1.0f);
  for (float v : c.flat()) EXPECT_FLOAT_EQ(v, 4.0f);
}

TEST(DenseGemm, Fp16InputsCloseToFp32) {
  const MatrixF a = random_matrix(16, 32, 8);
  MatrixF b = random_matrix(32, 16, 9);
  GemmConfig cfg;
  cfg.fp16_inputs = true;
  round_matrix_to_half(b);  // B is pre-rounded (tensor-core weight path)
  MatrixF c(16, 16);
  dense_gemm(a, b, c, 1.0f, 0.0f, cfg);
  const MatrixF ref = matmul_reference(a, b);
  // fp16 inputs with fp32 accumulate: relative error ~2^-11 per operand.
  EXPECT_LT(max_abs_diff(c, ref), 0.1f);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReference) {
  const auto [m, n, k] = GetParam();
  const MatrixF a = random_matrix(m, k, 17 + m);
  const MatrixF b = random_matrix(k, n, 31 + n);
  const MatrixF c = matmul(a, b);
  const MatrixF ref = matmul_reference(a, b);
  EXPECT_LT(max_abs_diff(c, ref), 1e-3f) << m << "x" << n << "x" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 17, 9),
                      std::make_tuple(64, 64, 64), std::make_tuple(5, 3, 129),
                      std::make_tuple(33, 65, 127), std::make_tuple(128, 256, 64),
                      std::make_tuple(100, 1, 50), std::make_tuple(2, 300, 7),
                      std::make_tuple(255, 33, 254)));

TEST(GemmFlops, Formula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
}

}  // namespace
}  // namespace tilesparse
