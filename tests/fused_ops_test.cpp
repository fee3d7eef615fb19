#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gemm/fused_ops.hpp"
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

TEST(FusedOps, LayerNormRowsHaveZeroMeanUnitVar) {
  MatrixF x = random_matrix(8, 64, 2);
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    layer_norm_row(row, row, x.cols(), gamma.data(), beta.data(), 1e-5f);
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) mean += x(r, c);
    mean /= x.cols();
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double d = x(r, c) - mean;
      var += d * d;
    }
    var /= x.cols();
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(FusedOps, GeluKnownValues) {
  MatrixF x(1, 3);
  x(0, 0) = 0.0f;
  x(0, 1) = 100.0f;   // saturates to identity
  x(0, 2) = -100.0f;  // saturates to zero
  gelu_row(x.data(), x.data(), x.cols());
  EXPECT_FLOAT_EQ(x(0, 0), 0.0f);
  EXPECT_NEAR(x(0, 1), 100.0f, 1e-3f);
  EXPECT_NEAR(x(0, 2), 0.0f, 1e-3f);
}

TEST(FusedOps, SoftmaxRowsSumToOne) {
  MatrixF x = random_matrix(7, 13, 9);
  for (std::size_t r = 0; r < x.rows(); ++r)
    softmax_row(x.data() + r * x.cols(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      EXPECT_GT(x(r, c), 0.0f);
      sum += x(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(FusedOps, SoftmaxNumericallyStableForLargeInputs) {
  MatrixF x(1, 3);
  x(0, 0) = 1000.0f;
  x(0, 1) = 1000.0f;
  x(0, 2) = -1000.0f;
  softmax_row(x.data(), x.cols());
  EXPECT_NEAR(x(0, 0), 0.5f, 1e-5f);
  EXPECT_FALSE(std::isnan(x(0, 2)));
}

}  // namespace
}  // namespace tilesparse
