#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gemm/fused_ops.hpp"
#include "gemm/micro_kernel.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

#include "simd_levels.hpp"

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

// ---------------------------------------------------------------- GELU

std::vector<float> gelu_at(SimdLevel level, const std::vector<float>& x) {
  ScopedSimdLevel scoped(level);
  std::vector<float> y(x.size());
  gelu_row(x.data(), y.data(), x.size());
  return y;
}

double gelu_reference(double x) {
  return 0.5 * x *
         (1.0 + std::tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)));
}

/// The x > 0 where the kernel's exp argument -2u reaches -88 (and, by
/// symmetry, -x where it reaches +88): its clamp boundaries.
double gelu_clamp_edge() {
  double lo = 0.0, hi = 20.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double two_u =
        2.0 * 0.7978845608028654 * (mid + 0.044715 * mid * mid * mid);
    (two_u < 88.0 ? lo : hi) = mid;
  }
  return lo;
}

/// [-12, 12] every 2^-12, plus signed zeros, subnormals, the clamp
/// boundaries with their float neighbours, and saturating magnitudes.
std::vector<float> gelu_sweep() {
  std::vector<float> x;
  for (int i = -12 * 4096; i <= 12 * 4096; ++i)
    x.push_back(static_cast<float>(i) / 4096.0f);
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  for (const float v : {0.0f, denorm, 1e-40f, tiny / 2.0f, tiny, 1e3f, 1e20f,
                        std::numeric_limits<float>::max()}) {
    x.push_back(v);
    x.push_back(-v);
  }
  const float edge = static_cast<float>(gelu_clamp_edge());
  for (const float e : {edge, -edge}) {
    float v = e;
    for (int i = 0; i < 4; ++i) v = std::nextafter(v, 0.0f);
    for (int i = 0; i < 9; ++i) {
      x.push_back(v);
      v = std::nextafter(v, 2.0f * e);
    }
  }
  x.push_back(std::numeric_limits<float>::infinity());
  x.push_back(-std::numeric_limits<float>::infinity());
  return x;
}

TEST(FusedOps, GeluScalarAndAvx2AreBitIdentical) {
  if (detected_simd_level() != SimdLevel::kAvx2)
    GTEST_SKIP() << "host has no AVX2+FMA";
  const std::vector<float> x = gelu_sweep();
  const std::vector<float> scalar = gelu_at(SimdLevel::kScalar, x);
  const std::vector<float> avx2 = gelu_at(SimdLevel::kAvx2, x);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(scalar[i]) !=
        std::bit_cast<std::uint32_t>(avx2[i])) {
      if (++mismatches <= 5)
        ADD_FAILURE() << "x = " << x[i] << ": scalar " << scalar[i]
                      << " vs avx2 " << avx2[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FusedOps, GeluBitsDependOnlyOnTheValue) {
  // A value's output must not depend on its column, the row length
  // (body lanes vs the ragged tail) or the buffer's alignment.
  Rng rng(41);
  std::vector<float> pool(64);
  for (float& v : pool) v = rng.normal(0.0f, 3.0f);
  for (const SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    std::vector<float> alone(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
      gelu_row(&pool[i], &alone[i], 1);
    for (std::size_t n = 1; n <= 33; ++n) {
      for (std::size_t offset = 0; offset + n <= pool.size(); ++offset) {
        std::vector<float> out(n);
        gelu_row(pool.data() + offset, out.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(out[j]),
                    std::bit_cast<std::uint32_t>(alone[offset + j]))
              << simd_level_name(level) << " n=" << n
              << " offset=" << offset << " j=" << j;
        }
      }
    }
  }
}

TEST(FusedOps, GeluMatchesDoubleReference) {
  const std::vector<float> x = gelu_sweep();
  for (const SimdLevel level : testable_simd_levels()) {
    const std::vector<float> y = gelu_at(level, x);
    double worst = 0.0;
    float worst_x = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      // The saturating tail, out to ±inf: x above, and below a value no
      // larger than 1e-30 and never positive (-0 once the kernel's exp
      // argument passes 88).
      if (x[i] >= 12.0f) {
        EXPECT_EQ(y[i], x[i]) << simd_level_name(level) << " x = " << x[i];
        continue;
      }
      if (x[i] <= -12.0f) {
        EXPECT_LE(y[i], 0.0f) << simd_level_name(level) << " x = " << x[i];
        EXPECT_LE(std::abs(y[i]), 1e-30f)
            << simd_level_name(level) << " x = " << x[i];
        continue;
      }
      const double err = std::abs(static_cast<double>(y[i]) -
                                  gelu_reference(x[i])) /
                         std::max(1.0, std::abs(static_cast<double>(x[i])));
      if (err > worst) {
        worst = err;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, 1e-6) << simd_level_name(level) << " at x = " << worst_x;
  }
}

TEST(FusedOps, GeluPropagatesNanAndInfinity) {
  // 11 values: index 2 sits in the 8-lane body, index 9 in the tail.
  std::vector<float> x(11, 0.5f);
  x[2] = std::numeric_limits<float>::quiet_NaN();
  x[9] = std::numeric_limits<float>::quiet_NaN();
  x[5] = std::numeric_limits<float>::infinity();
  for (const SimdLevel level : testable_simd_levels()) {
    const std::vector<float> y = gelu_at(level, x);
    EXPECT_TRUE(std::isnan(y[2])) << simd_level_name(level);
    EXPECT_TRUE(std::isnan(y[9])) << simd_level_name(level);
    EXPECT_EQ(y[5], std::numeric_limits<float>::infinity())
        << simd_level_name(level);
    EXPECT_FLOAT_EQ(y[0], static_cast<float>(gelu_reference(0.5)));
  }
}

// ------------------------------------------------------------- softmax

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

std::vector<float> softmax_at(SimdLevel level, std::vector<float> row) {
  ScopedSimdLevel scoped(level);
  softmax_row(row.data(), row.size());
  return row;
}

TEST(FusedOps, SoftmaxScalarAndAvx2AreBitIdentical) {
  if (detected_simd_level() != SimdLevel::kAvx2)
    GTEST_SKIP() << "host has no AVX2+FMA";
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(43);
  std::vector<std::vector<float>> rows;
  // Every width from 1 to 40 (8-lane body, ragged tail, both), at a
  // spread where some arguments pass the -88 clamp and where none do.
  for (std::size_t n = 1; n <= 40; ++n) {
    for (const float spread : {3.0f, 60.0f}) {
      std::vector<float> row(n);
      for (float& v : row) v = rng.normal(0.0f, spread);
      rows.push_back(row);
    }
  }
  // -inf in the body and the tail, a row of only -inf, +inf, and NaN in
  // the body, the tail and first.
  for (const std::size_t n : {5u, 13u, 32u}) {
    std::vector<float> row(n);
    for (float& v : row) v = rng.normal(0.0f, 3.0f);
    std::vector<float> neg = row;
    neg[1] = -inf;
    neg[n - 1] = -inf;
    rows.push_back(neg);
    rows.push_back(std::vector<float>(n, -inf));
    std::vector<float> pos = row;
    pos[n / 2] = inf;
    rows.push_back(pos);
    for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      std::vector<float> bad = row;
      bad[at] = nan;
      rows.push_back(bad);
    }
  }
  for (const std::vector<float>& row : rows) {
    const std::vector<float> scalar = softmax_at(SimdLevel::kScalar, row);
    const std::vector<float> avx2 = softmax_at(SimdLevel::kAvx2, row);
    for (std::size_t j = 0; j < row.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar[j]),
                std::bit_cast<std::uint32_t>(avx2[j]))
          << "n = " << row.size() << " j = " << j << " x = " << row[j]
          << ": scalar " << scalar[j] << " vs avx2 " << avx2[j];
    }
    bool any_nan = false;
    for (const float v : row) any_nan = any_nan || std::isnan(v) || v == inf;
    const bool all_neg_inf =
        std::all_of(row.begin(), row.end(), [&](float v) { return v == -inf; });
    if (any_nan || all_neg_inf) {
      for (const float v : scalar) EXPECT_TRUE(std::isnan(v));
    }
  }
  // Arguments below the -88 clamp, -inf included, give exactly 0, as
  // std::exp underflows there.
  const std::vector<float> wide{0.0f, -88.5f, -100.0f, -1e30f, -inf, -87.0f};
  for (const SimdLevel level : testable_simd_levels()) {
    const std::vector<float> p = softmax_at(level, wide);
    for (std::size_t j = 1; j <= 4; ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(p[j]), 0u)
          << simd_level_name(level) << " x = " << wide[j];
    EXPECT_GT(p[5], 0.0f) << simd_level_name(level);
    EXPECT_NEAR(p[0], 1.0f, 1e-6f) << simd_level_name(level);
  }
}

}  // namespace
}  // namespace tilesparse
