#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <limits>
#include <vector>

#include "core/tile_exec.hpp"
#include "exec/quant_tw_weight.hpp"
#include "exec/tw_weight.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "quant/quant_gemm.hpp"
#include "quant/quantize.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

#include "simd_levels.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                      float stddev = 1.0f) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng, 0.0f, stddev);
  return m;
}

TEST(Quantize, RoundTripErrorBoundedByStep) {
  const MatrixF m = random_matrix(32, 32, 1);
  const QuantMatrix q = quantize(m);
  const MatrixF back = dequantize(q);
  EXPECT_LE(max_abs_diff(m, back), quantization_step(q) * 0.5f + 1e-7f);
}

TEST(Quantize, ScaleCoversAbsMax) {
  MatrixF m(1, 3);
  m(0, 0) = -12.7f;
  m(0, 1) = 5.0f;
  m(0, 2) = 0.0f;
  const QuantMatrix q = quantize(m);
  EXPECT_FLOAT_EQ(q.scale, 12.7f / 127.0f);
  EXPECT_EQ(q.values(0, 0), -127);
  EXPECT_EQ(q.values(0, 2), 0);
}

TEST(Quantize, AllZeroMatrixIsStable) {
  const QuantMatrix q = quantize(MatrixF(4, 4));
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (auto v : q.values.flat()) EXPECT_EQ(v, 0);
}

// ------------------------------------------------------ quantize_rows

QuantRowMatrix quantize_rows_at(SimdLevel level, const MatrixF& m) {
  ScopedSimdLevel scoped(level);
  return quantize_rows(m);
}

/// The definition, written out: per-row abs-max scale, then
/// clamp(lround(x * (1 / scale)), -127, 127).
QuantRowMatrix quantize_rows_reference(const MatrixF& m) {
  QuantRowMatrix q;
  q.values = MatrixI8(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float abs_max = 0.0f;
    for (std::size_t j = 0; j < m.cols(); ++j)
      abs_max = std::max(abs_max, std::fabs(m(r, j)));
    const float scale = abs_max > 0.0f ? abs_max / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    q.scales.push_back(scale);
    for (std::size_t j = 0; j < m.cols(); ++j)
      q.values(r, j) = static_cast<std::int8_t>(
          std::clamp(std::lround(m(r, j) * inv), -127l, 127l));
  }
  return q;
}

/// Bitwise equality of values and scales, reporting the first mismatch.
::testing::AssertionResult SameBits(const QuantRowMatrix& a,
                                    const QuantRowMatrix& b) {
  if (a.values.rows() != b.values.rows() ||
      a.values.cols() != b.values.cols())
    return ::testing::AssertionFailure() << "shape differs";
  for (std::size_t r = 0; r < a.values.rows(); ++r) {
    if (std::bit_cast<std::uint32_t>(a.scales[r]) !=
        std::bit_cast<std::uint32_t>(b.scales[r]))
      return ::testing::AssertionFailure()
             << "scale of row " << r << ": " << a.scales[r] << " vs "
             << b.scales[r];
    for (std::size_t j = 0; j < a.values.cols(); ++j)
      if (a.values(r, j) != b.values(r, j))
        return ::testing::AssertionFailure()
               << "(" << r << ", " << j << "): " << int{a.values(r, j)}
               << " vs " << int{b.values(r, j)};
  }
  return ::testing::AssertionSuccess();
}

TEST(QuantizeRows, GoldenRowRoundsTiesAwayFromZero) {
  const std::vector<float> row = {127.0f, 2.5f, -2.5f, 0.5f,
                                  -0.5f,  1.5f, -126.5f};
  const std::vector<int> expected = {127, 3, -3, 1, -1, 2, -127};
  MatrixF m(1, row.size());
  std::copy(row.begin(), row.end(), m.data());
  for (const SimdLevel level : testable_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    const QuantRowMatrix q = quantize_rows_at(level, m);
    EXPECT_EQ(q.scales[0], 1.0f);
    for (std::size_t j = 0; j < row.size(); ++j)
      EXPECT_EQ(int{q.values(0, j)}, expected[j]) << "x = " << row[j];
  }
}

TEST(QuantizeRows, EveryLevelMatchesLroundAtEveryWidth) {
  // Widths 1..1100 cover every ragged tail of the 8- and 32-lane bodies.
  // Odd rows plant exact .5 ties: the row's max is 127 * 2^e, so its
  // scale is 2^e and (k + 0.5) * 2^e scales to k + 0.5 exactly.  Every
  // fifth row is all zero (scale 1).
  Rng rng(11);
  for (std::size_t width = 1; width <= 1100; ++width) {
    MatrixF m(3, width);
    fill_normal(m, rng, 0.0f, 2.0f);
    const float pow2 = std::ldexp(1.0f, static_cast<int>(width % 9) - 4);
    for (std::size_t j = 0; j < width; ++j) {
      const float k = std::floor(m(1, j) * 20.0f);
      m(1, j) = std::clamp(k + 0.5f, -126.5f, 126.5f) * pow2;
    }
    m(1, width / 2) = (width % 2 ? -127.0f : 127.0f) * pow2;
    if (width % 5 == 0)
      for (std::size_t j = 0; j < width; ++j) m(2, j) = 0.0f;
    const QuantRowMatrix expected = quantize_rows_reference(m);
    for (const SimdLevel level : testable_simd_levels()) {
      const QuantRowMatrix q = quantize_rows_at(level, m);
      ASSERT_TRUE(SameBits(q, expected))
          << simd_level_name(level) << ", width " << width;
    }
    if (width % 5 == 0) {
      EXPECT_EQ(expected.scales[2], 1.0f);
      for (std::size_t j = 0; j < width; ++j)
        EXPECT_EQ(expected.values(2, j), 0);
    }
  }
}

TEST(QuantizeRows, DegenerateRowsMatchAcrossLevels) {
  // NaN elements, infinities, and a row whose scale is so small that
  // 1 / scale overflows: the levels still agree bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  MatrixF m(3, 37);
  Rng rng(12);
  fill_normal(m, rng, 0.0f, 1.0f);
  m(0, 3) = nan;
  m(0, 36) = -nan;
  m(1, 5) = inf;
  m(1, 30) = -inf;
  for (std::size_t j = 0; j < m.cols(); ++j) m(2, j) *= 1e-38f;
  const QuantRowMatrix scalar = quantize_rows_at(SimdLevel::kScalar, m);
  for (const SimdLevel level : testable_simd_levels())
    EXPECT_TRUE(SameBits(quantize_rows_at(level, m), scalar))
        << simd_level_name(level);
}

TEST(QuantizeRows, RowQuantizesAloneAsInBatch) {
  // Row r of a batch depends only on row r: the basis of batched ≡ solo
  // for dynamic activation quantisation.
  Rng rng(13);
  MatrixF batch(9, 203);
  fill_normal(batch, rng, 0.0f, 1.0f);
  for (std::size_t j = 0; j < batch.cols(); ++j) {
    batch(2, j) *= 1e3f;
    batch(5, j) *= 1e-3f;
    batch(7, j) = 0.0f;
  }
  for (const SimdLevel level : testable_simd_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    const QuantRowMatrix all = quantize_rows_at(level, batch);
    for (std::size_t r = 0; r < batch.rows(); ++r) {
      MatrixF row(1, batch.cols());
      std::copy_n(batch.data() + r * batch.cols(), batch.cols(), row.data());
      const QuantRowMatrix solo = quantize_rows_at(level, row);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(solo.scales[0]),
                std::bit_cast<std::uint32_t>(all.scales[r]));
      EXPECT_TRUE(std::equal(solo.values.data(),
                             solo.values.data() + batch.cols(),
                             all.values.data() + r * batch.cols()))
          << "row " << r;
    }
  }
}

TEST(Quantize, PerTensorMatchesAcrossLevels) {
  // quantize() runs the same row body over the whole tensor.
  const MatrixF m = random_matrix(37, 29, 14);
  const QuantMatrix scalar = [&] {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    return quantize(m);
  }();
  for (const SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    const QuantMatrix q = quantize(m);
    EXPECT_EQ(q.scale, scalar.scale);
    EXPECT_TRUE(std::equal(q.values.flat().begin(), q.values.flat().end(),
                           scalar.values.flat().begin()))
        << simd_level_name(level);
  }
}

TEST(QuantGemm, TwInt8MatchesFloatTwWithinError) {
  MatrixF w = random_matrix(96, 128, 4, 0.3f);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.6, 32);
  apply_pattern(pattern, w);
  const auto tiles = compact_tiles(w, pattern);
  const auto qtiles = quantize_tiles(tiles);

  const MatrixF a = random_matrix(16, 96, 5, 0.3f);
  const MatrixF c_fp = TwWeight(tiles, 96, 128).matmul(ExecContext{}, a);
  const MatrixF c_q = QuantTwWeight(qtiles, 96, 128).matmul(ExecContext{}, a);
  const double norm = frobenius_norm(c_fp) / std::sqrt(c_fp.size());
  EXPECT_LT(max_abs_diff(c_fp, c_q), static_cast<float>(0.1 * norm * 10.0));
}

TEST(QuantGemm, PerTileScalesBeatSingleGlobalScaleOnSkewedTiles) {
  // Two tiles with very different magnitudes: per-tile quantisation must
  // reconstruct the small tile far better than one global scale would.
  MatrixF w(8, 8);
  Rng rng(6);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c)
      w(r, c) = rng.normal() * (c < 4 ? 100.0f : 0.01f);
  const TilePattern pattern = full_pattern(8, 8, 4);
  const auto qtiles = quantize_tiles(compact_tiles(w, pattern));
  ASSERT_EQ(qtiles.size(), 2u);
  EXPECT_GT(qtiles[0].scale, qtiles[1].scale * 100.0f);

  // Reconstruction error of the small tile stays proportional to its own
  // magnitude, not the large tile's.
  const float small_step = qtiles[1].scale;
  EXPECT_LT(small_step, 0.01f);
}

TEST(QuantGemm, ZeroTilesSkipCleanly) {
  const std::vector<QuantMaskedTile> none;
  const MatrixF a = random_matrix(4, 8, 7);
  const MatrixF c = QuantTwWeight(none, 8, 6).matmul(ExecContext{}, a);
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(QuantGemm, PreservesPrunedColumnsAsZero) {
  MatrixF w = random_matrix(32, 32, 8);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.7, 8);
  apply_pattern(pattern, w);
  const auto qtiles = quantize_tiles(compact_tiles(w, pattern));
  const MatrixF a = random_matrix(4, 32, 9);
  const MatrixF c = QuantTwWeight(qtiles, 32, 32).matmul(ExecContext{}, a);
  for (std::size_t col = 0; col < 32; ++col) {
    if (pattern.col_keep[col]) continue;
    for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(c(r, col), 0.0f);
  }
}

// ------------------------------------------- integer oracle for the kernel

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// C = A * W for quantised tiles, by definition: each tile's kept
/// columns of quantize_rows(a), an int32 dot product per output, then
/// (tile.scale * float(sum)) * row_scale added into the tile's columns.
MatrixF integer_oracle(const MatrixF& a,
                       const std::vector<QuantMaskedTile>& tiles,
                       std::size_t n) {
  const QuantRowMatrix aq = quantize_rows(a);
  MatrixF c(a.rows(), n);
  for (const QuantMaskedTile& tile : tiles) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < tile.out_cols.size(); ++j) {
        std::int32_t sum = 0;
        for (std::size_t t = 0; t < tile.kept_rows.size(); ++t) {
          const auto col = static_cast<std::size_t>(tile.kept_rows[t]);
          sum += std::int32_t{aq.values(i, col)} *
                 std::int32_t{tile.weights(t, j)};
        }
        c(i, static_cast<std::size_t>(tile.out_cols[j])) +=
            (tile.scale * static_cast<float>(sum)) * aq.scales[i];
      }
    }
  }
  return c;
}

/// `count` random sorted distinct indices below `limit`.
std::vector<std::int32_t> sorted_indices(std::size_t count, std::size_t limit,
                                         Rng& rng) {
  std::vector<std::int32_t> all(limit);
  for (std::size_t i = 0; i < limit; ++i) all[i] = static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(all[i], all[i + rng.below(limit - i)]);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

/// A kt x wt tile of random int8 weights over the full [-127, 127]
/// range, on random rows of K and columns of N.
QuantMaskedTile random_quant_tile(std::size_t kt, std::size_t wt,
                                  std::size_t k, std::size_t n, Rng& rng) {
  QuantMaskedTile tile;
  tile.weights = MatrixI8(kt, wt);
  for (std::int8_t& v : tile.weights.flat())
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  tile.scale = 0.01f + rng.uniform();
  tile.kept_rows = sorted_indices(kt, k, rng);
  tile.out_cols = sorted_indices(wt, n, rng);
  return tile;
}

TEST(QuantGemm, EveryLevelMatchesIntegerOracleOnRaggedShapes) {
  std::string units;
  for (const SimdLevel level : testable_simd_levels()) {
    ScopedSimdLevel scoped(level);
    units += std::string(" ") + quant_tw_unit();
  }
  // Every K, kept-row count, tile width and M below with kt <= K: 1218
  // one-tile weights.
  Rng rng(41);
  std::size_t shapes = 0;
  for (const std::size_t k : {7, 64, 100, 256, 1024})
    for (const std::size_t kt : {1, 3, 4, 63, 64, 65, 127, 517}) {
      if (kt > k) continue;
      for (const std::size_t wt : {1, 15, 16, 17, 48, 64})
        for (const std::size_t m : {1, 5, 15, 16, 17, 37, 256}) {
          ++shapes;
          const std::size_t n = 2 * wt + 3;
          const std::vector<QuantMaskedTile> tiles{
              random_quant_tile(kt, wt, k, n, rng)};
          MatrixF a(m, k);
          fill_normal(a, rng);
          const std::string label =
              "K=" + std::to_string(k) + " kt=" + std::to_string(kt) +
              " wt=" + std::to_string(wt) + " M=" + std::to_string(m);
          const MatrixF want = integer_oracle(a, tiles, n);
          const QuantTwWeight weight(tiles, k, n);
          for (const SimdLevel level : testable_simd_levels()) {
            ScopedSimdLevel scoped(level);
            ASSERT_TRUE(bit_identical(weight.matmul(ExecContext{}, a), want))
                << quant_tw_unit() << " " << label;
            // Without the AMX packs the kernel runs the level's vector
            // body: the AVX2 body an AMX host never dispatches.
            MatrixF c(m, n);
            quant_tw_gemm(a, tiles, {}, c);
            ASSERT_TRUE(bit_identical(c, want))
                << simd_level_name(level) << " without AMX packs " << label;
          }
        }
    }
  EXPECT_EQ(shapes, 1218u);
  std::printf("quant_tw_gemm units checked:%s\n", units.c_str());
}

TEST(QuantGemm, AmxBodyMatchesIntegerOracle) {
  if (!amx_int8_available()) GTEST_SKIP() << "host has no AMX-INT8";
  ScopedSimdLevel scoped(SimdLevel::kAvx2);
  ASSERT_STREQ(quant_tw_unit(), "amx");

  // Three tiles of a 300 x 200 weight, one with no kept rows, run by
  // several threads at once.
  const std::size_t k = 300, n = 200, m = 70;
  Rng rng(43);
  std::vector<QuantMaskedTile> tiles;
  const std::vector<std::int32_t> cols = sorted_indices(150, n, rng);
  for (const std::size_t kt : {std::size_t{130}, std::size_t{0},
                               std::size_t{201}}) {
    const std::size_t first = tiles.size() * 50;
    QuantMaskedTile tile = random_quant_tile(kt, 50, k, n, rng);
    tile.out_cols.assign(cols.begin() + static_cast<std::ptrdiff_t>(first),
                         cols.begin() + static_cast<std::ptrdiff_t>(first + 50));
    tiles.push_back(std::move(tile));
  }
  const QuantTwWeight weight(tiles, k, n);
  MatrixF a(m, k);
  fill_normal(a, rng);
  const MatrixF want = integer_oracle(a, tiles, n);
  for (const int threads : {1, 3}) {
    ExecContext ctx;
    ctx.threads = threads;
    EXPECT_TRUE(bit_identical(weight.matmul(ctx, a), want))
        << threads << " threads";
  }
  // The tile with no kept rows leaves its columns zero.
  for (std::size_t i = 0; i < m; ++i)
    for (const std::int32_t col : tiles[1].out_cols)
      ASSERT_EQ(want(i, static_cast<std::size_t>(col)), 0.0f);

  // A row shard: rows [5, 22) of A through row views of A and C.
  MatrixF c(m, n);
  MatrixF rows = c.row_view(5, 22);
  weight.matmul(ExecContext{}, a.row_view(5, 22), rows);
  const MatrixF want_rows = integer_oracle(a.row_view(5, 22), tiles, n);
  EXPECT_TRUE(bit_identical(rows, want_rows));
  EXPECT_TRUE(bit_identical(want_rows, want.row_view(5, 22)));
}

TEST(QuantGemm, ConstructorRejectsBadTileIndices) {
  QuantMaskedTile tile;
  tile.weights = MatrixI8(2, 1);
  tile.out_cols = {0};
  tile.kept_rows = {3, 1};  // descending
  EXPECT_THROW(QuantTwWeight({tile}, 4, 2), std::runtime_error);
  tile.kept_rows = {1, 1};  // duplicate
  EXPECT_THROW(QuantTwWeight({tile}, 4, 2), std::runtime_error);
  tile.kept_rows = {1, 4};  // out of range
  EXPECT_THROW(QuantTwWeight({tile}, 4, 2), std::runtime_error);
  tile.kept_rows = {1, 3};
  EXPECT_NO_THROW(QuantTwWeight({tile}, 4, 2));
}

}  // namespace
}  // namespace tilesparse
