#include <gtest/gtest.h>

#include "gemm/masked_gemm.hpp"
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

/// Builds a random tile with the given kept rows / out columns.
MaskedTile make_tile(const std::vector<std::int32_t>& rows,
                     const std::vector<std::int32_t>& cols,
                     std::uint64_t seed) {
  MaskedTile tile;
  tile.kept_rows = rows;
  tile.out_cols = cols;
  tile.weights = random_matrix(rows.size(), cols.size(), seed);
  return tile;
}

TEST(MaskedGemm, GatherMatchesDenseEquivalent) {
  const MatrixF a = random_matrix(9, 12, 1);
  const auto tile = make_tile({0, 3, 5, 11}, {1, 2, 7}, 2);
  MatrixF c(9, 8);
  masked_gemm_gather(a, tile, c);
  const MatrixF dense_w = tiles_to_dense({tile}, 12, 8);
  const MatrixF ref = matmul_reference(a, dense_w);
  EXPECT_LT(max_abs_diff(c, ref), 1e-4f);
}

TEST(MaskedGemm, PackedMatchesGather) {
  const MatrixF a = random_matrix(70, 40, 3);
  const auto tile = make_tile({2, 4, 8, 16, 32, 39}, {0, 5, 10, 15}, 4);
  MatrixF c_gather(70, 16), c_packed(70, 16);
  masked_gemm_gather(a, tile, c_gather);
  masked_gemm_packed(a, tile, prepack_tile_panels(tile), c_packed);
  EXPECT_LT(max_abs_diff(c_gather, c_packed), 1e-4f);
}

TEST(MaskedGemm, EmptyTileIsNoop) {
  const MatrixF a = random_matrix(4, 4, 5);
  MaskedTile tile;  // zero rows, zero cols
  MatrixF c(4, 4);
  masked_gemm_packed(a, tile, prepack_tile_panels(tile), c);
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(MaskedGemm, AccumulatesAcrossTiles) {
  const MatrixF a = random_matrix(10, 20, 6);
  // Two tiles covering disjoint output columns.
  const auto t1 = make_tile({0, 1, 2, 10, 19}, {0, 1, 2, 3}, 7);
  const auto t2 = make_tile({3, 4, 5}, {4, 5}, 8);
  MatrixF c(10, 6);
  masked_gemm_all(a, {t1, t2}, prepack_all_tile_panels({t1, t2}), c);
  const MatrixF dense_w = tiles_to_dense({t1, t2}, 20, 6);
  const MatrixF ref = matmul_reference(a, dense_w);
  EXPECT_LT(max_abs_diff(c, ref), 1e-4f);
}

TEST(MaskedGemm, FullTileEqualsDenseGemm) {
  const std::size_t k = 16, n = 8, m = 12;
  std::vector<std::int32_t> all_rows(k), all_cols(n);
  for (std::size_t i = 0; i < k; ++i) all_rows[i] = static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < n; ++i) all_cols[i] = static_cast<std::int32_t>(i);
  const auto tile = make_tile(all_rows, all_cols, 9);
  const MatrixF a = random_matrix(m, k, 10);
  MatrixF c(m, n);
  masked_gemm_packed(a, tile, prepack_tile_panels(tile), c);
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, tile.weights)), 1e-4f);
}

TEST(MaskedGemm, Fp16PathStaysClose) {
  const MatrixF a = random_matrix(32, 64, 11);
  std::vector<std::int32_t> rows, cols;
  for (int i = 0; i < 64; i += 2) rows.push_back(i);
  for (int i = 0; i < 16; ++i) cols.push_back(i);
  const auto tile = make_tile(rows, cols, 12);
  MatrixF c32(32, 16), c16(32, 16);
  const TilePanels panels = prepack_tile_panels(tile);
  masked_gemm_packed(a, tile, panels, c32, /*fp16_inputs=*/false);
  masked_gemm_packed(a, tile, panels, c16, /*fp16_inputs=*/true);
  EXPECT_LT(max_abs_diff(c32, c16), 0.05f);
  EXPECT_GT(max_abs_diff(c32, c16), 0.0f);  // rounding did happen
}

TEST(TilesToDense, PlacesValuesAtOriginalPositions) {
  const auto tile = make_tile({1, 3}, {2}, 13);
  const MatrixF dense = tiles_to_dense({tile}, 4, 4);
  EXPECT_EQ(dense(1, 2), tile.weights(0, 0));
  EXPECT_EQ(dense(3, 2), tile.weights(1, 0));
  EXPECT_EQ(dense(0, 0), 0.0f);
  EXPECT_EQ(dense(2, 2), 0.0f);
}

}  // namespace
}  // namespace tilesparse
