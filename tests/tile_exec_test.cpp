#include <gtest/gtest.h>

#include "core/tile_exec.hpp"
#include "exec/tw_weight.hpp"
#include "prune/tw_pruner.hpp"
#include "prune/importance.hpp"
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

TEST(CompactTiles, PreservesValuesAndIndices) {
  const MatrixF w = random_matrix(6, 8, 1);
  std::vector<std::uint8_t> keep(8, 1);
  keep[3] = 0;
  TilePattern p = reorganize_columns(6, 8, 4, keep);
  p.tiles[0].row_keep[2] = 0;
  const auto tiles = compact_tiles(w, p);
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0].kept_rows.size(), 5u);
  EXPECT_EQ(tiles[0].out_cols.size(), 4u);
  // Spot-check a value: tile 0 row 0 col 0 is w(0, 0).
  EXPECT_EQ(tiles[0].weights(0, 0), w(0, 0));
  // Row 2 is skipped: compacted row 2 corresponds to original row 3.
  EXPECT_EQ(tiles[0].kept_rows[2], 3);
  EXPECT_EQ(tiles[0].weights(2, 0), w(3, 0));
}

TEST(CompactTiles, TwMatmulMatchesMaskedDenseGemm) {
  const MatrixF w = random_matrix(32, 48, 2);
  const TilePattern p =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 16);
  MatrixF pruned = w;
  apply_pattern(p, pruned);
  const auto tiles = compact_tiles(w, p);
  const MatrixF a = random_matrix(10, 32, 3);
  const MatrixF c = TwWeight(tiles, 32, 48).matmul(ExecContext{}, a);
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, pruned)), 1e-3f);
}

TEST(BatchGroups, GroupsByWidthWidestFirst) {
  // 10 columns, G=4, keep all -> widths 4, 4, 2.
  const TilePattern p = full_pattern(4, 10, 4);
  const auto groups = build_batch_groups(p);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].width, 4u);
  EXPECT_EQ(groups[0].tile_ids.size(), 2u);
  EXPECT_EQ(groups[1].width, 2u);
  EXPECT_EQ(groups[1].tile_ids.size(), 1u);
}

TEST(BatchGroups, KeptRowsTrackTiles) {
  TilePattern p = full_pattern(8, 8, 4);
  p.tiles[1].row_keep[0] = 0;
  const auto groups = build_batch_groups(p);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].kept_rows.size(), 2u);
  EXPECT_EQ(groups[0].kept_rows[0], 8u);
  EXPECT_EQ(groups[0].kept_rows[1], 7u);
}

TEST(BatchGroups, EmptyPatternGivesNoGroups) {
  std::vector<std::uint8_t> keep(6, 0);
  const TilePattern p = reorganize_columns(4, 6, 2, keep);
  EXPECT_TRUE(build_batch_groups(p).empty());
}

}  // namespace
}  // namespace tilesparse
