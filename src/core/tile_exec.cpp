#include "core/tile_exec.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace tilesparse {

std::vector<MaskedTile> compact_tiles(const MatrixF& weights,
                                      const TilePattern& pattern) {
  assert(weights.rows() == pattern.k && weights.cols() == pattern.n);
  std::vector<MaskedTile> tiles;
  tiles.reserve(pattern.tiles.size());
  for (const auto& spec : pattern.tiles) {
    MaskedTile tile;
    tile.out_cols = spec.out_cols;
    for (std::size_t r = 0; r < pattern.k; ++r)
      if (spec.row_keep[r]) tile.kept_rows.push_back(static_cast<std::int32_t>(r));

    tile.weights = MatrixF(tile.kept_rows.size(), tile.out_cols.size());
    for (std::size_t t = 0; t < tile.kept_rows.size(); ++t) {
      const auto r = static_cast<std::size_t>(tile.kept_rows[t]);
      for (std::size_t j = 0; j < tile.out_cols.size(); ++j) {
        tile.weights(t, j) = weights(r, static_cast<std::size_t>(tile.out_cols[j]));
      }
    }
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

std::vector<BatchGroup> build_batch_groups(const TilePattern& pattern) {
  std::map<std::size_t, BatchGroup> by_width;
  for (std::size_t i = 0; i < pattern.tiles.size(); ++i) {
    const auto& tile = pattern.tiles[i];
    auto& group = by_width[tile.width()];
    group.width = tile.width();
    group.tile_ids.push_back(i);
    group.kept_rows.push_back(tile.kept_rows());
  }
  std::vector<BatchGroup> groups;
  groups.reserve(by_width.size());
  for (auto& [width, group] : by_width) groups.push_back(std::move(group));
  std::sort(groups.begin(), groups.end(),
            [](const BatchGroup& a, const BatchGroup& b) {
              return a.width > b.width;
            });
  return groups;
}

}  // namespace tilesparse
