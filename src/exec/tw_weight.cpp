#include "exec/tw_weight.hpp"

#include <stdexcept>

#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "io/wire.hpp"

namespace tilesparse {

namespace {

std::vector<BatchGroup> groups_from_tiles(const std::vector<MaskedTile>& tiles) {
  // build_batch_groups works off a TilePattern; reconstruct the width /
  // kept-row statistics directly so tile-only construction (deployment
  // load path) gets the same grouping.
  TilePattern pattern;
  for (const auto& tile : tiles) {
    TwTile spec;
    spec.out_cols = tile.out_cols;
    pattern.tiles.push_back(std::move(spec));
  }
  std::vector<BatchGroup> groups = build_batch_groups(pattern);
  for (auto& group : groups) {
    for (std::size_t i = 0; i < group.tile_ids.size(); ++i)
      group.kept_rows[i] = tiles[group.tile_ids[i]].kept_rows.size();
  }
  return groups;
}

}  // namespace

std::size_t masked_tile_bytes(const MaskedTile& tile,
                              std::size_t weight_bytes_per_element) noexcept {
  return tile.kept_rows.size() * tile.out_cols.size() *
             weight_bytes_per_element +
         tile.kept_rows.size() * sizeof(std::int32_t) +
         tile.out_cols.size() * sizeof(std::int32_t);
}

TwWeight::TwWeight(const MatrixF& weights, const TilePattern& pattern)
    : TwWeight(compact_tiles(weights, pattern), pattern.k, pattern.n) {}

TwWeight::TwWeight(std::vector<MaskedTile> tiles, std::size_t k, std::size_t n)
    : PackedWeight(k, n),
      tiles_(std::move(tiles)),
      groups_(groups_from_tiles(tiles_)),
      panels_(prepack_all_tile_panels(tiles_)) {}

void TwWeight::save(std::ostream& out) const { write_tiles(out, tiles_); }

std::unique_ptr<TwWeight> TwWeight::load(MappedArtifact& in, std::size_t k,
                                         std::size_t n) {
  std::vector<MaskedTile> tiles = read_tiles(in);
  for (const MaskedTile& tile : tiles) {
    wire::check_index_vector(tile.kept_rows, k, "tile row");
    wire::check_index_vector(tile.out_cols, n, "tile column");
  }
  auto weight = std::make_unique<TwWeight>(std::move(tiles), k, n);
  weight->set_storage_keepalive(in.keepalive());
  return weight;
}

MatrixF TwWeight::to_dense() const { return tiles_to_dense(tiles_, k(), n()); }

std::size_t TwWeight::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& tile : tiles_) total += masked_tile_bytes(tile, sizeof(float));
  return total;
}

double TwWeight::macs(std::size_t m) const noexcept {
  double total = 0.0;
  for (const auto& tile : tiles_) {
    total += static_cast<double>(m) *
             static_cast<double>(tile.kept_rows.size()) *
             static_cast<double>(tile.out_cols.size());
  }
  return total;
}

std::unique_ptr<PackedWeight> TwWeight::shard_cols(std::size_t n0,
                                                   std::size_t n1) const {
  if (n0 >= n1 || n1 > n())
    throw std::invalid_argument("TwWeight::shard_cols: bad column range");
  return std::make_unique<TwWeight>(slice_masked_tiles(tiles_, n0, n1), k(),
                                    n1 - n0);
}

void TwWeight::accumulate(const ExecContext& ctx, const MatrixF& a,
                          MatrixF& c) const {
  masked_gemm_all(a, tiles_, c, ctx.fp16(), &panels_);
}

}  // namespace tilesparse
