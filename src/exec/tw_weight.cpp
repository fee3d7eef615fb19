#include "exec/tw_weight.hpp"

#include "core/tile_exec.hpp"
#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "io/wire.hpp"

namespace tilesparse {

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
      panels_(prepack_all_tile_panels(tiles_)) {}

void TwWeight::save(std::ostream& out) const { write_tiles(out, tiles_); }

std::unique_ptr<TwWeight> TwWeight::load(MappedArtifact& in, std::size_t k,
                                         std::size_t n) {
  std::vector<MaskedTile> tiles = read_tiles(in);
  wire::check_tile_indices(tiles, k, n);
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

void TwWeight::accumulate(const ExecContext& ctx, const MatrixF& a,
                          MatrixF& c, std::size_t n0, std::size_t) const {
  masked_gemm_all(a, tiles_, panels_, c, ctx.fp16(), n0);
}

}  // namespace tilesparse
