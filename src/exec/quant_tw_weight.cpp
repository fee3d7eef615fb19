#include "exec/quant_tw_weight.hpp"

#include <stdexcept>

#include "core/tile_exec.hpp"
#include "exec/tw_weight.hpp"
#include "io/mmap_file.hpp"
#include "io/wire.hpp"

namespace tilesparse {

QuantTwWeight::QuantTwWeight(const MatrixF& weights, const TilePattern& pattern)
    : QuantTwWeight(compact_tiles(weights, pattern), pattern.k, pattern.n) {}

QuantTwWeight::QuantTwWeight(const std::vector<MaskedTile>& tiles,
                             std::size_t k, std::size_t n)
    : QuantTwWeight(quantize_tiles(tiles), k, n) {}

QuantTwWeight::QuantTwWeight(std::vector<QuantMaskedTile> tiles, std::size_t k,
                             std::size_t n)
    : PackedWeight(k, n), tiles_(std::move(tiles)) {}

void QuantTwWeight::save(std::ostream& out) const {
  wire::write_pod<std::uint64_t>(out, tiles_.size());
  for (const QuantMaskedTile& tile : tiles_) {
    wire::write_pod<float>(out, tile.scale);
    wire::write_vector(out, tile.kept_rows);
    wire::write_vector(out, tile.out_cols);
    wire::write_matrix_payload(out, tile.weights);
  }
}

std::unique_ptr<QuantTwWeight> QuantTwWeight::load(MappedArtifact& in,
                                                   std::size_t k,
                                                   std::size_t n) {
  // Each tile takes at least three u64 size prefixes on the wire.
  const auto count = in.count(3 * sizeof(std::uint64_t));
  std::vector<QuantMaskedTile> tiles(static_cast<std::size_t>(count));
  for (QuantMaskedTile& tile : tiles) {
    tile.scale = in.pod<float>();
    const ConstSpan<std::int32_t> kept_rows = in.array<std::int32_t>();
    const ConstSpan<std::int32_t> out_cols = in.array<std::int32_t>();
    // Index vectors are a few percent of the payload; copy them so
    // grouping/slicing code keeps plain vectors.
    tile.kept_rows.assign(kept_rows.begin(), kept_rows.end());
    tile.out_cols.assign(out_cols.begin(), out_cols.end());
    const auto rows = in.pod<std::uint64_t>();
    const auto cols = in.pod<std::uint64_t>();
    if (rows != tile.kept_rows.size() || cols != tile.out_cols.size())
      throw std::runtime_error(
          "QuantTwWeight::load: inconsistent quantised tile");
    if (cols != 0 && rows > in.remaining() / cols)
      in.fail("quantised tile payload exceeds remaining payload");
    const ConstSpan<std::int8_t> panel = in.span<std::int8_t>(rows * cols);
    tile.weights = MatrixI8::borrowed(panel.data(),
                                      static_cast<std::size_t>(rows),
                                      static_cast<std::size_t>(cols));
    wire::check_index_vector(tile.kept_rows, k, "tile row");
    wire::check_index_vector(tile.out_cols, n, "tile column");
  }
  auto weight = std::make_unique<QuantTwWeight>(std::move(tiles), k, n);
  weight->set_storage_keepalive(in.keepalive());
  return weight;
}

MatrixF QuantTwWeight::to_dense() const {
  return quant_tiles_to_dense(tiles_, k(), n());
}

std::size_t QuantTwWeight::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& tile : tiles_) {
    total += tile.kept_rows.size() * tile.out_cols.size() * sizeof(std::int8_t) +
             tile.kept_rows.size() * sizeof(std::int32_t) +
             tile.out_cols.size() * sizeof(std::int32_t) + sizeof(float);
  }
  return total;
}

double QuantTwWeight::macs(std::size_t m) const noexcept {
  double total = 0.0;
  for (const auto& tile : tiles_) {
    total += static_cast<double>(m) *
             static_cast<double>(tile.kept_rows.size()) *
             static_cast<double>(tile.out_cols.size());
  }
  return total;
}

bool QuantTwWeight::supports(Numerics) const noexcept { return true; }

std::unique_ptr<PackedWeight> QuantTwWeight::shard_cols(std::size_t n0,
                                                        std::size_t n1) const {
  if (n0 >= n1 || n1 > n())
    throw std::invalid_argument("QuantTwWeight::shard_cols: bad column range");
  // Mirrors slice_masked_tiles, but keeps each surviving tile's scale:
  // re-quantising the slice would shift results vs the serial path.
  std::vector<QuantMaskedTile> sliced;
  for (const QuantMaskedTile& tile : tiles_) {
    std::size_t j0 = tile.out_cols.size(), j1 = 0;
    for (std::size_t j = 0; j < tile.out_cols.size(); ++j) {
      const auto col = static_cast<std::size_t>(tile.out_cols[j]);
      if (col < n0 || col >= n1) continue;
      j0 = std::min(j0, j);
      j1 = j + 1;  // out_cols ascend, so the overlap is contiguous
    }
    if (j0 >= j1) continue;
    QuantMaskedTile out;
    out.scale = tile.scale;
    out.kept_rows = tile.kept_rows;
    const std::size_t width = j1 - j0;
    out.out_cols.reserve(width);
    for (std::size_t j = j0; j < j1; ++j)
      out.out_cols.push_back(tile.out_cols[j] - static_cast<std::int32_t>(n0));
    out.weights = MatrixI8(tile.kept_rows.size(), width);
    for (std::size_t t = 0; t < tile.kept_rows.size(); ++t)
      for (std::size_t j = 0; j < width; ++j)
        out.weights(t, j) = tile.weights(t, j0 + j);
    sliced.push_back(std::move(out));
  }
  return std::make_unique<QuantTwWeight>(std::move(sliced), k(), n1 - n0);
}

void QuantTwWeight::accumulate(const ExecContext&, const MatrixF& a,
                               MatrixF& c) const {
  quant_tw_gemm(a, tiles_, c);
}

}  // namespace tilesparse
