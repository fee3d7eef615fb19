#include "exec/tew_weight.hpp"

#include <stdexcept>

#include "exec/tw_weight.hpp"
#include "gemm/masked_gemm.hpp"
#include "io/mmap_file.hpp"
#include "io/serialize.hpp"
#include "io/wire.hpp"

namespace tilesparse {

TewWeight::TewWeight(const MatrixF& weights, const TilePattern& pattern,
                     const MatrixF& scores, double delta)
    : TewWeight(build_tew(weights, pattern, scores, delta)) {}

TewWeight::TewWeight(TewMatrix tew)
    : TewWeight(tew.k, tew.n, std::move(tew.pattern), std::move(tew.tiles),
                CscStore(std::move(tew.remainder))) {}

TewWeight::TewWeight(std::size_t k, std::size_t n, TilePattern pattern,
                     std::vector<MaskedTile> tiles, CscStore remainder)
    : PackedWeight(k, n),
      pattern_(std::move(pattern)),
      tiles_(std::move(tiles)),
      remainder_(std::move(remainder)),
      panels_(prepack_all_tile_panels(tiles_)) {}

void TewWeight::save(std::ostream& out) const {
  write_pattern(out, pattern_);
  write_tiles(out, tiles_);
  write_csc(out, remainder_.ref());
}

std::unique_ptr<TewWeight> TewWeight::load(MappedArtifact& in, std::size_t k,
                                           std::size_t n) {
  TilePattern pattern = read_pattern(in);
  std::vector<MaskedTile> tiles = read_tiles(in);
  CscStore remainder = read_csc(in);
  if (pattern.k != k || pattern.n != n || remainder.rows != k ||
      remainder.cols != n || tiles.size() != pattern.tiles.size())
    throw std::runtime_error(
        "TewWeight::load: payload shape disagrees with artifact header");
  wire::check_tile_indices(tiles, k, n);
  auto weight = std::unique_ptr<TewWeight>(
      new TewWeight(k, n, std::move(pattern), std::move(tiles),
                    std::move(remainder)));
  weight->set_storage_keepalive(in.keepalive());
  return weight;
}

MatrixF TewWeight::to_dense() const {
  MatrixF dense = tiles_to_dense(tiles_, k(), n());
  const CscRef rem = remainder_.ref();
  for (std::size_t c = 0; c < rem.cols; ++c) {
    for (auto i = rem.col_ptr[c]; i < rem.col_ptr[c + 1]; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      dense(static_cast<std::size_t>(rem.row_idx[idx]), c) += rem.values[idx];
    }
  }
  return dense;
}

std::size_t TewWeight::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& tile : tiles_)
    total += masked_tile_bytes(tile, sizeof(float));
  total += remainder_.values.size() * sizeof(float) +
           remainder_.row_idx.size() * sizeof(std::int32_t) +
           remainder_.col_ptr.size() * sizeof(std::int64_t);
  return total;
}

double TewWeight::macs(std::size_t m) const noexcept {
  double total = static_cast<double>(m) *
                 static_cast<double>(remainder_.nnz());
  for (const auto& tile : tiles_) {
    total += static_cast<double>(m) *
             static_cast<double>(tile.kept_rows.size()) *
             static_cast<double>(tile.out_cols.size());
  }
  return total;
}

void TewWeight::accumulate(const ExecContext& ctx, const MatrixF& a,
                           MatrixF& c, std::size_t n0, std::size_t) const {
  // fp16 applies to the TW part only: on the GPU the EW remainder runs
  // on CUDA cores in fp32.
  masked_gemm_all(a, tiles_, panels_, c, ctx.fp16(), n0);
  csc_gemm_accumulate(a, remainder_.ref(), c, n0);
}

}  // namespace tilesparse
