#pragma once
// TwWeight — tile-wise sparse execution (the paper's primary format):
// compacted MaskedTiles run through the packed masked GEMM, one tile
// per task on B panels prepacked at construction.  fp16 rounds the
// packed A panels natively inside the kernel; int8 weight storage is a
// separate format ("tw-int8").

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/packed_weight.hpp"
#include "gemm/masked_gemm.hpp"

namespace tilesparse {

class MappedArtifact;

class TwWeight final : public PackedWeight {
 public:
  /// Packs `weights` (K x N, already pruned in place) under `pattern`.
  TwWeight(const MatrixF& weights, const TilePattern& pattern);

  /// Wraps pre-compacted tiles (e.g. loaded from a deployment artifact).
  TwWeight(std::vector<MaskedTile> tiles, std::size_t k, std::size_t n);

  /// Parses a payload written by save() from an artifact image: the
  /// compacted tiles, bounds-checked against the artifact's `k`/`n`.
  /// Each tile's weight matrix borrows the image in place (index
  /// vectors, a few percent of the payload, are copied), but execution
  /// runs on TilePanels prepacked at load, which copy the tile weights.
  static std::unique_ptr<TwWeight> load(MappedArtifact& in, std::size_t k,
                                        std::size_t n);

  void save(std::ostream& out) const override;
  MatrixF to_dense() const override;
  std::size_t bytes() const noexcept override;
  double macs(std::size_t m) const noexcept override;
  std::string_view format() const noexcept override { return "tw"; }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  std::vector<MaskedTile> tiles_;
  /// B panels pre-packed at construction.
  std::vector<TilePanels> panels_;
};

/// Storage accounting shared by the TW-family backends: tile payload
/// bytes plus the row/column index vectors.
std::size_t masked_tile_bytes(const MaskedTile& tile,
                              std::size_t weight_bytes_per_element) noexcept;

}  // namespace tilesparse
