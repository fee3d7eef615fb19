#pragma once
// TwWeight — tile-wise sparse execution (the paper's primary format):
// compacted MaskedTiles run through the packed masked GEMM, batched by
// equal tile width.  fp16 rounds the packed A panels natively inside
// the kernel; int8 weight storage is a separate format ("tw-int8").

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/tile_exec.hpp"
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

  /// Slicing out_cols at tile boundaries leaves every tile's kept_rows
  /// (and hence the kernel's K-blocking and per-lane accumulation
  /// order) untouched, so shard-joins are bit-identical to the serial
  /// path.
  bool col_shardable() const noexcept override { return true; }
  std::unique_ptr<PackedWeight> shard_cols(std::size_t n0,
                                           std::size_t n1) const override;

  const std::vector<MaskedTile>& tiles() const noexcept { return tiles_; }
  /// Equal-width batch groups (paper Fig. 7-3), for schedulers/models.
  const std::vector<BatchGroup>& batch_groups() const noexcept {
    return groups_;
  }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  std::vector<MaskedTile> tiles_;
  std::vector<BatchGroup> groups_;
  /// B panels pre-packed at construction (shards rebuild their own in
  /// the ctor); replaces the per-call packing of the gather fallback.
  std::vector<TilePanels> panels_;
};

/// Storage accounting shared by the TW-family backends: tile payload
/// bytes plus the row/column index vectors.
std::size_t masked_tile_bytes(const MaskedTile& tile,
                              std::size_t weight_bytes_per_element) noexcept;

}  // namespace tilesparse
