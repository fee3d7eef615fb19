#pragma once
// QuantTwWeight — int8 execution of TW-pruned weights: per-tile weight
// scales, dynamic per-tensor activation scale, int32 accumulation,
// float output.  Weight precision is inherent to the format (chosen at
// pack time), so this backend executes the int8 kernel under every
// requested activation numerics; to_dense() returns the *dequantised*
// weights, making the reconstruction the arithmetic ground truth.

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/tile_pattern.hpp"
#include "exec/packed_weight.hpp"
#include "gemm/masked_gemm.hpp"
#include "quant/quant_gemm.hpp"

namespace tilesparse {

class MappedArtifact;

class QuantTwWeight final : public PackedWeight {
 public:
  /// Packs and quantises `weights` (K x N, already pruned) under
  /// `pattern`: compaction then per-tile symmetric int8.
  QuantTwWeight(const MatrixF& weights, const TilePattern& pattern);

  /// Quantises pre-compacted float tiles (deployment load path).
  QuantTwWeight(const std::vector<MaskedTile>& tiles, std::size_t k,
                std::size_t n);

  /// Wraps already-quantised tiles.
  QuantTwWeight(std::vector<QuantMaskedTile> tiles, std::size_t k,
                std::size_t n);

  /// Parses a payload written by save() from an artifact image: the
  /// int8 tiles *with their per-tile scales* — loading never
  /// re-quantises (which would shift results between the train and
  /// serve sides).  Each tile's int8 weight matrix borrows the image in
  /// place, and quant_tw_gemm executes directly on the borrowed tiles
  /// (no private repack).
  static std::unique_ptr<QuantTwWeight> load(MappedArtifact& in,
                                             std::size_t k, std::size_t n);

  void save(std::ostream& out) const override;
  MatrixF to_dense() const override;
  std::size_t bytes() const noexcept override;
  double macs(std::size_t m) const noexcept override;
  std::string_view format() const noexcept override { return "tw-int8"; }
  bool supports(Numerics numerics) const noexcept override;

  /// Slices carry each tile's quantisation scale, the activation scale
  /// is per-tensor from the (unsliced) A, and the int32 accumulation
  /// is exact, so shard-joins are bit-identical to the serial path.
  bool col_shardable() const noexcept override { return true; }
  std::unique_ptr<PackedWeight> shard_cols(std::size_t n0,
                                           std::size_t n1) const override;

  const std::vector<QuantMaskedTile>& tiles() const noexcept { return tiles_; }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  std::vector<QuantMaskedTile> tiles_;
};

}  // namespace tilesparse
