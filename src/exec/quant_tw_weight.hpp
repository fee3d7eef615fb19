#pragma once
// QuantTwWeight — int8 execution of TW-pruned weights: per-tile weight
// scales, dynamic per-row activation scales (quant/quant_gemm.hpp),
// int32 accumulation, float output.  Weight precision is inherent to
// the format (chosen at pack time), so this backend executes the int8
// kernel under every requested activation numerics; to_dense() returns
// the *dequantised* weights, making the reconstruction the arithmetic
// ground truth.

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

  /// Quantises pre-compacted float tiles.
  QuantTwWeight(const std::vector<MaskedTile>& tiles, std::size_t k,
                std::size_t n);

  /// Wraps already-quantised tiles (the deployment load path).
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

 protected:
  /// Each activation row's scale comes from that row of A alone, so a
  /// row range of A quantises only its own rows, to the bits the whole
  /// product gives them.
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  std::vector<QuantMaskedTile> tiles_;
};

}  // namespace tilesparse
