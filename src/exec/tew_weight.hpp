#pragma once
// TewWeight — the hybrid tile-element-wise format: a TW part executed
// as batched masked GEMM plus an element-wise CSC remainder accumulated
// separately; linearity of GEMM makes A*W = A*W_tw + A*W_ew exact.
// Matches the existing TewMatrix decomposition, behind the unified
// PackedWeight interface.

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/tew.hpp"
#include "exec/packed_weight.hpp"
#include "exec/weight_storage.hpp"
#include "gemm/masked_gemm.hpp"

namespace tilesparse {

class MappedArtifact;

class TewWeight final : public PackedWeight {
 public:
  /// Builds the TEW decomposition: `pattern` is TW-pruned to
  /// alpha + delta; the top `delta` fraction of pruned elements (by
  /// `scores`) is restored into the CSC remainder.
  TewWeight(const MatrixF& weights, const TilePattern& pattern,
            const MatrixF& scores, double delta);

  /// Wraps an existing decomposition.
  explicit TewWeight(TewMatrix tew);

  /// Parses a payload written by save() from an artifact image: TW
  /// pattern, compacted tiles and the CSC remainder, validated against
  /// `k`/`n`.  Tile weight matrices and the remainder's index/value
  /// arrays borrow the image in place.  Only the remainder executes
  /// from the image (csc_gemm_accumulate runs on the borrowed arrays);
  /// the TW part runs on TilePanels prepacked at load, which copy the
  /// tile weights.
  static std::unique_ptr<TewWeight> load(MappedArtifact& in, std::size_t k,
                                         std::size_t n);

  void save(std::ostream& out) const override;
  MatrixF to_dense() const override;
  std::size_t bytes() const noexcept override;
  double macs(std::size_t m) const noexcept override;
  std::string_view format() const noexcept override { return "tew"; }

  /// Both halves slice exactly: the TW tiles keep their kept_rows (so
  /// the masked kernel's accumulation order is unchanged) and the CSC
  /// remainder's columns are independent, so shard-joins stay
  /// bit-identical to the serial path.
  bool col_shardable() const noexcept override { return true; }
  std::unique_ptr<PackedWeight> shard_cols(std::size_t n0,
                                           std::size_t n1) const override;

  const TilePattern& pattern() const noexcept { return pattern_; }
  const std::vector<MaskedTile>& tiles() const noexcept { return tiles_; }
  const CscStore& remainder() const noexcept { return remainder_; }

 protected:
  void accumulate(const ExecContext& ctx, const MatrixF& a,
                  MatrixF& c) const override;
  bool native_fp16() const noexcept override { return true; }

 private:
  TewWeight(std::size_t k, std::size_t n, TilePattern pattern,
            std::vector<MaskedTile> tiles, CscStore remainder);

  // The decomposition in owning-or-borrowing form (the TewMatrix ctor
  // moves its parts in): pattern + compacted TW tiles + the
  // element-wise CSC remainder.
  TilePattern pattern_;
  std::vector<MaskedTile> tiles_;
  CscStore remainder_;
  /// B panels for the TW part, pre-packed at construction.
  std::vector<TilePanels> panels_;
};

}  // namespace tilesparse
