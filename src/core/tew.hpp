#pragma once
// The hybrid Tile-Element-Wise (TEW) pattern (paper Sec. IV-A, "Pattern
// Overlay"): prune with TW to sparsity alpha + delta, then restore the
// delta fraction of pruned elements with the highest importance scores.
// The restored remainder is irregular, so it is stored in CSC and
// executed as a separate sparse GEMM (on CUDA cores in the paper);
// linearity of GEMM makes  A*W = A*W_tw + A*W_ew  exact.

#include <cstddef>
#include <vector>

#include "core/tile_pattern.hpp"
#include "gemm/masked_gemm.hpp"
#include "sparse/csc.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

/// A TEW-decomposed weight matrix.
struct TewMatrix {
  std::size_t k = 0;
  std::size_t n = 0;
  TilePattern pattern;             ///< the TW part's pattern
  std::vector<MaskedTile> tiles;   ///< compacted TW part
  Csc remainder;                   ///< restored EW elements (K x N)

  /// Overall achieved sparsity: 1 - (tw kept + ew kept) / (K*N).
  double sparsity() const noexcept;
  /// Fraction of elements carried by the EW remainder (the paper's delta).
  double ew_fraction() const noexcept;
};

/// Builds a TEW matrix: `pattern` is a TW pattern pruned to
/// alpha + delta; `scores` (K x N) ranks the pruned elements; the top
/// `delta` fraction (of the whole matrix) is restored into the CSC
/// remainder with its original values from `weights`.
TewMatrix build_tew(const MatrixF& weights, const TilePattern& pattern,
                    const MatrixF& scores, double delta);

/// Reconstructs the dense K x N weight matrix the TEW pair represents.
MatrixF tew_to_dense(const TewMatrix& w);

}  // namespace tilesparse
