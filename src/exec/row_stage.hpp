#pragma once
// RowStage — the wide-M staging buffer behind cross-request batching.
//
// The micro-kernel core is fastest in the wide-M regime (BENCH_gemm:
// throughput climbs steeply with M), but serving traffic arrives as
// many narrow activations.  RowStage turns a set of per-request row
// blocks into ONE contiguous M x K activation (gather) and hands each
// requester back its own rows of the batched output (scatter).
//
// Bit-identity contract: for C = A * W under every PackedWeight format,
// row r of C depends only on row r of A — the micro-kernel packs A
// panels zero-padded to the full register-tile height (gemm/
// micro_kernel.hpp), per-element accumulation runs over k in a fixed
// order, host ops and GEMM epilogues in serving graphs are row-wise
// (layernorm; bias, gelu, residual) or group-wise (attention/pooling
// over whole sequences).  A gathered run therefore produces, row for
// row, exactly the bits each member's solo run would have produced;
// serve_batch_test proves it per format.
//
// The buffer is grow-only and reusable: a serving batcher gathers into
// the same stage across flushes without reallocating on the hot path.

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace tilesparse {

class RowStage {
 public:
  /// The row interval one gathered part occupies in the staged matrix.
  struct Slice {
    std::size_t row0 = 0;
    std::size_t rows = 0;
  };

  /// Gathers `parts` — row blocks that all share one column count —
  /// into a single (sum of rows) x cols matrix, in order.  Returns the
  /// staged matrix; slices() reports where each part landed.  Throws
  /// std::invalid_argument on an empty part list or a column mismatch.
  const MatrixF& gather(const std::vector<const MatrixF*>& parts);

  const MatrixF& staged() const noexcept { return view_; }
  const std::vector<Slice>& slices() const noexcept { return slices_; }

  /// Copies rows [slice.row0, slice.row0 + slice.rows) of `batched`
  /// into an owned matrix — the member's private view of a batched
  /// output.  Throws std::invalid_argument when the slice is out of
  /// range.
  static MatrixF scatter(const MatrixF& batched, const Slice& slice);

  /// Maps an input-row slice to the matching output-row slice when the
  /// graph contracts rows group-wise (group_in input rows become
  /// group_out output rows, e.g. sequence pooling).  Throws
  /// std::invalid_argument when the slice is not group-aligned.
  static Slice map_groups(const Slice& in, std::size_t group_in,
                          std::size_t group_out);

 private:
  MatrixF buffer_;  ///< grow-only staging storage (capacity_rows_ rows)
  MatrixF view_;    ///< borrowed batch-rows view over buffer_
  std::size_t capacity_rows_ = 0;
  std::vector<Slice> slices_;
};

}  // namespace tilesparse
