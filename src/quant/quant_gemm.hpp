#pragma once
// INT8 execution of TW-pruned weights: per-tile weight scales +
// per-ROW dynamic activation scales, int32 accumulation, float output.
// Per-row activation scaling keeps each output row a function of its
// own input row alone, so batched and solo execution are bit-identical
// (the serving batcher's contract, exec/row_stage.hpp).

#include <cstdint>
#include <vector>

#include "gemm/masked_gemm.hpp"
#include "quant/quantize.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

/// A compacted TW tile with int8 weights and its own scale.
struct QuantMaskedTile {
  MatrixI8 weights;  ///< K_t x W_t
  float scale = 1.0f;
  std::vector<std::int32_t> kept_rows;
  std::vector<std::int32_t> out_cols;
};

/// Quantises each compacted tile independently (per-tile scales — the
/// regular tile structure is what makes this granularity natural).
std::vector<QuantMaskedTile> quantize_tiles(const std::vector<MaskedTile>& tiles);

/// C += A * W for TW-pruned int8 weights, the QuantTwWeight backend's
/// kernel.  A is quantised internally (dynamic per-row scales);
/// accumulation is int32 per tile, scaled to float on store.  Parallel
/// across tiles, which must write disjoint output columns.  C holds
/// original columns [n0, n0 + c.cols()) (M x N for the whole product);
/// as in masked_gemm_packed, only the tiles' in-range compacted columns
/// run, bit-identical to the whole product.
void quant_tw_gemm(const MatrixF& a, const std::vector<QuantMaskedTile>& tiles,
                   MatrixF& c, std::size_t n0 = 0);

/// Dense K x N reconstruction of quantised tiles (dequantised values,
/// zeros where pruned) — what the int8 kernel arithmetically executes.
MatrixF quant_tiles_to_dense(const std::vector<QuantMaskedTile>& tiles,
                             std::size_t k, std::size_t n);

}  // namespace tilesparse
