#pragma once
// Symmetric INT8 quantization.  The paper leaves "how to integrate tile
// sparsity with quantization" as future work (Sec. VIII, citing Yang et
// al.'s sparsity-quantization joint compression); this module provides
// that integration: TW-compacted tiles quantize per-tile (each tile has
// its own scale, which the tile-level regularity makes free), and the
// masked GEMM runs in int8 with int32 accumulation.

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace tilesparse {

using MatrixI8 = Matrix<std::int8_t>;

/// A quantised matrix: q = clamp(lround(x * (1 / scale)), -127, 127),
/// ties rounding away from zero.  quantize() and quantize_rows() share
/// one round/clamp body, dispatched on active_simd_level()
/// (gemm/micro_kernel.hpp): an AVX2 body and a scalar std::lround body
/// that give the same bits for every input, ragged row tails included.
struct QuantMatrix {
  MatrixI8 values;
  float scale = 1.0f;
};

/// Symmetric per-tensor quantisation with the scale chosen from the
/// absolute maximum.  An all-zero input gets scale 1.
QuantMatrix quantize(const MatrixF& m);

/// A per-row quantised matrix: row r uses scales[r], chosen from that
/// row's own absolute maximum.  Row r of the result depends only on
/// row r of the input, which is what makes dynamic activation
/// quantisation batching-invariant: a row quantises to the same bits
/// whether it travels alone or gathered into a wide-M batch (see
/// exec/row_stage.hpp).
struct QuantRowMatrix {
  MatrixI8 values;
  std::vector<float> scales;  ///< one per row; 1 for an all-zero row
};

/// Symmetric per-row quantisation.
QuantRowMatrix quantize_rows(const MatrixF& m);

/// Reconstructs floats (q * scale).
MatrixF dequantize(const QuantMatrix& q);

/// Worst-case absolute reconstruction error of this quantisation:
/// half a quantisation step.
inline float quantization_step(const QuantMatrix& q) noexcept {
  return q.scale;
}

}  // namespace tilesparse
