#pragma once
// Non-GEMM row kernels: the one implementation of GELU, LayerNorm and
// softmax.  Bias is tensor/ops add_row_bias.
//
// The paper (Sec. VI, "Kernel Fusion") shows the non-GEMM glue is 39%
// of BERT's time before fusion and 29% after.  Training layers
// (nn/layers, nn/attention, nn/loss) and the inference graph's host
// nodes all call these kernels, so graph ≡ forward() holds bit for bit
// and a faster kernel is a change to one function.
//
// The kernels are serial (no OpenMP): graph host nodes run on
// scheduler streams, which already supply the parallelism.  Callers
// apply them per row, never over a flat multi-row buffer, so a row's
// bits depend only on that row (batched ≡ solo).

#include <cstddef>

namespace tilesparse {

/// tanh-approximation GELU: out[j] = gelu(in[j]) for j < n.  `in` may
/// equal `out`.
void gelu_row(const float* in, float* out, std::size_t n) noexcept;

/// LayerNorm of one row: out[j] = (in[j] - mean) * inv_std * gamma[j] +
/// beta[j] with inv_std = 1 / sqrt(var + eps).  When `normalized` is
/// non-null it receives (in[j] - mean) * inv_std, the value backward
/// needs.  Returns inv_std.  `in` may equal `out`.
float layer_norm_row(const float* in, float* out, std::size_t n,
                     const float* gamma, const float* beta, float eps,
                     float* normalized = nullptr) noexcept;

/// Numerically stable softmax of one row, in place.
void softmax_row(float* row, std::size_t n) noexcept;

}  // namespace tilesparse
