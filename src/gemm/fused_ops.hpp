#pragma once
// Non-GEMM row kernels: the one implementation of GELU, LayerNorm,
// softmax and the GEMM epilogue (bias, activation, residual add).
//
// The paper (Sec. VI, "Kernel Fusion") shows the non-GEMM glue is 39%
// of BERT's time before fusion and 29% after.  Training layers
// (nn/layers, nn/attention, nn/loss), the inference graph's host nodes
// and its GEMM epilogues all call these kernels, so graph ≡ forward()
// holds bit for bit and a faster kernel is a change to one function.
//
// The kernels are serial (no OpenMP): graph host nodes and GEMM shard
// epilogues run on scheduler streams as row shards, which already
// supply the parallelism.  Callers apply them per row, never over a flat
// multi-row buffer, so a row's bits depend only on that row
// (batched ≡ solo).
//
// GELU has one formula, x / (1 + e^(-2u)) with u = sqrt(2/pi)(x +
// 0.044715 x^3) — the tanh approximation rewritten as a sigmoid — and
// GELU and softmax share one exp, 2^n p(r) with a degree-6 polynomial.
// Dispatch follows active_simd_level() (gemm/micro_kernel.hpp): an
// AVX2+FMA body, or a scalar body running the same lane arithmetic with
// std::fma, so the two levels agree bit for bit.  The ragged tail of a
// row runs the 8-lane body over a padded buffer: a GELU output's bits
// depend only on its input value, never on its column, the row length
// or a shard boundary.  Where -2u exceeds the clamp (x below about -10,
// true GELU under 1e-37) the result is -0, so the negative tail stays 0
// out to -inf; for x above about 10 the result is x itself, +inf
// included.

#include <cstddef>

#include "tensor/matrix.hpp"

namespace tilesparse {

/// GELU (tanh approximation, formula above): out[j] = gelu(in[j]) for
/// j < n.  `in` may equal `out`.  NaN stays NaN, +inf stays +inf and
/// -inf gives -0.
void gelu_row(const float* in, float* out, std::size_t n) noexcept;

/// Elementwise activation a GEMM epilogue applies after the bias.
enum class GemmActivation { kNone, kGelu };

/// The GEMM epilogue, in forward()'s op order: for every row of `c`
/// (M x N), c += bias;  c = activation(c);  c += residual, with `bias`
/// 1 x N and `residual` M x N (the same rows of the residual when `c`
/// is a row range of a larger output); either may be null.  The one
/// bias and residual add: Linear::infer, graph GEMM nodes and the
/// scheduler's row shards all call it, so every path produces the same
/// bits.  Throws CheckError when `bias` or `residual` does not match
/// `c`'s shape.
void apply_gemm_epilogue(const MatrixF* bias, GemmActivation activation,
                         const MatrixF* residual, MatrixF& c);

/// LayerNorm of one row: out[j] = (in[j] - mean) * inv_std * gamma[j] +
/// beta[j] with inv_std = 1 / sqrt(var + eps).  When `normalized` is
/// non-null it receives (in[j] - mean) * inv_std, the value backward
/// needs.  Returns inv_std.  `in` may equal `out`.
float layer_norm_row(const float* in, float* out, std::size_t n,
                     const float* gamma, const float* beta, float eps,
                     float* normalized = nullptr) noexcept;

/// Numerically stable softmax of one row, in place: e^(x - max) with
/// the shared exp (exactly 0 for an argument below -88, as std::exp
/// underflows), summed in 8 interleaved lanes whose reduction order
/// both levels share.  A row holding NaN or +inf, or only -inf, comes
/// out as all quiet NaN.
void softmax_row(float* row, std::size_t n) noexcept;

}  // namespace tilesparse
