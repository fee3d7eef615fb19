#pragma once
// Free-function algorithms over Matrix<float>: init, transpose,
// comparisons, sparsity accounting, FP16 round-trips.

#include <cstddef>
#include <span>

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace tilesparse {

/// Fills with N(mean, stddev) samples.
void fill_normal(MatrixF& m, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

/// Fills with U[lo, hi) samples.
void fill_uniform(MatrixF& m, Rng& rng, float lo = 0.0f, float hi = 1.0f);

/// Kaiming/He-style init: N(0, sqrt(2 / fan_in)).  fan_in = m.rows()
/// (weight matrices here are stored K x N: input dim x output dim).
void fill_kaiming(MatrixF& m, Rng& rng);

/// Out-of-place transpose (returns a cols x rows matrix).
MatrixF transposed(const MatrixF& m);

/// Cache-blocked in-place-style transpose into a preallocated output.
/// `out` must be m.cols() x m.rows().
void transpose_into(const MatrixF& m, MatrixF& out);

/// Max |a - b| over all elements; matrices must have equal shape.
float max_abs_diff(const MatrixF& a, const MatrixF& b);

/// Frobenius norm.
double frobenius_norm(const MatrixF& m);

/// Fraction of elements with |x| <= tol (the "sparsity" of the matrix).
double sparsity(const MatrixF& m, float tol = 0.0f);

/// Number of elements with |x| > tol.
std::size_t count_nonzero(const MatrixF& m, float tol = 0.0f);

/// Element-wise multiply by a {0,1} mask of identical shape.
void apply_mask(MatrixF& m, const MatrixU8& mask);

/// Quantise every element through IEEE binary16 (tensor-core input path).
void round_matrix_to_half(MatrixF& m);

/// C = A * B reference (naive triple loop, no blocking).  For testing the
/// optimised kernels only; O(M*N*K) with no parallelism.
MatrixF matmul_reference(const MatrixF& a, const MatrixF& b);

}  // namespace tilesparse
