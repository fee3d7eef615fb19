#pragma once
// Compressed Sparse Column storage — used by the hybrid TEW pattern:
// the paper stores the restored element-wise remainder of each tile in
// CSC format (Sec. IV-A, Fig. 4-4) and executes it with a separate
// sparse GEMM on the CUDA cores.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace tilesparse {

/// Non-owning view of a CSC matrix — what the kernels consume.  The
/// arrays may be owned (Csc) or borrowed from an mmap'd artifact; the
/// viewer guarantees their lifetime.
struct CscRef {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::span<const std::int64_t> col_ptr;  ///< size cols + 1
  std::span<const std::int32_t> row_idx;  ///< size nnz, ascending in a column
  std::span<const float> values;          ///< size nnz

  std::size_t nnz() const noexcept { return values.size(); }
};

struct Csc {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int64_t> col_ptr;  ///< size cols + 1
  std::vector<std::int32_t> row_idx;  ///< size nnz, ascending within a column
  std::vector<float> values;          ///< size nnz

  std::size_t nnz() const noexcept { return values.size(); }
  CscRef ref() const noexcept { return {rows, cols, col_ptr, row_idx, values}; }
};

/// Builds CSC from a dense matrix, dropping |x| <= tol.
Csc csc_from_dense(const MatrixF& dense, float tol = 0.0f);

/// Expands back to dense.
MatrixF csc_to_dense(const CscRef& m);
inline MatrixF csc_to_dense(const Csc& m) { return csc_to_dense(m.ref()); }

/// C += A(MxK dense) * B(KxN, this CSC).  Column-parallel.  C holds
/// columns [n0, n0 + c.cols()) of the product (M x N for the whole of
/// it); columns are independent, so a range is bit-identical to the
/// same columns of the whole product.
void csc_gemm_accumulate(const MatrixF& a, const CscRef& b, MatrixF& c,
                         std::size_t n0 = 0);

}  // namespace tilesparse
