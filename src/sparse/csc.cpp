#include "sparse/csc.hpp"

#include <cassert>
#include <cmath>

namespace tilesparse {

Csc csc_from_dense(const MatrixF& dense, float tol) {
  Csc out;
  out.rows = dense.rows();
  out.cols = dense.cols();
  out.col_ptr.reserve(out.cols + 1);
  out.col_ptr.push_back(0);
  for (std::size_t c = 0; c < out.cols; ++c) {
    for (std::size_t r = 0; r < out.rows; ++r) {
      const float v = dense(r, c);
      if (std::fabs(v) > tol) {
        out.row_idx.push_back(static_cast<std::int32_t>(r));
        out.values.push_back(v);
      }
    }
    out.col_ptr.push_back(static_cast<std::int64_t>(out.values.size()));
  }
  return out;
}

MatrixF csc_to_dense(const CscRef& m) {
  MatrixF dense(m.rows, m.cols);
  for (std::size_t c = 0; c < m.cols; ++c) {
    for (auto i = m.col_ptr[c]; i < m.col_ptr[c + 1]; ++i) {
      dense(static_cast<std::size_t>(m.row_idx[static_cast<std::size_t>(i)]), c) =
          m.values[static_cast<std::size_t>(i)];
    }
  }
  return dense;
}

void csc_gemm_accumulate(const MatrixF& a, const CscRef& b, MatrixF& c) {
  assert(a.cols() == b.rows);
  assert(c.rows() == a.rows() && c.cols() == b.cols);
  const std::size_t m = a.rows();
  // Parallel over output columns: every (i, col) is written by exactly
  // one iteration, so no atomics are needed.
#pragma omp parallel for schedule(dynamic, 8)
  for (std::size_t col = 0; col < b.cols; ++col) {
    for (auto i = b.col_ptr[col]; i < b.col_ptr[col + 1]; ++i) {
      const auto k = static_cast<std::size_t>(b.row_idx[static_cast<std::size_t>(i)]);
      const float v = b.values[static_cast<std::size_t>(i)];
      for (std::size_t r = 0; r < m; ++r) c(r, col) += a(r, k) * v;
    }
  }
}

}  // namespace tilesparse
