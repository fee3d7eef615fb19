#pragma once
// Sparse x dense matrix multiplication (SpMM), the cuSparse analogue the
// EW and VW baselines execute on CUDA cores (paper Sec. III-B).
//
// Note the operand order: in DNN inference the *weight* matrix is
// sparse.  With C = A * B and sparse B, the natural kernel iterates the
// CSR of B^T or the CSC of B; we provide both orientations.

#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

/// C = A(M x K, sparse CSR) * B(K x N, dense).  Row-parallel.
MatrixF csr_spmm(const Csr& a, const MatrixF& b);

/// C = A(M x K, dense) * B(K x N, sparse given as CSR of B itself).
/// Iterates rows of B, scattering into C; this is the gather/scatter
/// heavy pattern that makes unstructured sparse weights slow.
MatrixF dense_times_csr(const MatrixF& a, const Csr& b);

/// Accumulating variant: C += A * B.  C must be M x N.  Naive scalar
/// scatter loop, kept as the reference implementation the panel path
/// below is tested against; CsrWeight executes through CsrPanels.
void dense_times_csr_accumulate(const MatrixF& a, const Csr& b, MatrixF& c);

// ------------------------------------------------------- panel SpMM
//
// The seed CsrWeight kernel above issues one scalar FMA per nonzero
// and walks C with data-dependent scatter — ~3 GFLOP/s against ~45 for
// the micro-kernel paths.  The panel path restores vector width by
// transposing the roles: activations are packed once per 16-row block
// of A into contiguous kNr-lane vectors (one per weight row), the
// weight is re-laid out into L1-resident column strips, and each
// nonzero then performs a full-width vector FMA into a dense strip
// fragment.  Work stays proportional to nnz; only the fragment
// zero/flush is dense, and it is amortised over the strip's nonzeros.

/// Strip-partitioned CSR layout built once at pack time.  Each strip
/// covers output columns [n0, n1) and stores a compacted row list
/// (rows with no nonzero in the strip are skipped entirely, so empty
/// rows and ragged tails cost nothing).
struct CsrPanels {
  std::size_t rows = 0;        ///< K
  std::size_t cols = 0;        ///< N
  std::size_t strip_cols = 0;  ///< strip width the layout was built with

  struct Strip {
    std::size_t n0 = 0;
    std::size_t n1 = 0;
    std::vector<std::int32_t> row_idx;  ///< weight rows present, ascending
    std::vector<std::int64_t> row_ptr;  ///< size row_idx.size() + 1
    std::vector<std::int32_t> col;      ///< strip-local column, size nnz
    std::vector<float> val;             ///< size nnz
  };
  std::vector<Strip> strips;

  std::size_t nnz() const noexcept;
};

/// Builds the strip layout.  strip_cols == 0 picks the default width
/// (sized so one strip fragment of kNr rows stays L1-resident).  The
/// CsrRef overload builds the same (owning) panels from borrowed
/// arrays — mmap-loaded CsrWeights pack their execution layout without
/// ever copying the CSR itself.
CsrPanels build_csr_panels(const CsrRef& csr, std::size_t strip_cols = 0);
inline CsrPanels build_csr_panels(const Csr& csr, std::size_t strip_cols = 0) {
  return build_csr_panels(csr.ref(), strip_cols);
}

/// C += A * B over the panel layout, C being M x N.  Every output
/// element accumulates its terms in ascending K order into a zeroed
/// fragment added to C exactly once, so a row range of A computes
/// those rows of C bit for bit.
void csr_panels_spmm_accumulate(const MatrixF& a, const CsrPanels& b,
                                MatrixF& c);

}  // namespace tilesparse
