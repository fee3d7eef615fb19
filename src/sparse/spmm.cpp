#include "sparse/spmm.hpp"

#include <algorithm>

#include "gemm/micro_kernel.hpp"
#include "util/guards.hpp"

namespace tilesparse {

namespace {
/// Default strip width: a kNr x 256 fp32 fragment is 16 KiB, half of a
/// typical 32 KiB L1D, leaving room for the activation lanes streaming
/// through.
constexpr std::size_t kDefaultStripCols = 256;
}  // namespace

MatrixF csr_spmm(const Csr& a, const MatrixF& b) {
  TS_CHECK(a.cols == b.rows(), "csr_spmm: A cols must equal B rows");
  MatrixF c(a.rows, b.cols());
  const std::size_t n = b.cols();
#pragma omp parallel for schedule(dynamic, 16)
  for (std::size_t r = 0; r < a.rows; ++r) {
    float* crow = c.data() + r * n;
    for (auto i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto k = static_cast<std::size_t>(a.col_idx[idx]);
      const float v = a.values[idx];
      const float* brow = b.data() + k * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += v * brow[j];
    }
  }
  return c;
}

MatrixF dense_times_csr(const MatrixF& a, const Csr& b) {
  MatrixF c(a.rows(), b.cols);
  dense_times_csr_accumulate(a, b, c);
  return c;
}

void dense_times_csr_accumulate(const MatrixF& a, const Csr& b, MatrixF& c) {
  TS_CHECK(a.cols() == b.rows, "dense_times_csr: A cols must equal B rows");
  TS_CHECK(c.rows() == a.rows() && c.cols() == b.cols,
           "dense_times_csr: C shape mismatch");
  const std::size_t m = a.rows();
#pragma omp parallel for schedule(dynamic, 16)
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * a.cols();
    float* crow = c.data() + i * c.cols();
    for (std::size_t k = 0; k < b.rows; ++k) {
      const float av = arow[k];
      if (av == 0.0f) continue;
      for (auto p = b.row_ptr[k]; p < b.row_ptr[k + 1]; ++p) {
        const auto idx = static_cast<std::size_t>(p);
        crow[b.col_idx[idx]] += av * b.values[idx];
      }
    }
  }
}

std::size_t CsrPanels::nnz() const noexcept {
  std::size_t total = 0;
  for (const Strip& s : strips) total += s.val.size();
  return total;
}

CsrPanels build_csr_panels(const CsrRef& csr, std::size_t strip_cols) {
  if (strip_cols == 0) strip_cols = kDefaultStripCols;
  CsrPanels panels;
  panels.rows = csr.rows;
  panels.cols = csr.cols;
  panels.strip_cols = strip_cols;
  const std::size_t nstrips =
      csr.cols == 0 ? 0 : (csr.cols + strip_cols - 1) / strip_cols;
  panels.strips.resize(nstrips);
  for (std::size_t s = 0; s < nstrips; ++s) {
    panels.strips[s].n0 = s * strip_cols;
    panels.strips[s].n1 = std::min(csr.cols, (s + 1) * strip_cols);
  }
  // Column indices ascend within a row, so a single pass distributes
  // every nonzero and keeps each strip's row list ascending.
  for (std::size_t r = 0; r < csr.rows; ++r) {
    for (auto p = csr.row_ptr[r]; p < csr.row_ptr[r + 1]; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      const auto col = static_cast<std::size_t>(csr.col_idx[idx]);
      CsrPanels::Strip& strip = panels.strips[col / strip_cols];
      if (strip.row_idx.empty() ||
          strip.row_idx.back() != static_cast<std::int32_t>(r)) {
        strip.row_idx.push_back(static_cast<std::int32_t>(r));
        strip.row_ptr.push_back(static_cast<std::int64_t>(strip.val.size()));
      }
      strip.col.push_back(static_cast<std::int32_t>(col - strip.n0));
      strip.val.push_back(csr.values[idx]);
    }
  }
  for (CsrPanels::Strip& strip : panels.strips)
    strip.row_ptr.push_back(static_cast<std::int64_t>(strip.val.size()));
  return panels;
}

void csr_panels_spmm_accumulate(const MatrixF& a, const CsrPanels& b,
                                MatrixF& c) {
  TS_CHECK(a.cols() == b.rows, "csr_panels_spmm: A cols must equal B rows");
  TS_CHECK(c.rows() == a.rows() && c.cols() == b.cols,
           "csr_panels_spmm: C shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t depth = b.rows;
  if (m == 0 || b.cols == 0) return;
  const std::size_t mblocks = (m + kNr - 1) / kNr;
#pragma omp parallel for schedule(dynamic)
  for (std::size_t mb = 0; mb < mblocks; ++mb) {
    GemmScratch& scratch = thread_gemm_scratch();
    const std::size_t i0 = mb * kNr;
    const std::size_t rows = std::min(kNr, m - i0);
    scratch.b_f32.resize(depth * kNr);
    float* a_panel = scratch.b_f32.data();
    pack_at_panel_f32(a.data() + i0 * a.cols(), a.cols(), rows, depth,
                      a_panel);
    scratch.acc_f32.resize(b.strip_cols * kNr);
    float* frag = scratch.acc_f32.data();
    for (const CsrPanels::Strip& strip : b.strips) {
      if (strip.row_idx.empty()) continue;
      const std::size_t width = strip.n1 - strip.n0;
      TS_ASSERT(width <= b.strip_cols && strip.n1 <= b.cols);
      std::fill(frag, frag + width * kNr, 0.0f);
      spmm_strip_f32(a_panel, strip.row_idx.data(), strip.row_ptr.data(),
                     strip.row_idx.size(), strip.col.data(), strip.val.data(),
                     frag);
      for (std::size_t r = 0; r < rows; ++r) {
        float* crow = c.data() + (i0 + r) * c.cols() + strip.n0;
        const float* f = frag + r;
        for (std::size_t j = 0; j < width; ++j) crow[j] += f[j * kNr];
      }
    }
  }
}

}  // namespace tilesparse
