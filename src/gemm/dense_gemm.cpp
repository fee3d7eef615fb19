#include "gemm/dense_gemm.hpp"

#include <algorithm>

#include "gemm/micro_kernel.hpp"
#include "util/guards.hpp"

namespace tilesparse {

PackedDenseB pack_dense_b(const MatrixF& b, const GemmConfig& config) {
  PackedDenseB packed;
  packed.k = b.rows();
  packed.n = b.cols();
  packed.kc = std::max<std::size_t>(1, config.kc);
  const std::size_t strips = (packed.n + kNr - 1) / kNr;
  const std::size_t k_blocks = (packed.k + packed.kc - 1) / packed.kc;
  packed.panels = MatrixF(packed.k, strips * kNr);
  for (std::size_t kb = 0; kb < k_blocks; ++kb) {
    const std::size_t k0 = kb * packed.kc;
    const std::size_t klen = std::min(packed.kc, packed.k - k0);
    float* block_base = packed.panels.data() + k0 * strips * kNr;
    for (std::size_t s = 0; s < strips; ++s) {
      const std::size_t j0 = s * kNr;
      pack_b_panel_f32(b.data() + k0 * packed.n + j0, packed.n, klen,
                       std::min(kNr, packed.n - j0),
                       block_base + s * klen * kNr);
    }
  }
  return packed;
}

void dense_gemm(const MatrixF& a, const PackedDenseB& b, MatrixF& c,
                float alpha, float beta, const GemmConfig& config) {
  TS_CHECK(a.cols() == b.k, "dense_gemm: A cols must equal packed K");
  TS_CHECK(c.rows() == a.rows() && c.cols() == b.n,
           "dense_gemm: C shape mismatch");
  const std::size_t m = a.rows(), k = b.k, n = b.n;

  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    for (float& v : c.flat()) v *= beta;
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  const std::size_t mc = std::max<std::size_t>(kMr, config.mc);
  const std::size_t kcap = b.kc;
  const std::size_t row_blocks = (m + mc - 1) / mc;
  const std::size_t k_blocks = (k + kcap - 1) / kcap;
  const std::size_t strips = (n + kNr - 1) / kNr;

#pragma omp parallel for schedule(dynamic)
  for (std::size_t rb = 0; rb < row_blocks; ++rb) {
    const std::size_t i0 = rb * mc;
    const std::size_t i1 = std::min(m, i0 + mc);
    // Per-thread scratch: no heap allocation inside the parallel loop.
    GemmScratch& scratch = thread_gemm_scratch();
    scratch.a_f32.resize(kcap * kMr);
    float* a_panel = scratch.a_f32.data();

    for (std::size_t kb = 0; kb < k_blocks; ++kb) {
      const std::size_t k0 = kb * kcap;
      const std::size_t klen = std::min(kcap, k - k0);
      const float* block_base = b.panels.data() + k0 * strips * kNr;
      for (std::size_t i = i0; i < i1; i += kMr) {
        const std::size_t rows = std::min(kMr, i1 - i);
        pack_a_panel_f32(a.data() + i * k + k0, k, rows, klen, alpha,
                         config.fp16_inputs, a_panel);
        for (std::size_t s = 0; s < strips; ++s) {
          const std::size_t j0 = s * kNr;
          micro_kernel_f32(klen, a_panel, block_base + s * klen * kNr,
                           c.data() + i * n + j0, n, rows,
                           std::min(kNr, n - j0));
        }
      }
    }
  }
}

void dense_gemm(const MatrixF& a, const MatrixF& b, MatrixF& c, float alpha,
                float beta, const GemmConfig& config) {
  TS_CHECK(a.cols() == b.rows(), "dense_gemm: A cols must equal B rows");
  TS_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
           "dense_gemm: C shape mismatch");
  // One-shot path: pack B here (an O(K*N) pass amortised over the
  // O(M*N*K) compute).  Steady-state callers hold a PackedDenseB.
  dense_gemm(a, pack_dense_b(b, config), c, alpha, beta, config);
}

MatrixF matmul(const MatrixF& a, const MatrixF& b, const GemmConfig& config) {
  MatrixF c(a.rows(), b.cols());
  dense_gemm(a, b, c, 1.0f, 0.0f, config);
  return c;
}

}  // namespace tilesparse
