#include "quant/quant_gemm.hpp"

#include <algorithm>
#include <cassert>

#include "gemm/micro_kernel.hpp"

namespace tilesparse {

std::vector<QuantMaskedTile> quantize_tiles(
    const std::vector<MaskedTile>& tiles) {
  std::vector<QuantMaskedTile> out;
  out.reserve(tiles.size());
  for (const auto& tile : tiles) {
    QuantMaskedTile q;
    const QuantMatrix qw = quantize(tile.weights);
    q.weights = qw.values;
    q.scale = qw.scale;
    q.kept_rows = tile.kept_rows;
    q.out_cols = tile.out_cols;
    out.push_back(std::move(q));
  }
  return out;
}

MatrixF quant_tiles_to_dense(const std::vector<QuantMaskedTile>& tiles,
                             std::size_t k, std::size_t n) {
  MatrixF dense(k, n);
  for (const auto& tile : tiles) {
    for (std::size_t t = 0; t < tile.kept_rows.size(); ++t) {
      for (std::size_t j = 0; j < tile.out_cols.size(); ++j) {
        dense(static_cast<std::size_t>(tile.kept_rows[t]),
              static_cast<std::size_t>(tile.out_cols[j])) =
            static_cast<float>(tile.weights(t, j)) * tile.scale;
      }
    }
  }
  return dense;
}

void quant_tw_gemm(const MatrixF& a, const std::vector<QuantMaskedTile>& tiles,
                   MatrixF& c, std::size_t n0) {
  assert(c.rows() == a.rows());
  // Per-ROW activation scales: each output row is scale_r * tile.scale
  // * int32, a function of that row alone, so a row computes the same
  // bits batched or solo (the batching bit-identity contract,
  // exec/row_stage.hpp).  A per-tensor scale would couple every row to
  // the batch-wide abs-max.
  const QuantRowMatrix aq = quantize_rows(a);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n1 = n0 + c.cols();

#pragma omp parallel for schedule(dynamic)
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const auto& tile = tiles[t];
    const std::size_t kt = tile.kept_rows.size();
    const std::size_t wt = tile.out_cols.size();
    if (m == 0 || kt == 0 || wt == 0) continue;
    // The compacted columns in range, and the kNr strips covering them.
    const auto [j0, j1] = tile_col_range(tile.out_cols, n0, n1);
    if (j0 == j1) continue;
    const std::size_t s0 = j0 / kNr, s1 = (j1 + kNr - 1) / kNr;

    const std::size_t kt_even = round_up_pair(kt);
    const std::size_t acc_cols = (s1 - s0) * kNr;
    constexpr std::size_t kMc = 96;  // M chunk: accumulator stays cache
                                     // resident and scratch stays bounded
    const std::size_t mcap = std::min(kMc, m);

    // Per-thread scratch (one tile per worker, reused across tiles).
    GemmScratch& scratch = thread_gemm_scratch();
    scratch.a_i8.resize(kt_even * kMr);
    scratch.b_i8.resize(kt_even * acc_cols);
    scratch.acc_f32.resize(mcap * acc_cols);
    std::int8_t* a_panel = scratch.a_i8.data();
    std::int8_t* b_panels = scratch.b_i8.data();
    float* acc = scratch.acc_f32.data();

    for (std::size_t s = s0; s < s1; ++s) {
      const std::size_t js = s * kNr;
      pack_b_panel_i8(tile.weights.data() + js, wt, kt,
                      std::min(kNr, wt - js),
                      b_panels + (s - s0) * kt_even * kNr);
    }
    for (std::size_t i0 = 0; i0 < m; i0 += mcap) {
      const std::size_t mlen = std::min(mcap, m - i0);
      std::fill_n(acc, mlen * acc_cols, 0.0f);
      for (std::size_t i = 0; i < mlen; i += kMr) {
        const std::size_t rows = std::min(kMr, mlen - i);
        pack_a_panel_gather_i8(aq.values.data() + (i0 + i) * k, k, rows,
                               tile.kept_rows.data(), kt, a_panel);
        for (std::size_t s = 0; s < s1 - s0; ++s) {
          micro_kernel_i8(kt, a_panel, b_panels + s * kt_even * kNr,
                          tile.scale, acc + i * acc_cols + s * kNr, acc_cols,
                          rows, kNr);
        }
      }
      for (std::size_t i = 0; i < mlen; ++i) {
        const float* arow = acc + i * acc_cols;
        const float row_scale = aq.scales[i0 + i];
        float* crow = c.data() + (i0 + i) * c.cols();
        for (std::size_t j = j0; j < j1; ++j)
          crow[static_cast<std::size_t>(tile.out_cols[j]) - n0] +=
              arow[j - s0 * kNr] * row_scale;
      }
    }
  }
}

}  // namespace tilesparse
