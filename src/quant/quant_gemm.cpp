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
                   MatrixF& c) {
  assert(c.rows() == a.rows());
  // Per-ROW activation scales: each output row is scale_r * tile.scale
  // * int32, a function of that row alone, so a row computes the same
  // bits batched or solo (the batching bit-identity contract,
  // exec/row_stage.hpp).  A per-tensor scale would couple every row to
  // the batch-wide abs-max.
  const QuantRowMatrix aq = quantize_rows(a);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();

#pragma omp parallel for schedule(dynamic)
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const auto& tile = tiles[t];
    const std::size_t kt = tile.kept_rows.size();
    const std::size_t wt = tile.out_cols.size();
    if (m == 0 || kt == 0 || wt == 0) continue;

    const std::size_t kt_even = round_up_pair(kt);
    const std::size_t strips = (wt + kNr - 1) / kNr;
    const std::size_t wt_round = strips * kNr;
    constexpr std::size_t kMc = 96;  // M chunk: accumulator stays cache
                                     // resident and scratch stays bounded
    const std::size_t mcap = std::min(kMc, m);

    // Per-thread scratch (one tile per worker, reused across tiles).
    GemmScratch& scratch = thread_gemm_scratch();
    scratch.a_i8.resize(kt_even * kMr);
    scratch.b_i8.resize(kt_even * wt_round);
    scratch.acc_f32.resize(mcap * wt_round);
    std::int8_t* a_panel = scratch.a_i8.data();
    std::int8_t* b_panels = scratch.b_i8.data();
    float* acc = scratch.acc_f32.data();

    for (std::size_t s = 0; s < strips; ++s) {
      const std::size_t j0 = s * kNr;
      pack_b_panel_i8(tile.weights.data() + j0, wt, kt,
                      std::min(kNr, wt - j0), b_panels + s * kt_even * kNr);
    }
    for (std::size_t i0 = 0; i0 < m; i0 += mcap) {
      const std::size_t mlen = std::min(mcap, m - i0);
      std::fill_n(acc, mlen * wt_round, 0.0f);
      for (std::size_t i = 0; i < mlen; i += kMr) {
        const std::size_t rows = std::min(kMr, mlen - i);
        pack_a_panel_gather_i8(aq.values.data() + (i0 + i) * k, k, rows,
                               tile.kept_rows.data(), kt, a_panel);
        for (std::size_t s = 0; s < strips; ++s) {
          micro_kernel_i8(kt, a_panel, b_panels + s * kt_even * kNr,
                          tile.scale, acc + i * wt_round + s * kNr, wt_round,
                          rows, kNr);
        }
      }
      for (std::size_t i = 0; i < mlen; ++i) {
        const float* arow = acc + i * wt_round;
        const float row_scale = aq.scales[i0 + i];
        float* crow = c.data() + (i0 + i) * c.cols();
        for (std::size_t j = 0; j < wt; ++j)
          crow[static_cast<std::size_t>(tile.out_cols[j])] +=
              arow[j] * row_scale;
      }
    }
  }
}

}  // namespace tilesparse
