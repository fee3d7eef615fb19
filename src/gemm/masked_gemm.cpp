#include "gemm/masked_gemm.hpp"

#include <algorithm>
#include <cassert>

#include "gemm/micro_kernel.hpp"

namespace tilesparse {

void masked_gemm_gather(const MatrixF& a, const MaskedTile& tile, MatrixF& c) {
  const std::size_t m = a.rows();
  const std::size_t kt = tile.kept_rows.size();
  const std::size_t wt = tile.out_cols.size();
  assert(tile.weights.rows() == kt && tile.weights.cols() == wt);

  std::vector<float> acc(wt);
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::size_t t = 0; t < kt; ++t) {
      // Indexed load: A(i, kept_rows[t]) — the uncoalesced access the
      // paper eliminates via transposition.
      const float av = a(i, static_cast<std::size_t>(tile.kept_rows[t]));
      const float* wrow = tile.weights.data() + t * wt;
      for (std::size_t j = 0; j < wt; ++j) acc[j] += av * wrow[j];
    }
    for (std::size_t j = 0; j < wt; ++j)
      c(i, static_cast<std::size_t>(tile.out_cols[j])) += acc[j];
  }
}

namespace {

/// K blocking shared by packing and the kernel loops.  kcap depends on
/// the tile shape only, so pre-packed panels stay valid for every M.
constexpr std::size_t kKc = 256;  // K panel resident in L1/L2
constexpr std::size_t kMc = 96;   // M chunk: accumulator stays cache
                                  // resident and scratch stays bounded

}  // namespace

/// Packs the compacted tile weights: per (K-block, strip) panels,
/// kNr-wide, zero-padded — after packing, the inner loops are the same
/// register-tiled kernel dense GEMM runs (the CPU equivalent of the
/// transpose trick restoring coalesced loads).
TilePanels prepack_tile_panels(const MaskedTile& tile) {
  TilePanels panels;
  const std::size_t kt = tile.kept_rows.size();
  const std::size_t wt = tile.out_cols.size();
  if (kt == 0 || wt == 0) return panels;
  const std::size_t strips = (wt + kNr - 1) / kNr;
  const std::size_t wt_round = strips * kNr;
  panels.b = MatrixF(kt, wt_round);
  const std::size_t kcap = std::min(kKc, kt);
  const std::size_t k_blocks = (kt + kcap - 1) / kcap;
  for (std::size_t kb = 0; kb < k_blocks; ++kb) {
    const std::size_t k0 = kb * kcap;
    const std::size_t klen = std::min(kcap, kt - k0);
    float* block_base = panels.b.data() + k0 * wt_round;
    for (std::size_t s = 0; s < strips; ++s) {
      const std::size_t j0 = s * kNr;
      pack_b_panel_f32(tile.weights.data() + k0 * wt + j0, wt, klen,
                       std::min(kNr, wt - j0), block_base + s * klen * kNr);
    }
  }
  return panels;
}

std::vector<TilePanels> prepack_all_tile_panels(
    const std::vector<MaskedTile>& tiles) {
  std::vector<TilePanels> panels;
  panels.reserve(tiles.size());
  for (const MaskedTile& tile : tiles) panels.push_back(prepack_tile_panels(tile));
  return panels;
}

void masked_gemm_packed(const MatrixF& a, const MaskedTile& tile,
                        const TilePanels& panels, MatrixF& c,
                        bool fp16_inputs) {
  const std::size_t m = a.rows();
  const std::size_t kt = tile.kept_rows.size();
  const std::size_t wt = tile.out_cols.size();
  assert(tile.weights.rows() == kt && tile.weights.cols() == wt);
  if (m == 0 || kt == 0 || wt == 0) return;

  const std::size_t strips = (wt + kNr - 1) / kNr;
  const std::size_t wt_round = strips * kNr;
  const std::size_t kcap = std::min(kKc, kt);
  const std::size_t mcap = std::min(kMc, m);

  // Per-thread scratch: masked_gemm_all runs one tile per worker.
  GemmScratch& scratch = thread_gemm_scratch();
  scratch.a_f32.resize(kcap * kMr);
  scratch.acc_f32.resize(mcap * wt_round);
  float* a_panel = scratch.a_f32.data();
  float* acc = scratch.acc_f32.data();

  assert(panels.b.size() == kt * wt_round);
  const float* b_panels = panels.b.data();
  const std::size_t k_blocks = (kt + kcap - 1) / kcap;

  for (std::size_t i0 = 0; i0 < m; i0 += mcap) {
    const std::size_t mlen = std::min(mcap, m - i0);
    std::fill_n(acc, mlen * wt_round, 0.0f);
    for (std::size_t kb = 0; kb < k_blocks; ++kb) {
      const std::size_t k0 = kb * kcap;
      const std::size_t klen = std::min(kcap, kt - k0);
      const float* block_base = b_panels + k0 * wt_round;
      for (std::size_t i = 0; i < mlen; i += kMr) {
        const std::size_t rows = std::min(kMr, mlen - i);
        // Gathered A micro-panel: column kk reads A column kept_rows[kk].
        pack_a_panel_gather_f32(a.data() + (i0 + i) * a.cols(), a.cols(),
                                rows, tile.kept_rows.data() + k0, klen,
                                /*alpha=*/1.0f, fp16_inputs, a_panel);
        for (std::size_t s = 0; s < strips; ++s) {
          micro_kernel_f32(klen, a_panel, block_base + s * klen * kNr,
                           acc + i * wt_round + s * kNr, wt_round, rows, kNr);
        }
      }
    }
    // Scatter the chunk's accumulator into the tile's surviving C columns.
    for (std::size_t i = 0; i < mlen; ++i) {
      const float* arow = acc + i * wt_round;
      float* crow = c.data() + (i0 + i) * c.cols();
      for (std::size_t j = 0; j < wt; ++j)
        crow[static_cast<std::size_t>(tile.out_cols[j])] += arow[j];
    }
  }
}

void masked_gemm_all(const MatrixF& a, const std::vector<MaskedTile>& tiles,
                     const std::vector<TilePanels>& panels, MatrixF& c,
                     bool fp16_inputs) {
  assert(panels.size() == tiles.size());
  // Tiles write disjoint C columns (out_cols never overlap across tiles
  // of one weight matrix), so the loop is safely parallel.
#pragma omp parallel for schedule(dynamic)
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    masked_gemm_packed(a, tiles[t], panels[t], c, fp16_inputs);
  }
}

MatrixF tiles_to_dense(const std::vector<MaskedTile>& tiles, std::size_t k,
                       std::size_t n) {
  MatrixF dense(k, n);
  for (const auto& tile : tiles) {
    for (std::size_t t = 0; t < tile.kept_rows.size(); ++t) {
      for (std::size_t j = 0; j < tile.out_cols.size(); ++j) {
        dense(static_cast<std::size_t>(tile.kept_rows[t]),
              static_cast<std::size_t>(tile.out_cols[j])) = tile.weights(t, j);
      }
    }
  }
  return dense;
}

}  // namespace tilesparse
