#include "quant/quant_gemm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "gemm/micro_kernel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_AMX_BODY 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

// AMX-INT8 geometry: a tile register holds 16 rows of 64 bytes, so an
// A tile is 16 rows x 64 int8 of K, a B tile 16 K-quads x 16 columns
// (4 bytes per column), and a C tile 16 x 16 int32.
constexpr std::size_t kAmxRows = 16;
constexpr std::size_t kAmxK = 64;
constexpr std::size_t kAmxCols = 16;
constexpr std::size_t kAmxTileBytes = kAmxRows * kAmxK;

constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

bool amx_dispatch() noexcept {
  return active_simd_level() == SimdLevel::kAvx2 && amx_int8_available();
}

#ifdef TILESPARSE_AMX_BODY

// tmm0-3 accumulate C, so one pass over K covers 64 columns.
constexpr std::size_t kAmxGroup = 4;

// LDTILECFG operand: palette 1, tmm0-5 each 16 rows x 64 bytes.  A
// constant-initialised static, so the whole 64 bytes are in memory
// when the instruction reads them.
struct alignas(64) TileConfig {
  std::uint8_t palette_id = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {64, 64, 64, 64, 64, 64};  // kAmxK bytes
  std::uint8_t rows[16] = {16, 16, 16, 16, 16, 16};    // kAmxRows
};
constexpr TileConfig kTileConfig{};

/// Gathers a block of `rows` <= 16 rows of quantised A into `out`, row
/// r at out + r * kt_pad: the tile's kept columns in ascending order
/// (compressed out of each 64-column word of A under `mask`), then
/// zeros to kt_pad.  Rows past `rows` are zeroed.  Each compress stores
/// 64 bytes at a running offset, so `out` needs 64 bytes of slack past
/// 16 * kt_pad.
__attribute__((target("amx-tile,amx-int8,avx512f,avx512bw,avx512vbmi2")))
void amx_gather_a(const std::int8_t* a, std::size_t lda, std::size_t rows,
                  const std::uint64_t* mask, std::size_t words,
                  std::size_t kt, std::size_t kt_pad, std::int8_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* src = a + r * lda;
    std::int8_t* dst = out + r * kt_pad;
    std::size_t at = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t m = mask[w];
      if (m == 0) continue;
      // Masked load: bytes past the end of the row are never touched.
      const __m512i v = _mm512_maskz_loadu_epi8(m, src + w * kAmxK);
      _mm512_storeu_si512(dst + at, _mm512_maskz_compress_epi8(m, v));
      at += static_cast<std::size_t>(std::popcount(m));
    }
    std::memset(dst + kt, 0, kt_pad - kt);
  }
  std::memset(out + rows * kt_pad, 0, (kAmxRows - rows) * kt_pad);
}

/// C tiles tmm0..tmm(kNb-1) = A block (16 x kt_pad bytes, row stride
/// `lda`) times kNb adjacent B column blocks, over `kblocks` K blocks
/// whose B tiles lie `b_stride` bytes apart; stored to c[kNb][16][16].
template <int kNb>
__attribute__((target("amx-tile,amx-int8,avx512f,avx512bw,avx512vbmi2")))
void amx_dot(const std::int8_t* a, std::size_t lda, const std::int8_t* b,
             std::size_t b_stride, std::size_t kblocks, std::int32_t* c) {
  constexpr std::size_t kCStride = kAmxCols * sizeof(std::int32_t);
  _tile_zero(0);
  if constexpr (kNb > 1) _tile_zero(1);
  if constexpr (kNb > 2) _tile_zero(2);
  if constexpr (kNb > 3) _tile_zero(3);
  for (std::size_t kb = 0; kb < kblocks; ++kb) {
    const std::int8_t* bk = b + kb * b_stride;
    _tile_loadd(4, a + kb * kAmxK, lda);
    _tile_loadd(5, bk, kAmxK);
    _tile_dpbssd(0, 4, 5);
    if constexpr (kNb > 1) {
      _tile_loadd(5, bk + kAmxTileBytes, kAmxK);
      _tile_dpbssd(1, 4, 5);
    }
    if constexpr (kNb > 2) {
      _tile_loadd(5, bk + 2 * kAmxTileBytes, kAmxK);
      _tile_dpbssd(2, 4, 5);
    }
    if constexpr (kNb > 3) {
      _tile_loadd(5, bk + 3 * kAmxTileBytes, kAmxK);
      _tile_dpbssd(3, 4, 5);
    }
  }
  constexpr std::size_t kCTile = kAmxRows * kAmxCols;
  _tile_stored(0, c, kCStride);
  if constexpr (kNb > 1) _tile_stored(1, c + kCTile, kCStride);
  if constexpr (kNb > 2) _tile_stored(2, c + 2 * kCTile, kCStride);
  if constexpr (kNb > 3) _tile_stored(3, c + 3 * kCTile, kCStride);
}

/// One tile of C += A * W on the matrix unit, for every row of the
/// quantised A.
__attribute__((target("amx-tile,amx-int8,avx512f,avx512bw,avx512vbmi2")))
void amx_tile_gemm(const QuantRowMatrix& aq, const QuantMaskedTile& tile,
                   const AmxTile& packed, MatrixF& c) {
  const std::size_t m = aq.values.rows();
  const std::size_t k = aq.values.cols();
  const std::size_t kt = tile.kept_rows.size();
  const std::size_t wt = tile.out_cols.size();
  const std::size_t kt_pad = ceil_div(kt, kAmxK) * kAmxK;
  const std::size_t kblocks = kt_pad / kAmxK;
  const std::size_t nblocks = ceil_div(wt, kAmxCols);
  const std::size_t b_stride = nblocks * kAmxTileBytes;
  const std::size_t ldc = c.cols();

  GemmScratch& scratch = thread_gemm_scratch();
  scratch.a_i8.resize(kAmxRows * kt_pad + kAmxK);  // + compress-store slack
  std::int8_t* a_block = scratch.a_i8.data();
  alignas(64) std::int32_t sums[kAmxGroup * kAmxRows * kAmxCols] = {};
  const __m512 vscale = _mm512_set1_ps(tile.scale);
  const __m512 zero = _mm512_setzero_ps();

  _tile_loadconfig(&kTileConfig);
  for (std::size_t i0 = 0; i0 < m; i0 += kAmxRows) {
    const std::size_t rows = std::min(kAmxRows, m - i0);
    amx_gather_a(aq.values.data() + i0 * k, k, rows, packed.kept_mask.data(),
                 packed.kept_mask.size(), kt, kt_pad, a_block);
    // The tile loads below read a_block through asm the compiler
    // cannot see into: make the gather's stores land first.
    asm volatile("" ::: "memory");
    for (std::size_t g = 0; g < nblocks; g += kAmxGroup) {
      const std::size_t nb = std::min(kAmxGroup, nblocks - g);
      const std::int8_t* b = packed.b.data() + g * kAmxTileBytes;
      switch (nb) {
        case 1: amx_dot<1>(a_block, kt_pad, b, b_stride, kblocks, sums); break;
        case 2: amx_dot<2>(a_block, kt_pad, b, b_stride, kblocks, sums); break;
        case 3: amx_dot<3>(a_block, kt_pad, b, b_stride, kblocks, sums); break;
        default: amx_dot<4>(a_block, kt_pad, b, b_stride, kblocks, sums); break;
      }
      // Dequantise exactly as micro_kernel_i8 and the scatter of the
      // AVX2 body do: fma(scale, float(sum), 0), then * row_scale, then
      // += into C.
      for (std::size_t blk = 0; blk < nb; ++blk) {
        const std::size_t j0 = (g + blk) * kAmxCols;
        const std::size_t cols = std::min(kAmxCols, wt - j0);
        const std::int32_t* out_cols = tile.out_cols.data() + j0;
        for (std::size_t r = 0; r < rows; ++r) {
          const __m512i sum = _mm512_load_si512(
              sums + (blk * kAmxRows + r) * kAmxCols);
          const __m512 v = _mm512_mul_ps(
              _mm512_fmadd_ps(vscale, _mm512_maskz_cvtepi32_ps(0xFFFF, sum),
                              zero),
              _mm512_set1_ps(aq.scales[i0 + r]));
          float* crow = c.data() + (i0 + r) * ldc;
          alignas(64) float vals[kAmxCols] = {};
          _mm512_store_ps(vals, v);
          for (std::size_t j = 0; j < cols; ++j)
            crow[static_cast<std::size_t>(out_cols[j])] += vals[j];
        }
      }
    }
  }
  _tile_release();
}

#endif  // TILESPARSE_AMX_BODY

}  // namespace

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

std::vector<AmxTile> pack_amx_tiles(const std::vector<QuantMaskedTile>& tiles,
                                    std::size_t k) {
  std::vector<AmxTile> out;
  if (!amx_int8_available()) return out;
  out.reserve(tiles.size());
  for (const auto& tile : tiles) {
    AmxTile packed;
    const std::size_t kt = tile.kept_rows.size();
    const std::size_t wt = tile.out_cols.size();
    const std::size_t nblocks = ceil_div(wt, kAmxCols);
    packed.b = MatrixI8(ceil_div(kt, kAmxK) * nblocks, kAmxTileBytes);
    for (std::size_t t = 0; t < kt; ++t) {
      const std::size_t kb = t / kAmxK, q = (t % kAmxK) / 4, d = t % 4;
      for (std::size_t j = 0; j < wt; ++j)
        packed.b(kb * nblocks + j / kAmxCols,
                 q * kAmxK + (j % kAmxCols) * 4 + d) = tile.weights(t, j);
    }
    packed.kept_mask.assign(ceil_div(k, kAmxK), 0);
    for (const std::int32_t row : tile.kept_rows) {
      const auto r = static_cast<std::size_t>(row);
      packed.kept_mask[r / kAmxK] |= std::uint64_t{1} << (r % kAmxK);
    }
    out.push_back(std::move(packed));
  }
  return out;
}

const char* quant_tw_unit() noexcept {
  return amx_dispatch() ? "amx" : simd_level_name(active_simd_level());
}

void quant_tw_gemm(const MatrixF& a, const std::vector<QuantMaskedTile>& tiles,
                   const std::vector<AmxTile>& amx, MatrixF& c) {
  assert(c.rows() == a.rows());
  // Per-ROW activation scales: each output row is scale_r * tile.scale
  // * int32, a function of that row alone, so a row computes the same
  // bits batched or solo (the batching bit-identity contract,
  // exec/row_stage.hpp).  A per-tensor scale would couple every row to
  // the batch-wide abs-max.
  const QuantRowMatrix aq = quantize_rows(a);
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();

#ifdef TILESPARSE_AMX_BODY
  if (amx_dispatch() && amx.size() == tiles.size()) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const auto& tile = tiles[t];
      if (m == 0 || tile.kept_rows.empty() || tile.out_cols.empty()) continue;
      amx_tile_gemm(aq, tile, amx[t], c);
    }
    return;
  }
#else
  (void)amx;
#endif

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
