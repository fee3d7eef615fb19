#pragma once
// INT8 execution of TW-pruned weights: per-tile weight scales +
// per-ROW dynamic activation scales, int32 accumulation, float output.
// Per-row activation scaling keeps each output row a function of its
// own input row alone, so batched and solo execution are bit-identical
// (the serving batcher's contract, exec/row_stage.hpp).
//
// The kernel has three bodies, which give the same bits: scalar and
// AVX2 (micro_kernel_i8 on K-pair panels packed per call), and, on a
// host with AMX-INT8 (amx_int8_available()), the CPU's matrix unit on
// B tiles packed once per weight (AmxTile).  Every body sums exact
// int32 products of the same int8 values, |sum| <= K * 127^2 < 2^31,
// then dequantises with the same two roundings:
//   C += (tile.scale * float(sum)) * row_scale.

#include <cstdint>
#include <vector>

#include "gemm/masked_gemm.hpp"
#include "quant/quantize.hpp"
#include "tensor/matrix.hpp"

namespace tilesparse {

/// A compacted TW tile with int8 weights and its own scale.
struct QuantMaskedTile {
  MatrixI8 weights;  ///< K_t x W_t
  float scale = 1.0f;
  std::vector<std::int32_t> kept_rows;
  std::vector<std::int32_t> out_cols;
};

/// Quantises each compacted tile independently (per-tile scales — the
/// regular tile structure is what makes this granularity natural).
std::vector<QuantMaskedTile> quantize_tiles(const std::vector<MaskedTile>& tiles);

/// One tile's weights in the AMX-INT8 B layout.  `b` holds
/// ceil(K_t / 64) x ceil(W_t / 16) tiles of 1 KiB, one per row, tile
/// (kb, nb) in row kb * ceil(W_t / 16) + nb.  Row q of a tile holds, for
/// each column j, the bytes W(64 kb + 4 q + d, 16 nb + j), d = 0..3, at
/// byte 64 q + 4 j + d; K_t and W_t are zero-padded, which keeps the
/// sums exact.  `kept_mask` sets bit r % 64 of word r / 64 for each
/// kept row r of the weight's K (one word per 64 rows of K).
struct AmxTile {
  MatrixI8 b;
  std::vector<std::uint64_t> kept_mask;
};

/// Packs each tile for the AMX body (QuantTwWeight does so once, at
/// construction).  Returns nothing on a host without AMX-INT8.  Each
/// tile's kept_rows must be strictly ascending and below `k`
/// (wire::check_tile_indices): the AMX gather reads A's kept columns in
/// bitmask order.
std::vector<AmxTile> pack_amx_tiles(const std::vector<QuantMaskedTile>& tiles,
                                    std::size_t k);

/// The int8 unit quant_tw_gemm runs on under the current dispatch, for
/// weights packed with pack_amx_tiles: "amx", "avx2" or "scalar".
const char* quant_tw_unit() noexcept;

/// C += A * W for TW-pruned int8 weights, the QuantTwWeight backend's
/// kernel.  A is quantised internally (dynamic per-row scales);
/// accumulation is int32 per tile, scaled to float on store.  Parallel
/// across tiles, which must write disjoint output columns.  C is M x N.
/// A row's scale and products depend on that row alone, so a row range
/// of A quantises and computes only its own rows, bit for bit.  Runs
/// the AMX body when the active level is kAvx2, the host has AMX-INT8
/// and `amx` holds one packed tile per tile; otherwise the AVX2 or
/// scalar body, with the same bits.
void quant_tw_gemm(const MatrixF& a, const std::vector<QuantMaskedTile>& tiles,
                   const std::vector<AmxTile>& amx, MatrixF& c);

/// Dense K x N reconstruction of quantised tiles (dequantised values,
/// zeros where pruned) — what the int8 kernel arithmetically executes.
MatrixF quant_tiles_to_dense(const std::vector<QuantMaskedTile>& tiles,
                             std::size_t k, std::size_t n);

}  // namespace tilesparse
