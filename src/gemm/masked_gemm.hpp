#pragma once
// The TW execution kernel — CPU analogue of Listing 1 in the paper.
//
// A tile-wise-pruned weight tile is stored *compacted*: pruned rows and
// columns are physically removed offline (paper Fig. 7, pre-process).
// Two mask vectors say which original K-rows survived (mask_k, drives
// which columns of A are loaded) and which original N-columns survived
// (out_cols, drives where C columns are stored).
//
// Two variants reproduce the paper's memory-coalescing ablation:
//  * gather variant: reads A with a strided/indexed access per element —
//    the "naive tiling, uncoalesced" path of Fig. 7-1;
//  * packed variant: first gathers the masked A columns into a dense
//    panel, then runs the regular micro-kernel — the "transposed,
//    coalesced" path of Fig. 7-2.

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/matrix.hpp"

namespace tilesparse {

/// One compacted weight tile plus its masks.
struct MaskedTile {
  MatrixF weights;                 ///< K_t x W_t compacted tile (rows kept x cols kept)
  std::vector<std::int32_t> kept_rows;  ///< original k indices, size K_t, ascending
  std::vector<std::int32_t> out_cols;   ///< original n indices, size W_t, ascending
};

/// C[:, tile.out_cols] += A[:, tile.kept_rows] * tile.weights,
/// gathering A elements one-by-one (uncoalesced analogue).
void masked_gemm_gather(const MatrixF& a, const MaskedTile& tile, MatrixF& c);

/// Pre-packed B panels for one MaskedTile, in exactly the per-(K-block,
/// strip) layout masked_gemm_packed consumes.  Built once at pack (or
/// load) time; the layout depends only on the tile shape, so one
/// prepack serves every batch size and numerics mode (fp16 rounds the
/// A panels inside the kernel, weights are pre-rounded by the caller).
/// MatrixF storage is 64-byte aligned, so every kNr-float panel row is
/// one cache line; column ranges read these panels in place.
struct TilePanels {
  MatrixF b;  ///< kt x round_up(wt, kNr) floats, in panel order
};

/// Packs `tile.weights` into the panel layout above.
TilePanels prepack_tile_panels(const MaskedTile& tile);

/// Same computation, but packs the masked A panel first (coalesced
/// analogue) and runs the micro-kernel on `panels`, the tile's
/// prepack_tile_panels.  `fp16_inputs` rounds the packed A panel
/// through binary16; pre-round the tile weights with
/// round_matrix_to_half for full tensor-core numerics.
///
/// C may hold a column range of the output: it receives original
/// columns [n0, n0 + c.cols()).  Only the tile's compacted columns in
/// that range are computed (the kNr strips covering them) and
/// scattered; the K-blocking comes from kept_rows alone and a lane's
/// arithmetic never depends on its strip, so a range is bit-identical
/// to the same columns of the whole product.
void masked_gemm_packed(const MatrixF& a, const MaskedTile& tile,
                        const TilePanels& panels, MatrixF& c,
                        bool fp16_inputs = false, std::size_t n0 = 0);

/// Executes a whole set of tiles (one TW-pruned weight matrix) against a
/// shared A, packed variant, parallel across tiles.  C holds original
/// columns [n0, n0 + c.cols()) (M x N_original for the whole product).
/// `panels` parallels `tiles` 1:1 (prepack_all_tile_panels).  Tiles
/// must write disjoint output columns, as every pruned weight's do.
void masked_gemm_all(const MatrixF& a, const std::vector<MaskedTile>& tiles,
                     const std::vector<TilePanels>& panels, MatrixF& c,
                     bool fp16_inputs = false, std::size_t n0 = 0);

/// The compacted columns [j0, j1) of `out_cols` (ascending) that fall in
/// original columns [n0, n1): the part of a tile a column range runs.
std::pair<std::size_t, std::size_t> tile_col_range(
    const std::vector<std::int32_t>& out_cols, std::size_t n0, std::size_t n1);

/// Prepacks panels for every tile of a weight matrix.
std::vector<TilePanels> prepack_all_tile_panels(
    const std::vector<MaskedTile>& tiles);

/// Builds the dense K x N matrix a set of tiles represents (zeros where
/// pruned).  For testing: masked GEMM on tiles == dense GEMM on this.
MatrixF tiles_to_dense(const std::vector<MaskedTile>& tiles, std::size_t k,
                       std::size_t n);

}  // namespace tilesparse
