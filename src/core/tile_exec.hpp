#pragma once
// Execution planning for TW-pruned weight matrices: compaction into
// MaskedTiles, equal-width batching groups (paper Fig. 7-3) and the
// stream assignment used by the latency model (Fig. 7-4).

#include <cstddef>
#include <vector>

#include "core/tile_pattern.hpp"
#include "gemm/masked_gemm.hpp"

namespace tilesparse {

/// Compacts a dense K x N weight matrix under a TW pattern into
/// executable tiles (pruned rows/columns physically removed).  This is
/// the offline pre-processing step of Fig. 7.
std::vector<MaskedTile> compact_tiles(const MatrixF& weights,
                                      const TilePattern& pattern);

/// A group of tiles with identical width, executable as one batched GEMM.
struct BatchGroup {
  std::size_t width = 0;             ///< shared W_t
  std::vector<std::size_t> tile_ids; ///< indices into the pattern's tiles
  /// Kept-row counts of each member (K_t may differ inside a group; the
  /// kernel handles it with per-tile masks, the latency model sums work).
  std::vector<std::size_t> kept_rows;
};

/// Groups tiles by width, widest groups first.  Same-width tiles batch
/// into one launch; each distinct width becomes its own launch that the
/// stream scheduler may overlap.
std::vector<BatchGroup> build_batch_groups(const TilePattern& pattern);

}  // namespace tilesparse
