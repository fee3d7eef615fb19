#include "core/tew.hpp"

#include <algorithm>
#include <cassert>

#include "core/tile_exec.hpp"

namespace tilesparse {

double TewMatrix::sparsity() const noexcept {
  const double total = static_cast<double>(k) * static_cast<double>(n);
  if (total == 0) return 0.0;
  const double kept =
      static_cast<double>(pattern.kept_elements() + remainder.nnz());
  return 1.0 - kept / total;
}

double TewMatrix::ew_fraction() const noexcept {
  const double total = static_cast<double>(k) * static_cast<double>(n);
  return total > 0 ? static_cast<double>(remainder.nnz()) / total : 0.0;
}

TewMatrix build_tew(const MatrixF& weights, const TilePattern& pattern,
                    const MatrixF& scores, double delta) {
  assert(weights.rows() == pattern.k && weights.cols() == pattern.n);
  assert(scores.rows() == pattern.k && scores.cols() == pattern.n);

  TewMatrix out;
  out.k = pattern.k;
  out.n = pattern.n;
  out.pattern = pattern;
  out.tiles = compact_tiles(weights, pattern);

  // Collect elements pruned by TW, ranked by score.
  const MatrixU8 mask = pattern_to_mask(pattern);
  struct Candidate {
    float score;
    std::uint32_t r, c;
  };
  std::vector<Candidate> candidates;
  for (std::size_t r = 0; r < pattern.k; ++r)
    for (std::size_t c = 0; c < pattern.n; ++c)
      if (!mask(r, c))
        candidates.push_back({scores(r, c), static_cast<std::uint32_t>(r),
                              static_cast<std::uint32_t>(c)});

  const auto restore_count = std::min(
      candidates.size(),
      static_cast<std::size_t>(delta * static_cast<double>(pattern.k) *
                               static_cast<double>(pattern.n)));
  std::partial_sort(candidates.begin(), candidates.begin() + restore_count,
                    candidates.end(), [](const Candidate& a, const Candidate& b) {
                      return a.score > b.score;
                    });

  MatrixF rest(pattern.k, pattern.n);
  for (std::size_t i = 0; i < restore_count; ++i)
    rest(candidates[i].r, candidates[i].c) =
        weights(candidates[i].r, candidates[i].c);
  out.remainder = csc_from_dense(rest);
  return out;
}

MatrixF tew_to_dense(const TewMatrix& w) {
  MatrixF dense = tiles_to_dense(w.tiles, w.k, w.n);
  const MatrixF ew = csc_to_dense(w.remainder);
  for (std::size_t i = 0; i < dense.size(); ++i)
    dense.data()[i] += ew.data()[i];
  return dense;
}

}  // namespace tilesparse
