#include <gtest/gtest.h>

#include "core/tew.hpp"
#include "exec/tew_weight.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

struct TewFixture {
  MatrixF weights = random_matrix(48, 64, 1);
  MatrixF scores = magnitude_scores(weights);
  TilePattern pattern = tw_pattern_from_scores(scores, 0.80, 16);
};

TEST(Tew, SparsityDropsByDelta) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 0.05);
  EXPECT_NEAR(tew.ew_fraction(), 0.05, 0.01);
  EXPECT_NEAR(tew.sparsity(), f.pattern.sparsity() - 0.05, 0.01);
}

TEST(Tew, RemainderOnlyHoldsPrunedPositions) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 0.03);
  const MatrixU8 tw_mask = pattern_to_mask(f.pattern);
  const MatrixF rest = csc_to_dense(tew.remainder);
  for (std::size_t r = 0; r < rest.rows(); ++r) {
    for (std::size_t c = 0; c < rest.cols(); ++c) {
      if (rest(r, c) != 0.0f) {
        EXPECT_EQ(tw_mask(r, c), 0);
      }
    }
  }
}

TEST(Tew, RestoresHighestScoreElements) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 0.02);
  const MatrixF rest = csc_to_dense(tew.remainder);
  // Every restored element's score must be >= every non-restored pruned
  // element's score (they were chosen by rank).
  const MatrixU8 tw_mask = pattern_to_mask(f.pattern);
  float min_restored = 1e30f;
  float max_skipped = -1e30f;
  for (std::size_t r = 0; r < rest.rows(); ++r) {
    for (std::size_t c = 0; c < rest.cols(); ++c) {
      if (tw_mask(r, c)) continue;
      if (rest(r, c) != 0.0f)
        min_restored = std::min(min_restored, f.scores(r, c));
      else
        max_skipped = std::max(max_skipped, f.scores(r, c));
    }
  }
  EXPECT_GE(min_restored, max_skipped);
}

TEST(Tew, MatmulIsExactlyTwPlusEw) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 0.04);
  const MatrixF a = random_matrix(9, 48, 2);
  const MatrixF c = TewWeight(tew).matmul(ExecContext{}, a);
  const MatrixF dense = tew_to_dense(tew);
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, dense)), 1e-3f);
}

TEST(Tew, ZeroDeltaEqualsPureTw) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 0.0);
  EXPECT_EQ(tew.remainder.nnz(), 0u);
  EXPECT_NEAR(tew.sparsity(), f.pattern.sparsity(), 1e-9);
}

TEST(Tew, DeltaLargerThanPrunedRestoresEverything) {
  TewFixture f;
  const TewMatrix tew = build_tew(f.weights, f.pattern, f.scores, 1.0);
  const MatrixF dense = tew_to_dense(tew);
  // All originally non-zero weights are back (TW part + full remainder).
  EXPECT_LT(max_abs_diff(dense, f.weights), 1e-6f);
}

}  // namespace
}  // namespace tilesparse
