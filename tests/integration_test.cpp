// Cross-module integration: prune a weight matrix with the full TW
// pipeline, execute it on the CPU substrate, compare against dense GEMM
// on the pruned weights, and sanity-check the latency model against the
// *measured* CPU speedup trend (both must improve with sparsity).

#include <gtest/gtest.h>

#include "core/tew.hpp"
#include "core/tile_exec.hpp"
#include "exec/tew_weight.hpp"
#include "exec/tw_weight.hpp"
#include "gemm/dense_gemm.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "sim/gemm_model.hpp"
#include "sim/tw_model.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace tilesparse {
namespace {

TEST(Integration, PruneCompactExecuteMatchesDense) {
  Rng rng(1);
  MatrixF w(256, 384);
  fill_normal(w, rng);

  TwPruneOptions options;
  options.target_sparsity = 0.75;
  options.g = 64;
  options.stages = 3;
  const TilePattern pattern = tw_prune_single(w, options);
  validate_pattern(pattern);
  EXPECT_NEAR(pattern.sparsity(), 0.75, 0.06);

  // Compact the *pruned* weights: multi-stage patterns may re-admit
  // positions zeroed in earlier stages, so the original matrix is stale.
  const auto tiles = compact_tiles(w, pattern);
  MatrixF a(64, 256);
  fill_normal(a, rng);
  const MatrixF c_tw = TwWeight(tiles, 256, 384).matmul(ExecContext{}, a);
  const MatrixF c_dense = matmul(a, w);  // w holds the pruned weights
  EXPECT_LT(max_abs_diff(c_tw, c_dense), 1e-3f);
}

TEST(Integration, TewExecutionEqualsMaskedDense) {
  Rng rng(2);
  MatrixF w(128, 256);
  fill_normal(w, rng);
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.80, 32);
  const TewMatrix tew = build_tew(w, pattern, scores, 0.05);

  MatrixF a(32, 128);
  fill_normal(a, rng);
  const MatrixF c = TewWeight(tew).matmul(ExecContext{}, a);
  const MatrixF ref = matmul(a, tew_to_dense(tew));
  EXPECT_LT(max_abs_diff(c, ref), 1e-3f);
}

TEST(Integration, MeasuredCpuTimeDropsWithSparsity) {
  // The substrate must show real skipped work: TW-75% masked GEMM should
  // run measurably faster than TW-0%.
  Rng rng(3);
  const std::size_t m = 256, k = 768, n = 768;
  MatrixF a(m, k);
  fill_normal(a, rng);
  MatrixF scores(k, n);
  fill_uniform(scores, rng, 0.01f, 1.0f);
  MatrixF w(k, n);
  fill_normal(w, rng);

  auto time_at = [&](double sparsity_level) {
    const TilePattern p = tw_pattern_from_scores(scores, sparsity_level, 128);
    const auto tiles = compact_tiles(w, p);
    const auto panels = prepack_all_tile_panels(tiles);
    MatrixF c(m, n);
    return time_best_of(
        [&] {
          c.fill(0.0f);
          masked_gemm_all(a, tiles, panels, c);
        },
        3);
  };
  const double dense_time = time_at(0.0);
  const double sparse_time = time_at(0.75);
  EXPECT_LT(sparse_time, dense_time * 0.7);
}

TEST(Integration, ModelAndMeasurementAgreeOnTrend) {
  // Both the analytical model and the CPU substrate must rank
  // {0%, 50%, 90%} the same way.
  Rng rng(4);
  MatrixF scores(512, 512);
  fill_uniform(scores, rng, 0.01f, 1.0f);
  const DeviceModel dev = DeviceModel::v100();

  double prev_model = 1e30;
  for (double s : {0.0, 0.5, 0.9}) {
    const TilePattern p = tw_pattern_from_scores(scores, s, 64);
    const double model_time = tw_gemm_latency(dev, 128, p).seconds();
    EXPECT_LT(model_time, prev_model);
    prev_model = model_time;
  }
}

TEST(Integration, Fp16TwPathStaysAccurate) {
  Rng rng(5);
  MatrixF w(128, 128);
  fill_normal(w, rng, 0.0f, 0.1f);
  const TilePattern p =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 32);
  const auto tiles = compact_tiles(w, p);
  MatrixF a(16, 128);
  fill_normal(a, rng, 0.0f, 0.1f);
  ExecContext fp16;
  fp16.numerics = Numerics::kFp16;
  const MatrixF c16 = TwWeight(tiles, 128, 128).matmul(fp16, a);
  MatrixF pruned = w;
  apply_pattern(p, pruned);
  const MatrixF ref = matmul(a, pruned);
  EXPECT_LT(max_abs_diff(c16, ref), 0.02f);
}

}  // namespace
}  // namespace tilesparse
