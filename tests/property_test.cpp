// Parameterized property suites sweeping the main invariants across the
// configuration space: TW pattern validity/sparsity across granularities
// and splits, masked-GEMM correctness across random tile configurations,
// batch-group coverage, latency-model monotonicity across G, and the
// TEW sparsity identity across deltas.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/tew.hpp"
#include "core/tile_exec.hpp"
#include "exec/tw_weight.hpp"
#include "gemm/dense_gemm.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "sim/gemm_model.hpp"
#include "sim/tw_model.hpp"
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

// ---------------------------------------------------------- TW patterns

class TwPatternSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, double>> {};

TEST_P(TwPatternSweep, ValidAndOnTarget) {
  const auto [g, sparsity, split] = GetParam();
  const MatrixF w = random_matrix(96, 160, g * 1000 + 7);
  const TilePattern p =
      tw_pattern_from_scores(magnitude_scores(w), sparsity, g, split);
  validate_pattern(p);
  EXPECT_NEAR(p.sparsity(), sparsity, 0.07)
      << "g=" << g << " s=" << sparsity << " split=" << split;
  for (const auto& tile : p.tiles) EXPECT_LE(tile.width(), g);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TwPatternSweep,
    ::testing::Combine(::testing::Values(std::size_t{8}, std::size_t{16},
                                         std::size_t{32}, std::size_t{64}),
                       ::testing::Values(0.3, 0.6, 0.9),
                       ::testing::Values(0.25, 0.5, 0.75)));

TEST(TwPatternProperty, EveryColumnInExactlyOneTileOrPruned) {
  const MatrixF w = random_matrix(64, 100, 3);
  const TilePattern p = tw_pattern_from_scores(magnitude_scores(w), 0.5, 24);
  std::set<std::int32_t> seen;
  for (const auto& tile : p.tiles)
    for (auto c : tile.out_cols) EXPECT_TRUE(seen.insert(c).second);
  std::size_t kept = 0;
  for (auto k : p.col_keep) kept += k != 0;
  EXPECT_EQ(seen.size(), kept);
}

TEST(TwPatternProperty, SparsityMonotoneInTarget) {
  const MatrixF scores = magnitude_scores(random_matrix(80, 120, 4));
  double previous = -1.0;
  for (double s : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double achieved = tw_pattern_from_scores(scores, s, 16).sparsity();
    EXPECT_GT(achieved, previous);
    previous = achieved;
  }
}

// ------------------------------------------------------- masked GEMM

class MaskedGemmSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(MaskedGemmSweep, MatchesDenseOnPrunedWeights) {
  const auto [sparsity, g] = GetParam();
  MatrixF w = random_matrix(64, 96, 17);
  const TilePattern p =
      tw_pattern_from_scores(magnitude_scores(w), sparsity, g);
  apply_pattern(p, w);
  const auto tiles = compact_tiles(w, p);
  const MatrixF a = random_matrix(13, 64, 18);
  const MatrixF c = TwWeight(tiles, 64, 96).matmul(ExecContext{}, a);
  EXPECT_LT(max_abs_diff(c, matmul_reference(a, w)), 1e-3f)
      << "s=" << sparsity << " g=" << g;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MaskedGemmSweep,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 0.95),
                       ::testing::Values(std::size_t{8}, std::size_t{32})));

// ------------------------------------------------------- batch groups

TEST(BatchGroupProperty, CoversEveryTileExactlyOnce) {
  const MatrixF w = random_matrix(64, 144, 21);
  const TilePattern p = tw_pattern_from_scores(magnitude_scores(w), 0.4, 32);
  const auto groups = build_batch_groups(p);
  std::set<std::size_t> seen;
  for (const auto& group : groups) {
    ASSERT_EQ(group.tile_ids.size(), group.kept_rows.size());
    for (std::size_t id : group.tile_ids) {
      EXPECT_TRUE(seen.insert(id).second);
      EXPECT_EQ(p.tiles[id].width(), group.width);
    }
  }
  EXPECT_EQ(seen.size(), p.tiles.size());
}

TEST(BatchGroupProperty, WidthsStrictlyDecreasing) {
  const MatrixF w = random_matrix(32, 200, 22);
  const TilePattern p = tw_pattern_from_scores(magnitude_scores(w), 0.6, 48);
  const auto groups = build_batch_groups(p);
  for (std::size_t i = 1; i < groups.size(); ++i)
    EXPECT_LT(groups[i].width, groups[i - 1].width);
}

// --------------------------------------------------------- TEW identity

class TewDeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(TewDeltaSweep, SparsityIdentity) {
  const double delta = GetParam();
  const MatrixF w = random_matrix(64, 96, 31);
  const MatrixF scores = magnitude_scores(w);
  const TilePattern p = tw_pattern_from_scores(scores, 0.85, 16);
  const TewMatrix tew = build_tew(w, p, scores, delta);
  // achieved = tw_sparsity - restored fraction (exact identity).
  EXPECT_NEAR(tew.sparsity(), p.sparsity() - tew.ew_fraction(), 1e-9);
  EXPECT_LE(tew.ew_fraction(), delta + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Deltas, TewDeltaSweep,
                         ::testing::Values(0.0, 0.01, 0.025, 0.05, 0.1, 0.15));

// --------------------------------------------------------- latency model

class TwModelGranularitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TwModelGranularitySweep, MonotoneInSparsity) {
  const std::size_t g = GetParam();
  const DeviceModel dev = DeviceModel::v100();
  Rng rng(41);
  MatrixF scores(768, 3072);
  fill_uniform(scores, rng, 0.01f, 1.0f);
  double previous = 1e9;
  for (double s : {0.0, 0.3, 0.6, 0.9}) {
    const TilePattern p = tw_pattern_from_scores(scores, s, g);
    const double t = tw_gemm_latency(dev, 128, p).seconds();
    EXPECT_LE(t, previous * 1.02) << "g=" << g << " s=" << s;
    previous = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Gs, TwModelGranularitySweep,
                         ::testing::Values(std::size_t{32}, std::size_t{64},
                                           std::size_t{128}));

TEST(TwModelProperty, CountersConsistent) {
  const DeviceModel dev = DeviceModel::v100();
  Rng rng(42);
  MatrixF scores(256, 512);
  fill_uniform(scores, rng, 0.01f, 1.0f);
  const TilePattern p = tw_pattern_from_scores(scores, 0.5, 64);
  const auto r = tw_gemm_latency(dev, 64, p);
  // Useful flops must equal 2 * M * kept work of the pattern.
  EXPECT_NEAR(r.useful_flops, 2.0 * p.macs(64), 1e-3);
  EXPECT_GT(r.load_bytes, 0.0);
  EXPECT_GT(r.store_bytes, 0.0);
  EXPECT_GT(r.seconds(), 0.0);
}

TEST(DenseModelProperty, UtilizationNeverAboveOne) {
  const DeviceModel dev = DeviceModel::v100();
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    const auto m = 1 + rng.below(4096);
    const auto n = 1 + rng.below(4096);
    const double u = batch_utilization(dev, m, n, 1 + rng.below(16));
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(DenseModelProperty, LatencyPositiveForRandomShapes) {
  const DeviceModel dev = DeviceModel::v100();
  Rng rng(44);
  for (int i = 0; i < 50; ++i) {
    const GemmShape shape{1 + rng.below(2048), 1 + rng.below(4096),
                          1 + rng.below(4096)};
    for (Core core : {Core::kTensor, Core::kCuda}) {
      const auto r = dense_gemm_latency(dev, shape, core);
      EXPECT_GT(r.seconds(), 0.0);
      EXPECT_GE(r.compute_s, 0.0);
      EXPECT_GE(r.memory_s, 0.0);
    }
  }
}

}  // namespace
}  // namespace tilesparse
