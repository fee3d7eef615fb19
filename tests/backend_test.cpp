// Conformance suite for the unified weight-execution API: every
// registered PackedWeight format must compute the same logical
// C = alpha * A * W + beta * C, where W is whatever to_dense()
// reconstructs (the packed representation is ground truth).  fp32
// formats must match the dense reference within 1e-4; the int8 format
// is held to its quantisation error instead.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>

#include "exec/backend_registry.hpp"
#include "exec/planner.hpp"
#include "gemm/dense_gemm.hpp"
#include "gemm/micro_kernel.hpp"
#include "nn/bert_mini.hpp"
#include "nn/nmt_mini.hpp"
#include "nn/prune_experiment.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workload/datasets.hpp"

#include "simd_levels.hpp"

namespace tilesparse {
namespace {

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Packs `w` under `format`, supplying a TW pattern (sparsity 0.6)
/// where the format requires one.
std::unique_ptr<PackedWeight> pack_for_test(const std::string& format,
                                            const MatrixF& w, std::size_t g,
                                            double sparsity = 0.6) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, sparsity, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  options.tew_delta = 0.05;
  return make_packed(format, w, options);
}

// ------------------------------------------------------------ conformance

struct ConformanceCase {
  std::size_t m, k, n, g;
  const char* label;
};

class BackendConformance
    : public ::testing::TestWithParam<std::tuple<std::string, ConformanceCase>> {
};

TEST_P(BackendConformance, MatmulMatchesOwnDenseReconstruction) {
  const auto& [format, shape] = GetParam();
  const MatrixF w = random_matrix(shape.k, shape.n, 7 + shape.k);
  const MatrixF a = random_matrix(shape.m, shape.k, 11 + shape.m);

  const auto packed = pack_for_test(format, w, shape.g);
  ASSERT_NE(packed, nullptr);
  EXPECT_EQ(packed->format(), format);
  EXPECT_EQ(packed->k(), shape.k);
  EXPECT_EQ(packed->n(), shape.n);
  EXPECT_GT(packed->bytes(), 0u);
  EXPECT_GT(packed->macs(shape.m), 0.0);

  const MatrixF dense = packed->to_dense();
  ASSERT_EQ(dense.rows(), shape.k);
  ASSERT_EQ(dense.cols(), shape.n);
  const MatrixF ref = matmul_reference(a, dense);
  const MatrixF c = packed->matmul(ExecContext{}, a);

  if (format == "tw-int8") {
    // int8 executes with dynamically quantised activations; error bound
    // is the activation quantisation step times the reduction depth.
    const double denom = frobenius_norm(ref) + 1e-6;
    EXPECT_LT(max_abs_diff(c, ref) / denom * std::sqrt(ref.size()), 0.15)
        << format << " " << shape.label;
  } else {
    EXPECT_LT(max_abs_diff(c, ref), 1e-4f) << format << " " << shape.label;
  }
}

TEST_P(BackendConformance, AlphaBetaSemantics) {
  const auto& [format, shape] = GetParam();
  const MatrixF w = random_matrix(shape.k, shape.n, 17 + shape.k);
  const MatrixF a = random_matrix(shape.m, shape.k, 19 + shape.m);
  const auto packed = pack_for_test(format, w, shape.g);

  MatrixF c = random_matrix(shape.m, shape.n, 23);
  const MatrixF c0 = c;
  ExecContext ctx;
  ctx.alpha = 2.0f;
  ctx.beta = 0.5f;
  packed->matmul(ctx, a, c);

  // Self-consistency first: alpha/beta plumbing must scale exactly what
  // the backend's own plain product computes — valid for every format
  // including int8, whose accumulate is deterministic per input.
  const MatrixF plain = packed->matmul(ExecContext{}, a);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], 2.0f * plain.data()[i] + 0.5f * c0.data()[i],
                1e-4f)
        << format << " " << shape.label;
  }

  if (format == "tw-int8") return;  // vs-reference covered with quant tolerance
  const MatrixF ab = matmul_reference(a, packed->to_dense());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], 2.0f * ab.data()[i] + 0.5f * c0.data()[i], 1e-3f)
        << format << " " << shape.label;
  }
}

TEST_P(BackendConformance, Fp16ActivationsStayClose) {
  const auto& [format, shape] = GetParam();
  const MatrixF w = random_matrix(shape.k, shape.n, 29 + shape.k);
  const MatrixF a = random_matrix(shape.m, shape.k, 31 + shape.m);
  const auto packed = pack_for_test(format, w, shape.g);

  ExecContext fp16;
  fp16.numerics = Numerics::kFp16;
  const MatrixF c16 = packed->matmul(fp16, a);
  const MatrixF c32 = packed->matmul(ExecContext{}, a);
  // fp16 inputs, fp32 accumulate: relative error ~2^-11 per operand.
  const float scale = static_cast<float>(shape.k);
  EXPECT_LT(max_abs_diff(c16, c32), 0.01f * scale) << format << " "
                                                   << shape.label;
  // tw-int8 quantises each activation row to int8 itself, a step with
  // no binary16 rounding in it, so fp16 must not change one bit.
  if (format == "tw-int8") {
    EXPECT_TRUE(bit_identical(c16, c32)) << shape.label;
  }
}

constexpr ConformanceCase kCases[] = {
    {8, 64, 96, 16, "divisible"},
    {7, 50, 70, 16, "K,N not divisible by G"},
    {1, 48, 32, 16, "1-row A"},
    {5, 16, 16, 16, "single tile"},
    {16, 96, 128, 32, "wider"},
};

INSTANTIATE_TEST_SUITE_P(
    AllFormats, BackendConformance,
    ::testing::Combine(::testing::Values("dense", "tw", "tew", "csr",
                                         "tw-int8"),
                       ::testing::ValuesIn(kCases)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::to_string(std::get<1>(info.param).k) + "x" +
                         std::to_string(std::get<1>(info.param).n) + "m" +
                         std::to_string(std::get<1>(info.param).m);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(BackendConformance, CoversEveryRegisteredFormat) {
  // The parameterized suite hard-codes the format list; fail loudly if
  // someone registers a sixth built-in without extending coverage.
  EXPECT_EQ(registered_formats(),
            (std::vector<std::string>{"csr", "dense", "tew", "tw", "tw-int8"}));
}

// --------------------------------------------------------- edge patterns

TEST(BackendEdge, FullyPrunedTilesExecuteAsZeroColumns) {
  // Hand-build a pattern whose middle tile keeps no rows at all.
  const std::size_t k = 32, n = 48, g = 16;
  std::vector<std::uint8_t> col_keep(n, 1);
  TilePattern pattern = reorganize_columns(k, n, g, col_keep);
  ASSERT_EQ(pattern.tiles.size(), 3u);
  std::fill(pattern.tiles[1].row_keep.begin(), pattern.tiles[1].row_keep.end(),
            std::uint8_t{0});
  validate_pattern(pattern);

  const MatrixF w = random_matrix(k, n, 41);
  const MatrixF a = random_matrix(4, k, 43);
  for (const std::string format : {"tw", "tw-int8"}) {
    PackOptions options;
    options.pattern = &pattern;
    const auto packed = make_packed(format, w, options);
    const MatrixF c = packed->matmul(ExecContext{}, a);
    // Columns owned by the dead tile must be exactly zero.
    for (std::size_t r = 0; r < c.rows(); ++r)
      for (std::int32_t col : pattern.tiles[1].out_cols)
        EXPECT_EQ(c(r, static_cast<std::size_t>(col)), 0.0f) << format;
    const MatrixF ref = matmul_reference(a, packed->to_dense());
    if (format == "tw") {
      EXPECT_LT(max_abs_diff(c, ref), 1e-4f);
    }
  }
}

TEST(BackendEdge, FullyPrunedMatrixYieldsZeroOutput) {
  const std::size_t k = 24, n = 32;
  MatrixF w(k, n);  // all-zero weights
  const TilePattern pattern =
      tw_pattern_from_scores(random_matrix(k, n, 47), 0.99, 8);
  MatrixF pruned = w;
  PackOptions options;
  options.pattern = &pattern;
  const auto packed = make_packed("tw", pruned, options);
  const MatrixF a = random_matrix(3, k, 53);
  const MatrixF c = packed->matmul(ExecContext{}, a);
  for (float v : c.flat()) EXPECT_EQ(v, 0.0f);
}

// ------------------------------------------------------------- registry

TEST(BackendRegistry, UnknownFormatThrows) {
  const MatrixF w = random_matrix(8, 8, 67);
  EXPECT_THROW(make_packed("no-such-format", w), std::out_of_range);
}

TEST(BackendRegistry, TwFamilyRequiresPattern) {
  const MatrixF w = random_matrix(16, 16, 71);
  for (const char* format : {"tw", "tew", "tw-int8"})
    EXPECT_THROW(make_packed(format, w), std::invalid_argument) << format;
  // Pattern-free formats pack without options.
  EXPECT_NO_THROW(make_packed("dense", w));
  EXPECT_NO_THROW(make_packed("csr", w));
}

TEST(BackendRegistry, CustomBackendPlugsIn) {
  register_backend("unit-dense",
                   [](const MatrixF& w, const PackOptions&) {
                     return make_packed("dense", w);
                   });
  EXPECT_TRUE(backend_registered("unit-dense"));
  const MatrixF w = random_matrix(8, 12, 73);
  const auto packed = make_packed("unit-dense", w);
  EXPECT_EQ(packed->format(), "dense");
  const MatrixF a = random_matrix(2, 8, 79);
  EXPECT_LT(max_abs_diff(packed->matmul(ExecContext{}, a),
                         matmul_reference(a, w)),
            1e-4f);
}

// -------------------------------------------------------------- planner

TEST(Planner, DenseWeightsChooseDense) {
  const MatrixF w = random_matrix(64, 64, 83);
  const auto ranked = rank_formats(w, nullptr);
  EXPECT_EQ(ranked.front().format, "dense");
}

TEST(Planner, ModerateTwSparsityChoosesTw) {
  MatrixF w = random_matrix(64, 96, 89);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.75, 16);
  apply_pattern(pattern, w);
  const auto ranked = rank_formats(w, &pattern);
  EXPECT_EQ(ranked.front().format, "tw");
  // CSR at 75% must still lose to TW (the gather/scatter penalty — the
  // paper's core efficiency argument).
  for (const auto& choice : ranked) {
    if (choice.format == "csr") {
      EXPECT_GT(choice.cost, ranked.front().cost);
    }
  }
}

TEST(Planner, ExtremeUnstructuredSparsityChoosesCsr) {
  Rng rng(97);
  MatrixF w(64, 96);
  // 1% dense, unstructured.
  for (float& v : w.flat())
    if (rng.uniform() < 0.01) v = rng.normal();
  const auto ranked = rank_formats(w, nullptr);
  EXPECT_EQ(ranked.front().format, "csr");
}

TEST(Planner, Int8OptInWinsWhenAllowed) {
  MatrixF w = random_matrix(64, 96, 101);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 16);
  apply_pattern(pattern, w);
  PlannerOptions options;
  options.allow_int8 = true;
  const auto ranked = rank_formats(w, &pattern, options);
  EXPECT_EQ(ranked.front().format, "tw-int8");
}

TEST(Planner, MeasuredCalibrationOverridesConstants) {
  // Same setup as Int8OptInWinsWhenAllowed: under the shipped defaults
  // tw-int8 ranks first.  A host whose measured int8 kernel is slower
  // than fp32 (int8_mac_discount > 1, as calibrate_planner observes on
  // AVX2 hosts where the FMA fp32 path is excellent) must flip the
  // ranking back to "tw" — the planner now believes measurements, not
  // guesses.
  MatrixF w = random_matrix(64, 96, 101);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.5, 16);
  apply_pattern(pattern, w);
  PlannerOptions options;
  options.allow_int8 = true;
  ASSERT_EQ(rank_formats(w, &pattern, options).front().format, "tw-int8");

  PlannerCalibration measured;
  measured.int8_mac_discount = 4.0;
  measured.dense_gflops = 40.0;
  options.calibration = &measured;
  const auto ranked = rank_formats(w, &pattern, options);
  EXPECT_EQ(ranked.front().format, "tw");

  // The same calibration installed process-wide applies without the
  // per-call override.
  set_planner_calibration(measured);
  options.calibration = nullptr;
  EXPECT_EQ(rank_formats(w, &pattern, options).front().format, "tw");
  set_planner_calibration(PlannerCalibration{});  // restore defaults
  EXPECT_EQ(rank_formats(w, &pattern, options).front().format, "tw-int8");
}

TEST(Planner, PackWeightBuildsTheWinner) {
  MatrixF w = random_matrix(48, 64, 103);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), 0.8, 16);
  apply_pattern(pattern, w);
  PackOptions pack;
  pack.pattern = &pattern;
  const auto packed = pack_weight(w, pack);
  EXPECT_EQ(packed->format(), rank_formats(w, &pattern).front().format);
  const MatrixF a = random_matrix(4, 48, 107);
  EXPECT_LT(max_abs_diff(packed->matmul(ExecContext{}, a),
                         matmul_reference(a, packed->to_dense())),
            1e-4f);
}

// -------------------------------------------- NN stack packed inference

TEST(PackedInference, TwPrunedBertMatchesDenseMaskedReference) {
  // Acceptance: a TW-pruned bert_mini forward pass through Linear-held
  // packed weights matches the dense-masked reference within 1e-4.
  BertMiniConfig config;
  config.layers = 1;
  TokenTeacherDataset data(64, config.seq, config.classes, config.dim, 109);
  BertMini model(config, data.embedding());

  // Prune every prunable weight to 50% TW in place.
  std::vector<Param*> weights = model.prunable_weights();
  std::vector<TilePattern> patterns;
  for (Param* p : weights) {
    const TilePattern pattern =
        tw_pattern_from_scores(magnitude_scores(p->value), 0.5, 16);
    apply_pattern(pattern, p->value);
    patterns.push_back(pattern);
  }

  Rng rng(113);
  const TokenBatch batch = data.sample(8, rng);
  const MatrixF dense_logits = model.forward(batch);  // dense-masked ref

  model.pack_weights("tw", &patterns);
  const MatrixF packed_logits = model.forward(batch);
  EXPECT_LT(max_abs_diff(packed_logits, dense_logits), 1e-4f);

  // Every other fp32 format serves the same model.  ("tew" packed from
  // already-zeroed weights has an empty remainder — equivalent to "tw";
  // see PackOptions.scores — which is exactly why it must still match.)
  for (const std::string format : {"tew", "csr", "dense"}) {
    model.pack_weights(format, &patterns);
    const MatrixF logits = model.forward(batch);
    EXPECT_LT(max_abs_diff(logits, dense_logits), 1e-3f) << format;
  }

  model.clear_packed_weights();
  const MatrixF back = model.forward(batch);
  EXPECT_LT(max_abs_diff(back, dense_logits), 1e-6f);
}

TEST(PackedInference, NmtLstmRunsPacked) {
  NmtMiniConfig config;
  NmtMini model(config);

  std::vector<Param*> weights = model.prunable_weights();
  ASSERT_EQ(weights.size(), 5u);
  std::vector<TilePattern> patterns;
  for (Param* p : weights) {
    const TilePattern pattern =
        tw_pattern_from_scores(magnitude_scores(p->value), 0.4, 8);
    apply_pattern(pattern, p->value);
    patterns.push_back(pattern);
  }

  ReverseDataset data(config.vocab, config.seq, 127);
  Rng rng(131);
  const Seq2SeqBatch batch = data.sample(4, rng);
  const MatrixF dense_logits = model.forward(batch);

  model.pack_weights("tw", &patterns);
  const MatrixF packed_logits = model.forward(batch);
  EXPECT_LT(max_abs_diff(packed_logits, dense_logits), 1e-4f);
  model.clear_packed_weights();
}

TEST(PackedInference, EvaluateWithFormatRoundTrips) {
  auto task = make_bert_cls_task(/*pretrain_steps=*/20, 137);
  const double dense_metric = task->evaluate();
  // Dense packing changes nothing about the math.
  const double packed_metric = evaluate_with_format(*task, "dense");
  EXPECT_NEAR(packed_metric, dense_metric, 1e-9);
  // And the task is back on the dense path afterwards.
  EXPECT_NEAR(task->evaluate(), dense_metric, 1e-9);
}

TEST(PackedInference, ServesFromDeploymentArtifact) {
  // The deployment story end-to-end: pack → one artifact file → serve.
  // Serving from the artifact must reproduce serving from the in-memory
  // packed objects exactly (nothing is re-packed or re-quantised).
  auto task = make_bert_cls_task(/*pretrain_steps=*/20, 139);

  std::vector<TilePattern> patterns;
  for (Param* p : task->prunable()) {
    const TilePattern pattern =
        tw_pattern_from_scores(magnitude_scores(p->value), 0.5, 16);
    apply_pattern(pattern, p->value);
    patterns.push_back(pattern);
  }

  const std::string path = "/tmp/tilesparse_task_artifact_test.bin";
  for (const std::string format : {"tw", "tw-int8"}) {
    export_packed_weights(*task, format, &patterns, path);
    const double packed_metric = evaluate_with_format(*task, format, &patterns);
    const double artifact_metric = evaluate_from_artifact(*task, path);
    EXPECT_NEAR(artifact_metric, packed_metric, 1e-12) << format;
  }
  std::remove(path.c_str());

  // A task without a layer-level packed path refuses cleanly.
  auto nmt = make_nmt_task(/*pretrain_steps=*/1, 141);
  EXPECT_THROW(export_packed_weights(*nmt, "dense", nullptr, path),
               std::logic_error);
  EXPECT_THROW(evaluate_from_artifact(*nmt, path), std::logic_error);
}

// ------------------------------------------------------ micro-kernel core
//
// Every PackedWeight path now funnels into gemm/micro_kernel.hpp; this
// group pins each kernel variant (scalar fallback vs SIMD, fp32 vs
// int8) against a naive triple-loop reference at ragged shapes, and the
// masked path's alpha/beta plumbing at shapes that are not multiples of
// the register tile.

class MicroKernel : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(MicroKernel, DenseGemmMatchesReferenceAtRaggedShapes) {
  ScopedSimdLevel scoped(GetParam());
  // M, K, N deliberately not multiples of the 6x16 tile (plus the
  // degenerate and exactly-divisible corners).
  const ConformanceCase shapes[] = {
      {1, 1, 1, 0, "unit"},         {3, 5, 7, 0, "tiny ragged"},
      {6, 16, 32, 0, "divisible"},  {7, 17, 33, 0, "one past the tile"},
      {13, 41, 19, 0, "ragged"},    {5, 300, 11, 0, "deep K, narrow N"},
      {64, 64, 64, 0, "square"},
  };
  for (const auto& shape : shapes) {
    const MatrixF a = random_matrix(shape.m, shape.k, 7 + shape.m);
    const MatrixF b = random_matrix(shape.k, shape.n, 11 + shape.n);
    const MatrixF ref = matmul_reference(a, b);
    const MatrixF c = matmul(a, b);
    EXPECT_LT(max_abs_diff(c, ref), 1e-4f)
        << shape.label << " under " << simd_level_name(GetParam());
  }
}

TEST_P(MicroKernel, RawF32KernelMatchesNaivePanels) {
  ScopedSimdLevel scoped(GetParam());
  Rng rng(41);
  for (std::size_t rows : {std::size_t{1}, std::size_t{4}, kMr}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{9}, kNr}) {
      for (std::size_t kc : {std::size_t{1}, std::size_t{5}, std::size_t{37}}) {
        MatrixF a(rows, kc), b(kc, cols);
        fill_normal(a, rng);
        fill_normal(b, rng);
        std::vector<float> a_panel(kc * kMr), b_panel(kc * kNr);
        pack_a_panel_f32(a.data(), kc, rows, kc, /*alpha=*/1.0f,
                         /*fp16_inputs=*/false, a_panel.data());
        pack_b_panel_f32(b.data(), cols, kc, cols, b_panel.data());

        MatrixF c = random_matrix(rows, cols, 5 * kc + cols);
        MatrixF ref = c;
        micro_kernel_f32(kc, a_panel.data(), b_panel.data(), c.data(), cols,
                         rows, cols);
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t j = 0; j < cols; ++j)
            for (std::size_t t = 0; t < kc; ++t) ref(r, j) += a(r, t) * b(t, j);
        EXPECT_LT(max_abs_diff(c, ref), 1e-4f)
            << rows << "x" << cols << "x" << kc << " under "
            << simd_level_name(GetParam());
      }
    }
  }
}

TEST_P(MicroKernel, Int8KernelIsExactWithPowerOfTwoScale) {
  ScopedSimdLevel scoped(GetParam());
  Rng rng(43);
  // Power-of-two dequant scale: the int32 accumulation is exact and the
  // float scaling is too, so scalar, SIMD and the naive loop must agree
  // bit-for-bit.
  const float scale = 0.03125f;
  for (std::size_t rows : {std::size_t{1}, std::size_t{3}, kMr}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{7}, kNr}) {
      for (std::size_t kc : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                             std::size_t{64}}) {
        std::vector<std::int8_t> a(rows * kc), b(kc * cols);
        for (auto& v : a)
          v = static_cast<std::int8_t>(rng.uniform(-127.0f, 127.0f));
        for (auto& v : b)
          v = static_cast<std::int8_t>(rng.uniform(-127.0f, 127.0f));
        const std::size_t kc_even = round_up_pair(kc);
        std::vector<std::int8_t> a_panel(kc_even * kMr), b_panel(kc_even * kNr);
        std::vector<std::int32_t> identity(kc);
        std::iota(identity.begin(), identity.end(), 0);
        pack_a_panel_gather_i8(a.data(), kc, rows, identity.data(), kc,
                               a_panel.data());
        pack_b_panel_i8(b.data(), cols, kc, cols, b_panel.data());

        MatrixF c(rows, cols);
        micro_kernel_i8(kc, a_panel.data(), b_panel.data(), scale, c.data(),
                        cols, rows, cols);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t j = 0; j < cols; ++j) {
            std::int32_t acc = 0;
            for (std::size_t t = 0; t < kc; ++t)
              acc += static_cast<std::int32_t>(a[r * kc + t]) *
                     static_cast<std::int32_t>(b[t * cols + j]);
            EXPECT_EQ(c(r, j), scale * static_cast<float>(acc))
                << rows << "x" << cols << "x" << kc << " under "
                << simd_level_name(GetParam());
          }
        }
      }
    }
  }
}

TEST_P(MicroKernel, MaskedPathAlphaBetaEdgeCases) {
  ScopedSimdLevel scoped(GetParam());
  // Ragged shape: none of M, K, N are multiples of the register tile.
  const std::size_t m = 13, k = 50, n = 70;
  const MatrixF w = random_matrix(k, n, 61);
  const MatrixF a = random_matrix(m, k, 67);
  const auto packed = pack_for_test("tw", w, /*g=*/16);
  const MatrixF ab = matmul_reference(a, packed->to_dense());

  const float combos[][2] = {
      {0.0f, 0.0f}, {0.0f, 2.0f}, {1.0f, 0.0f},
      {1.0f, 1.0f}, {2.0f, 0.5f}, {-0.5f, -1.0f},
  };
  for (const auto& combo : combos) {
    ExecContext ctx;
    ctx.alpha = combo[0];
    ctx.beta = combo[1];
    MatrixF c = random_matrix(m, n, 71);
    const MatrixF c0 = c;
    packed->matmul(ctx, a, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c.data()[i],
                  combo[0] * ab.data()[i] + combo[1] * c0.data()[i], 1e-3f)
          << "alpha=" << combo[0] << " beta=" << combo[1] << " under "
          << simd_level_name(GetParam());
    }
  }
}

TEST(MicroKernel, ScalarAndSimdPathsAgree) {
  const MatrixF a = random_matrix(37, 129, 73);
  const MatrixF b = random_matrix(129, 83, 79);
  MatrixF c_scalar, c_simd;
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    c_scalar = matmul(a, b);
  }
  {
    ScopedSimdLevel scoped(detected_simd_level());
    c_simd = matmul(a, b);
  }
  // Identical math modulo FMA contraction differences.
  EXPECT_LT(max_abs_diff(c_scalar, c_simd), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Dispatch, MicroKernel,
                         ::testing::ValuesIn(testable_simd_levels()),
                         [](const auto& info) {
                           return std::string(simd_level_name(info.param));
                         });

}  // namespace
}  // namespace tilesparse
